"""Outside-in tracing of one catwords operation.

The tracer wraps each layer's public entry points from outside the
package; catwords itself is not edited.  Layers are the five modules:
cli, genfun, series, counting and words.

* A call from one layer into another opens a span: name, start, end and
  the enclosing span.  Only that outermost call into a layer gets a span.
* A call within the layer it already is in is counted, not spanned.  For
  counting and words these calls are not even seen: other layers reach
  them through proxy modules, so the recursions run unwrapped and their
  call counts come from the memo caches.  The series classes are patched
  in place, so their internal calls pass through a counting-only path.
* genfun is patched in place and times its nested calls too (without
  spans), so that builder, comparison and per-identity times exist.

Self time of a frame is its duration minus the time of the wrapped calls
it made.  A layer's self time is the sum over its frames, so the layer
self times of an operation add up to its root span, `cli.main`.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict
from fractions import Fraction

LAYERS = ("cli", "genfun", "series", "counting", "words")

# The memoized public recurrences, whose caches count their calls.
COUNTING_CACHED = ("a_desc", "a_zeros", "b_ones", "a_letter")
COUNTING_CLOSED = ("a_zeros_closed", "b_ones_closed", "coeff_C_power", "catalan_number",
                   "binomial")
IDENTITIES = ("l1", "l2", "co1", "co2", "co3", "co4", "th2", "th3", "th4",
              "cheb-det", "cheb-shift", "cheb-limit", "remark2")
SERIES_CLASSES = ("MultiSeries", "LaurentSeries")
# Series methods grouped under one span name; other methods keep their own.
_METHOD_NAMES = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__sub__": "add",
                 "__neg__": "neg", "__eq__": "eq"}


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _home(obj) -> str:
    return getattr(obj, "__wrapped__", obj).__module__.rpartition(".")[2]


class Tracer:
    """Frames, spans and counters of one traced operation."""

    def __init__(self):
        # frame: [name, layer, start, time in wrapped children, enclosing span id]
        self.stack = [["bench", "bench", 0.0, 0.0, 0]]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, busy)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.layer_self: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.erosion_max = 0
        self._next_id = 0
        self._modules: dict[str, types.ModuleType] = {}

    # -- wrappers -------------------------------------------------------

    def _new_span_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def wrap(self, fn, name: str, layer: str, *, timed_nested=False, post=None):
        """`fn` as an entry point of `layer`, recorded under `name`."""
        stack, calls, pc = self.stack, self.calls, time.perf_counter
        self_s, incl_s, layer_self, spans = self.self_s, self.incl_s, self.layer_self, self.spans

        def wrapper(*args, **kwargs):
            calls[name] += 1
            top = stack[-1]
            if top[1] == layer and not timed_nested:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(out)
                return out
            new_span = top[1] != layer
            frame = [name, layer, 0.0, 0.0, self._new_span_id() if new_span else top[4]]
            stack.append(frame)
            frame[2] = t0 = pc()
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(out)
            finally:
                t1 = pc()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[3]
                self_s[name] += own
                incl_s[name] += dur
                layer_self[layer] += own
                top[3] += dur
                if new_span:
                    spans.append((frame[4], top[4], name, t0, t1, dur))
            return out

        return functools.update_wrapper(wrapper, fn)

    def wrap_generator(self, fn, name: str, layer: str, count_key: str):
        """A generator entry point.  Its span's busy time is the time spent
        inside the generator; the consumer's work between items is not."""

        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            gen = fn(*args, **kwargs)
            if self.stack[-1][1] == layer:
                return gen
            return self._timed(gen, name, layer, count_key, self.stack[-1])

        return functools.update_wrapper(wrapper, fn)

    def _timed(self, gen, name, layer, count_key, parent):
        # The generator may call no other wrapped entry point: the stack
        # top while it runs is its consumer's frame.
        pc = time.perf_counter
        sid = self._new_span_id()
        busy = 0.0
        n = 0
        start = end = pc()
        try:
            while True:
                t0 = pc()
                try:
                    item = next(gen)
                except StopIteration:
                    end = pc()
                    busy += end - t0
                    return
                end = pc()
                busy += end - t0
                n += 1
                yield item
        finally:
            self.counts[count_key] += n
            self.self_s[name] += busy
            self.incl_s[name] += busy
            self.layer_self[layer] += busy
            parent[3] += busy
            self.spans.append((sid, parent[4], name, start, end, busy))

    # -- counters on results --------------------------------------------

    def _series_post(self, key: str | None):
        laurent = self._modules["series"].LaurentSeries
        counts = self.counts

        def post(out):
            if key is not None:
                coeffs = out.coeffs
                counts[key + ".terms_out"] += len(coeffs)
                if key == "series.mul":
                    counts["series.mul.fraction_out"] += sum(
                        1 for c in coeffs.values() if type(c) is Fraction
                    )
            if type(out) is laurent and out.ylim < 2 * out.caps.x:
                self.erosion_max = max(self.erosion_max, 2 * out.caps.x - out.ylim)

        return post

    def _tally_post(self, out):
        self.counts["words.words_yielded"] += sum(out.values())

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        """Wrap the entry points of every layer of `package` (catwords)."""
        mods = {layer: getattr(package, layer) for layer in LAYERS}
        self._modules = mods
        genfun = mods["genfun"]
        for name in genfun.__all__:
            obj = getattr(genfun, name)
            if _is_function(obj):
                setattr(genfun, name, self.wrap(obj, _genfun_name(name), "genfun",
                                                timed_nested=True))
        for cls_name in SERIES_CLASSES:
            self._patch_class(getattr(mods["series"], cls_name))
        proxies = {layer: self._proxy(mods[layer], layer) for layer in ("counting", "words")}
        for layer, mod in mods.items():
            for gname, obj in list(vars(mod).items()):
                if isinstance(obj, types.ModuleType):
                    target = obj.__name__.rpartition(".")[2]
                    if target in proxies and target != layer:
                        setattr(mod, gname, proxies[target])
                elif _is_function(obj) and not gname.startswith("_"):
                    home = _home(obj)
                    if home in LAYERS and home not in (layer, "genfun"):
                        setattr(mod, gname, self._entry(obj, home, gname))

    def _entry(self, fn, layer: str, name: str):
        if layer == "words" and name == "enumerate_words":
            return self.wrap_generator(fn, "words.enumerate_words", layer, "words.words_yielded")
        if layer == "words" and name == "tally":
            return self.wrap(fn, "words.tally", layer, post=self._tally_post)
        if layer == "series":
            return self.wrap(fn, f"series.{name}", layer, post=self._series_post(None))
        return self.wrap(fn, f"{layer}.{name}", layer)

    def _proxy(self, mod, layer: str) -> types.ModuleType:
        proxy = types.ModuleType(mod.__name__, mod.__doc__)
        proxy.__dict__.update(vars(mod))
        for name in mod.__all__:
            obj = getattr(mod, name)
            if _is_function(obj):
                setattr(proxy, name, self._entry(obj, layer, name))
        return proxy

    def _patch_class(self, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            short = _METHOD_NAMES.get(attr, attr)
            if attr.startswith("_") and attr not in _METHOD_NAMES:
                continue
            key = f"series.{short}" if short in ("mul", "invert") else None
            post = self._series_post(key)
            if isinstance(obj, classmethod):
                wrapped = self.wrap(obj.__func__, f"series.{short}", "series", post=post)
                setattr(cls, attr, classmethod(wrapped))
            elif isinstance(obj, types.FunctionType):
                setattr(cls, attr, self.wrap(obj, f"series.{short}", "series", post=post))

    # -- report ---------------------------------------------------------

    def report(self) -> dict:
        """Raw totals of the operation, plus its spans."""
        counting, series = self._modules["counting"], self._modules["series"]
        infos = [getattr(counting, f).cache_info() for f in COUNTING_CACHED]
        return {
            "layer_self": dict(self.layer_self),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "erosion_max": self.erosion_max,
            "counting_cache_entries": sum(i.currsize for i in infos),
            "counting_cache_hits": sum(i.hits for i in infos),
            "counting_cache_lookups": sum(i.hits + i.misses for i in infos),
            "cheb_u_cache_entries": series.cheb_u.cache_info().currsize,
            "spans": self.spans,
        }


def _genfun_name(name: str) -> str:
    if name.startswith("gf_"):
        return f"genfun.build.{name}"
    if name == "compare_series":
        return "genfun.compare"
    if name.startswith("check_"):
        return f"genfun.check.{name[6:].replace('_', '-')}"
    return f"genfun.{name}"
