#!/usr/bin/env python3
"""catwords benchmark: a closed loop of CLI operations, one at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `catwords` command run through `catwords.cli.main`
in a fresh interpreter (perfbench/child.py), so memo caches start cold,
as they do for a CLI user.  Operations run in rounds: each round runs
every operation kind of the workload once, in an order the seed shuffles.
A run keeps starting rounds until `--seconds` have passed; with tracing
off it also completes at least MIN_OPS operations, so that `op_tail_ref`
has ten samples above it.  Every output passes the correctness gate
(perfbench/gate.py) outside the timed region.

Operation times are reported in reference units: divided by the median
time, over the run, of a fixed pure-Python computation that every child
interpreter runs, before and after its operation (child.py).  On a shared
host the machine speed drifts by tens of percent between minutes; the
ratio cancels most of that drift.  The raw seconds go to stderr.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs each kind
once traced and once untraced per round and reports the per-layer
metrics; the spans of the traced operations are written to
perfbench/out/trace-<workload>-seed<seed>.json when the run ends.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a summary goes to stderr.  The exit
status is 2 when the catwords sources are missing, 1 when no operation
completed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gate as gate_mod  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 13  # op_tail_ref needs ten samples above it; 13 keeps it off the minimum
SETUP_PROBES = 5  # import-only interpreters per run, besides one per operation
OP_TIMEOUT_S = 60.0
LAST_ROUND_START_S = 120.0  # keeps a run well inside three minutes

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "units_per_ref": "1/ref",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics: name -> (unit, how one round's value is formed).
#   median: per kind, the median over its traced operations; summed over kinds
#   count:  per kind, a deterministic count (checked); summed over kinds
#   max:    the largest over kinds
#   ratio:  derived from other values of the round
_COUNTING_ENTRIES = ("a_desc", "a_zeros", "b_ones", "a_letter", "max_letter_count")
_SERIES_OPS = ("mul", "invert", "add", "substitute", "l_family")
PER_LAYER: dict[str, tuple[str, str]] = {
    "words.self_s": ("s", "median"),
    "words.tally.self_s": ("s", "median"),
    "words.words_yielded": ("count", "count"),
    "words.words_per_s": ("1/s", "ratio"),
    "counting.self_s": ("s", "median"),
    "counting.calls": ("count", "count"),
    "counting.cache_entries": ("count", "count"),
    "counting.cache_hit_ratio": ("ratio", "ratio"),
    **{f"counting.{f}.self_s": ("s", "median") for f in _COUNTING_ENTRIES},
    "counting.closed.self_s": ("s", "median"),
    "series.self_s": ("s", "median"),
    **{f"series.{o}.{m}": ("count", "count") if m == "calls" else ("s", "median")
       for o in _SERIES_OPS for m in ("calls", "self_s")},
    "series.mul.terms_out": ("count", "count"),
    "series.mul.fraction_out": ("count", "count"),
    "series.invert.terms_out": ("count", "count"),
    "series.cheb_u.cache_entries": ("count", "count"),
    "series.horizon_erosion_max": ("count", "max"),
    "genfun.self_s": ("s", "median"),
    "genfun.build.self_s": ("s", "median"),
    "genfun.compare.self_s": ("s", "median"),
    **{f"genfun.check.{i}.s": ("s", "median") for i in tracer_mod.IDENTITIES},
    "cli.self_s": ("s", "median"),
    "cli.bytes_out": ("count", "median"),  # verify prints its own timings
    "trace.op_s": ("s", "ratio"),
    "trace.overhead_ratio": ("ratio", "ratio"),
}
# Inputs of the ratios, aggregated like counts but not reported.
_RATIO_INPUTS = ("counting.cache_hits", "counting.cache_lookups")


@dataclass
class OpRecord:
    kind: str
    traced: bool
    op_s: float | None = None
    rss_mib: float | None = None
    units: int = 0
    error: str | None = None
    layer: dict = field(default_factory=dict)  # per-layer values when traced
    spans: list = field(default_factory=list)


def layer_values(rep: dict, bytes_out: int) -> dict[str, float]:
    """Per-layer values of one traced operation, from the tracer's report."""
    self_s, incl, calls, counts, lay = (
        rep["self_s"], rep["incl_s"], rep["calls"], rep["counts"], rep["layer_self"]
    )
    v: dict[str, float] = {
        "words.self_s": lay.get("words", 0.0),
        "words.tally.self_s": self_s.get("words.tally", 0.0),
        "words.words_yielded": counts.get("words.words_yielded", 0),
        "counting.self_s": lay.get("counting", 0.0),
        # every call of a memoized recurrence, nested ones included, plus
        # calls from other layers into the functions without a cache
        "counting.calls": rep["counting_cache_lookups"] + sum(
            n for name, n in calls.items()
            if name.startswith("counting.")
            and name.partition(".")[2] not in tracer_mod.COUNTING_CACHED
        ),
        "counting.cache_entries": rep["counting_cache_entries"],
        "counting.cache_hits": rep["counting_cache_hits"],
        "counting.cache_lookups": rep["counting_cache_lookups"],
        "counting.closed.self_s": sum(
            self_s.get(f"counting.{f}", 0.0) for f in tracer_mod.COUNTING_CLOSED
        ),
        "series.self_s": lay.get("series", 0.0),
        "series.mul.terms_out": counts.get("series.mul.terms_out", 0),
        "series.mul.fraction_out": counts.get("series.mul.fraction_out", 0),
        "series.invert.terms_out": counts.get("series.invert.terms_out", 0),
        "series.cheb_u.cache_entries": rep["cheb_u_cache_entries"],
        "series.horizon_erosion_max": rep["erosion_max"],
        "genfun.self_s": lay.get("genfun", 0.0),
        "genfun.build.self_s": sum(
            t for name, t in self_s.items() if name.startswith("genfun.build.")
        ),
        "genfun.compare.self_s": self_s.get("genfun.compare", 0.0),
        "cli.self_s": lay.get("cli", 0.0),
        "cli.bytes_out": bytes_out,
    }
    for f in _COUNTING_ENTRIES:
        v[f"counting.{f}.self_s"] = self_s.get(f"counting.{f}", 0.0)
    for o in _SERIES_OPS:
        v[f"series.{o}.calls"] = calls.get(f"series.{o}", 0)
        v[f"series.{o}.self_s"] = self_s.get(f"series.{o}", 0.0)
    for i in tracer_mod.IDENTITIES:
        v[f"genfun.check.{i}.s"] = incl.get(f"genfun.check.{i}", 0.0)
    return v


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, workload: workloads.Workload, seed: int, trace: bool, mutate=None):
        sys.path.insert(0, str(ROOT / "src"))
        from catwords import counting  # the gate's closed forms; also writes bytecode

        self.workload = workload
        self.trace = trace
        self.gate = gate_mod.Gate(counting)
        self.rng = random.Random(f"{workload.name}:{seed}")
        # One format per kind for the whole run, so traced counts repeat
        # exactly between runs with the same seed.
        self.formats = {
            op.kind: self.rng.choice(op.formats) if op.formats else None
            for op in workload.ops
        }
        self.mutate = mutate  # self-test hook: rewrites an output before the gate
        self.records: list[OpRecord] = []
        self.setups: list[float] = []
        self.refs: list[float] = []  # reference computation times, seconds
        OUT.mkdir(exist_ok=True)

    def _spawn(self, mode: str, argv: list[str]):
        """Run child.py; returns (spawn time, its result or None, stdout)."""
        result_path = OUT / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, "-I", str(HERE / "child.py"), str(result_path), mode, *argv]
        with open(OUT / "stdout", "wb") as out, open(OUT / "stderr", "wb") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                proc.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        result = None
        if proc.returncode == 0 and result_path.exists():
            result = json.loads(result_path.read_text())
        return t_spawn, result, (OUT / "stdout").read_bytes()

    def setup_probe(self) -> None:
        t_spawn, result, _ = self._spawn("setup", [])
        if result is not None:
            self.setups.append(result["t_imported"] - t_spawn)
            self.refs += result["ref_s"]

    def execute(self, op: workloads.Op, traced: bool) -> OpRecord:
        fmt = self.formats[op.kind]
        argv = list(op.argv) + (["--format", fmt] if fmt else [])
        t_spawn, result, data = self._spawn("1" if traced else "0", argv)
        rec = OpRecord(op.kind, traced)
        if result is None:
            rec.error = "operation process failed or timed out"
            return rec
        rec.op_s = result["op_s"]
        rec.rss_mib = result["rss_mib"]
        self.setups.append(result["t_imported"] - t_spawn)
        self.refs += result["ref_s"]
        if self.mutate is not None:
            data = self.mutate(op, data)
        try:
            facts = self.gate.check(op, fmt, result["rc"], data)
            rec.units = facts[op.unit]
        except gate_mod.Rejected as exc:
            rec.error = f"{op.kind}: {exc}"
        if traced:
            rec.layer = layer_values(result["trace"], len(data))
            rec.spans = result["trace"]["spans"]
        return rec

    def run(self, seconds: float) -> None:
        self._spawn("setup", [])  # unmeasured: writes the bytecode cache if missing
        for _ in range(SETUP_PROBES):
            self.setup_probe()
        start = time.perf_counter()
        while True:
            batch = [(op, False) for op in self.workload.ops]
            if self.trace:
                batch += [(op, True) for op in self.workload.ops]
            self.rng.shuffle(batch)
            for op, traced in batch:
                self.records.append(self.execute(op, traced))
            elapsed = time.perf_counter() - start
            untraced = sum(1 for r in self.records if not r.traced)
            if elapsed >= seconds and (self.trace or untraced >= MIN_OPS):
                break
            if elapsed >= LAST_ROUND_START_S:
                break

    # -- metrics --------------------------------------------------------

    def failures(self) -> list[str]:
        return [r.error for r in self.records if r.error is not None]

    def kind_median(self, traced: bool) -> float:
        """The mean over operation kinds of each kind's median time.

        Kinds of one workload differ in size, so a median over the pooled
        operations would jump between kinds from run to run; each kind
        weighs the same here.  With one kind this is the plain median."""
        medians = [
            statistics.median(times) for op in self.workload.ops
            if (times := [r.op_s for r in self.records
                          if r.kind == op.kind and r.traced == traced and r.op_s is not None])
        ]
        return sum(medians) / len(medians)

    def end_to_end(self) -> tuple[dict[str, float], dict]:
        timed = [r for r in self.records if not r.traced and r.op_s is not None]
        times = sorted(r.op_s for r in timed)
        n = len(times)
        tail_rank = max(n - 11, 0)  # ten samples above it, when n > 10
        ref_s = statistics.median(self.refs)
        seconds = {
            "op_p50_s": self.kind_median(traced=False),
            "op_tail_s": times[tail_rank],
            "units_per_s": sum(r.units for r in timed if r.error is None) / sum(times),
        }
        values = {
            "setup_s": statistics.median(self.setups),
            "op_p50_ref": seconds["op_p50_s"] / ref_s,
            "op_tail_ref": seconds["op_tail_s"] / ref_s,
            "units_per_ref": seconds["units_per_s"] * ref_s,
            "peak_rss_mib": max(r.rss_mib for r in timed),
        }
        info = {
            "seconds": seconds,
            "ref_s": ref_s,
            "ops": n,
            "tail_percentile": round(100.0 * (n - 10) / n, 1) if n > 10 else 100.0,
            "setup_samples": len(self.setups),
            "unit": self.workload.unit,
            "op_s": {op.kind: [r.op_s for r in timed if r.kind == op.kind]
                     for op in self.workload.ops},
        }
        return values, info

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        """One round's per-layer values, and any count that did not repeat."""
        kinds = [op.kind for op in self.workload.ops]
        by_kind = {k: [r for r in self.records if r.kind == k and r.traced and r.layer]
                   for k in kinds}
        unsteady = []
        values: dict[str, float] = {}
        names = [n for n, (_u, how) in PER_LAYER.items() if how != "ratio"]
        for name in [*names, *_RATIO_INPUTS]:
            how = PER_LAYER.get(name, ("count", "count"))[1]
            per_kind = []
            for kind, recs in by_kind.items():
                vals = [r.layer[name] for r in recs]
                if not vals:
                    continue
                if how != "median" and len(set(vals)) > 1:
                    unsteady.append(f"{name} on {kind}: {sorted(set(vals))}")
                per_kind.append(statistics.median(vals))
            values[name] = (max if how == "max" else sum)(per_kind) if per_kind else 0.0

        lookups = values.pop("counting.cache_lookups")
        hits = values.pop("counting.cache_hits")
        values["counting.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        words_s = values["words.self_s"]
        values["words.words_per_s"] = values["words.words_yielded"] / words_s if words_s else 0.0
        # per round, like the layer times: one operation of each kind
        values["trace.op_s"] = self.kind_median(traced=True) * len(kinds)
        values["trace.overhead_ratio"] = (
            self.kind_median(traced=True) / self.kind_median(traced=False)
        )
        return values, unsteady

    def write_trace(self, seed: int) -> Path:
        path = OUT / f"trace-{self.workload.name}-seed{seed}.json"
        ops = [{"kind": r.kind, "op_s": r.op_s, "spans": r.spans}
               for r in self.records if r.traced]
        with open(path, "w") as f:
            json.dump({"workload": self.workload.name, "seed": seed,
                       "span_fields": ["id", "parent", "name", "start", "end", "busy"],
                       "ops": ops}, f)
        return path


class NoResult(Exception):
    """No operation produced a time, so there are no metrics to report."""


def run(workload: str, seed: int, seconds: float, trace: bool, *, tiny=False, mutate=None):
    """Run one workload; returns (result line, summary lines)."""
    runner = Runner(workloads.build(tiny)[workload], seed, trace, mutate)
    runner.run(seconds)
    failures = runner.failures()
    for traced in {False, trace}:
        if not any(r.op_s is not None for r in runner.records if r.traced == traced):
            raise NoResult(f"no {'traced ' * traced}operation completed: {failures[:3]}")
    summary = [f"workload {workload} seed {seed} trace {int(trace)}: "
               f"{len(runner.records)} operations, {len(failures)} failed"]
    summary += [f"  failed: {e}" for e in failures[:5]]
    if trace:
        values, unsteady = runner.per_layer()
        units = {name: unit for name, (unit, _how) in PER_LAYER.items()}
        summary += [f"  count differs between operations of one kind: {u}" for u in unsteady]
        summary.append(f"  spans written to {runner.write_trace(seed).relative_to(ROOT)}")
    else:
        values, info = runner.end_to_end()
        units = END_TO_END
        summary.append(
            "  in seconds: " + ", ".join(f"{k} {v:.6g}" for k, v in info["seconds"].items())
            + f"; the reference took {info['ref_s']:.4f} s (median)\n"
            f"  op_tail is p{info['tail_percentile']} of {info['ops']} operations; "
            f"setup_s is the median of {info['setup_samples']} interpreters; "
            f"units count {info['unit']}; "
            f"fail_rate {len(failures)}/{len(runner.records)}"
        )
        summary.append("  op_s by kind: " + ", ".join(
            f"{k} " + " ".join(f"{t:.3f}" for t in ts) for k, ts in info["op_s"].items()))
    line = {
        "correct": not failures,
        "attempted": len(runner.records),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return line, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.build()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catwords" / "cli.py").is_file():
        print(f"error: catwords sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        line, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
