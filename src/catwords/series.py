"""Exact truncated formal power series in x, w, v, q, and the Chebyshev
polynomials the generating-function sums are built from.

A series is a sparse dict mapping a packed exponent key to an exact
coefficient (int, or Fraction when a division is not exact; integrality
of combinatorial coefficients is checked at extraction, not assumed in
between).  Packing the four exponents into a single integer keeps
multiplication inside dict/int fast paths, and is bit-exact: field widths
are validated against the caps so exponent sums can never carry.

Truncation contract: every operation returns caps that are the
componentwise minimum of its operands' caps, and never reports a
coefficient beyond them.  Querying past the caps raises instead of
returning a silently wrong zero.

Stored coefficients are always trimmed: each one is nonzero, lies inside
its series' caps, and is a Fraction only when it is not an integer.
Construction from outside data goes through _trim; every operation keeps
the invariant.  Addition and subtraction rely on it: they merge the two
stores without walking them again, and trim an operand only when its
caps reach past the result's.

Inversion is exact by construction.  After normalising by the constant
term, the x-free slice (terms in w, v, q only) is inverted by its finite
geometric series, which the w/v/q caps end; Newton steps
b <- b + b*(1 - a*b) then double the x order the inverse is exact
through until it covers the x cap, so an inversion costs O(log) products
rather than one product per x order.

cheb_u(j) is the Chebyshev value U_j at t = 1/(2y), y = sqrt(x), rescaled
by y^j into an integer polynomial in x with constant term 1, so the
Chebyshev sums need no Laurent arithmetic (see genfun).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Iterator

from .counting import ExactnessError, catalan_number

__all__ = [
    "Caps",
    "MultiSeries",
    "NonInvertibleError",
    "catalan_series",
    "cheb_u",
    "l_family",
    "l_closed",
]


class NonInvertibleError(ValueError):
    """The series has no inverse in the truncated ring."""


class ParityError(ValueError):
    """A Laurent series with odd powers of y cannot become an x series."""


# Packed key layout (low to high): q:12 | v:12 | w:12 | y:rest.
# The y field stores the exponent of y = sqrt(x), offset to stay positive;
# an x exponent n sits at y exponent 2n.
_FIELD = 0xFFF
_VSHIFT = 12
_WSHIFT = 24
_YSHIFT = 36
_YOFF = 1 << 18
_BASE = _YOFF << _YSHIFT
_ZERO = _BASE

# Caps are bounded so that sums of two in-cap exponents cannot overflow a
# field (2 * 2000 < 4096) and y stays far from the offset.
_MAXCAP = 2000
_MAXY = 1 << 16

Coeff = int | Fraction


def _pack(ey: int, ew: int, ev: int, eq: int) -> int:
    return ((ey + _YOFF) << _YSHIFT) | (ew << _WSHIFT) | (ev << _VSHIFT) | eq


def _unpack(key: int) -> tuple[int, int, int, int]:
    return (
        (key >> _YSHIFT) - _YOFF,
        (key >> _WSHIFT) & _FIELD,
        (key >> _VSHIFT) & _FIELD,
        key & _FIELD,
    )


def _trim(coeffs: dict[int, Coeff], caps4: tuple[int, int, int, int]) -> dict[int, Coeff]:
    """Drop monomials beyond the caps and zero coefficients; canonicalize
    integral Fractions back to int."""
    ylim = (caps4[0] + _YOFF + 1) << _YSHIFT
    return _fit((item for item in coeffs.items() if item[0] < ylim), caps4)


def _fit(items: Iterable[tuple[int, Coeff]], caps4: tuple[int, int, int, int]) -> dict[int, Coeff]:
    """_trim for terms already below the y cap: drop monomials beyond the
    w/v/q caps and zero coefficients; canonicalize integral Fractions back
    to int."""
    _, wcap, vcap, qcap = caps4
    out: dict[int, Coeff] = {}
    for k, c in items:
        if (
            not c
            or (k & _FIELD) > qcap
            or ((k >> _VSHIFT) & _FIELD) > vcap
            or ((k >> _WSHIFT) & _FIELD) > wcap
        ):
            continue
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        out[k] = c
    return out


def _merge(a: dict[int, Coeff], b: dict[int, Coeff], sign: int = 1) -> dict[int, Coeff]:
    """a + sign*b.  Zeros are dropped and integral Fractions become ints on
    the keys b touches, so two trimmed stores within the same caps merge
    into a trimmed store."""
    out = dict(a)
    for k, c in b.items():
        nc = out.get(k, 0) + (c if sign > 0 else -c)
        if not nc:
            out.pop(k, None)
        elif type(nc) is Fraction and nc.denominator == 1:
            out[k] = nc.numerator
        else:
            out[k] = nc
    return out


def _mul(
    a: dict[int, Coeff],
    b: dict[int, Coeff],
    caps4: tuple[int, int, int, int],
) -> dict[int, Coeff]:
    """Truncated product.  Keys sort by y first, so iterating the second
    factor in key order allows an early break once the y cap is passed;
    only the w/v/q caps are left for _fit."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    bitems = sorted(b.items())
    ylim = (caps4[0] + _YOFF + 1) << _YSHIFT
    out: dict[int, Coeff] = {}
    get = out.get
    for ka, ca in a.items():
        base = ka - _BASE
        kmax = ylim - base
        for kb, cb in bitems:
            if kb >= kmax:
                break
            kk = base + kb
            out[kk] = get(kk, 0) + ca * cb
    return _fit(out.items(), caps4)


def _scale(coeffs: dict[int, Coeff], c: Coeff) -> dict[int, Coeff]:
    if not c:
        return {}
    return {k: v * c for k, v in coeffs.items()}


def _div_coeff(a: Coeff, c: Coeff) -> Coeff:
    if c == 1:
        return a
    if c == -1:
        return -a
    f = Fraction(a) / Fraction(c)
    return f.numerator if f.denominator == 1 else f


def _invert(
    coeffs: dict[int, Coeff],
    caps4: tuple[int, int, int, int],
) -> dict[int, Coeff]:
    """Invert c*y^e*(1 + r) where the lowest y stratum must contain the
    pure monomial c*y^e.  caps4[0] is the y order the result must be exact
    through.

    With a = 1 + r = a0 + a1, where a0 is the y-free slice (terms in w, v,
    q only) and a1 starts at y order m, the inverse is built in two exact
    stages.  First b = 1/a0 by the finite geometric series: every term of
    a0 - 1 raises a w/v/q degree, so the caps end it.  Then a*b = 1 + a1*b
    agrees with 1 through y order m - 1, and each Newton step
    b <- b + b*(1 - a*b) doubles that precision (Brent & Kung, J. ACM
    1978), truncated to it, until it passes caps4[0].  The inverse in the
    truncated ring is unique, so the result equals the full geometric
    series term by term; _trim turns integral Fractions back into ints."""
    if not coeffs:
        raise NonInvertibleError("the zero series has no inverse")
    emin = min(k >> _YSHIFT for k in coeffs) - _YOFF
    unit_key = _pack(emin, 0, 0, 0)
    c = coeffs.get(unit_key)
    if not c:
        raise NonInvertibleError(
            "lowest-order term is not a unit (it carries w, v or q)"
        )
    ycap, wcap, vcap, qcap = caps4
    inner = (ycap + emin, wcap, vcap, qcap)
    if inner[0] < 0:
        raise NonInvertibleError("inverse lies entirely above the y cap")
    shift = emin << _YSHIFT
    # r = -(rest / (c * y^e)); every term raises y or a w/v/q degree.
    neg_r = _trim(
        {k - shift: _div_coeff(-v, c) for k, v in coeffs.items() if k != unit_key},
        inner,
    )
    y1 = _pack(1, 0, 0, 0)
    neg_r0 = {k: v for k, v in neg_r.items() if k < y1}
    b = {_ZERO: 1}
    power = neg_r0
    while power:
        b = _merge(b, power)
        power = _mul(power, neg_r0, inner)
    if len(neg_r0) < len(neg_r):
        a = _merge({_ZERO: 1}, neg_r, -1)
        # b is exact below prec, the lowest y order of a's other terms
        prec = (min(k for k in neg_r if k >= y1) >> _YSHIFT) - _YOFF
        while prec <= inner[0]:
            prec = min(2 * prec, inner[0] + 1)
            step = (prec - 1, wcap, vcap, qcap)
            err = _merge({_ZERO: 1}, _mul(a, b, step), -1)
            b = _merge(b, _mul(b, err, step))
    return _trim({k - shift: _div_coeff(val, c) for k, val in b.items()}, caps4)


@dataclass(frozen=True)
class Caps:
    """Per-variable truncation orders.  x is mandatory; w, v, q default to
    the x order at construction via :meth:`of`."""

    x: int
    w: int
    v: int
    q: int

    def __post_init__(self) -> None:
        for name in ("x", "w", "v", "q"):
            val = getattr(self, name)
            if val < 0:
                raise ValueError(f"cap {name} must be >= 0")
        if max(self.w, self.v, self.q) > _MAXCAP or self.x > _MAXY // 2:
            raise ValueError("cap exceeds the packed-field bound")

    @classmethod
    def of(cls, x: int, w: int | None = None, v: int | None = None, q: int | None = None) -> "Caps":
        return cls(x, x if w is None else w, x if v is None else v, x if q is None else q)

    def meet(self, other: "Caps") -> "Caps":
        return Caps(
            min(self.x, other.x),
            min(self.w, other.w),
            min(self.v, other.v),
            min(self.q, other.q),
        )

    @property
    def _y4(self) -> tuple[int, int, int, int]:
        return (2 * self.x, self.w, self.v, self.q)


def _coerce_coeff(c) -> Coeff:
    # Subclasses (bool, Fraction subclasses) become exact int or Fraction:
    # _trim canonicalizes Fractions by exact type.
    if isinstance(c, Fraction):
        return Fraction(c)
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficients must be int or Fraction, got {type(c).__name__}")


class MultiSeries:
    """Truncated power series in x, w, v, q over exact rationals."""

    __slots__ = ("coeffs", "caps")

    def __init__(self, coeffs: dict[int, Coeff], caps: Caps, *, _trusted: bool = False):
        if not _trusted:
            coeffs = _trim(coeffs, caps._y4)
        self.coeffs = coeffs
        self.caps = caps

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, caps: Caps) -> "MultiSeries":
        return cls({}, caps, _trusted=True)

    @classmethod
    def one(cls, caps: Caps) -> "MultiSeries":
        return cls.monomial(caps, 1)

    @classmethod
    def monomial(
        cls, caps: Caps, coeff: Coeff = 1, x: int = 0, w: int = 0, v: int = 0, q: int = 0
    ) -> "MultiSeries":
        if min(x, w, v, q) < 0:
            raise ValueError("power-series exponents must be >= 0")
        return cls({_pack(2 * x, w, v, q): _coerce_coeff(coeff)}, caps)

    @classmethod
    def from_terms(cls, caps: Caps, terms) -> "MultiSeries":
        coeffs: dict[int, Coeff] = {}
        for (x, w, v, q), c in terms:
            if min(x, w, v, q) < 0:
                raise ValueError("power-series exponents must be >= 0")
            key = _pack(2 * x, w, v, q)
            coeffs[key] = coeffs.get(key, 0) + _coerce_coeff(c)
        return cls(coeffs, caps)

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "MultiSeries", sign: int) -> "MultiSeries":
        # Stores are trimmed to their own caps: only an operand whose caps
        # are wider than the result's is trimmed again.
        caps = self.caps.meet(other.caps)
        a, b = (s.coeffs if s.caps == caps else _trim(s.coeffs, caps._y4) for s in (self, other))
        return MultiSeries(_merge(a, b, sign), caps, _trusted=True)

    def __add__(self, other: "MultiSeries") -> "MultiSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self._plus(other, -1)

    def __neg__(self) -> "MultiSeries":
        return MultiSeries(_scale(self.coeffs, -1), self.caps, _trusted=True)

    def __mul__(self, other):
        if isinstance(other, MultiSeries):
            caps = self.caps.meet(other.caps)
            return MultiSeries(_mul(self.coeffs, other.coeffs, caps._y4), caps, _trusted=True)
        return MultiSeries(_trim(_scale(self.coeffs, _coerce_coeff(other)), self.caps._y4), self.caps, _trusted=True)

    __rmul__ = __mul__

    def invert(self) -> "MultiSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeffs.get(_ZERO) in (None, 0):
            raise NonInvertibleError("power series with zero constant term")
        return MultiSeries(_invert(self.coeffs, self.caps._y4), self.caps, _trusted=True)

    def substitute(self, var: str, s: "MultiSeries") -> "MultiSeries":
        """Replace w, v or q by the series s.

        The composition must be exact under truncation.  Accepted shapes:
        s = 0; every monomial of s carries the substituted variable; s has
        zero constant term and positive x degree throughout; or s has a
        nonzero constant term while every monomial of self carrying var^m
        has x degree >= m (and the var cap does not undercut the x cap).
        Anything else would silently lose coefficients, so it raises.
        """
        shift = {"w": _WSHIFT, "v": _VSHIFT, "q": 0}[_check_var(var)]
        caps = self.caps.meet(s.caps)
        groups: dict[int, dict[int, Coeff]] = {}
        for k, c in self.coeffs.items():
            m = (k >> shift) & _FIELD
            groups.setdefault(m, {})[k - (m << shift)] = c
        mmax = max(groups, default=0)
        if mmax == 0:
            return MultiSeries(dict(groups.get(0, {})), caps)
        if s.coeffs:
            const = s.coeffs.get(_ZERO, 0)
            var_cap = getattr(self.caps, var)
            if all((k >> shift) & _FIELD for k in s.coeffs):
                pass  # s is a multiple of var: lost orders stay beyond the var cap
            elif const == 0 and min(s.coeffs) >= _pack(2, 0, 0, 0):
                if var_cap < caps.x:
                    raise ValueError(
                        f"substitution would lose precision: {var} cap {var_cap} < x cap {caps.x}"
                    )
            elif const != 0:
                for m, part in groups.items():
                    if m and any(((k >> _YSHIFT) - _YOFF) // 2 < m for k in part):
                        raise ValueError(
                            f"substitution into {var} is not x-adically convergent"
                        )
                if var_cap < caps.x:
                    raise ValueError(
                        f"substitution would lose precision: {var} cap {var_cap} < x cap {caps.x}"
                    )
            else:
                raise ValueError(
                    f"substitution into {var} has no exactness certificate"
                )
        acc = dict(groups.get(0, {}))
        power = {_ZERO: 1}
        y4 = caps._y4
        for m in range(1, mmax + 1):
            power = _mul(power, s.coeffs, y4)
            if not power:
                break
            part = groups.get(m)
            if part:
                acc = _merge(acc, _mul(part, power, y4))
        return MultiSeries(acc, caps)

    def truncate(self, caps: Caps) -> "MultiSeries":
        caps = self.caps.meet(caps)
        return MultiSeries(_trim(self.coeffs, caps._y4), caps, _trusted=True)

    def times_x(self, k: int) -> "MultiSeries":
        """x^k times this series, k >= 0: exact through x order caps.x + k,
        so a factor inverted at the x cap lowered by k shifts back to full
        caps."""
        shift = 2 * k << _YSHIFT
        c = self.caps
        return MultiSeries(
            {key + shift: val for key, val in self.coeffs.items()},
            Caps(c.x + k, c.w, c.v, c.q),
            _trusted=True,
        )

    # -- queries ------------------------------------------------------

    def coeff(self, x: int, w: int = 0, v: int = 0, q: int = 0) -> Coeff:
        """Coefficient of x^x w^w v^v q^q; beyond-cap queries raise."""
        c = self.caps
        if not (0 <= x <= c.x and 0 <= w <= c.w and 0 <= v <= c.v and 0 <= q <= c.q):
            raise ValueError(f"exponent {(x, w, v, q)} is beyond the caps {c}")
        return self.coeffs.get(_pack(2 * x, w, v, q), 0)

    def first_difference(self, other: "MultiSeries") -> tuple[int, int, int, int] | None:
        """The least (x, w, v, q) in lexicographic order whose coefficients
        differ within the common caps, or None where the series agree.

        Packed keys order as their exponents do, so both stores are walked
        in place, and no exponent set is built or sorted."""
        caps = self.caps.meet(other.caps)
        first = None
        for mine, theirs in ((self.coeffs, other.coeffs), (other.coeffs, self.coeffs)):
            for k, c in mine.items():
                if c != theirs.get(k, 0) and (first is None or k < first):
                    ey, w, v, q = _unpack(k)
                    if ey // 2 <= caps.x and w <= caps.w and v <= caps.v and q <= caps.q:
                        first = k
        if first is None:
            return None
        ey, w, v, q = _unpack(first)
        return ey // 2, w, v, q

    def coeff_int(self, x: int, w: int = 0, v: int = 0, q: int = 0) -> int:
        """Coefficient checked to be an integer (combinatorial extraction);
        ExactnessError otherwise."""
        c = self.coeff(x, w, v, q)
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise ExactnessError(f"non-integer coefficient at {(x, w, v, q)}: {c}")
            return c.numerator
        return c

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> Iterator[tuple[tuple[int, int, int, int], Coeff]]:
        """Monomials as ((x, w, v, q), coeff), lexicographic by exponents."""
        items = []
        for k, c in self.coeffs.items():
            ey, ew, ev, eq = _unpack(k)
            items.append(((ey // 2, ew, ev, eq), c))
        items.sort(key=lambda t: t[0])
        return iter(items)

    # -- serialization ------------------------------------------------

    def to_jsonable(self) -> list[dict]:
        out = []
        for exps, c in self.terms():
            num, den = (c.numerator, c.denominator) if isinstance(c, Fraction) else (c, 1)
            out.append({"exponents": list(exps), "num": str(num), "den": str(den)})
        return out

    @classmethod
    def from_jsonable(cls, data: list[dict], caps: Caps) -> "MultiSeries":
        terms = []
        for item in data:
            num, den = int(item["num"]), int(item["den"])
            c: Coeff = num if den == 1 else Fraction(num, den)
            terms.append((tuple(item["exponents"]), c))
        return cls.from_terms(caps, terms)

    # -- dunder misc ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.caps == other.caps and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"MultiSeries({len(self.coeffs)} terms, caps={self.caps})"


def _check_var(var: str) -> str:
    if var not in ("w", "v", "q"):
        raise ValueError(f"cannot substitute into {var!r}: only w, v, q")
    return var


# Horizon value meaning "exact at every order": far larger than any cap,
# yet still cheap integer arithmetic.  Erosion from leading orders along a
# computation is bounded by a few hundred, so the margin is enormous.
_YEXACT = 1 << 32


# Used by nothing in catwords; perfbench/tracer.py still looks it up by name.
class LaurentSeries:
    """Truncated Laurent series in y (y**2 = x) with w, v, q content.

    Exponents of y are bounded above by twice the x cap and below by
    whatever the construction produced; inversion requires the lowest
    y stratum to contain a pure rational unit.

    Besides caps, every value tracks ``ylim``, the y order its stored
    coefficients are exact through.  Finite Laurent polynomials carry an
    effectively infinite horizon; truncating an infinite tail caps it.
    Multiplying by a factor with negative leading order pulls beyond-cap
    information down into range, so the horizon shrinks: a*b is exact
    only through min(ylim_a + lead_b, ylim_b + lead_a).  Conversions
    that would overclaim raise instead of silently reporting wrong
    high-order coefficients.
    """

    __slots__ = ("coeffs", "caps", "ylim")

    def __init__(
        self,
        coeffs: dict[int, Coeff],
        caps: Caps,
        *,
        ylim: int | None = None,
        _trusted: bool = False,
    ):
        if ylim is None:
            ylim = 2 * caps.x
        if not _trusted:
            cut = min(ylim, 2 * caps.x)
            kept = _trim(coeffs, (cut, caps.w, caps.v, caps.q))
            if ylim > cut:
                # claiming exact zeros above the cut is only sound if
                # nothing real was just dropped there
                ylim_key = (cut + _YOFF + 1) << _YSHIFT
                if any(k >= ylim_key and c for k, c in coeffs.items()):
                    ylim = cut
            coeffs = kept
        self.coeffs = coeffs
        self.caps = caps
        self.ylim = ylim

    @classmethod
    def zero(cls, caps: Caps) -> "LaurentSeries":
        return cls({}, caps, ylim=_YEXACT, _trusted=True)

    @classmethod
    def monomial(
        cls, caps: Caps, coeff: Coeff = 1, y: int = 0, w: int = 0, v: int = 0, q: int = 0
    ) -> "LaurentSeries":
        if min(w, v, q) < 0:
            raise ValueError("w, v, q exponents must be >= 0")
        if not -_MAXY <= y <= 2 * caps.x:
            raise ValueError("y exponent outside the representable range")
        return cls({_pack(y, w, v, q): _coerce_coeff(coeff)}, caps, ylim=_YEXACT)

    def _lead(self) -> int:
        """Leading y order for horizon arithmetic; an empty store means
        the first possibly nonzero order is just past the horizon."""
        lead = self.min_y()
        return self.ylim + 1 if lead is None else lead

    def _max_y(self) -> int:
        return (max(self.coeffs) >> _YSHIFT) - _YOFF

    def _plus(self, other: "LaurentSeries", sign: int) -> "LaurentSeries":
        # Stores are trimmed to their own caps and to y order
        # min(ylim, 2 * caps.x): only an operand that reaches past the
        # result's is trimmed again, by the checked constructor, which
        # lowers the horizon if real support above the cut is dropped.
        caps = self.caps.meet(other.caps)
        ylim = min(self.ylim, other.ylim)
        cut = min(ylim, 2 * caps.x)
        stores = []
        for s in (self, other):
            c = s.caps
            if (c.w, c.v, c.q) != (caps.w, caps.v, caps.q) or min(s.ylim, 2 * c.x) > cut:
                s = LaurentSeries(s.coeffs, caps, ylim=ylim)
                ylim = s.ylim
            stores.append(s.coeffs)
        return LaurentSeries(_merge(*stores, sign), caps, ylim=ylim, _trusted=True)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(
            _scale(self.coeffs, -1), self.caps, ylim=self.ylim, _trusted=True
        )

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            caps = self.caps.meet(other.caps)
            ylim = min(self.ylim + other._lead(), other.ylim + self._lead())
            cut = min(ylim, 2 * caps.x)
            if ylim > cut and self.coeffs and other.coeffs:
                if self._max_y() + other._max_y() > cut:
                    ylim = cut  # real support above the cut gets dropped
            return LaurentSeries(
                _mul(self.coeffs, other.coeffs, (cut, caps.w, caps.v, caps.q)),
                caps,
                ylim=ylim,
                _trusted=True,
            )
        return LaurentSeries(
            _trim(_scale(self.coeffs, _coerce_coeff(other)), self.caps._y4),
            self.caps,
            ylim=self.ylim,
            _trusted=True,
        )

    __rmul__ = __mul__

    def invert(self) -> "LaurentSeries":
        """Inverse of c*y^e*(1+r); exact through min(ylim - 2e, y cap).

        The inverse's tail is infinite, so its horizon never exceeds the
        storage cap.
        """
        if not self.coeffs:
            raise NonInvertibleError("the zero series has no inverse")
        e = self._lead()
        ylim = min(self.ylim - 2 * e, 2 * self.caps.x)
        c = self.caps
        return LaurentSeries(
            _invert(self.coeffs, (ylim, c.w, c.v, c.q)),
            c,
            ylim=ylim,
            _trusted=True,
        )

    def truncate(self, caps: Caps) -> "LaurentSeries":
        caps = self.caps.meet(caps)
        return LaurentSeries(dict(self.coeffs), caps, ylim=self.ylim)

    def coeff(self, y: int, w: int = 0, v: int = 0, q: int = 0) -> Coeff:
        c = self.caps
        if min(w, v, q) < 0:
            raise ValueError("w, v, q exponents must be >= 0")
        if y > min(2 * c.x, self.ylim) or w > c.w or v > c.v or q > c.q:
            raise ValueError(
                f"exponent {(y, w, v, q)} is beyond the caps {c} / horizon {self.ylim}"
            )
        return self.coeffs.get(_pack(y, w, v, q), 0)

    def min_y(self) -> int | None:
        """Lowest y exponent present, or None for the zero series."""
        if not self.coeffs:
            return None
        return (min(self.coeffs) >> _YSHIFT) - _YOFF

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> Iterator[tuple[tuple[int, int, int, int], Coeff]]:
        """Monomials as ((y, w, v, q), coeff), lexicographic by exponents."""
        items = [(_unpack(k), c) for k, c in self.coeffs.items()]
        items.sort(key=lambda t: t[0])
        return iter(items)

    def to_x_series(self) -> MultiSeries:
        """Reinterpret y^(2k) as x^k; any odd or negative power is an error.

        The x ring stores x^k at y exponent 2k, so after the parity and
        sign check the representation carries over unchanged.  Raises if
        the exactness horizon stops short of the x cap; compute with
        headroom and truncate first.
        """
        if self.ylim < 2 * self.caps.x:
            raise ValueError(
                f"exact only through y^{self.ylim} < twice the x cap {self.caps.x}: "
                "compute with headroom and truncate before converting"
            )
        for k in self.coeffs:
            ey = (k >> _YSHIFT) - _YOFF
            if ey & 1:
                raise ParityError(f"surviving odd power y^{ey}")
            if ey < 0:
                raise ParityError(f"surviving negative power y^{ey}")
        return MultiSeries(dict(self.coeffs), self.caps, _trusted=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.caps == other.caps and self.coeffs == other.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        horizon = "exact" if self.ylim >= _YEXACT // 2 else str(self.ylim)
        return (
            f"LaurentSeries({len(self.coeffs)} terms, caps={self.caps}, "
            f"ylim={horizon})"
        )


def catalan_series(caps: Caps) -> MultiSeries:
    """The Catalan generating function, truncated at the x cap.

    Coefficients come from the binomial formula; C = 1 + x*C^2 holds up
    to the cap and is property-tested rather than assumed.
    """
    return MultiSeries.from_terms(
        caps, (((n, 0, 0, 0), catalan_number(n)) for n in range(caps.x + 1))
    )


@lru_cache(maxsize=None)
def cheb_u(j: int) -> tuple[int, ...]:
    """The coefficients of u_j = y^j U_j(1/(2y)), y^2 = x, from x^0 up:
    u_j = u_{j-1} - x u_{j-2} from u_{-1} = 0 (the empty tuple) and
    u_0 = 1, filled by a loop, not by recursion in j."""
    if j < -1:
        raise ValueError("Chebyshev index below -1 is never needed")
    if j == -1:
        return ()
    prev, cur = (), (1,)  # u_{-1}, u_0
    for _ in range(j):
        prev, cur = cur, tuple(a - b for a, b in zip_longest(cur, (0, *prev), fillvalue=0))
    return cur


def _cheb_p(j: int, z: str | None, caps: Caps) -> MultiSeries:
    """p_j(z) = u_j - z x u_{j-1} for z "w" or "v", read from cheb_u with no
    series product; u_j when z is None, and p_{-1}(z) = z."""
    terms = [((k, 0, 0, 0), c) for k, c in enumerate(cheb_u(j))]
    if z is not None:
        zw, zv = (1, 0) if _check_var(z) == "w" else (0, 1)
        if j == -1:
            return MultiSeries.monomial(caps, 1, w=zw, v=zv)
        terms += [((k + 1, zw, zv, 0), -c) for k, c in enumerate(cheb_u(j - 1))]
    return MultiSeries.from_terms(caps, terms)


def l_family(j: int, seed: MultiSeries) -> MultiSeries:
    """The iterated map L_j = 1/(1 - x*L_{j-1}) with L_{-1} = seed."""
    if j < -1:
        raise ValueError("l_family is defined for j >= -1")
    caps = seed.caps
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    cur = seed
    for _ in range(j + 1):
        cur = (one - x * cur).invert()
    return cur


def l_closed(j: int, caps: Caps, var: str = "v") -> MultiSeries:
    """Closed form of L_j as the ratio p_j(var) / p_{j+1}(var), where
    p_{j+1} has constant term 1; p_{-1}(var) = var gives L_{-1} = var."""
    if j < -1:
        raise ValueError("l_closed is defined for j >= -1")
    _check_var(var)
    return _cheb_p(j, var, caps) * _cheb_p(j + 1, var, caps).invert()
