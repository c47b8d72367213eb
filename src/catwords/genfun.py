"""Generating functions for the word statistics, built two ways each and
verified coefficient by coefficient.

Every Chebyshev sum is built from one term family in x.  With u_j =
cheb_u(j) (U_j at t = 1/(2y) times y^j, y^2 = x: an integer polynomial
with constant term 1), p_j(z) = u_j - z x u_{j-1} for z "v" or "w" (u_j
for None) and T_j(z) = x^(j-1) / (p_{j-1}(z) p_j(z)).  co1 sums
T_{j+1}(0), co2 T_j(v), the A-lemma x T_j(v), the letter mains
x w q^(j+1) T_{j+1}(w) and the weights q^(j+1) T_{j+2}(0).  A term's
start x^k is explicit, so each sum is cut exactly where x^k passes the x
cap.  One builder, _cheb_piece, makes every term's 1/(p_{j-1} p_j) at
the x cap lowered by k, and one sum, _x_sum, shifts each piece back by
x^k.  _sum_A builds a letter term's whole product with A(x, v L_j) at
the lowered cap and shifts it back once: the piece rides the power
chain of its A as a scale, so it is never multiplied by a series in v.
gf_A4 is built distributed, as sum_j x^(j+1) main_j A(x, v L_j) - M
inner with M = sum_j x^(j+1) main_j (gf_A0's numerator): M inner is its
one product in all four variables.  Its sum starts at -M inner, so
that one A4-sized series is alive at a time; a sum of the A terms minus
M inner would hold two.  The one certificate is a denominator's constant
term: if it is not 1, CertificateError names the term, also under
``python -O``.  When the requested number of terms cannot cover the x
or q caps, builders raise StabilityError instead of returning a
silently short sum.

Each check returns a VerificationReport, a plain class with __slots__
for its four fields (identity, params, mismatch, millis).  It compares
equal field by field, is unhashable, and its millis stays assignable, so
that run_identity can record the time of a check.  Importing this module
loads no dataclasses.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from itertools import chain

from . import counting
from .series import (
    Caps,
    MultiSeries,
    _cheb_p,
    catalan_series,
    l_family,
)

__all__ = [
    "CertificateError",
    "StabilityError",
    "VerificationReport",
    "compare_series",
    "gf_A",
    "gf_A_m",
    "gf_B",
    "gf_fine",
    "gf_A_via_lemma",
    "gf_A4",
    "gf_A0",
    "check_l1",
    "check_l2",
    "check_co1",
    "check_co2",
    "check_co3",
    "check_co4",
    "check_th2",
    "check_th3",
    "check_th4",
    "check_cheb_det",
    "check_cheb_shift",
    "check_cheb_limit",
    "check_remark2",
    "IDENTITIES",
    "verify_all",
]


class StabilityError(ValueError):
    """Too few sum terms to cover the requested truncation orders."""


class CertificateError(counting.ExactnessError):
    """A certificate that justifies a truncation failed."""


class VerificationReport:
    """Outcome of one identity check, with the first mismatch if any.

    millis is the wall time run_identity measured around the check; a
    direct check_* call leaves it at 0.0."""

    __slots__ = ("identity", "params", "mismatch", "millis")

    def __init__(
        self, identity: str, params: dict, mismatch: dict | None = None, millis: float = 0.0
    ) -> None:
        self.identity = identity
        self.params = params
        self.mismatch = mismatch
        self.millis = millis

    def _fields(self) -> tuple:
        return self.identity, self.params, self.mismatch, self.millis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, and equal by value

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(identity={self.identity!r}, params={self.params!r}, "
            f"mismatch={self.mismatch!r}, millis={self.millis!r})"
        )

    @property
    def passed(self) -> bool:
        return self.mismatch is None

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_jsonable(self) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "millis": round(self.millis, 3),
        }
        if self.mismatch is not None:
            out["mismatch"] = self.mismatch
        return out


def _first_mismatch(lhs: MultiSeries, rhs: MultiSeries) -> dict | None:
    """First differing coefficient in lexicographic exponent order, within
    the common caps."""
    exps = lhs.first_difference(rhs)
    if exps is None:
        return None
    return {"exponents": list(exps), "lhs": str(lhs.coeff(*exps)), "rhs": str(rhs.coeff(*exps))}


def compare_series(
    identity: str, params: dict, lhs: MultiSeries, *refs: MultiSeries
) -> VerificationReport:
    """Compare lhs with each reference in turn; the report carries the
    first mismatch."""
    mismatch = next((m for rhs in refs if (m := _first_mismatch(lhs, rhs)) is not None), None)
    return VerificationReport(identity, params, mismatch)


# -- closed-form builders ---------------------------------------------


def _x_catalan(caps: Caps) -> MultiSeries:
    """x*C(x) at the given caps."""
    return MultiSeries.monomial(caps, 1, x=1) * catalan_series(caps)


def _powers(first: MultiSeries, ratio: MultiSeries) -> Iterator[MultiSeries]:
    """first * ratio^m for m = 0, 1, ... until a term vanishes at the caps;
    every term of ratio must raise a capped degree, or it never ends."""
    while first:
        yield first
        first = first * ratio


def _geometric(first: MultiSeries, ratio: MultiSeries) -> MultiSeries:
    """first * sum_m ratio^m, summed until a term vanishes at the caps."""
    return sum(_powers(first, ratio), MultiSeries.zero(first.caps))


def _apply_A(l: MultiSeries, xc: MultiSeries, scale: MultiSeries | None = None) -> MultiSeries:
    """scale * A(x, v*l) for series l and scale free of v (scale 1 by
    default): the zeros generating function x*u / (1 - x*u*C(x)) at
    u = v*l, which is sum_m v^m x l^m (xC)^(m-1), where xc = x*C(x) is
    built once by the caller.

    The power chain starts at scale*x*l, so its term m is scale*x*l *
    (l*xC)^(m-1): a letter main rides the chain's products in x, w and q,
    and no product with a v-carrying A is formed.  Exact under
    truncation, since every summand carries x^m.  Term m is the v^m slice,
    free of v (the v^0 slice is zero), so the terms are joined into one
    store (MultiSeries.from_slices), not summed: the join is exact because
    no two terms share a power of v.  An l or a scale that carries v would
    break that, so it raises ValueError, also under python -O."""
    caps = l.caps.meet(xc.caps)
    first = MultiSeries.monomial(caps, 1, x=1) * l
    if scale is not None:
        first = scale * first
    terms = _powers(first, l * xc)
    return MultiSeries.from_slices(first.caps, "v", chain((MultiSeries.zero(first.caps),), terms))


def gf_A(order: int) -> MultiSeries:
    """A(x, v): coefficient of x^n v^m counts words with m zeros."""
    caps = Caps.of(order)
    return _apply_A(MultiSeries.one(caps), _x_catalan(caps))


def gf_A_m(m: int, order: int) -> MultiSeries:
    """A_m(x) = x^m C(x)^(m-1): words with exactly m zeros."""
    if m < 1:
        raise ValueError("gf_A_m needs m >= 1")
    caps = Caps.of(order)
    if m > order:
        return MultiSeries.zero(caps)  # x^m lies past the x cap
    c = catalan_series(caps)
    acc = MultiSeries.monomial(caps, 1, x=m)
    for _ in range(m - 1):
        acc = acc * c
    return acc


def gf_B(order: int) -> MultiSeries:
    """B(x, v): coefficient of x^n v^m counts words with m ones."""
    caps = Caps.of(order)
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    v = MultiSeries.monomial(caps, 1, v=1)
    c = catalan_series(caps)
    num = x * (one - x + x * x * v + x * v * (x - 2 * one) * c + x * x * v * v * c * c)
    den = (one - x) * (one - x * v * c) * (one - x - x * v * c)
    return num * den.invert()


def gf_fine(order: int) -> MultiSeries:
    """x / (1 - x^2 C(x)^2): words with an odd number of zeros."""
    caps = Caps.of(order)
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    c = catalan_series(caps)
    return x * (one - x * x * c * c).invert()


# -- Chebyshev-sum builders -------------------------------------------


def _cheb_piece(j: int, z: str | None, caps: Caps, k: int) -> MultiSeries:
    """1 / (p_{j-1}(z) p_j(z)) at caps with the x cap lowered by k <=
    caps.x, where x^k times it needs it and no further, once its
    denominator's constant term is certified to be 1.  The one builder of
    every summed Chebyshev term."""
    low = Caps(caps.x - k, caps.w, caps.v, caps.q)
    den = _cheb_p(j - 1, z, low) * _cheb_p(j, z, low)
    c = den.coeff(0)
    if c != 1:
        raise CertificateError(f"T_{j}({z or 0}) denominator: constant term {c}, expected 1")
    return den.invert()


def _x_sum(terms: Iterable[tuple[int, MultiSeries]], start: MultiSeries) -> MultiSeries:
    """start + sum of x^k piece over the (k, piece) pairs, each piece built
    at the x cap lowered by k (_cheb_piece): the one shifted sum of every
    Chebyshev series.  Each k is at most caps.x: a term past the x cap is
    zero, so it is never built."""
    return sum((piece.times_x(k) for k, piece in terms), start)


def _lemma_A(order: int, jmax: int) -> MultiSeries:
    """v/C times sum_{j=1..jmax} x T_j(v) = x^j / (p_{j-1}(v) p_j(v)); the
    terms past the x cap are zero."""
    caps = Caps.of(order)
    js = range(1, min(jmax, caps.x) + 1)
    acc = _x_sum(((j, _cheb_piece(j, "v", caps, j)) for j in js), MultiSeries.zero(caps))
    v = MultiSeries.monomial(caps, 1, v=1)
    return v * catalan_series(caps).invert() * acc


def gf_A_via_lemma(order: int, jmax: int) -> MultiSeries:
    """A(x, v) evaluated as v/C times the sum over Chebyshev denominators,
    an independent route to the closed form xv/(1 - xvC).  Term j starts
    at x^j, so jmax >= order terms reach the x cap."""
    if jmax < order:
        raise StabilityError(
            f"jmax={jmax} cannot cover order {order}: term j starts at x^j"
        )
    return _lemma_A(order, jmax)


def _letter_pieces(
    order: int, qmax: int, jmax: int
) -> tuple[Caps, list[MultiSeries], list[MultiSeries], MultiSeries]:
    """What both letter sums share, once jmax terms are shown to cover the
    caps: the caps, and for each term j <= jmax that reaches them the main
    w q^(j+1) / (p_j(w) p_{j+1}(w)) and the weight q^(j+1) / (u_{j+1}
    u_{j+2}), and 1/D for the weight denominator D = 1 + sum_j x^(j+1)
    weight_j.  Each piece is x^-(j+1) times its term (x w q^(j+1)
    T_{j+1}(w) and q^(j+1) T_{j+2}(0)), built by _cheb_piece at the x cap
    lowered by j + 1.  Term j starts at x^(j+1) q^(j+1), so the terms
    inside the caps are a prefix."""
    caps = Caps.of(order, q=qmax)
    if jmax < min(order - 1, qmax - 1):
        raise StabilityError(
            f"jmax={jmax} cannot cover order {order}, qmax {qmax}: "
            f"term j contributes through x^(j+1) q^(j+1)"
        )
    mains: list[MultiSeries] = []
    weights: list[MultiSeries] = []
    for k in range(1, min(jmax + 1, order, qmax) + 1):
        mains.append(MultiSeries.monomial(caps, 1, w=1, q=k) * _cheb_piece(k, "w", caps, k))
        weights.append(MultiSeries.monomial(caps, 1, q=k) * _cheb_piece(k + 1, None, caps, k))
    inv_d = _x_sum(enumerate(weights, 1), MultiSeries.one(caps)).invert()
    return caps, mains, weights, inv_d


def _sum_A(
    pieces: list[MultiSeries], seed: MultiSeries, xc: MultiSeries, acc: MultiSeries
) -> MultiSeries:
    """acc + sum_j x^(j+1) pieces_j A(x, v L_j), where L_{-1} = seed and
    each L_j is one l_family step from the one before; xc = x*C(x).

    Each piece rides the power chain of its A (_apply_A's scale), and the
    whole term is built at the piece's caps, the x cap lowered by
    k = j + 1, and shifted back once by x^k.  That is exact: x^k Y needs Y
    only through x order X - k (the truncation contract), and A(x, v L_j)
    through that order needs L_j through it, and L_j needs L_(j-1)
    through one order less.  So L_(j-1) is cut to the lower cap before
    the step, and the caps fall with each term."""
    l = seed
    for k, piece in enumerate(pieces, 1):
        l = l_family(0, l.cut(piece.caps))
        acc = acc + _apply_A(l, xc, piece).times_x(k)
    return acc


def gf_A4(order: int, qmax: int, jmax: int) -> MultiSeries:
    """A(x, w, v, q): x^n w^t v^s q^i counts words with s copies of the
    letter i (s >= 1) and t zeros.

    A4 = sum_j main_j (A(x, v L_j(w)) - inner), where inner = (A(x, v) +
    sum_i weight_i A(x, v L_i(1))) / (1 + sum_i weight_i) is A(x, v) plus
    the w = 1 slice A(x, 1, v, q).  It is built distributed, as
    sum_j main_j A(x, v L_j(w)) - M inner with M = sum_j main_j (the
    numerator of gf_A0): the one product in all four variables is M inner,
    and each main rides the power chain of its A in x, w and q (_sum_A).
    The sum starts at -M inner, with inner freed before the terms are
    added, so one A4-sized series is alive at a time.  Term j of each sum
    carries x^(j+1), so _sum_A builds it at the x cap lowered by j + 1 and
    shifts it back: every coefficient is the one the full caps give."""
    caps, mains, weights, inv_d = _letter_pieces(order, qmax, jmax)
    one = MultiSeries.one(caps)
    xc = _x_catalan(caps)
    # One name, so each partial result is freed as soon as the next is built.
    inner = _sum_A(weights, one, xc, _apply_A(one, xc))
    inner = inner * inv_d
    acc = -_x_sum(enumerate(mains, 1), MultiSeries.zero(caps)) * inner
    del inner
    return _sum_A(mains, MultiSeries.monomial(caps, 1, w=1), xc, acc)


def gf_A0(order: int, qmax: int, jmax: int) -> MultiSeries:
    """A(x, w, q | 0): x^n w^t q^i counts words with t zeros avoiding the
    letter i.  The q cap is a hard cap: avoidance counts stabilize in i,
    so the q degree per x^n is unbounded."""
    caps, mains, _, inv_d = _letter_pieces(order, qmax, jmax)
    num = _x_sum(enumerate(mains, 1), MultiSeries.zero(caps))
    geom_q = (MultiSeries.one(caps) - MultiSeries.monomial(caps, 1, q=1)).invert()
    return num * geom_q * inv_d


# -- identity checks ---------------------------------------------------


def check_l1(order: int) -> VerificationReport:
    """Functional equation: A = xv/(1-xv)(1-xC) + xv/(1-xv) A(x, 1/(1-xv))."""
    caps = Caps.of(order)
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    v = MultiSeries.monomial(caps, 1, v=1)
    a = gf_A(order)
    s = (one - x * v).invert()
    f = x * v * s
    rhs = f * (one - x * catalan_series(caps)) + f * a.substitute("v", s)
    return compare_series("l1", {"order": order}, a, rhs)


def check_l2(order: int, jmax: int) -> VerificationReport:
    """Chebyshev series for A(x, v) against the closed form."""
    return compare_series("l2", {"order": order, "jmax": jmax}, _lemma_A(order, jmax), gf_A(order))


def check_co1(order: int, jmax: int) -> VerificationReport:
    """sum_j T_{j+1}(0) = sum_j x^j / (u_j u_{j+1}) = x C(x)^2."""
    caps = Caps.of(order)
    js = range(1, min(jmax, caps.x) + 1)
    acc = _x_sum(((j, _cheb_piece(j + 1, None, caps, j)) for j in js), MultiSeries.zero(caps))
    c = catalan_series(caps)
    rhs = MultiSeries.monomial(caps, 1, x=1) * c * c
    return compare_series("co1", {"order": order, "jmax": jmax}, acc, rhs)


def check_co2(order: int, jmax: int) -> VerificationReport:
    """sum_j T_j(v) = sum_j x^(j-1) / (p_{j-1}(v) p_j(v))
    = sum_m x^(m-1) v^(m-1) C^m = C / (1 - x v C)."""
    caps = Caps.of(order)
    js = range(1, min(jmax, caps.x + 1) + 1)
    lhs = _x_sum(((j - 1, _cheb_piece(j, "v", caps, j - 1)) for j in js), MultiSeries.zero(caps))
    c = catalan_series(caps)
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    v = MultiSeries.monomial(caps, 1, v=1)
    rhs_closed = c * (one - x * v * c).invert()
    mid = _geometric(c, x * v * c)
    params = {"order": order, "jmax": jmax, "vmax": order}
    return compare_series("co2", params, lhs, mid, rhs_closed)


def check_co3(order: int) -> VerificationReport:
    """Fine numbers: x/(1 - x^2 C^2) = sum of odd-m slices = xC/(1 + xC),
    and coefficients match the recurrence parity sums."""
    caps = Caps.of(order)
    f = gf_fine(order)
    odd = MultiSeries.zero(caps)
    for m in range(1, order + 1, 2):
        odd = odd + gf_A_m(m, order)
    one = MultiSeries.one(caps)
    xc = _x_catalan(caps)
    algebraic = xc * (one + xc).invert()
    expected = MultiSeries.from_terms(
        caps,
        (((n, 0, 0, 0), counting.fine_number(n)) for n in range(1, order + 1)),
    )
    return compare_series("co3", {"order": order}, f, odd, algebraic, expected)


def check_co4(order: int) -> VerificationReport:
    """B(x, v) closed form against the transform of A and the recurrence."""
    caps = Caps.of(order)
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    v = MultiSeries.monomial(caps, 1, v=1)
    b = gf_B(order)
    a = gf_A(order)
    g = x * (one - x).invert()
    shifted = a.substitute("v", v * (one - x).invert())
    expected = MultiSeries.from_terms(
        caps,
        (
            ((n, 0, m, 0), counting.b_ones(n, m))
            for n in range(1, order + 1)
            for m in range(0, n)
        ),
    )
    return compare_series("co4", {"order": order}, b, g + g * (shifted - a), expected)


def check_th2(order: int) -> VerificationReport:
    """A(x, v) = sum_m v^m A_m(x) with A_m = x^m C^(m-1), against both the
    recurrence and the closed form for the zero counts."""
    caps = Caps.of(order)
    a = gf_A(order)
    slices = (gf_A_m(m, order) for m in range(1, order + 1))
    assembled = MultiSeries.from_slices(caps, "v", chain((MultiSeries.zero(caps),), slices))

    def table(count) -> MultiSeries:
        return MultiSeries.from_terms(
            caps,
            (((n, 0, m, 0), count(n, m)) for n in range(1, order + 1) for m in range(1, n + 1)),
        )

    recur, closed = table(counting.a_zeros), table(counting.a_zeros_closed)
    return compare_series("th2", {"order": order}, a, assembled, recur, closed)


def _letter_table(order: int, qmax: int, caps: Caps, with_s: bool) -> MultiSeries:
    # Zeros are skipped here, not left to from_terms: their keys raised th3's peak RSS.
    return MultiSeries.from_terms(
        caps,
        (
            ((n, t, s, i), c)
            for n in range(1, order + 1)
            for i in range(1, qmax + 1)
            for s in (range(1, n) if with_s else (0,))
            for t, c in enumerate(counting.letter_row(i, n, s))
            if c
        ),
    )


def _letter_check(
    identity: str, build, order: int, qmax: int, jmax: int, with_s: bool
) -> VerificationReport:
    """build(order, qmax, jmax) against the letter-count recurrences."""
    lhs = build(order, qmax, jmax)
    expected = _letter_table(order, qmax, lhs.caps, with_s)
    params = {"order": order, "qmax": qmax, "jmax": jmax}
    return compare_series(identity, params, lhs, expected)


def check_th3(order: int, qmax: int, jmax: int) -> VerificationReport:
    """Four-variable sum against the letter-count recurrences."""
    return _letter_check("th3", gf_A4, order, qmax, jmax, with_s=True)


def check_th4(order: int, qmax: int, jmax: int) -> VerificationReport:
    """Avoidance sum against the letter-count recurrences at s = 0."""
    return _letter_check("th4", gf_A0, order, qmax, jmax, with_s=False)


def _first_j(identity: str, first: int, jrange: int, find) -> VerificationReport:
    """A per-j check over first <= j <= jrange: find(j) gives the mismatch
    at j or None, and the first j with a mismatch is named in the report."""
    for j in range(first, jrange + 1):
        found = find(j)
        if found is not None:
            return VerificationReport(identity, {"jrange": jrange}, {"j": j, **found})
    return VerificationReport(identity, {"jrange": jrange})


def check_cheb_det(jrange: int = 40) -> VerificationReport:
    """u_{j-2} u_j - u_{j-1}^2 = -x^(j-1), exactly, for 1 <= j <= jrange:
    U_{j-2} U_j - U_{j-1}^2 = -1 rescaled by y^(2j-2)."""

    def find(j):
        caps = Caps.of(j)
        u2, u1, u0 = (_cheb_p(i, None, caps) for i in (j - 2, j - 1, j))
        return _first_mismatch(u2 * u0 - u1 * u1, MultiSeries.monomial(caps, -1, x=j - 1))

    return _first_j("cheb-det", 1, jrange, find)


def check_cheb_shift(jrange: int = 40) -> VerificationReport:
    """u_j from the recurrence u_j = u_{j-1} - x u_{j-2} equals the closed
    sum_k (-1)^k C(j-k, k) x^k for 0 <= j <= jrange.

    The recurrence is the shift identity U_j - y U_{j-1} = y U_{j+1}
    rescaled by y^j; the sums lean on exactly this rewriting, so it is
    checked against a formula that does not use it."""

    def find(j):
        caps = Caps.of(j)
        closed = MultiSeries.from_terms(
            caps,
            (((k, 0, 0, 0), (-1) ** k * counting.binomial(j - k, k)) for k in range(j // 2 + 1)),
        )
        return _first_mismatch(_cheb_p(j, None, caps), closed)

    return _first_j("cheb-shift", 0, jrange, find)


def check_cheb_limit(jrange: int = 20) -> VerificationReport:
    """u_{j-1}/u_j, the convergent U_{j-1}/(y U_j), matches C(x) through
    x^(j-1) and differs at x^j."""

    def find(j):
        caps = Caps.of(j)
        conv = _cheb_p(j - 1, None, caps) * _cheb_p(j, None, caps).invert()
        found = _first_mismatch(conv, catalan_series(Caps.of(j - 1)))
        if found is None and conv.coeff(j) == counting.catalan_number(j):
            return {"reason": f"no divergence at x^{j}"}
        return found

    return _first_j("cheb-limit", 1, jrange, find)


def check_remark2(order: int) -> VerificationReport:
    """Self-consistency: sum_m (xC)^m (1 - xC) telescopes back to xC."""
    caps = Caps.of(order)
    one = MultiSeries.one(caps)
    xc = _x_catalan(caps)
    return compare_series("remark2", {"order": order}, _geometric(xc * (one - xc), xc), xc)


# The identity suite in report order, as name -> runner(order, qmax, jmax).
# Runners look the checks up when called, so wrappers installed later on
# this module's attributes see every call.
_SUITE = {
    "l1": lambda o, q, j: check_l1(o),
    "l2": lambda o, q, j: check_l2(o, j),
    "co1": lambda o, q, j: check_co1(o, j),
    "co2": lambda o, q, j: check_co2(o, j),
    "co3": lambda o, q, j: check_co3(o),
    "co4": lambda o, q, j: check_co4(o),
    "th2": lambda o, q, j: check_th2(o),
    "th3": lambda o, q, j: check_th3(o, q, j),
    "th4": lambda o, q, j: check_th4(o, q, j),
    "cheb-det": lambda o, q, j: check_cheb_det(max(40, min(j, o + 2))),
    "cheb-shift": lambda o, q, j: check_cheb_shift(max(40, min(j, o + 2))),
    "cheb-limit": lambda o, q, j: check_cheb_limit(20),
    "remark2": lambda o, q, j: check_remark2(o),
}
IDENTITIES = tuple(_SUITE)


def run_identity(name: str, order: int, qmax: int = 8, jmax: int | None = None) -> VerificationReport:
    """Run one named identity check with the suite's parameter defaults."""
    if name not in _SUITE:
        raise ValueError(f"unknown identity {name!r}")
    started = time.perf_counter()
    report = _SUITE[name](order, qmax, order + 2 if jmax is None else jmax)
    report.millis = (time.perf_counter() - started) * 1000.0
    return report


def verify_all(order: int = 20, qmax: int = 8, jmax: int | None = None) -> list[VerificationReport]:
    """Run the whole identity suite; one report per identity."""
    return [run_identity(name, order, qmax, jmax) for name in IDENTITIES]
