"""Generating functions for the word statistics, built two ways each and
verified coefficient by coefficient.

Every Chebyshev sum is built from one term family in x.  With u_j =
cheb_u(j) (U_j at t = 1/(2y) times y^j, y^2 = x: an integer polynomial
with constant term 1), p_j(z) = u_j - z x u_{j-1} for z "v" or "w" (u_j
for None) and T_j(z) = x^(j-1) / (p_{j-1}(z) p_j(z)).  co1 sums
T_{j+1}(0), co2 T_j(v), the A-lemma x T_j(v), the letter mains
x w q^(j+1) T_{j+1}(w) and the weights q^(j+1) T_{j+2}(0).  A term's
start x^k is explicit, so each sum is cut exactly where x^k passes the x
cap.  The one certificate is a denominator's constant term: if it is not
1, CertificateError names the term, also under ``python -O``.  When the
requested number of terms cannot cover the x or q caps, builders raise
StabilityError instead of returning a silently short sum.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

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


@dataclass
class VerificationReport:
    """Outcome of one identity check, with the first mismatch if any.

    millis is the wall time run_identity measured around the check; a
    direct check_* call leaves it at 0.0."""

    identity: str
    params: dict
    mismatch: dict | None = None
    millis: float = 0.0

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


def _geometric(first: MultiSeries, ratio: MultiSeries) -> MultiSeries:
    """first * sum_m ratio^m, summed until a term vanishes at the caps;
    every term of ratio must raise a capped degree, or the loop never ends."""
    acc = MultiSeries.zero(first.caps)
    p = first
    while p:
        acc = acc + p
        p = p * ratio
    return acc


def _apply_A(u: MultiSeries, xc: MultiSeries) -> MultiSeries:
    """The zeros generating function evaluated at second argument u:
    x*u / (1 - x*u*C(x)) = sum_m (x*u)^m C^(m-1), where xc = x*C(x) is
    built once by the caller.

    Exact under truncation for any u, since every summand carries x^m.
    """
    return _geometric(MultiSeries.monomial(u.caps, 1, x=1) * u, u * xc)


def gf_A(order: int) -> MultiSeries:
    """A(x, v): coefficient of x^n v^m counts words with m zeros."""
    caps = Caps.of(order)
    return _apply_A(MultiSeries.monomial(caps, 1, v=1), _x_catalan(caps))


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


def _cheb_term(j: int, z: str | None, caps: Caps, k: int | None = None) -> MultiSeries:
    """x^k / (p_{j-1}(z) p_j(z)), which is T_j(z) for the default k = j - 1.

    The denominator is built and inverted at the x cap lowered by k, then
    shifted back by x^k; a term whose x^k passes the x cap is zero and is
    never built."""
    if k is None:
        k = j - 1
    if k > caps.x:
        return MultiSeries.zero(caps)
    low = Caps(caps.x - k, caps.w, caps.v, caps.q)
    den = _cheb_p(j - 1, z, low) * _cheb_p(j, z, low)
    c = den.coeff(0)
    if c != 1:
        raise CertificateError(f"T_{j}({z or 0}) denominator: constant term {c}, expected 1")
    return den.invert().times_x(k)


def _lemma_A(order: int, jmax: int) -> MultiSeries:
    """v/C times sum_{j=1..jmax} x T_j(v) = x^j / (p_{j-1}(v) p_j(v)); the
    terms past the x cap are zero."""
    caps = Caps.of(order)
    acc = MultiSeries.zero(caps)
    for j in range(1, min(jmax, caps.x) + 1):
        acc = acc + _cheb_term(j, "v", caps, j)
    v = MultiSeries.monomial(caps, 1, v=1)
    return v * catalan_series(caps).invert() * acc


def gf_A_via_lemma(order: int, jmax: int) -> MultiSeries:
    """A(x, v) evaluated as v/C times the sum over Chebyshev denominators,
    an independent route to the closed form xv/(1 - xvC)."""
    if jmax < order + 1:
        raise StabilityError(
            f"jmax={jmax} cannot cover order {order}: term j starts at x^j"
        )
    return _lemma_A(order, jmax)


def _l_chain(seed: MultiSeries, count: int) -> Iterator[MultiSeries]:
    """L_0 .. L_(count-1) from L_{-1} = seed, each one l_family step from
    the one before."""
    cur = seed
    for _ in range(count):
        cur = l_family(0, cur)
        yield cur


def _letter_caps(order: int, qmax: int, jmax: int) -> Caps:
    """Caps of the letter sums, once jmax terms are shown to cover them."""
    caps = Caps.of(order, q=qmax)
    if jmax < min(order - 1, qmax - 1):
        raise StabilityError(
            f"jmax={jmax} cannot cover order {order}, qmax {qmax}: "
            f"term j contributes through x^(j+1) q^(j+1)"
        )
    return caps


def _letter_pieces(caps: Caps, jmax: int) -> tuple[list[MultiSeries], list[MultiSeries]]:
    """The pieces shared by both letter sums, for each term j <= jmax
    that reaches the caps: the main x w q^(j+1) T_{j+1}(w) and the weight
    q^(j+1) T_{j+2}(0).  Term j starts at x^(j+1) q^(j+1), so the terms
    inside the caps are a prefix."""
    mains: list[MultiSeries] = []
    weights: list[MultiSeries] = []
    w = MultiSeries.monomial(caps, 1, w=1)
    for j in range(min(jmax, caps.x - 1, caps.q - 1) + 1):
        q = MultiSeries.monomial(caps, 1, q=j + 1)
        mains.append(w * q * _cheb_term(j + 1, "w", caps, j + 1))
        weights.append(q * _cheb_term(j + 2, None, caps))
    return mains, weights


def _a4_inner(weights: list[MultiSeries], a_v: MultiSeries, xc: MultiSeries) -> MultiSeries:
    """A(x, 1, v, q) = sum_i weight_i (A(x, v L_i(1)) - A(x, v)) over
    1 + sum_i weight_i: the w = 1 slice that the four-variable sum
    subtracts, where a_v = A(x, v) and xc = x*C(x)."""
    caps = a_v.caps
    v = MultiSeries.monomial(caps, 1, v=1)
    num = MultiSeries.zero(caps)
    den = MultiSeries.one(caps)
    for wt, l in zip(weights, _l_chain(MultiSeries.one(caps), len(weights))):
        num = num + wt * (_apply_A(v * l, xc) - a_v)
        den = den + wt
    return num * den.invert()


def gf_A4(order: int, qmax: int, jmax: int) -> MultiSeries:
    """A(x, w, v, q): x^n w^t v^s q^i counts words with s copies of the
    letter i (s >= 1) and t zeros."""
    caps = _letter_caps(order, qmax, jmax)
    mains, weights = _letter_pieces(caps, jmax)
    v = MultiSeries.monomial(caps, 1, v=1)
    xc = _x_catalan(caps)
    a_v = _apply_A(v, xc)
    inner = _a4_inner(weights, a_v, xc)
    ws = _l_chain(MultiSeries.monomial(caps, 1, w=1), len(mains))
    acc = MultiSeries.zero(caps)
    for main, l in zip(mains, ws):
        acc = acc + main * (_apply_A(v * l, xc) - a_v - inner)
    return acc


def gf_A0(order: int, qmax: int, jmax: int) -> MultiSeries:
    """A(x, w, q | 0): x^n w^t q^i counts words with t zeros avoiding the
    letter i.  The q cap is a hard cap: avoidance counts stabilize in i,
    so the q degree per x^n is unbounded."""
    caps = _letter_caps(order, qmax, jmax)
    mains, weights = _letter_pieces(caps, jmax)
    one = MultiSeries.one(caps)
    num = sum(mains, MultiSeries.zero(caps))
    den = sum(weights, one)
    geom_q = (one - MultiSeries.monomial(caps, 1, q=1)).invert()
    return num * geom_q * den.invert()


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
    acc = MultiSeries.zero(caps)
    for j in range(1, min(jmax, caps.x) + 1):
        acc = acc + _cheb_term(j + 1, None, caps)
    c = catalan_series(caps)
    rhs = MultiSeries.monomial(caps, 1, x=1) * c * c
    return compare_series("co1", {"order": order, "jmax": jmax}, acc, rhs)


def check_co2(order: int, jmax: int) -> VerificationReport:
    """sum_j T_j(v) = sum_j x^(j-1) / (p_{j-1}(v) p_j(v))
    = sum_m x^(m-1) v^(m-1) C^m = C / (1 - x v C)."""
    caps = Caps.of(order)
    lhs = MultiSeries.zero(caps)
    for j in range(1, min(jmax, caps.x + 1) + 1):
        lhs = lhs + _cheb_term(j, "v", caps)
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
    assembled = MultiSeries.zero(caps)
    for m in range(1, order + 1):
        assembled = assembled + MultiSeries.monomial(caps, 1, v=m) * gf_A_m(m, order)
    recur = MultiSeries.from_terms(
        caps,
        (
            ((n, 0, m, 0), counting.a_zeros(n, m))
            for n in range(1, order + 1)
            for m in range(1, n + 1)
        ),
    )
    closed = MultiSeries.from_terms(
        caps,
        (
            ((n, 0, m, 0), counting.a_zeros_closed(n, m))
            for n in range(1, order + 1)
            for m in range(1, n + 1)
        ),
    )
    return compare_series("th2", {"order": order}, a, assembled, recur, closed)


def _letter_table(order: int, qmax: int, caps: Caps, with_s: bool) -> MultiSeries:
    # Zeros are skipped here, not left to from_terms: their keys raised th3's peak RSS.
    return MultiSeries.from_terms(
        caps,
        (
            ((n, t, s, i), c)
            for n in range(1, order + 1)
            for i in range(1, qmax + 1)
            for t in range(1, n + 1)
            for s in (range(1, n - t + 1) if with_s else (0,))
            if (c := counting.a_letter(i, n, s, t))
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


def _first_j(identity: str, jrange: int, js: range, pair) -> VerificationReport:
    """A per-j check: pair(j) gives the two series compared at j, and the
    first j in js where they differ is named in the mismatch."""
    for j in js:
        found = _first_mismatch(*pair(j))
        if found is not None:
            return VerificationReport(identity, {"jrange": jrange}, {"j": j, **found})
    return VerificationReport(identity, {"jrange": jrange})


def check_cheb_det(jrange: int = 40) -> VerificationReport:
    """u_{j-2} u_j - u_{j-1}^2 = -x^(j-1), exactly, for 1 <= j <= jrange:
    U_{j-2} U_j - U_{j-1}^2 = -1 rescaled by y^(2j-2)."""

    def pair(j):
        caps = Caps.of(j)
        u2, u1, u0 = (_cheb_p(i, None, caps) for i in (j - 2, j - 1, j))
        return u2 * u0 - u1 * u1, MultiSeries.monomial(caps, -1, x=j - 1)

    return _first_j("cheb-det", jrange, range(1, jrange + 1), pair)


def check_cheb_shift(jrange: int = 40) -> VerificationReport:
    """u_j from the recurrence u_j = u_{j-1} - x u_{j-2} equals the closed
    sum_k (-1)^k C(j-k, k) x^k for 0 <= j <= jrange.

    The recurrence is the shift identity U_j - y U_{j-1} = y U_{j+1}
    rescaled by y^j; the sums lean on exactly this rewriting, so it is
    checked against a formula that does not use it."""

    def pair(j):
        caps = Caps.of(j)
        closed = MultiSeries.from_terms(
            caps,
            (((k, 0, 0, 0), (-1) ** k * counting.binomial(j - k, k)) for k in range(j // 2 + 1)),
        )
        return _cheb_p(j, None, caps), closed

    return _first_j("cheb-shift", jrange, range(0, jrange + 1), pair)


def check_cheb_limit(jrange: int = 20) -> VerificationReport:
    """u_{j-1}/u_j, the convergent U_{j-1}/(y U_j), matches C(x) through
    x^(j-1) and differs at x^j."""
    mismatch = None
    for j in range(1, jrange + 1):
        caps = Caps.of(j)
        conv = _cheb_p(j - 1, None, caps) * _cheb_p(j, None, caps).invert()
        k = next((k for k in range(0, j) if conv.coeff(k) != counting.catalan_number(k)), None)
        if k is not None:
            mismatch = {
                "j": j,
                "exponents": [k, 0, 0, 0],
                "lhs": str(conv.coeff(k)),
                "rhs": str(counting.catalan_number(k)),
            }
        elif conv.coeff(j) == counting.catalan_number(j):
            mismatch = {"j": j, "reason": f"no divergence at x^{j}"}
        if mismatch is not None:
            break
    return VerificationReport("cheb-limit", {"jrange": jrange}, mismatch)


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
