"""Generating functions for the word statistics, built two ways each and
verified coefficient by coefficient.

Every Chebyshev sum is built from one term family, with U_j the
Chebyshev value at t = 1/(2y): P_j(z) = U_j - z y U_{j-1} for z "v" or
"w" (U_j for None) and T_j(z) = 1 / (y P_{j-1}(z) P_j(z)).  co1 sums
T_{j+1}(0), co2 T_j(v) and the letter weights q^(j+1) T_{j+2}(0); the
A-lemma and the letter mains invert P_{j-1}(z) P_j(z) without the y.
Each sum is cut by the tail-start property: the leading order of every
term is certified before truncation, so a finite cut is provably exact;
a failed certificate raises CertificateError, also under ``python -O``,
as in "T_8(0) denominator: leading y order -16, expected -15".  When
the requested number of terms cannot cover the x or q caps, builders
raise StabilityError instead of returning a silently short sum.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

from . import counting
from .series import (
    Caps,
    LaurentSeries,
    MultiSeries,
    _unpack,
    catalan_series,
    cheb_u,
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
    """A leading-order certificate that justifies a truncation failed."""


@dataclass
class VerificationReport:
    """Outcome of one identity check, with the first mismatch if any."""

    identity: str
    params: dict
    passed: bool
    mismatch: dict | None = None
    millis: float = 0.0

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
    the common caps.

    Packed keys order as their (x, w, v, q) exponents do, so the first
    mismatch is the least differing key: both dicts are walked in place,
    and no exponent set is built or sorted."""
    caps = lhs.caps.meet(rhs.caps)
    first = None
    for mine, other in ((lhs.coeffs, rhs.coeffs), (rhs.coeffs, lhs.coeffs)):
        for k, c in mine.items():
            if c != other.get(k, 0) and (first is None or k < first):
                ey, w, v, q = _unpack(k)
                if ey // 2 <= caps.x and w <= caps.w and v <= caps.v and q <= caps.q:
                    first = k
    if first is None:
        return None
    ey, w, v, q = _unpack(first)
    return {
        "exponents": [ey // 2, w, v, q],
        "lhs": str(lhs.coeffs.get(first, 0)),
        "rhs": str(rhs.coeffs.get(first, 0)),
    }


def _report(
    identity: str, params: dict, started: float, mismatch: dict | None = None
) -> VerificationReport:
    """The report of a check that began at perf_counter() == started."""
    return VerificationReport(
        identity,
        params,
        passed=mismatch is None,
        mismatch=mismatch,
        millis=(time.perf_counter() - started) * 1000.0,
    )


def compare_series(
    identity: str, params: dict, lhs: MultiSeries, rhs: MultiSeries, started: float
) -> VerificationReport:
    return _report(identity, params, started, _first_mismatch(lhs, rhs))


def _first_failing(
    identity: str, params: dict, lhs: MultiSeries, refs: list[MultiSeries], started: float
) -> VerificationReport:
    """Compare lhs with each reference in turn: the report of the first
    that differs, else of the last."""
    for rhs in refs:
        rep = compare_series(identity, params, lhs, rhs, started)
        if not rep.passed:
            break
    return rep


# -- closed-form builders ---------------------------------------------


def _x_catalan(caps: Caps) -> MultiSeries:
    """x*C(x) at the given caps."""
    return MultiSeries.monomial(caps, 1, x=1) * catalan_series(caps)


def _apply_A(u: MultiSeries, xc: MultiSeries) -> MultiSeries:
    """The zeros generating function evaluated at second argument u:
    x*u / (1 - x*u*C(x)) = sum_m (x*u)^m C^(m-1), where xc = x*C(x) is
    built once by the caller.

    Exact under truncation for any u, since every summand carries x^m.
    """
    step = u * xc
    p = MultiSeries.monomial(u.caps, 1, x=1) * u
    acc = MultiSeries.zero(u.caps)
    while p:
        acc = acc + p
        p = p * step
    return acc


def gf_A(order: int) -> MultiSeries:
    """A(x, v): coefficient of x^n v^m counts words with m zeros."""
    caps = Caps.of(order)
    return _apply_A(MultiSeries.monomial(caps, 1, v=1), _x_catalan(caps))


def gf_A_m(m: int, order: int) -> MultiSeries:
    """A_m(x) = x^m C(x)^(m-1): words with exactly m zeros."""
    if m < 1:
        raise ValueError("gf_A_m needs m >= 1")
    caps = Caps.of(order)
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


def _assert_leading(obj: LaurentSeries, expected: int, what: str) -> None:
    lead = obj.min_y()
    if lead != expected:
        raise CertificateError(f"{what}: leading y order {lead}, expected {expected}")


def _cheb_p(j: int, z: str | None, caps: Caps) -> LaurentSeries:
    """P_j(z) = U_j - z y U_{j-1} for the variable z ("w" or "v"); U_j
    when z is None."""
    if z is None:
        return cheb_u(j, caps)
    zy = LaurentSeries.monomial(caps, 1, y=1, **{z: 1})
    return cheb_u(j, caps) - zy * cheb_u(j - 1, caps)


def _cheb_den(j: int, z: str | None, caps: Caps) -> LaurentSeries:
    """P_{j-1}(z) P_j(z), leading order certified at y^-(2j-1)."""
    den = _cheb_p(j - 1, z, caps) * _cheb_p(j, z, caps)
    _assert_leading(den, -(2 * j - 1), f"T_{j}({z or 0}) denominator")
    return den


def _cheb_term(j: int, z: str | None, caps: Caps) -> MultiSeries:
    """T_j(z) as an x series, certified to start at x^(j-1); past the x
    cap it is zero, which its certified denominator proves."""
    den = _cheb_den(j, z, caps)
    if j - 1 > caps.x:
        return MultiSeries.zero(caps)
    inv = (LaurentSeries.monomial(caps, 1, y=1) * den).invert()
    _assert_leading(inv, 2 * j - 2, f"T_{j}({z or 0}) inverse")
    return inv.to_x_series()


def _lemma_A(order: int, jmax: int) -> MultiSeries:
    """v/C times sum_{j=1..jmax} y^2 T_j(v), each term as y / (P_{j-1}(v) P_j(v)).

    Term j provably starts at y^(2j); terms past the y cap are skipped
    after their denominator's leading order is verified.
    """
    caps = Caps.of(order)
    y = LaurentSeries.monomial(caps, 1, y=1)
    acc = LaurentSeries.zero(caps)
    for j in range(1, jmax + 1):
        den = _cheb_den(j, "v", caps)
        if 2 * j > 2 * caps.x:
            continue  # starts beyond the cap; the assertion above proves it
        term = y * den.invert()
        _assert_leading(term, 2 * j, f"A-lemma term j={j}")
        acc = acc + term
    v = LaurentSeries.monomial(caps, 1, v=1)
    inv_c = catalan_series(caps).to_laurent().invert()
    return (v * inv_c * acc).to_x_series()


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


def _letter_pieces(caps: Caps, jmax: int) -> tuple[list[LaurentSeries], list[MultiSeries]]:
    """The pieces shared by both letter sums: for each term j <= jmax
    that reaches the caps, the main y w q^(j+1) / (P_j(w) P_{j+1}(w)) and
    the weight q^(j+1) T_{j+2}(0).

    Term j starts at x^(j+1) q^(j+1), so the terms inside the caps are a
    prefix.  Every denominator through jmax has its leading order
    certified, so the skipped tail provably keeps starting higher.
    """
    mains: list[LaurentSeries] = []
    weights: list[MultiSeries] = []
    for j in range(jmax + 1):
        den = _cheb_den(j + 1, "w", caps)
        if j + 1 > caps.x or j + 1 > caps.q:
            _cheb_den(j + 2, None, caps)
            continue
        mains.append(LaurentSeries.monomial(caps, 1, y=1, w=1, q=j + 1) * den.invert())
        weights.append(MultiSeries.monomial(caps, 1, q=j + 1) * _cheb_term(j + 2, None, caps))
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
    acc = LaurentSeries.zero(caps)
    for j, (main, l) in enumerate(zip(mains, ws)):
        term = main * (_apply_A(v * l, xc) - a_v - inner).to_laurent()
        lead = term.min_y()
        if lead is not None and lead < 2 * j + 2:
            raise CertificateError(f"letter-sum term j={j} too low")
        acc = acc + term
    return acc.to_x_series()


def gf_A0(order: int, qmax: int, jmax: int) -> MultiSeries:
    """A(x, w, q | 0): x^n w^t q^i counts words with t zeros avoiding the
    letter i.  The q cap is a hard cap: avoidance counts stabilize in i,
    so the q degree per x^n is unbounded."""
    caps = _letter_caps(order, qmax, jmax)
    mains, weights = _letter_pieces(caps, jmax)
    one = MultiSeries.one(caps)
    num = LaurentSeries.zero(caps)
    den = one
    for j, (main, wt) in enumerate(zip(mains, weights)):
        _assert_leading(main, 2 * j + 2, f"avoidance-sum term j={j}")
        num = num + main
        den = den + wt
    geom_q = (one - MultiSeries.monomial(caps, 1, q=1)).invert()
    return num.to_x_series() * geom_q * den.invert()


# -- identity checks ---------------------------------------------------


def check_l1(order: int) -> VerificationReport:
    """Functional equation: A = xv/(1-xv)(1-xC) + xv/(1-xv) A(x, 1/(1-xv))."""
    started = time.perf_counter()
    caps = Caps.of(order)
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    v = MultiSeries.monomial(caps, 1, v=1)
    a = gf_A(order)
    s = (one - x * v).invert()
    f = x * v * s
    rhs = f * (one - x * catalan_series(caps)) + f * a.substitute("v", s)
    return compare_series("l1", {"order": order}, a, rhs, started)


def check_l2(order: int, jmax: int) -> VerificationReport:
    """Chebyshev series for A(x, v) against the closed form."""
    started = time.perf_counter()
    return compare_series(
        "l2", {"order": order, "jmax": jmax}, _lemma_A(order, jmax), gf_A(order), started
    )


def check_co1(order: int, jmax: int) -> VerificationReport:
    """sum_j T_{j+1}(0) = sum_j 1/(y U_j U_{j+1}) = x C(x)^2."""
    started = time.perf_counter()
    caps = Caps.of(order)
    acc = MultiSeries.zero(caps)
    for j in range(1, jmax + 1):
        acc = acc + _cheb_term(j + 1, None, caps)
    c = catalan_series(caps)
    rhs = MultiSeries.monomial(caps, 1, x=1) * c * c
    return compare_series("co1", {"order": order, "jmax": jmax}, acc, rhs, started)


def check_co2(order: int, jmax: int) -> VerificationReport:
    """sum_j T_j(v) = sum_j 1/(y (U_{j-1} - v y U_{j-2})(U_j - v y U_{j-1}))
    = sum_m x^(m-1) v^(m-1) C^m = C / (1 - x v C)."""
    started = time.perf_counter()
    caps = Caps.of(order)
    lhs = MultiSeries.zero(caps)
    for j in range(1, jmax + 1):
        lhs = lhs + _cheb_term(j, "v", caps)
    c = catalan_series(caps)
    one = MultiSeries.one(caps)
    x = MultiSeries.monomial(caps, 1, x=1)
    v = MultiSeries.monomial(caps, 1, v=1)
    rhs_closed = c * (one - x * v * c).invert()
    mid = MultiSeries.zero(caps)
    xvc = x * v * c
    p = c
    for _ in range(min(caps.x, caps.v) + 2):
        mid = mid + p
        p = p * xvc
        if not p:
            break
    params = {"order": order, "jmax": jmax, "vmax": order}
    return _first_failing("co2", params, lhs, [mid, rhs_closed], started)


def check_co3(order: int) -> VerificationReport:
    """Fine numbers: x/(1 - x^2 C^2) = sum of odd-m slices = xC/(1 + xC),
    and coefficients match the recurrence parity sums."""
    started = time.perf_counter()
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
    return _first_failing("co3", {"order": order}, f, [odd, algebraic, expected], started)


def check_co4(order: int) -> VerificationReport:
    """B(x, v) closed form against the transform of A and the recurrence."""
    started = time.perf_counter()
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
    return _first_failing("co4", {"order": order}, b, [g + g * (shifted - a), expected], started)


def check_th2(order: int) -> VerificationReport:
    """A(x, v) = sum_m v^m A_m(x) with A_m = x^m C^(m-1), against both the
    recurrence and the closed form for the zero counts."""
    started = time.perf_counter()
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
    return _first_failing("th2", {"order": order}, a, [assembled, recur, closed], started)


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
    """build(order, qmax, jmax + 1) against the letter-count recurrences.

    _letter_caps puts term jmax+1 beyond the caps, and building it
    certifies the leading order of its denominators: the sum cut at jmax
    and at jmax+1 is provably the same series."""
    started = time.perf_counter()
    _letter_caps(order, qmax, jmax)
    lhs = build(order, qmax, jmax + 1)
    expected = _letter_table(order, qmax, lhs.caps, with_s)
    params = {"order": order, "qmax": qmax, "jmax": jmax}
    return compare_series(identity, params, lhs, expected, started)


def check_th3(order: int, qmax: int, jmax: int) -> VerificationReport:
    """Four-variable sum against the letter-count recurrences, with term
    jmax+1 certified to start beyond the caps."""
    return _letter_check("th3", gf_A4, order, qmax, jmax, with_s=True)


def check_th4(order: int, qmax: int, jmax: int) -> VerificationReport:
    """Avoidance sum against the letter-count recurrences at s = 0, with
    term jmax+1 certified to start beyond the caps."""
    return _letter_check("th4", gf_A0, order, qmax, jmax, with_s=False)


def check_cheb_det(jrange: int = 40) -> VerificationReport:
    """U_{j-2} U_j - U_{j-1}^2 = -1, exactly, for 0 <= j <= jrange."""
    started = time.perf_counter()
    caps = Caps.of(1)
    minus_one = LaurentSeries.monomial(caps, -1)
    mismatch = None
    for j in range(0, jrange + 1):
        lhs = cheb_u(j - 2, caps) * cheb_u(j, caps) - cheb_u(j - 1, caps) * cheb_u(
            j - 1, caps
        )
        if lhs != minus_one:
            mismatch = {"j": j, "lhs": repr(sorted(lhs.terms())), "rhs": "-1"}
            break
    return _report("cheb-det", {"jrange": jrange}, started, mismatch)


def check_cheb_shift(jrange: int = 40) -> VerificationReport:
    """U_j - y U_{j-1} = y U_{j+1} for 0 <= j <= jrange.

    Equivalent to the forward recurrence at t = 1/(2y); checked on its
    own because the sum simplifications lean on exactly this rewriting.
    """
    started = time.perf_counter()
    caps = Caps.of(1)
    y = LaurentSeries.monomial(caps, 1, y=1)
    mismatch = None
    for j in range(0, jrange + 1):
        lhs = cheb_u(j, caps) - y * cheb_u(j - 1, caps)
        rhs = y * cheb_u(j + 1, caps)
        if lhs != rhs:
            mismatch = {"j": j, "lhs": repr(sorted(lhs.terms())), "rhs": repr(sorted(rhs.terms()))}
            break
    return _report("cheb-shift", {"jrange": jrange}, started, mismatch)


def check_cheb_limit(jrange: int = 20) -> VerificationReport:
    """U_{j-1}/(y U_j) matches C(x) through x^(j-1) and differs at x^j.

    U_{j-1} leads at y^-(j-1), which lowers the exactness horizon, so
    each convergent is computed with headroom and truncated to order j.
    """
    started = time.perf_counter()
    mismatch = None
    for j in range(1, jrange + 1):
        big = Caps.of(2 * j)
        y = LaurentSeries.monomial(big, 1, y=1)
        conv = (
            (cheb_u(j - 1, big) * (y * cheb_u(j, big)).invert())
            .truncate(Caps.of(j))
            .to_x_series()
        )
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
    return _report("cheb-limit", {"jrange": jrange}, started, mismatch)


def check_remark2(order: int) -> VerificationReport:
    """Self-consistency: sum_m (xC)^m (1 - xC) telescopes back to xC."""
    started = time.perf_counter()
    caps = Caps.of(order)
    one = MultiSeries.one(caps)
    xc = _x_catalan(caps)
    acc = MultiSeries.zero(caps)
    p = xc
    while p:
        acc = acc + p * (one - xc)
        p = p * xc
    return compare_series("remark2", {"order": order}, acc, xc, started)


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
    "cheb-det": lambda o, q, j: check_cheb_det(max(40, j)),
    "cheb-shift": lambda o, q, j: check_cheb_shift(max(40, j)),
    "cheb-limit": lambda o, q, j: check_cheb_limit(20),
    "remark2": lambda o, q, j: check_remark2(o),
}
IDENTITIES = tuple(_SUITE)


def run_identity(name: str, order: int, qmax: int = 8, jmax: int | None = None) -> VerificationReport:
    """Run one named identity check with the suite's parameter defaults."""
    if name not in _SUITE:
        raise ValueError(f"unknown identity {name!r}")
    return _SUITE[name](order, qmax, order + 2 if jmax is None else jmax)


def verify_all(order: int = 20, qmax: int = 8, jmax: int | None = None) -> list[VerificationReport]:
    """Run the whole identity suite; one report per identity."""
    return [run_identity(name, order, qmax, jmax) for name in IDENTITIES]
