import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from catwords import genfun, series
from catwords.counting import catalan_number, coeff_C_power
from catwords.series import (
    Caps,
    LaurentSeries,
    MultiSeries,
    NonInvertibleError,
    ParityError,
    catalan_series,
    cheb_u,
    l_closed,
    l_family,
)

CAPS = Caps.of(8)
ONE = MultiSeries.one(CAPS)
X = MultiSeries.monomial(CAPS, 1, x=1)
V = MultiSeries.monomial(CAPS, 1, v=1)
W = MultiSeries.monomial(CAPS, 1, w=1)


def coeffs():
    return st.one_of(
        st.integers(min_value=-4, max_value=4),
        st.fractions(
            min_value=-2, max_value=2, max_denominator=3
        ),
    )


@st.composite
def multi_series(draw, max_terms=5, cap=5):
    caps = Caps.of(cap)
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(
                    st.integers(0, cap),
                    st.integers(0, cap),
                    st.integers(0, cap),
                    st.integers(0, cap),
                ),
                coeffs(),
            ),
            max_size=max_terms,
        )
    )
    return MultiSeries.from_terms(caps, terms)


@st.composite
def laurent_series(draw, max_terms=5, cap=4):
    caps = Caps.of(cap)
    terms = draw(
        st.lists(
            st.tuples(
                st.tuples(
                    st.integers(-4, 2 * cap),
                    st.integers(0, cap),
                    st.integers(0, cap),
                    st.integers(0, cap),
                ),
                coeffs(),
            ),
            max_size=max_terms,
        )
    )
    acc = LaurentSeries.zero(caps)
    for (y, w, v, q), c in terms:
        if c:
            acc = acc + LaurentSeries.monomial(caps, c, y=y, w=w, v=v, q=q)
    return acc


class TestCaps:
    def test_defaults(self):
        assert Caps.of(7) == Caps(7, 7, 7, 7)
        assert Caps.of(7, q=2) == Caps(7, 7, 7, 2)

    def test_meet(self):
        assert Caps(5, 3, 9, 1).meet(Caps(4, 8, 2, 2)) == Caps(4, 3, 2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Caps(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            Caps(1, 5000, 1, 1)


class TestMultiSeriesBasics:
    def test_difference_of_squares(self):
        caps = Caps.of(5)
        one = MultiSeries.one(caps)
        x = MultiSeries.monomial(caps, 1, x=1)
        prod = (one + x) * (one - x)
        assert prod == one - x * x

    def test_zero_absorbs(self):
        assert (X * MultiSeries.zero(CAPS)).is_zero()

    def test_catalan_convolution(self):
        c = catalan_series(CAPS)
        assert (c * c).coeff(2) == 5

    def test_coeff_beyond_caps_raises(self):
        with pytest.raises(ValueError):
            ONE.coeff(9)
        with pytest.raises(ValueError):
            ONE.coeff(1, q=9)

    def test_coeff_int_asserts(self):
        half = MultiSeries.monomial(CAPS, Fraction(1, 2))
        with pytest.raises(AssertionError):
            half.coeff_int(0)

    def test_coeff_int_raises_under_optimize(self):
        code = (
            "from fractions import Fraction\n"
            "from catwords.series import Caps, MultiSeries\n"
            "assert False, 'asserts are on'\n"
            "try:\n"
            "    MultiSeries.monomial(Caps.of(2), Fraction(1, 2)).coeff_int(0)\n"
            "except AssertionError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-O", "-B", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ExactnessError non-integer coefficient at (0, 0, 0, 0): 1/2\n"

    def test_scalar_and_fraction_scaling(self):
        s = 2 * X + X
        assert s.coeff(1) == 3
        t = Fraction(1, 3) * s
        assert t.coeff(1) == 1
        assert isinstance(t.coeff(1), int)

    def test_subclass_coefficients_are_canonical(self):
        class Sub(Fraction):
            pass

        routes = [
            MultiSeries.monomial(CAPS, Sub(6, 3), x=1),
            MultiSeries.from_terms(CAPS, [((1, 0, 0, 0), Sub(6, 3))]),
            X * Sub(6, 3),
            LaurentSeries.monomial(CAPS, Sub(6, 3), y=2).to_x_series(),
        ]
        for s in routes:
            assert type(s.coeff(1)) is int and s.coeff(1) == 2
        half = MultiSeries.monomial(CAPS, Sub(1, 2))
        assert type(half.coeff(0)) is Fraction and half.coeff(0) == Fraction(1, 2)
        flag = MultiSeries.monomial(CAPS, True, x=1)
        assert type(flag.coeff(1)) is int
        assert flag.to_jsonable() == [{"exponents": [1, 0, 0, 0], "num": "1", "den": "1"}]

    def test_truncate(self):
        g = (ONE - X).invert()
        small = g.truncate(Caps.of(3))
        assert small.caps.x == 3
        with pytest.raises(ValueError):
            small.coeff(4)


class TestInversion:
    def test_geometric(self):
        g = (ONE - X).invert()
        assert all(g.coeff(k) == 1 for k in range(9))

    def test_bivariate_geometric(self):
        g = (ONE - X * W).invert()
        assert g.coeff(4, w=4) == 1
        assert g.coeff(4, w=3) == 0

    def test_catalan_kernel_diagonal(self):
        g = (ONE - X * V * catalan_series(CAPS)).invert()
        for n in range(9):
            for m in range(n + 1):
                assert g.coeff(n, v=m) == coeff_C_power(n - m, m)

    def test_zero_constant_rejected(self):
        with pytest.raises(NonInvertibleError):
            X.invert()
        with pytest.raises(NonInvertibleError):
            MultiSeries.zero(CAPS).invert()

    @settings(max_examples=60, deadline=None)
    @given(multi_series())
    def test_inverse_is_two_sided(self, a):
        unit = MultiSeries.one(a.caps)
        base = a + unit if a.coeff(0, 0, 0, 0) != -1 else a - unit
        inv = base.invert()
        assert base * inv == unit
        assert inv * base == unit


def ref_invert(coeffs, caps4):
    """The geometric-series inversion kept as a reference: sums
    1 + r + r**2 + ... one y order per product until the caps kill it."""
    if not coeffs:
        raise NonInvertibleError("the zero series has no inverse")
    emin = min(k >> series._YSHIFT for k in coeffs) - series._YOFF
    unit_key = series._pack(emin, 0, 0, 0)
    c = coeffs.get(unit_key)
    if not c:
        raise NonInvertibleError(
            "lowest-order term is not a unit (it carries w, v or q)"
        )
    ycap, wcap, vcap, qcap = caps4
    inner = (ycap + emin, wcap, vcap, qcap)
    if inner[0] < 0:
        raise NonInvertibleError("inverse lies entirely above the y cap")
    shift = emin << series._YSHIFT
    neg_r = series._trim(
        {k - shift: series._div_coeff(-v, c) for k, v in coeffs.items() if k != unit_key},
        inner,
    )
    total = {series._ZERO: 1}
    power = neg_r
    while power:
        total = series._merge(total, power)
        power = series._mul(power, neg_r, inner)
    return series._trim(
        {k - shift: series._div_coeff(val, c) for k, val in total.items()}, caps4
    )


def _inverse_or_error(s):
    try:
        return s.invert()
    except NonInvertibleError as exc:
        return str(exc)


class TestNewtonInversion:
    """Newton doubling returns the geometric series' inverse, key for key
    and type for type."""

    @settings(max_examples=150, deadline=None)
    @example("multi", 4, 0, 1, [(0, 0, 0, 1, -1)], None)  # 1 - q
    @example("multi", 4, 0, 1, [(0, 1, 1, 0, -1), (2, 0, 0, 0, 1)], None)  # 1 - wv + x
    @example("laurent", 3, -3, 2, [(7, 0, 0, 0, 1)], None)  # rest above the cap
    @example("laurent", 4, -2, Fraction(-2, 3), [(1, 1, 0, 0, 3), (3, 0, 0, 0, 1)], 5)
    @given(
        st.sampled_from(["multi", "laurent"]),
        st.integers(1, 6),
        st.integers(-5, 4),
        st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)]),
        st.lists(
            st.tuples(
                st.integers(0, 14),
                st.integers(0, 2),
                st.integers(0, 2),
                st.integers(0, 2),
                coeffs(),
            ),
            max_size=6,
        ),
        st.none() | st.integers(-4, 12),
    )
    def test_matches_geometric_series(self, kind, cap, e, unit, rest, horizon):
        caps = Caps(cap, 2, 2, 2)
        if kind == "multi":
            lead = 1 if e == 4 else 0  # a zero constant term is rejected
            terms = [((lead, 0, 0, 0), unit)]
            terms += [
                ((lead + dy // 2, w, v, q), c)
                for dy, w, v, q, c in rest
                if dy // 2 or w or v or q
            ]
            s = MultiSeries.from_terms(caps, terms)
        else:
            coeffs4 = {series._pack(e, 0, 0, 0): unit}
            for dy, w, v, q, c in rest:
                if (dy or w or v or q) and e + dy <= 2 * cap:
                    key = series._pack(e + dy, w, v, q)
                    coeffs4[key] = coeffs4.get(key, 0) + c
            s = LaurentSeries(coeffs4, caps, ylim=horizon)
        got = _inverse_or_error(s)
        with mock.patch.object(series, "_invert", ref_invert):
            want = _inverse_or_error(s)
        if isinstance(want, str):
            assert got == want
            return
        assert got == want
        assert getattr(got, "ylim", None) == getattr(want, "ylim", None)
        assert [type(c) for _, c in sorted(got.coeffs.items())] == [
            type(c) for _, c in sorted(want.coeffs.items())
        ]

    def test_product_count_is_logarithmic(self, monkeypatch):
        order = 300
        caps = Caps.of(order)
        c = catalan_series(caps)
        x2 = MultiSeries.monomial(caps, 1, x=2)
        a = MultiSeries.one(caps) - x2 * c * c
        calls = []
        mul = series._mul
        monkeypatch.setattr(series, "_mul", lambda *args: calls.append(1) or mul(*args))
        inv = a.invert()
        assert len(calls) <= 2 * math.ceil(math.log2(order)) + 2
        monkeypatch.undo()
        assert a * inv == MultiSeries.one(caps)

    def test_th3_inversion_count(self, monkeypatch):
        calls = []
        invert = series._invert
        monkeypatch.setattr(series, "_invert", lambda *args: calls.append(1) or invert(*args))
        assert genfun.check_th3(12, 8, 14).passed
        assert len(calls) == 33


def ref_merge(a, b, sign=1):
    """The merge as it was while sums were re-trimmed: it drops zeros but
    leaves integral Fractions to the trim."""
    out = dict(a)
    for k, c in b.items():
        nc = out.get(k, 0) + (c if sign > 0 else -c)
        if nc:
            out[k] = nc
        elif k in out:
            del out[k]
    return out


def ref_plus(a, b, sign):
    """a + sign*b through the checked constructor, which re-trims the
    whole merged store (and lowers a Laurent horizon if it must)."""
    caps = a.caps.meet(b.caps)
    merged = ref_merge(a.coeffs, b.coeffs, sign)
    if isinstance(a, MultiSeries):
        return MultiSeries(merged, caps)
    return LaurentSeries(merged, caps, ylim=min(a.ylim, b.ylim))


def _assert_plus_matches_reference(a, b):
    for sign, got in ((1, a + b), (-1, a - b)):
        want = ref_plus(a, b, sign)
        assert got == want
        assert getattr(got, "ylim", None) == getattr(want, "ylim", None)
        assert [(k, type(c)) for k, c in sorted(got.coeffs.items())] == [
            (k, type(c)) for k, c in sorted(want.coeffs.items())
        ]


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
PLUS_POOL = [1, -1, 2, -3, HALF, -HALF, THIRD, -THIRD, 2 * THIRD, -2 * THIRD]


def _operand(kind, caps, terms, horizon=None):
    """A checked series from (first exponent, w, v, q, coeff) terms; the
    first exponent is x for MultiSeries and y for LaurentSeries."""
    coeffs = {}
    for e, w, v, q, c in terms:
        key = series._pack(2 * e if kind == "multi" else e, w, v, q)
        coeffs[key] = coeffs.get(key, 0) + c
    if kind == "multi":
        return MultiSeries(coeffs, caps)
    return LaurentSeries(coeffs, caps, ylim=horizon)


@st.composite
def plus_operands(draw):
    """Two series of one kind with equal or unequal caps and horizons,
    whose supports overlap often enough to cancel and to sum Fractions."""
    kind = draw(st.sampled_from(["multi", "laurent"]))
    lo = 0 if kind == "multi" else -3
    exps = st.tuples(
        st.integers(lo, 9), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    )
    caps = st.builds(
        Caps, st.integers(1, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    )
    horizon = st.sampled_from([None, series._YEXACT]) | st.integers(-3, 9)
    ca = draw(caps)
    cb = draw(st.just(ca) | caps)
    a_terms = draw(st.lists(st.tuples(exps, st.sampled_from(PLUS_POOL)), max_size=8))
    shared = st.sampled_from([e for e, _ in a_terms]) if a_terms else exps
    b_terms = draw(
        st.lists(st.tuples(shared | exps, st.sampled_from(PLUS_POOL)), max_size=8)
    )
    a = _operand(kind, ca, [(*e, c) for e, c in a_terms], draw(horizon))
    b = _operand(kind, cb, [(*e, c) for e, c in b_terms], draw(horizon))
    return a, b


class TestAddWithoutRetrim:
    """Sums merge trimmed stores without re-trimming them, and still equal
    the checked construction key for key, type for type and horizon for
    horizon."""

    def test_th3_trim_work(self, monkeypatch):
        # The re-trimming sums visited 41,559 keys here.
        series.cheb_u.cache_clear()
        visited = []
        trim = series._trim
        monkeypatch.setattr(
            series, "_trim", lambda coeffs, caps4: visited.append(len(coeffs)) or trim(coeffs, caps4)
        )
        assert genfun.check_th3(12, 8, 14).passed
        assert sum(visited) < 12_000

    @settings(max_examples=300, deadline=None)
    @given(plus_operands())
    def test_matches_checked_construction(self, pair):
        a, b = pair
        _assert_plus_matches_reference(a, b)
        _assert_plus_matches_reference(b, a)

    @pytest.mark.parametrize("kind", ["multi", "laurent"])
    @pytest.mark.parametrize(
        "ca, cb",
        [(Caps(3, 2, 2, 2), Caps(3, 2, 2, 2)), (Caps(3, 2, 2, 2), Caps(2, 1, 2, 3))],
    )
    @pytest.mark.parametrize(
        "x, y",
        [(HALF, HALF), (THIRD, -2 * THIRD), (HALF, -HALF), (3, -3), (-HALF, 2)],
    )
    def test_fractions_and_cancellation(self, kind, ca, cb, x, y):
        # 1/2 + 1/2 and 1/3 - (-2/3) are the int 1; equal terms cancel.
        a = _operand(kind, ca, [(1, 1, 0, 0, x), (0, 0, 0, 0, 1), (2, 0, 2, 1, x)])
        b = _operand(kind, cb, [(1, 1, 0, 0, y), (2, 0, 2, 1, y), (1, 0, 0, 1, y)])
        _assert_plus_matches_reference(a, b)
        _assert_plus_matches_reference(b, a)

    def test_exact_fraction_sum_is_int(self):
        a = MultiSeries.monomial(CAPS, HALF, x=1)
        one = (a + a).coeff(1)
        assert one == 1 and type(one) is int
        b = MultiSeries.monomial(CAPS, -2 * THIRD, x=1)
        one = (MultiSeries.monomial(CAPS, THIRD, x=1) - b).coeff(1)
        assert one == 1 and type(one) is int
        assert (a - a).coeffs == {}

    def test_horizons(self):
        caps = Caps.of(4)
        below = LaurentSeries({series._pack(0, 0, 0, 0): 1}, caps, ylim=5)
        above = LaurentSeries.monomial(caps, 2, y=7)
        inside = LaurentSeries.monomial(caps, 3, y=4)
        # the horizon 5 cuts `above` away; it is no wider than the cut
        assert (below + above).ylim == 5
        assert (below + above).coeffs == below.coeffs
        # an exact operand inside a narrower cut keeps the exact horizon
        assert (inside + LaurentSeries.monomial(Caps.of(2), 1)).ylim == series._YEXACT
        # support above the narrower cap's cut lowers the horizon to that cut
        narrow = LaurentSeries.monomial(Caps.of(3), 1, y=-1)
        for total in (above + narrow, narrow - above):
            assert total.ylim == 6
            assert total.coeffs == narrow.coeffs
        for a, b in ((below, above), (inside, above), (above, narrow)):
            _assert_plus_matches_reference(a, b)
            _assert_plus_matches_reference(b, a)


class TestSubstitution:
    def test_collapse_v(self):
        s = (ONE - X * V).invert()
        assert (X * V * s).substitute("v", ONE) == X * (ONE - X).invert()

    def test_kill_w(self):
        g = (ONE - X * W).invert()
        assert g.substitute("w", MultiSeries.zero(CAPS)) == ONE

    def test_var_multiple_is_exact(self):
        a = (ONE - X * V).invert()
        shifted = a.substitute("v", V * (ONE - X).invert())
        # [x^n v^m] of 1/(1 - xv/(1-x)) counts compositions of n into m parts
        import math

        for n in range(9):
            for m in range(n + 1):
                expected = math.comb(n - 1, m - 1) if m >= 1 else (1 if n == 0 else 0)
                assert shifted.coeff(n, v=m) == expected, (n, m)

    def test_divergent_rejected(self):
        pure_v = (MultiSeries.one(CAPS) - V).invert()
        with pytest.raises(ValueError):
            pure_v.substitute("v", ONE)

    def test_x_substitution_unsupported(self):
        with pytest.raises(ValueError):
            ONE.substitute("x", X)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
            max_size=4,
        ),
        st.lists(
            st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(-3, 3)),
            max_size=3,
        ),
    )
    def test_matches_naive_composition(self, a_terms, s_terms):
        """Differential oracle: degrees are small enough that nothing is
        truncated, so substitution must equal naive polynomial composition
        computed with plain dicts."""
        caps = Caps.of(16)
        a = MultiSeries.from_terms(caps, (((x, 0, v, 0), c) for x, v, c in a_terms))
        s = MultiSeries.from_terms(caps, (((x, 0, v, 0), c) for x, v, c in s_terms))

        def naive(poly, sub):
            # dicts keyed by (x, v) exponent pairs
            def mul(p, q):
                out = {}
                for (x1, v1), c1 in p.items():
                    for (x2, v2), c2 in q.items():
                        key = (x1 + x2, v1 + v2)
                        out[key] = out.get(key, 0) + c1 * c2
                return {k: c for k, c in out.items() if c}

            result: dict = {}
            for (x, v), c in poly.items():
                term = {(x, 0): c}
                for _ in range(v):
                    term = mul(term, sub)
                for k, cv in term.items():
                    result[k] = result.get(k, 0) + cv
            return {k: c for k, c in result.items() if c}

        a_dict = {(x, v): c for (x, _, v, _), c in a.terms()}
        s_dict = {(x, v): c for (x, _, v, _), c in s.terms()}
        expected = naive(a_dict, s_dict)
        got = a.substitute("v", s)
        assert {(x, v): c for (x, _, v, _), c in got.terms()} == expected


class TestChebyshev:
    def test_initial_values(self):
        caps = Caps.of(4)
        assert cheb_u(0, caps) == LaurentSeries.monomial(caps, 1)
        assert list(cheb_u(2, caps).terms()) == [((-2, 0, 0, 0), 1), ((0, 0, 0, 0), -1)]
        assert list(cheb_u(3, caps).terms()) == [((-3, 0, 0, 0), 1), ((-1, 0, 0, 0), -2)]
        assert cheb_u(-1, caps).is_zero()
        assert cheb_u(-2, caps) == LaurentSeries.monomial(caps, -1)
        assert list(cheb_u(-3, caps).terms()) == [((-1, 0, 0, 0), -1)]

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            cheb_u(-4, Caps.of(2))

    @pytest.mark.parametrize("j", range(0, 41))
    def test_determinant_identity(self, j):
        caps = Caps.of(1)
        lhs = cheb_u(j - 2, caps) * cheb_u(j, caps) - cheb_u(j - 1, caps) * cheb_u(j - 1, caps)
        assert lhs == LaurentSeries.monomial(caps, -1)

    @pytest.mark.parametrize("j", range(0, 41))
    def test_shift_identity(self, j):
        caps = Caps.of(1)
        y = LaurentSeries.monomial(caps, 1, y=1)
        assert cheb_u(j, caps) - y * cheb_u(j - 1, caps) == y * cheb_u(j + 1, caps)

    @pytest.mark.parametrize("j", range(1, 16))
    def test_convergent_approaches_catalan(self, j):
        big = Caps.of(2 * j)
        y = LaurentSeries.monomial(big, 1, y=1)
        conv = (
            (cheb_u(j - 1, big) * (y * cheb_u(j, big)).invert())
            .truncate(Caps.of(j))
            .to_x_series()
        )
        for k in range(j):
            assert conv.coeff(k) == catalan_number(k)
        assert conv.coeff(j) != catalan_number(j)


class TestLaurentOps:
    def test_invert_monomial(self):
        caps = Caps.of(3)
        inv = LaurentSeries.monomial(caps, 1, y=-1).invert()
        assert list(inv.terms()) == [((1, 0, 0, 0), 1)]

    def test_uu_product_inverse(self):
        caps = Caps.of(4)
        y = LaurentSeries.monomial(caps, 1, y=1)
        t = (y * cheb_u(1, caps) * cheb_u(2, caps)).invert().to_x_series()
        assert [t.coeff(k) for k in range(5)] == [0, 1, 1, 1, 1]

    def test_parity_errors(self):
        caps = Caps.of(3)
        with pytest.raises(ParityError):
            LaurentSeries.monomial(caps, 1, y=1).to_x_series()
        with pytest.raises(ParityError):
            LaurentSeries.monomial(caps, 1, y=-2).to_x_series()

    def test_non_unit_leading_term_rejected(self):
        caps = Caps.of(3)
        w = LaurentSeries.monomial(caps, 1, y=-2, w=1)
        with pytest.raises(NonInvertibleError):
            (w + LaurentSeries.monomial(caps, 1)).invert()

    def test_horizon_blocks_overclaiming(self):
        # U_5 leads at y^-5; multiplying the truncated inverse by it pulls
        # beyond-cap information down, so converting must fail loudly
        caps = Caps.of(3)
        y = LaurentSeries.monomial(caps, 1, y=1)
        prod = cheb_u(5, caps) * (y * cheb_u(6, caps)).invert()
        assert prod.ylim == 1
        with pytest.raises(ValueError, match="headroom"):
            prod.to_x_series()

    def test_coeff_beyond_horizon_rejected(self):
        caps = Caps.of(3)
        y = LaurentSeries.monomial(caps, 1, y=1)
        prod = cheb_u(5, caps) * (y * cheb_u(6, caps)).invert()
        assert prod.coeff(0) == 1  # convergents of C start with 1
        with pytest.raises(ValueError):
            prod.coeff(2)

    def test_inverse_above_cap_rejected(self):
        caps = Caps.of(3)
        y = LaurentSeries.monomial(caps, 1, y=1)
        with pytest.raises(NonInvertibleError):
            (y * cheb_u(10, caps)).invert()  # inverse starts at y^9 > cap

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-4, 2),
        st.lists(
            st.tuples(st.integers(1, 8), st.integers(0, 2), st.integers(-3, 3)),
            max_size=4,
        ),
    )
    def test_unit_leading_inverse_roundtrip(self, e, rest):
        """p * invert(p) stores exactly the unit monomial: coefficients in
        the dropped region are never materialized, all kept ones cancel."""
        caps = Caps.of(6)
        p = LaurentSeries.monomial(caps, 1, y=e)
        for dy, w, c in rest:
            if c and e + dy <= 2 * caps.x:
                p = p + LaurentSeries.monomial(caps, c, y=e + dy, w=w)
        prod = p * p.invert()
        assert list(prod.terms()) == [((0, 0, 0, 0), 1)]


class TestLFamily:
    def test_seed_passthrough(self):
        assert l_family(-1, V) == V

    def test_first_iterates(self):
        assert l_family(0, W) == (ONE - X * W).invert()
        inner = (ONE - X * (ONE - X * W).invert()).invert()
        assert l_family(1, W) == inner

    @pytest.mark.parametrize("var", ["v", "w"])
    @pytest.mark.parametrize("j", range(-1, 16))
    def test_closed_form_matches_iteration(self, var, j):
        caps = Caps.of(15)
        seed = MultiSeries.monomial(caps, 1, **{var: 1})
        assert l_family(j, seed) == l_closed(j, caps, var)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            l_family(-2, V)
        with pytest.raises(ValueError):
            l_closed(-2, CAPS)
        with pytest.raises(ValueError):
            l_closed(0, CAPS, var="x")


class TestCatalanSeries:
    def test_values(self):
        c = catalan_series(Caps.of(5))
        assert [c.coeff(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]

    def test_defining_identity_at_50(self):
        caps = Caps.of(50)
        c = catalan_series(caps)
        one = MultiSeries.one(caps)
        x = MultiSeries.monomial(caps, 1, x=1)
        assert (c - one - x * c * c).is_zero()


class TestSerialization:
    def test_canonical_form(self):
        s = X * V + MultiSeries.monomial(CAPS, Fraction(1, 2), x=2)
        data = s.to_jsonable()
        assert data == [
            {"exponents": [1, 0, 1, 0], "num": "1", "den": "1"},
            {"exponents": [2, 0, 0, 0], "num": "1", "den": "2"},
        ]
        assert MultiSeries.from_jsonable(data, CAPS) == s

    @settings(max_examples=40, deadline=None)
    @given(multi_series())
    def test_roundtrip(self, s):
        data = json.loads(json.dumps(s.to_jsonable()))
        assert MultiSeries.from_jsonable(data, s.caps) == s


class TestRingAxioms:
    @settings(max_examples=50, deadline=None)
    @given(multi_series(), multi_series(), multi_series())
    def test_multi_ring(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        one = MultiSeries.one(a.caps)
        assert a * one == a
        assert (a - a).is_zero()

    @settings(max_examples=50, deadline=None)
    @given(laurent_series(), laurent_series(), laurent_series())
    def test_laurent_ring(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
