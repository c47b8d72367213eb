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
    MultiSeries,
    NonInvertibleError,
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
        assert Caps(32768, 2000, 2000, 2000).x == 32768
        with pytest.raises(ValueError, match="packed-field bound"):
            Caps(32769, 0, 0, 0)
        for w, v, q in ((2001, 0, 0), (0, 2001, 0), (0, 0, 2001)):
            with pytest.raises(ValueError, match="packed-field bound"):
                Caps(1, w, v, q)


IN_CAP = st.tuples(
    st.integers(0, 32768), st.integers(0, 2000), st.integers(0, 2000), st.integers(0, 2000)
)


class TestKeyLayout:
    """_mul's early break, first_difference and terms() rely on packed
    keys ordering as their exponent tuples do."""

    @settings(max_examples=300, deadline=None)
    @example((32768, 2000, 2000, 2000), (0, 0, 0, 0))
    @example((1, 0, 0, 0), (0, 2000, 2000, 2000))
    @given(IN_CAP, IN_CAP)
    def test_roundtrip_and_order(self, e, f):
        assert series._unpack(series._pack(*e)) == e
        assert (series._pack(*e) < series._pack(*f)) == (e < f)
        # a product of in-cap monomials adds keys without a carry
        total = tuple(a + b for a, b in zip(e, f))
        assert series._unpack(series._pack(*e) + series._pack(*f)) == total


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
    1 + r + r**2 + ... one x order per product until the caps kill it."""
    c = coeffs.get(series._ZERO)
    if not c:
        raise NonInvertibleError("power series with zero constant term")
    neg_r = series._trim(
        {k: series._div_coeff(-v, c) for k, v in coeffs.items() if k != series._ZERO}, caps4
    )
    total = {series._ZERO: 1}
    power = neg_r
    while power:
        total = series._merge(total, power)
        power = series._mul(power, neg_r, caps4)
    return series._trim({k: series._div_coeff(val, c) for k, val in total.items()}, caps4)


def _inverse_or_error(s):
    try:
        return s.invert()
    except NonInvertibleError as exc:
        return str(exc)


class TestNewtonInversion:
    """Newton doubling returns the geometric series' inverse, key for key
    and type for type."""

    @settings(max_examples=150, deadline=None)
    @example(4, 0, 1, [(0, 0, 0, 1, -1)])  # 1 - q
    @example(4, 0, 1, [(0, 1, 1, 0, -1), (1, 0, 0, 0, 1)])  # 1 - wv + x
    @example(3, 1, 2, [(1, 0, 0, 0, 1)])  # no constant term
    @given(
        st.integers(1, 6),
        st.integers(0, 1),
        st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)]),
        st.lists(
            st.tuples(
                st.integers(0, 7),
                st.integers(0, 2),
                st.integers(0, 2),
                st.integers(0, 2),
                coeffs(),
            ),
            max_size=6,
        ),
    )
    def test_matches_geometric_series(self, cap, lead, unit, rest):
        caps = Caps(cap, 2, 2, 2)
        terms = [((lead, 0, 0, 0), unit)]
        terms += [((lead + dx, w, v, q), c) for dx, w, v, q, c in rest if dx or w or v or q]
        s = MultiSeries.from_terms(caps, terms)
        got = _inverse_or_error(s)
        with mock.patch.object(series, "_invert", ref_invert):
            want = _inverse_or_error(s)
        assert got == want
        if not isinstance(want, str):
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
    whole merged store."""
    return MultiSeries(ref_merge(a.coeffs, b.coeffs, sign), a.caps.meet(b.caps))


def _assert_plus_matches_reference(a, b):
    for sign, got in ((1, a + b), (-1, a - b)):
        want = ref_plus(a, b, sign)
        assert got == want
        assert [(k, type(c)) for k, c in sorted(got.coeffs.items())] == [
            (k, type(c)) for k, c in sorted(want.coeffs.items())
        ]


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
PLUS_POOL = [1, -1, 2, -3, HALF, -HALF, THIRD, -THIRD, 2 * THIRD, -2 * THIRD]


def _operand(caps, terms):
    """A checked series from (x, w, v, q, coeff) terms."""
    coeffs = {}
    for x, w, v, q, c in terms:
        key = series._pack(x, w, v, q)
        coeffs[key] = coeffs.get(key, 0) + c
    return MultiSeries(coeffs, caps)


@st.composite
def plus_operands(draw):
    """Two series with equal or unequal caps, whose supports overlap often
    enough to cancel and to sum Fractions."""
    exps = st.tuples(
        st.integers(0, 9), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    )
    caps = st.builds(
        Caps, st.integers(1, 4), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
    )
    ca = draw(caps)
    cb = draw(st.just(ca) | caps)
    a_terms = draw(st.lists(st.tuples(exps, st.sampled_from(PLUS_POOL)), max_size=8))
    shared = st.sampled_from([e for e, _ in a_terms]) if a_terms else exps
    b_terms = draw(
        st.lists(st.tuples(shared | exps, st.sampled_from(PLUS_POOL)), max_size=8)
    )
    a = _operand(ca, [(*e, c) for e, c in a_terms])
    b = _operand(cb, [(*e, c) for e, c in b_terms])
    return a, b


class TestAddWithoutRetrim:
    """Sums merge trimmed stores without re-trimming them, and still equal
    the checked construction key for key and type for type."""

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

    @pytest.mark.parametrize(
        "ca, cb",
        [(Caps(3, 2, 2, 2), Caps(3, 2, 2, 2)), (Caps(3, 2, 2, 2), Caps(2, 1, 2, 3))],
    )
    @pytest.mark.parametrize(
        "x, y",
        [(HALF, HALF), (THIRD, -2 * THIRD), (HALF, -HALF), (3, -3), (-HALF, 2)],
    )
    def test_fractions_and_cancellation(self, ca, cb, x, y):
        # 1/2 + 1/2 and 1/3 - (-2/3) are the int 1; equal terms cancel.
        a = _operand(ca, [(1, 1, 0, 0, x), (0, 0, 0, 0, 1), (2, 0, 2, 1, x)])
        b = _operand(cb, [(1, 1, 0, 0, y), (2, 0, 2, 1, y), (1, 0, 0, 1, y)])
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


def _u(j, caps):
    """u_j = cheb_u(j) as a series in x."""
    return MultiSeries.from_terms(caps, (((k, 0, 0, 0), c) for k, c in enumerate(cheb_u(j))))


class TestChebyshev:
    def test_initial_values(self):
        assert cheb_u(-1) == ()
        assert cheb_u(0) == cheb_u(1) == (1,)
        assert cheb_u(2) == (1, -1)
        assert cheb_u(3) == (1, -2)
        assert cheb_u(4) == (1, -3, 1)

    def test_below_range_rejected(self):
        with pytest.raises(ValueError):
            cheb_u(-2)

    def test_matches_binomial_sum(self):
        for j in range(0, 201):
            assert cheb_u(j) == tuple((-1) ** k * math.comb(j - k, k) for k in range(j // 2 + 1)), j

    def test_keyed_on_j_alone(self):
        cheb_u.cache_clear()
        cheb_u(30)
        cheb_u(30)
        info = cheb_u.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)  # no recursion in j

    @pytest.mark.parametrize("j", range(0, 41))
    def test_determinant_identity(self, j):
        # u_{j-1} u_{j+1} - u_j^2 = -x^j: U_{j-1} U_{j+1} - U_j^2 = -1 times y^(2j)
        caps = Caps.of(j + 1)
        lhs = _u(j - 1, caps) * _u(j + 1, caps) - _u(j, caps) * _u(j, caps)
        assert lhs == MultiSeries.monomial(caps, -1, x=j)

    @pytest.mark.parametrize("j", range(0, 41))
    def test_shift_identity(self, j):
        # u_j - x u_{j-1} = u_{j+1}: U_j - y U_{j-1} = y U_{j+1} times y^j
        caps = Caps.of(j + 1)
        x = MultiSeries.monomial(caps, 1, x=1)
        assert _u(j, caps) - x * _u(j - 1, caps) == _u(j + 1, caps)

    @pytest.mark.parametrize("j", range(1, 16))
    def test_convergent_approaches_catalan(self, j):
        caps = Caps.of(j)
        conv = _u(j - 1, caps) * _u(j, caps).invert()
        for k in range(j):
            assert conv.coeff(k) == catalan_number(k)
        assert conv.coeff(j) != catalan_number(j)


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

    @pytest.mark.parametrize("var", ["v", "w"])
    def test_closed_form_needs_no_headroom(self, var):
        # the ratio p_j / p_{j+1} is exact at caps far below j
        caps = Caps(4, 3, 3, 2)
        seed = MultiSeries.monomial(caps, 1, **{var: 1})
        for j in range(-1, 12):
            got = l_closed(j, caps, var)
            assert got == l_family(j, seed), j
            assert all(type(c) is int for c in got.coeffs.values()), j

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
