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
    return st.integers(min_value=-4, max_value=4)


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
        # only the q cap can be set apart from the x order
        for name in "wv":
            with pytest.raises(TypeError):
                Caps.of(7, **{name: 2})

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

    def test_is_a_tuple(self):
        caps = Caps(5, 3, 9, 1)
        assert isinstance(caps, tuple) and caps == (5, 3, 9, 1)
        assert (caps.x, caps.w, caps.v, caps.q) == tuple(caps)
        assert not hasattr(caps, "__dict__")

    @pytest.mark.parametrize("field", range(4))
    def test_errors_name_the_cap(self, field):
        name, bound = "xwvq"[field], (32768, 2000, 2000, 2000)[field]
        caps = [1, 1, 1, 1]
        caps[field] = bound + 1
        with pytest.raises(
            ValueError, match=f"^cap {name} = {bound + 1} exceeds the packed-field bound {bound}$"
        ):
            Caps(*caps)
        caps[field] = -1
        with pytest.raises(ValueError, match=f"^cap {name} must be >= 0$"):
            Caps(*caps)

    def test_times_x_checks_its_caps(self):
        # built through the constructor: _replace would skip the checks
        with pytest.raises(ValueError, match="^cap x = 40001 exceeds the packed-field bound 32768$"):
            MultiSeries.one(Caps.of(1)).times_x(40000)

    def test_covers(self):
        caps = Caps(3, 2, 1, 0)
        assert caps.covers((3, 2, 1, 0)) and caps.covers((0, 0, 0, 0))
        for e in ((4, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1), (-1, 0, 0, 0),
                  (0, 0, -1, 0)):
            assert not caps.covers(e), e

    def test_checks_hold_under_python_O(self):
        code = (
            "from catwords.series import Caps\n"
            "for make in (lambda: Caps(-1, 0, 0, 0), lambda: Caps(1, 0, 2001, 0), lambda: Caps.of(32769)):\n"
            "    try:\n"
            "        make()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-O", "-B", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "cap x must be >= 0",
            "cap v = 2001 exceeds the packed-field bound 2000",
            "cap x = 32769 exceeds the packed-field bound 32768",
        ]


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

    @settings(max_examples=300, deadline=None)
    @example((32768, 2000, 2000, 2000), (32768, 2000, 2000, 2000))
    @example((5, 0, 2000, 0), (0, 2000, 0, 2000))
    @given(IN_CAP, IN_CAP)
    def test_block_keys(self, e, f):
        # _mul_blocks groups terms by the low fields and reads x from the top
        ke, kf = series._pack(*e), series._pack(*f)
        assert ke & series._BLOCK == series._pack(0, *e[1:])
        assert ke >> series._XSHIFT == e[0]
        blocks = (ke & series._BLOCK) + (kf & series._BLOCK)
        assert blocks <= series._BLOCK
        assert series._unpack(blocks) == (0, *(a + b for a, b in zip(e[1:], f[1:])))


class TestMultiSeriesBasics:
    def test_difference_of_squares(self):
        caps = Caps.of(5)
        one = MultiSeries.one(caps)
        x = MultiSeries.monomial(caps, 1, x=1)
        prod = (one + x) * (one - x)
        assert prod == one - x * x

    def test_zero_absorbs(self):
        assert not X * MultiSeries.zero(CAPS)

    def test_catalan_convolution(self):
        c = catalan_series(CAPS)
        assert (c * c).coeff(2) == 5

    def test_coeff_beyond_caps_raises(self):
        with pytest.raises(ValueError):
            ONE.coeff(9)
        with pytest.raises(ValueError):
            ONE.coeff(1, q=9)

    def test_coeff_int_asserts(self):
        # coeff always returns an int: a non-integer coefficient is refused
        # where it would enter, so there is none to read back.
        half = Fraction(1, 2)
        for build in (
            lambda: MultiSeries.monomial(CAPS, half),
            lambda: MultiSeries.from_terms(CAPS, [((1, 0, 0, 0), half)]),
            lambda: ONE * half,
        ):
            with pytest.raises(TypeError, match="must be int, got Fraction"):
                build()
        assert type((3 * X).coeff(1)) is int

    def test_coeff_int_raises_under_optimize(self):
        # Every point where a non-integer could enter raises explicitly, so
        # the checks hold with assert statements stripped.
        code = (
            "from fractions import Fraction\n"
            "from catwords.series import Caps, MultiSeries, NonInvertibleError\n"
            "assert False, 'asserts are on'\n"
            "caps = Caps.of(2)\n"
            "for build in (\n"
            "    lambda: MultiSeries.monomial(caps, Fraction(1, 2)),\n"
            "    lambda: MultiSeries.from_terms(caps, [((1, 0, 0, 0), Fraction(2, 1))]),\n"
            "    lambda: MultiSeries.one(caps) * Fraction(1, 3),\n"
            "):\n"
            "    try:\n"
            "        build()\n"
            "    except TypeError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
            "for c in (0, 2, -3):\n"
            "    try:\n"
            "        MultiSeries.from_terms(caps, [((0, 0, 0, 0), c), ((1, 0, 0, 0), 1)]).invert()\n"
            "    except NonInvertibleError as exc:\n"
            "        print(type(exc).__name__, exc)\n"
            # multi-block inverses: a unit, a w term in reach, and random terms
            "import random\n"
            "from catwords import series\n"
            "rng = random.Random(11)\n"
            "exps = lambda: (rng.randint(0, 9), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))\n"
            "blocks = bad = 0\n"
            "for _ in range(100):\n"
            "    caps = Caps(rng.randint(2, 9), 3, 3, 3)\n"
            "    terms = [((0, 0, 0, 0), rng.choice((1, -1))), ((rng.randint(0, 2), 1, 0, 0), rng.choice((1, -1)))]\n"
            "    terms += [(e, rng.randint(-3, 3)) for e in (exps() for _ in range(6)) if any(e)]\n"
            "    a = MultiSeries.from_terms(caps, terms)\n"
            "    blocks += len(series._dense_blocks(a.coeffs, caps.x)) > 1\n"
            "    bad += a * a.invert() != MultiSeries.one(caps)\n"
            "print('multi-block', blocks, 'not inverse', bad)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-O", "-B", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            *["TypeError coefficients must be int, got Fraction"] * 3,
            *(f"NonInvertibleError constant term {c} is not a unit: expected 1 or -1"
              for c in (0, 2, -3)),
            "multi-block 100 not inverse 0",
        ]

    def test_scalar_and_fraction_scaling(self):
        s = 2 * X + X
        assert s.coeff(1) == 3
        assert (s * -1).coeff(1) == -3
        assert not 0 * s
        for scalar in (Fraction(1, 3), Fraction(3, 1), 0.5):
            with pytest.raises(TypeError, match="must be int"):
                scalar * s

    def test_subclass_coefficients_are_canonical(self):
        class Sub(int):
            pass

        routes = [
            MultiSeries.monomial(CAPS, Sub(2), x=1),
            MultiSeries.from_terms(CAPS, [((1, 0, 0, 0), Sub(2))]),
            X * Sub(2),
        ]
        for s in routes:
            assert type(s.coeff(1)) is int and s.coeff(1) == 2
        flag = MultiSeries.monomial(CAPS, True, x=1)
        assert type(flag.coeff(1)) is int
        assert flag.to_jsonable() == [{"exponents": [1, 0, 0, 0], "num": "1", "den": "1"}]

    def test_from_terms_coerces_each_term_once(self):
        caps = Caps(3, 2, 2, 2)
        terms = [
            ((1, 0, 0, 0), True),
            ((1, 0, 0, 0), 2),
            ((2, 1, 0, 0), 5),
            ((2, 1, 0, 0), -5),  # sums to zero and is dropped
            ((4, 0, 0, 0), 7),  # past the x cap
            ((0, 3, 0, 0), 7),  # past the w cap
            ((0, 0, 0, 2), True),
        ]
        with mock.patch.object(series, "_coerce_coeff", wraps=series._coerce_coeff) as coerce:
            s = MultiSeries.from_terms(caps, terms)
        assert coerce.call_count == len(terms)
        assert s.coeffs == {series._pack(1, 0, 0, 0): 3, series._pack(0, 0, 0, 2): 1}
        assert all(type(c) is int for c in s.coeffs.values())
        summed = {
            (1, 0, 0, 0): 3, (2, 1, 0, 0): 0, (4, 0, 0, 0): 7, (0, 3, 0, 0): 7, (0, 0, 0, 2): True,
        }
        assert s == MultiSeries({series._pack(*e): c for e, c in summed.items()}, caps)
        with pytest.raises(TypeError, match="must be int, got Fraction"):
            MultiSeries.from_terms(caps, [((0, 0, 0, 0), 1), ((9, 0, 0, 0), Fraction(1, 2))])
        # monomial builds through from_terms: its one term is coerced once
        with mock.patch.object(series, "_coerce_coeff", wraps=series._coerce_coeff) as coerce:
            m = MultiSeries.monomial(caps, True, x=1, q=2)
        assert coerce.call_count == 1
        assert m.coeffs == {series._pack(1, 0, 0, 2): 1}
        assert all(type(c) is int for c in m.coeffs.values())

    @pytest.mark.parametrize("e", [(0, 4096, 0, 0), (0, 0, 4097, 0), (0, 0, 0, 4096), (1, 0, 0, 8191)])
    def test_from_terms_drops_exponents_past_a_field(self, e):
        # an exponent of 4096 or more does not fit its 12-bit field; it lies
        # past every cap, so the term is dropped and never carries into the
        # next field as another monomial
        caps = Caps.of(8)
        assert MultiSeries.from_terms(caps, [(e, 5)]) == MultiSeries.zero(caps)
        assert list(MultiSeries.monomial(caps, 1, *e).terms()) == []
        with pytest.raises(ValueError, match="exponents must be >= 0"):
            MultiSeries.from_terms(caps, [(e, 5), ((0, -1, 0, 0), 1)])

    def test_times_x(self):
        s = ONE + 2 * X
        # a power series has no x^-1 term, as monomial and from_terms agree
        with pytest.raises(ValueError, match="exponents must be >= 0"):
            s.times_x(-1)
        assert s.times_x(0) == s
        shifted = s.times_x(3)
        assert shifted.caps == Caps(CAPS.x + 3, CAPS.w, CAPS.v, CAPS.q)
        assert list(shifted.terms()) == [((3, 0, 0, 0), 1), ((4, 0, 0, 0), 2)]


class TestFromSlices:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(multi_series(), max_size=8),
        st.sampled_from("wvq"),
    )
    def test_matches_sum_of_shifted_slices(self, slices, var):
        # slice m is made free of var, then lands on var^m
        caps = Caps.of(5)
        zero = MultiSeries.zero(caps)
        free = [s.substitute(var, zero) for s in slices]
        expected = zero
        for m, s in enumerate(free):
            expected = expected + MultiSeries.monomial(caps, 1, **{var: m}) * s
        assert MultiSeries.from_slices(caps, var, free) == expected

    def test_reads_no_slice_past_the_var_cap(self):
        caps = Caps(4, 1, 2, 1)

        def slices():
            yield from (MultiSeries.zero(caps), MultiSeries.one(caps))
            yield MultiSeries.monomial(caps, 3, x=1)
            raise AssertionError("a slice past the v cap was read")

        out = MultiSeries.from_slices(caps, "v", slices())
        assert list(out.terms()) == [((0, 0, 1, 0), 1), ((1, 0, 2, 0), 3)]

    def test_refusals(self):
        caps = Caps.of(3)
        one, v = MultiSeries.one(caps), MultiSeries.monomial(caps, 1, v=1)
        with pytest.raises(ValueError, match=r"^slice v\^1 carries v$"):
            MultiSeries.from_slices(caps, "v", [one, one + v])
        with pytest.raises(ValueError, match=r"^slice w\^0 has caps"):
            MultiSeries.from_slices(caps, "w", [MultiSeries.one(Caps.of(2))])
        with pytest.raises(ValueError, match="cannot substitute into 'x'"):
            MultiSeries.from_slices(caps, "x", [one])


def ref_invert(coeffs, caps4):
    """The geometric-series inversion kept as a reference: for c*(1 + r)
    with c = 1 or -1, sums 1 + r + r**2 + ... one x order per product
    until the caps kill it."""
    c = coeffs.get(series._ZERO, 0)
    if c not in (1, -1):
        raise NonInvertibleError(f"constant term {c} is not a unit: expected 1 or -1")
    neg_r = {k: -c * v for k, v in coeffs.items() if k != series._ZERO}
    total = {series._ZERO: 1}
    power = neg_r
    while power:
        total = series._merge(total, power)
        power = series._mul(power, neg_r, caps4)
    return {k: c * v for k, v in total.items()}


def _inverse_or_error(s):
    try:
        return s.invert()
    except NonInvertibleError as exc:
        return str(exc)


class TestInversion:
    """The inverse equals the geometric series' key for key, both refuse
    the same series, and it is solved with no series product."""

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
    @given(multi_series(), st.sampled_from([1, -1]))
    def test_inverse_is_two_sided(self, a, c):
        unit = MultiSeries.one(a.caps)
        base = a + (c - a.coeff(0, 0, 0, 0)) * unit
        inv = base.invert()
        assert base * inv == unit
        assert inv * base == unit

    @settings(max_examples=150, deadline=None)
    @example(4, 0, 1, [(0, 0, 0, 1, -1)])  # 1 - q
    @example(4, 0, -1, [(0, 1, 1, 0, -1), (1, 0, 0, 0, 1)])  # -1 - wv + x
    @example(3, 1, 1, [(1, 0, 0, 0, 1)])  # no constant term
    @example(3, 0, 2, [(1, 0, 0, 0, 1)])  # non-unit constant terms
    @example(3, 0, -3, [])
    @example(5, 0, 1, [(0, 1, 0, 0, -1), (0, 0, 0, 1, -1), (1, 0, 1, 0, 1)])  # 1 - w - q + xv
    @example(6, 0, -1, [(0, 2, 0, 1, 3), (0, 0, 1, 0, 1), (2, 1, 1, 0, -2), (3, 0, 0, 2, 1)])
    @example(5, 0, -1, [(1, 1, 0, 0, 1), (0, 0, 2, 0, 1), (2, 0, 1, 1, -1)])  # block 0 is -1
    @given(
        st.integers(1, 6),
        st.integers(0, 1),
        st.sampled_from([1, -1]),
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

    def test_multi_block_inverse_makes_no_product(self, monkeypatch):
        # gf_B's denominator spans three v blocks; each block of its inverse
        # is solved by the recurrence from blocks already solved.
        order = 60
        caps = Caps.of(order)
        one = MultiSeries.one(caps)
        x = MultiSeries.monomial(caps, 1, x=1)
        xvc = x * MultiSeries.monomial(caps, 1, v=1) * catalan_series(caps)
        a = (one - x) * (one - xvc) * (one - x - xvc)
        assert len(series._dense_blocks(a.coeffs, order)) >= 2
        calls = []
        mul = series._mul
        monkeypatch.setattr(series, "_mul", lambda *args: calls.append(1) or mul(*args))
        inv = a.invert()
        assert calls == []
        monkeypatch.undo()
        assert a * inv == one

    @settings(max_examples=100, deadline=None)
    @given(multi_series(max_terms=8), st.sampled_from([1, -1]), st.integers(0, 5))
    def test_cap_prefix(self, a, c, n):
        # The inverse at x cap n is the inverse at n + 5 cut to n.
        base = a + (c - a.coeff(0, 0, 0, 0)) * MultiSeries.one(a.caps)
        caps, wide = Caps(n, 5, 5, 5), Caps(n + 5, 5, 5, 5)
        short = MultiSeries(base.coeffs, caps).invert()
        assert short == MultiSeries(MultiSeries(base.coeffs, wide).invert().coeffs, caps)

    def test_one_block_inverse_makes_no_product(self, monkeypatch):
        # fine's kernel 1 - x^2 C^2 is one block: the recurrence inverts it.
        order = 300
        caps = Caps.of(order)
        c = catalan_series(caps)
        x2 = MultiSeries.monomial(caps, 1, x=2)
        a = MultiSeries.one(caps) - x2 * c * c
        calls = []
        mul = series._mul
        monkeypatch.setattr(series, "_mul", lambda *args: calls.append(1) or mul(*args))
        inv = a.invert()
        assert calls == []
        monkeypatch.undo()
        assert a * inv == MultiSeries.one(caps)

    def test_th3_inversion_count(self, monkeypatch):
        calls = []
        invert = series._invert
        monkeypatch.setattr(series, "_invert", lambda *args: calls.append(1) or invert(*args))
        assert genfun.check_th3(12, 8, 14).passed
        assert len(calls) == 33


def _x_poly(caps, coeffs):
    """The series sum_k coeffs[k] x^k, in one block."""
    return MultiSeries.from_terms(caps, (((k, 0, 0, 0), c) for k, c in coeffs.items()))


class TestRecurrenceInversion:
    """A one-block series is inverted by its coefficient recurrence; the
    geometric series is the reference."""

    @pytest.mark.parametrize(
        "order, poly",
        [
            (0, {0: 1}),
            (5, {0: -1}),
            (1, {0: 1, 1: -1}),
            (12, {0: -1, 1: 3, 4: -2}),
            (40, {0: 1, 3: -1, 7: 5}),  # gaps
            (40, {0: -1, 39: 2, 40: -7}),  # terms at the cap
            (120, {0: 1, 2: 2**300 + 1, 5: -(2**599), 9: -1}),
            (300, {0: 1, 1: -1, 2: -1}),
            (300, {0: -1, 3: 1, 4: -2, 20: 3}),
        ],
    )
    def test_matches_geometric_series(self, order, poly):
        caps = Caps.of(order)
        a = _x_poly(caps, poly)
        got = a.invert()
        with mock.patch.object(series, "_invert", ref_invert):
            assert got == a.invert()

    def test_fibonacci_at_2000(self, monkeypatch):
        # 1/(1 - x - x^2) = sum F(n+1) x^n; each order takes min(n, 2)
        # products, so the dot product stops at the series' x degree.
        order = 2000
        a = _x_poly(Caps(order, 0, 0, 0), {0: 1, 1: -1, 2: -1})
        products = []
        mul = series.mul
        monkeypatch.setattr(series, "mul", lambda p, q: products.append(1) or mul(p, q))
        inv = a.invert()
        monkeypatch.undo()
        assert len(products) == 2 * order - 1
        fib = [1, 1]
        while len(fib) <= order:
            fib.append(fib[-1] + fib[-2])
        assert inv.coeffs == {series._pack(n, 0, 0, 0): f for n, f in enumerate(fib)}

    @pytest.mark.parametrize("poly", [{0: 2, 1: -1}, {0: -3}, {1: 1, 2: 1}, {0: 0, 3: 1}])
    def test_non_unit_rejected(self, poly):
        a = _x_poly(Caps.of(10), poly)
        assert len(series._dense_blocks(a.coeffs, 10)) == 1
        with pytest.raises(NonInvertibleError, match="is not a unit"):
            a.invert()


def ref_merge(a, b, sign=1):
    """The merge as it was while sums were re-trimmed."""
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
        assert got == ref_plus(a, b, sign)


PLUS_POOL = [1, -1, 2, -2, 3, -3]


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
    enough to cancel."""
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
    the checked construction key for key."""

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
    @pytest.mark.parametrize("x, y", [(1, 1), (1, -2), (1, -1), (3, -3), (-1, 2)])
    def test_sums_and_cancellation(self, ca, cb, x, y):
        # equal terms cancel in a - b, opposite ones in a + b
        a = _operand(ca, [(1, 1, 0, 0, x), (0, 0, 0, 0, 1), (2, 0, 2, 1, x)])
        b = _operand(cb, [(1, 1, 0, 0, y), (2, 0, 2, 1, y), (1, 0, 0, 1, y)])
        _assert_plus_matches_reference(a, b)
        _assert_plus_matches_reference(b, a)


class TestCut:
    """Sums and the letter sums' lowered terms cut stores that are already
    trimmed ints to narrower caps, without checking each coefficient
    again; data from outside still goes through the checked constructor."""

    @settings(max_examples=300, deadline=None)
    @given(plus_operands())
    def test_equals_trim_on_in_ring_stores(self, pair):
        a, b = pair
        caps = a.caps.meet(b.caps)
        assert series._cut(a.coeffs, caps) == series._trim(a.coeffs, caps)
        got = a.cut(b.caps)
        assert (got.caps, got.coeffs) == (caps, series._trim(a.coeffs, caps))

    def test_outside_non_int_still_raises(self):
        # in the caps, and past the x, w, v and q caps of CAPS = Caps.of(8)
        exps = [(1, 0, 0, 0), (9, 0, 0, 0), (0, 9, 0, 0), (0, 0, 9, 0), (0, 0, 0, 9)]
        for e in exps:
            for c in (Fraction(1, 2), 0.5, "1"):
                with pytest.raises(TypeError, match="must be int"):
                    MultiSeries({series._pack(*e): c}, CAPS)


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

    def test_refusals_by_message(self):
        caps, sub = Caps(6, 6, 3, 6), Caps.of(6)
        a = (MultiSeries.one(caps) - MultiSeries.monomial(caps, 1, x=1, v=1)).invert()
        one, x, w = (MultiSeries.monomial(sub, 1, x=e, w=f) for e, f in ((0, 0), (1, 0), (0, 1)))
        for s in (one, x):
            lost = "^substitution would lose precision: v cap 3 < x cap 6$"
            with pytest.raises(ValueError, match=lost):
                a.substitute("v", s)
        with pytest.raises(ValueError, match="^substitution into v has no exactness certificate$"):
            a.substitute("v", w)
        pure_v = (MultiSeries.one(sub) - MultiSeries.monomial(sub, 1, v=1)).invert()
        with pytest.raises(ValueError, match="^substitution into v is not x-adically convergent$"):
            pure_v.substitute("v", one)

    def test_x_substitution_unsupported(self):
        with pytest.raises(ValueError):
            ONE.substitute("x", X)

    def test_coerces_no_coefficient(self):
        # both stores are built from trimmed ints and only cut to the caps,
        # also when s has narrower caps than the series
        a = (ONE - X * V).invert() + X * W
        narrow = Caps(5, 8, 8, 8)
        subs = [
            ("v", (ONE - X).invert()),
            ("v", MultiSeries.monomial(narrow, 1, x=1, v=1)),
            ("q", MultiSeries.monomial(narrow, 1, x=1)),
        ]
        with mock.patch.object(series, "_coerce_coeff", wraps=series._coerce_coeff) as coerce:
            got = [(var, s, a.substitute(var, s)) for var, s in subs]
        assert coerce.call_count == 0
        for var, s, out in got:
            assert out == MultiSeries(dict(out.coeffs), out.caps)  # trimmed ints
            assert out.caps == a.caps.meet(s.caps), var
        # a series free of q comes back cut to the narrower caps
        assert got[2][2] == a.cut(narrow)

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
        assert not c - one - x * c * c


class TestSerialization:
    def test_canonical_form(self):
        s = MultiSeries.monomial(CAPS, -2, x=2) + X * V
        assert s.to_jsonable() == [
            {"exponents": [1, 0, 1, 0], "num": "1", "den": "1"},
            {"exponents": [2, 0, 0, 0], "num": "-2", "den": "1"},
        ]


FIELD_EXPS = st.sampled_from([0, 1, 2, 1999, 2000])
BLOCK_COEFFS = st.one_of(
    st.sampled_from([1, -1, 2, -2]),
    st.integers(-(2**700), 2**700),
    st.sampled_from([2**600 - 1, -(2**600 - 1), 2**64, -(2**64)]),
)


@st.composite
def block_store(draw, xcap):
    """A store of up to four blocks whose starts reach past the x cap; its
    w/v/q exponents collide often, so products cancel."""
    coeffs = {}
    for w, v, q in draw(st.lists(st.tuples(FIELD_EXPS, FIELD_EXPS, FIELD_EXPS), max_size=4, unique=True)):
        for x in draw(st.lists(st.integers(0, xcap + 3), min_size=1, max_size=5, unique=True)):
            c = draw(BLOCK_COEFFS)
            if c:
                coeffs[series._pack(x, w, v, q)] = c
    return coeffs


@st.composite
def block_products(draw):
    xcap = draw(st.integers(0, 6))
    caps4 = (xcap, *draw(st.tuples(*[st.sampled_from([0, 2, 2000])] * 3)))
    return draw(block_store(xcap)), draw(block_store(xcap)), caps4


def _key(x, w=0, v=0, q=0):
    return series._pack(x, w, v, q)


def _layouts(a, b, caps4):
    """The layouts _mul builds for nonempty a and b: each factor's blocks,
    cut where a term still reaches the x cap with the other's lowest x."""
    xcap = caps4[0]
    return (
        series._dense_blocks(a, xcap - (min(b) >> series._XSHIFT)),
        series._dense_blocks(b, xcap - (min(a) >> series._XSHIFT)),
    )


# _layouts, for the fresh interpreters that check a path under python -O
LAYOUTS_SRC = (
    "def lay(a, b, c):\n"
    "    lo = lambda d: min(d) >> series._XSHIFT\n"
    "    return series._dense_blocks(a, c[0] - lo(b)), series._dense_blocks(b, c[0] - lo(a))\n"
)


class TestBlockProduct:
    """The block path against the term-pair path, its reference."""

    @settings(max_examples=400, deadline=None)
    # 1 + w times 1 - w: the w terms of two block pairs cancel
    @example(({0: 1, _key(0, 1): 1}, {0: 1, _key(0, 1): -1}, (2, 2, 2, 2)))
    # field sums of 4000 lie past caps of 2000 and carry into no other field
    @example(
        ({0: 3, _key(1, 2000, 2000, 2000): -5}, {0: 7, _key(0, 2000, 2000, 2000): 2}, (3, 2000, 2000, 2000))
    )
    @example(({_key(1, 0, 2): 3}, {_key(0, 1): -2}, (2, 2, 2, 2)))  # single terms
    @example(({}, {0: 1, _key(0, 1): 1}, (2, 2, 2, 2)))  # empty
    @given(block_products())
    def test_matches_term_path(self, operands):
        a, b, caps4 = operands
        want = series._mul_terms(a, b, caps4) if a and b else {}
        assert series._mul(a, b, caps4) == want
        if a and b:
            la, lb = _layouts(a, b, caps4)
            assert series._mul_blocks(la, lb, caps4) == want
            assert series._mul_blocks(lb, la, caps4) == want

    @pytest.mark.parametrize("k, m", [(1, 4), (100, 6), (301, 4)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_slot_bound(self, k, m, sign):
        # Each of the n = 2^m - 1 terms of a meets one of b at x^(n-1)
        # w^(n-1), where the coefficient is sign * n * c^2 for c = 2^k - 1.
        # 2k + m + 2 is a multiple of 8, so the slot is exactly
        # bits(c) + bits(c) + bits(n) + 2 bits wide, with no rounding slack.
        n, c = 2**m - 1, 2**k - 1
        a = {_key(i, i): c for i in range(n)}
        b = {_key(i, i): sign * c for i in range(n)}
        caps4 = (n - 1, 2 * n, 0, 0)
        got = series._mul_blocks(*_layouts(a, b, caps4), caps4)
        assert got == series._mul_terms(a, b, caps4)
        assert got[_key(n - 1, n - 1)] == sign * n * c * c

    def test_exact_under_optimize(self):
        # The slot width is exact by construction, not by an assert.
        code = (
            "import random\n"
            "from catwords import series\n"
            "assert False, 'asserts are on'\n"
            "rng = random.Random(7)\n"
            "def store():\n"
            "    return {series._pack(rng.randint(0, 7), rng.choice((0, 1, 2000)), rng.randint(0, 2), 0):\n"
            "            rng.choice((-1, 1)) * (rng.getrandbits(rng.choice((2, 300))) + 1)\n"
            "            for _ in range(rng.randint(1, 12))}\n"
            "cases = [({series._pack(i, i, 0, 0): 2**100 - 1 for i in range(63)},\n"
            "          {series._pack(i, i, 0, 0): 1 - 2**100 for i in range(63)}, (62, 126, 0, 0))]\n"
            "cases += [(store(), store(), (5, 2000, 1, 2000)) for _ in range(300)]\n"
            + LAYOUTS_SRC
            + "bad = sum(series._mul_blocks(*lay(a, b, c), c) != series._mul_terms(a, b, c) for a, b, c in cases)\n"
            "print('mismatches', bad, 'of', len(cases))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-O", "-B", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mismatches 0 of 301\n"


# Coefficients of 2 to 600 bits, of both signs.
DENSE_COEFFS = st.tuples(st.integers(2, 600), st.sampled_from([1, -1])).flatmap(
    lambda t: st.integers(2 ** (t[0] - 1), 2 ** t[0] - 1).map(lambda c: t[1] * c)
)


@st.composite
def one_block_store(draw, xcap):
    """At least two terms under one (w, v, q) key, zero or not, with gaps
    and with x orders that reach past the x cap."""
    w, v, q = draw(st.tuples(FIELD_EXPS, FIELD_EXPS, FIELD_EXPS))
    xs = draw(st.lists(st.integers(0, xcap + 3), min_size=2, max_size=8, unique=True))
    return {series._pack(x, w, v, q): draw(DENSE_COEFFS) for x in xs}


@st.composite
def dense_products(draw):
    xcap = draw(st.integers(0, 8))
    caps4 = (xcap, *draw(st.tuples(*[st.sampled_from([0, 2, 2000])] * 3)))
    other = draw(st.one_of(one_block_store(xcap), block_store(xcap)))
    return draw(one_block_store(xcap)), other, caps4


class TestDenseProduct:
    """The dense path against the term-pair path, its reference."""

    @settings(max_examples=300, deadline=None)
    # (1 + x)(1 - x): the x terms cancel to 0
    @example(({0: 3, _key(1): 5}, {0: 5, _key(1): -3}, (2, 0, 0, 0)))
    # (c + x)(c - x) with c of 600 bits cancels in the middle
    @example(({0: 2**599 + 1, _key(1): 1}, {0: 2**599 + 1, _key(1): -1}, (4, 2, 2, 2)))
    # one block under a nonzero (w, v, q) key times two blocks
    @example(({_key(0, 1, 2, 0): 3, _key(2, 1, 2, 0): -2}, {_key(1): 4, _key(0, 0, 0, 1): 7}, (4, 2, 2, 2)))
    # every term of the one-block factor lies past the cap once the other
    # factor's lowest x is added
    @example(({_key(3): 1, _key(4): 2}, {_key(2): 5, _key(3, 1): 1}, (4, 2, 2, 2)))
    # a block sum past the w/v/q caps
    @example(({_key(0, 2): 1, _key(1, 2): 1}, {_key(0, 1): 1, _key(2, 1): -1}, (3, 2, 2, 2)))
    @given(dense_products())
    def test_matches_term_path(self, operands):
        a, b, caps4 = operands
        assert len({k & series._BLOCK for k in a}) == 1
        want = series._mul_terms(a, b, caps4) if b else {}
        if b:
            la, lb = _layouts(a, b, caps4)
            assert len(la) <= 1
            assert series._mul_dense(la, lb, caps4) == want
        assert series._mul(a, b, caps4) == want
        assert series._mul(b, a, caps4) == want

    def test_empty_when_past_the_cap(self):
        a = {_key(3): 1, _key(4): 2}
        b = {_key(2): 5, _key(3, 1): 1}
        assert series._mul_dense(*_layouts(a, b, (4, 2, 2, 2)), (4, 2, 2, 2)) == {}
        assert series._mul(a, b, (4, 2, 2, 2)) == {}

    def test_exact_under_optimize(self):
        # Neither the dense product nor the recurrence inverse rests on an
        # assert.
        code = (
            "import random\n"
            "from catwords import series\n"
            "assert False, 'asserts are on'\n"
            "rng = random.Random(11)\n"
            "def coeff():\n"
            "    return rng.choice((-1, 1)) * (rng.getrandbits(rng.choice((2, 64, 600))) + 1)\n"
            "def block(w, v, q):\n"
            "    return {series._pack(x, w, v, q): coeff() for x in rng.sample(range(12), rng.randint(2, 9))}\n"
            "def other():\n"
            "    d = {}\n"
            "    for _ in range(rng.randint(1, 4)):\n"
            "        d.update(block(rng.choice((0, 1, 2000)), rng.randint(0, 2), 0))\n"
            "    return d\n"
            "cases = [(block(rng.choice((0, 1)), 0, rng.randint(0, 2)), other(), (8, 2000, 1, 2000))\n"
            "         for _ in range(300)]\n"
            + LAYOUTS_SRC
            + "bad = sum(series._mul_dense(*lay(a, b, c), c) != series._mul_terms(a, b, c) for a, b, c in cases)\n"
            "print('mismatches', bad, 'of', len(cases))\n"
            "bad = 0\n"
            "for _ in range(100):\n"
            "    a = block(0, 0, 0)\n"
            "    a[0] = rng.choice((-1, 1))\n"
            "    inv = series._invert(a, (40, 0, 0, 0))\n"
            "    bad += series._mul_terms(a, inv, (40, 0, 0, 0)) != {0: 1}\n"
            "print('inverse mismatches', bad, 'of', 100)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-O", "-B", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "mismatches 0 of 300\ninverse mismatches 0 of 100\n"


def _blocks_in_reach(a, b, xcap):
    """The number of a's blocks with a term at or below x order xcap minus
    b's lowest x: the blocks whose terms can reach the x cap in a*b."""
    xlim = (xcap - (min(b) >> series._XSHIFT) + 1) << series._XSHIFT
    return len({k & series._BLOCK for k in a if k < xlim})


def _expected_path(a, b, caps4):
    if not a or not b:
        return []
    if min(len(a), len(b)) == 1:
        return ["_mul_terms"]
    if min(_blocks_in_reach(a, b, caps4[0]), _blocks_in_reach(b, a, caps4[0])) <= 1:
        return ["_mul_dense"]
    return ["_mul_blocks"]


def _record_paths(monkeypatch):
    """Patch the three product paths to log (name, len(first), len(second))
    of each call: term counts for _mul_terms, block counts for the others."""
    taken = []
    for name in ("_mul_blocks", "_mul_dense", "_mul_terms"):
        def counted(a, b, caps4, fn=getattr(series, name), name=name):
            taken.append((name, len(a), len(b)))
            return fn(a, b, caps4)

        monkeypatch.setattr(series, name, counted)
    return taken


class TestProductDispatch:
    """_mul takes the term path when a factor has one term, the block path
    when both factors' layouts hold two or more blocks within reach of the
    x cap, and the dense path otherwise, with the layout of at most one
    block first."""

    @pytest.mark.parametrize(
        "build, paths",
        [
            (lambda: genfun.gf_B(60), {"_mul_terms", "_mul_dense", "_mul_blocks"}),
            (lambda: genfun.gf_A_via_lemma(40, 42), {"_mul_terms", "_mul_dense", "_mul_blocks"}),
            (lambda: genfun.gf_fine(300), {"_mul_terms", "_mul_dense"}),
            (lambda: genfun.check_co1(24, 26), {"_mul_terms", "_mul_dense"}),
        ],
        ids=["B-60", "A-lemma-40", "fine-300", "co1-24"],
    )
    def test_path(self, monkeypatch, build, paths):
        taken = _record_paths(monkeypatch)
        wrong = []
        mul = series._mul

        def checked(a, b, caps4):
            want = _expected_path(a, b, caps4)
            n = len(taken)
            out = mul(a, b, caps4)
            if [name for name, *_ in taken[n:]] != want:
                wrong.append((want, taken[n:]))
            return out

        monkeypatch.setattr(series, "_mul", checked)
        build()
        assert wrong == []
        assert {name for name, *_ in taken} == paths
        for name, la, lb in taken:
            if name == "_mul_terms":
                assert min(la, lb) == 1
            elif name == "_mul_dense":
                assert la <= 1
            else:
                assert la >= 2 and lb >= 2

    def test_one_block_in_reach_takes_the_dense_path(self, monkeypatch):
        # Both factors span two blocks, but a's w block starts at x^3, past
        # the cap once b's lowest x (1) is added: one block is within reach.
        a = {_key(0): 1, _key(1): 2, _key(3, 1): 5}
        b = {_key(1): 3, _key(2, 0, 0, 1): 4}
        caps4 = (3, 2, 2, 2)
        assert len({k & series._BLOCK for k in a}) == len({k & series._BLOCK for k in b}) == 2
        taken = _record_paths(monkeypatch)
        got = [series._mul(a, b, caps4), series._mul(b, a, caps4)]
        assert taken == [("_mul_dense", 1, 2)] * 2
        monkeypatch.undo()
        want = series._mul_terms(b, a, caps4)
        assert want == {_key(1): 3, _key(2): 6, _key(2, 0, 0, 1): 4, _key(3, 0, 0, 1): 8}
        assert got == [want, want]

    def test_each_factor_grouped_once(self, monkeypatch):
        # A product off the term path groups each factor into blocks once,
        # with _dense_blocks, whichever path it then takes.
        want = genfun.gf_A4(24, 8, 26)
        taken = _record_paths(monkeypatch)
        groupings = []
        dense_blocks = series._dense_blocks
        monkeypatch.setattr(
            series, "_dense_blocks", lambda *args: groupings.append(1) or dense_blocks(*args)
        )
        mul = series._mul
        per_call = []

        def counted(a, b, caps4):
            n = len(groupings)
            out = mul(a, b, caps4)
            per_call.append((min(len(a), len(b)) >= 2, len(groupings) - n))
            return out

        monkeypatch.setattr(series, "_mul", counted)
        got = genfun.gf_A4(24, 8, 26)
        assert {name for name, *_ in taken} == {"_mul_terms", "_mul_dense", "_mul_blocks"}
        assert set(per_call) == {(True, 2), (False, 0)}
        assert got == want


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
        assert not a - a
