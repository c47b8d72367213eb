import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catwords import counting as ct
from catwords import genfun as gf
from catwords import series
from catwords.series import Caps, MultiSeries, catalan_series, l_closed, l_family
from conftest import PROFILE_MAX_N, project

SRC = Path(__file__).resolve().parent.parent / "src"


class TestZerosGF:
    def test_spot_values(self):
        a = gf.gf_A(6)
        assert a.coeff(5, v=2) == 5
        for n in range(2, 7):
            assert a.coeff(n, v=1) == 0
        assert a.coeff(1, v=1) == 1

    def test_collapse_at_v1(self):
        a = gf.gf_A(10)
        collapsed = a.substitute("v", MultiSeries.one(a.caps))
        for n in range(1, 11):
            assert collapsed.coeff(n) == ct.catalan_number(n - 1)
        assert collapsed.coeff(0) == 0

    def test_slices(self):
        assert gf.gf_A_m(1, 6).to_jsonable() == [
            {"exponents": [1, 0, 0, 0], "num": "1", "den": "1"}
        ]
        assert gf.gf_A_m(2, 6).coeff(5) == 5
        with pytest.raises(ValueError):
            gf.gf_A_m(0, 5)

    def test_slice_past_the_order_multiplies_nothing(self, monkeypatch):
        # x^m lies past the x cap, so no power of C(x) is needed
        calls = []
        orig = series._mul
        monkeypatch.setattr(series, "_mul", lambda *a: calls.append(a) or orig(*a))
        assert gf.gf_A_m(50, 5) == MultiSeries.zero(Caps.of(5))
        assert calls == []
        assert gf.gf_A_m(6, 5) == MultiSeries.zero(Caps.of(5))
        assert gf.gf_A_m(5, 5).coeff(5) == 1

    def test_matches_enumeration(self, profiles):
        a = gf.gf_A(PROFILE_MAX_N)
        for n in range(1, PROFILE_MAX_N + 1):
            zeros = project(profiles[n], lambda c, d, M: c[0])
            for m in range(1, n + 1):
                assert a.coeff(n, v=m) == zeros.get(m, 0)

    def test_three_routes_agree_to_40(self):
        a = gf.gf_A(40)
        for n in range(1, 41):
            for m in range(1, n + 1):
                assert (
                    a.coeff(n, v=m) == ct.a_zeros(n, m) == ct.a_zeros_closed(n, m)
                ), (n, m)


class TestOnesGF:
    def test_spot_values(self):
        b = gf.gf_B(8)
        assert b.coeff(5, v=2) == 7
        for n in range(1, 9):
            assert b.coeff(n, v=0) == 1

    def test_collapse_at_v1(self):
        b = gf.gf_B(10)
        collapsed = b.substitute("v", MultiSeries.one(b.caps))
        for n in range(1, 11):
            assert collapsed.coeff(n) == ct.catalan_number(n - 1)

    def test_matches_recurrence(self):
        b = gf.gf_B(15)
        for n in range(1, 16):
            for m in range(0, n):
                assert b.coeff(n, v=m) == ct.b_ones(n, m)

    def test_same_totals_as_zeros_gf(self):
        one = MultiSeries.one(Caps.of(12))
        b_tot = gf.gf_B(12).substitute("v", one)
        a_tot = gf.gf_A(12).substitute("v", one)
        assert gf._first_mismatch(b_tot, a_tot) is None


def ref_first_mismatch(lhs, rhs):
    """The sort-every-exponent comparison kept as a reference."""
    caps = lhs.caps.meet(rhs.caps)
    exps = {e for e, _ in lhs.terms()} | {e for e, _ in rhs.terms()}
    for e in sorted(exps):
        x, w, v, q = e
        if x > caps.x or w > caps.w or v > caps.v or q > caps.q:
            continue
        cl, cr = lhs.coeff(x, w, v, q), rhs.coeff(x, w, v, q)
        if cl != cr:
            return {"exponents": list(e), "lhs": str(cl), "rhs": str(cr)}
    return None


class TestFirstMismatch:
    def test_matches_sorted_reference(self):
        found = 0
        for seed in range(300):
            rng = random.Random(seed)

            def caps():
                return Caps(rng.randint(2, 6), *(rng.randint(1, 3) for _ in range(3)))

            def exps():
                return (rng.randint(0, 6), rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))

            def coeff():
                return rng.randint(-3, 3)

            terms = [(exps(), coeff()) for _ in range(rng.randint(0, 25))]
            changed = list(terms)
            for _ in range(rng.randint(0, 3)):
                if changed and rng.random() < 0.3:
                    changed.pop(rng.randrange(len(changed)))
                else:
                    changed.append((exps(), coeff()))
            lcaps = caps()
            rcaps = lcaps if rng.random() < 0.5 else caps()
            lhs = MultiSeries.from_terms(lcaps, terms)
            rhs = MultiSeries.from_terms(rcaps, changed)
            for a, b in ((lhs, rhs), (rhs, lhs), (lhs, lhs)):
                want = ref_first_mismatch(a, b)
                assert gf._first_mismatch(a, b) == want
                assert a.first_difference(b) == (None if want is None else tuple(want["exponents"]))
                found += want is not None
        assert found > 100


class TestFineGF:
    def test_first_terms(self):
        f = gf.gf_fine(7)
        assert [f.coeff(n) for n in range(1, 8)] == [1, 0, 1, 2, 6, 18, 57]

    def test_equals_odd_slices(self):
        f = gf.gf_fine(10)
        odd = MultiSeries.zero(f.caps)
        for m in range(1, 11, 2):
            odd = odd + gf.gf_A_m(m, 10)
        assert gf._first_mismatch(f, odd) is None


class TestLemmaRoute:
    def test_matches_closed_form(self):
        lhs = gf.gf_A_via_lemma(10, 12)
        assert gf._first_mismatch(lhs, gf.gf_A(10)) is None

    def test_insufficient_terms_rejected(self):
        with pytest.raises(gf.StabilityError):
            gf.gf_A_via_lemma(10, 5)

    def test_extra_terms_change_nothing(self):
        assert gf._first_mismatch(gf.gf_A_via_lemma(8, 9), gf.gf_A_via_lemma(8, 14)) is None


class TestChecks:
    @pytest.mark.parametrize("order", [1, 5, 25])
    def test_functional_equation(self, order):
        assert gf.check_l1(order).passed

    def test_lemma_vs_theorem(self):
        assert gf.check_l2(15, 17).passed

    def test_co1(self):
        assert gf.check_co1(30, 32).passed

    def test_co1_single_term_fails_at_x2(self):
        rep = gf.check_co1(3, 1)
        assert not rep.passed
        assert rep.mismatch["exponents"] == [2, 0, 0, 0]

    def test_co2(self):
        assert gf.check_co2(20, 22).passed

    def test_co3_and_co4(self):
        assert gf.check_co3(20).passed
        assert gf.check_co4(20).passed

    def test_th2(self):
        assert gf.check_th2(20).passed

    def test_remark2(self):
        assert gf.check_remark2(20).passed

    def test_cheb_suite(self):
        assert gf.check_cheb_det(40).passed
        assert gf.check_cheb_shift(40).passed
        assert gf.check_cheb_limit(20).passed


class TestLetterGFs:
    def test_a4_spot_values(self):
        a4 = gf.gf_A4(5, 3, 7)
        assert a4.coeff(5, w=2, v=2, q=1) == 2
        assert a4.coeff(5, w=2, v=1, q=2) == 2
        assert a4.coeff(3, w=2, v=1, q=1) == 1  # the word 010

    def test_a4_matches_recurrence(self, profiles):
        a4 = gf.gf_A4(9, 4, 11)
        for n in range(1, 10):
            for i in range(1, 5):
                joint = project(profiles[n], lambda c, d, M: (c[i], c[0]))
                for t in range(1, n + 1):
                    for s in range(1, n - t + 1):
                        assert a4.coeff(n, w=t, v=s, q=i) == joint.get((s, t), 0)

    def test_a4_no_stray_content(self):
        a4 = gf.gf_A4(6, 3, 8)
        for (x, w, v, q), c in a4.terms():
            assert q >= 1 and v >= 1 and w >= 1, (x, w, v, q, c)
            assert v <= x - w - 2 * (q - 1), (x, w, v, q, c)

    def test_a4_least_one_count(self):
        # at w=1, v=1 the q^1 slice counts words containing at least one 1
        a4 = gf.gf_A4(8, 3, 10)
        ones = MultiSeries.one(a4.caps)
        flat = a4.substitute("w", ones).substitute("v", ones)
        for n in range(2, 9):
            assert flat.coeff(n, q=1) == ct.catalan_number(n - 1) - 1

    def test_a0_spot_values(self):
        a0 = gf.gf_A0(6, 10, 8)
        assert a0.coeff(5, w=4, q=2) == 3
        for n in range(1, 7):
            assert a0.coeff(n, w=n, q=1) == 1
        for i in range(3, 11):
            assert a0.coeff(5, w=3, q=i) == ct.a_zeros(5, 3) == 5

    def test_a0_matches_recurrence(self):
        a0 = gf.gf_A0(9, 9, 11)
        for n in range(1, 10):
            for i in range(1, 10):
                for t in range(1, n + 1):
                    assert a0.coeff(n, w=t, q=i) == ct.a_letter(i, n, 0, t)

    def test_th3_and_th4_reports(self):
        assert gf.check_th3(8, 5, 10).passed
        assert gf.check_th4(8, 8, 10).passed

    def test_inner_slice_counts_by_occurrences(self):
        # A(x,1,v,q): the q^i v^s slice counts words with s copies of the
        # letter i, no matter how many zeros
        caps = Caps.of(8, q=4)
        _, weights = gf._letter_pieces(caps, 10)
        xc = gf._x_catalan(caps)
        inner = gf._a4_inner(weights, gf._apply_A(MultiSeries.monomial(caps, 1, v=1), xc), xc)
        for n in range(1, 9):
            for i in range(1, 5):
                for s in range(1, n + 1):
                    expected = sum(
                        ct.a_letter(i, n, s, t) for t in range(1, n - s + 1)
                    )
                    assert inner.coeff(n, v=s, q=i) == expected, (n, i, s)

    def test_insufficient_terms_rejected(self):
        with pytest.raises(gf.StabilityError):
            gf.gf_A4(10, 8, 3)
        with pytest.raises(gf.StabilityError):
            gf.gf_A0(10, 8, 3)

    @pytest.mark.parametrize("check", ["check_th3", "check_th4"])
    def test_check_rejects_jmax_one_short(self, check):
        # th3/th4 build jmax + 1 terms, enough here, but jmax itself is not
        with pytest.raises(gf.StabilityError):
            getattr(gf, check)(6, 4, 2)
        assert getattr(gf, check)(6, 4, 3).passed


class TestHarness:
    def test_fault_injection_locates_mismatch(self):
        a = gf.gf_A(8)
        poisoned = a + MultiSeries.monomial(a.caps, 1, x=4, v=2)
        rep = gf.compare_series("self-test", {}, a, poisoned)
        assert not rep.passed
        assert rep.mismatch["exponents"] == [4, 0, 2, 0]
        assert rep.mismatch["lhs"] != rep.mismatch["rhs"]

    def test_report_jsonable(self):
        rep = gf.check_co1(4, 6)
        payload = json.loads(json.dumps(rep.to_jsonable()))
        assert payload["identity"] == "co1"
        assert payload["status"] == "pass"
        assert "mismatch" not in payload
        assert payload["millis"] >= 0

    def test_verify_all_passes_quickly(self):
        reports = gf.verify_all(6, 4, 8)
        assert [r.identity for r in reports] == list(gf.IDENTITIES)
        assert all(r.passed for r in reports)

    def test_run_identity_rejects_unknown(self):
        with pytest.raises(ValueError):
            gf.run_identity("nope", 5)

    def test_single_identity_runner(self):
        assert gf.run_identity("remark2", 10).passed

    def test_millis_measured_by_the_runner(self):
        reports = gf.verify_all(6, 3) + [gf.run_identity(name, 6, 3) for name in gf.IDENTITIES]
        assert all(r.millis > 0 for r in reports), [(r.identity, r.millis) for r in reports]
        assert gf.check_co1(4, 6).millis == 0.0

    @pytest.mark.parametrize("name", ["cheb-det", "cheb-shift"])
    def test_cheb_jrange_follows_the_order(self, name):
        # no sum reads u_j above j = order + 1, so a large jmax buys nothing
        assert gf.run_identity(name, 6, jmax=60).params == {"jrange": 40}
        assert gf.run_identity(name, 50, jmax=60).params == {"jrange": 52}
        assert gf.run_identity(name, 50).params == {"jrange": 52}


def _report_without_millis(rep):
    payload = rep.to_jsonable()
    del payload["millis"]
    return payload


def _poison_constant(monkeypatch, j=3):
    """u_j with constant term 2; every other Chebyshev polynomial untouched."""
    orig = series.cheb_u

    def cheb_u(k):
        u = orig(k)
        return (u[0] + 1, *u[1:]) if k == j else u

    monkeypatch.setattr(series, "cheb_u", cheb_u)


class TestFaultInjection:
    """Each failure branch of the checks, reached by poisoning one input."""

    @pytest.fixture
    def bumped_u3(self, monkeypatch):
        """u_3 plus one; every other Chebyshev polynomial untouched."""
        _poison_constant(monkeypatch, 3)

    def test_cheb_det_mismatch(self, bumped_u3):
        # u_1 u_3 - u_2^2 = (2 - 2x) - (1 - x)^2 = 1 - x^2, not -x^2
        assert _report_without_millis(gf.check_cheb_det(10)) == {
            "identity": "cheb-det",
            "params": {"jrange": 10},
            "status": "fail",
            "mismatch": {"j": 3, "exponents": [0, 0, 0, 0], "lhs": "1", "rhs": "0"},
        }

    def test_cheb_shift_mismatch(self, bumped_u3):
        assert _report_without_millis(gf.check_cheb_shift(10)) == {
            "identity": "cheb-shift",
            "params": {"jrange": 10},
            "status": "fail",
            "mismatch": {"j": 3, "exponents": [0, 0, 0, 0], "lhs": "2", "rhs": "1"},
        }

    def test_cheb_limit_wrong_coefficient(self, monkeypatch):
        orig = series.cheb_u
        monkeypatch.setattr(series, "cheb_u", lambda j: (2,) if j == 0 else orig(j))
        assert _report_without_millis(gf.check_cheb_limit(5))["mismatch"] == {
            "j": 1, "exponents": [0, 0, 0, 0], "lhs": "2", "rhs": "1",
        }

    def test_cheb_limit_no_divergence(self, monkeypatch):
        # u_j/u_{j+1} in place of u_{j-1}/u_j: one order too good
        orig = series.cheb_u
        monkeypatch.setattr(series, "cheb_u", lambda j: orig(j + 1))
        assert _report_without_millis(gf.check_cheb_limit(5))["mismatch"] == {
            "j": 1, "reason": "no divergence at x^1",
        }

    def test_term_past_the_caps_is_never_built(self, monkeypatch):
        # u_8 first enters at letter term 6, which starts beyond the caps
        order, qmax, jmax = 6, 4, 5
        clean = gf.gf_A4(order, qmax, jmax), gf.gf_A0(order, qmax, jmax)
        _poison_constant(monkeypatch, jmax + 3)
        assert (gf.gf_A4(order, qmax, jmax), gf.gf_A0(order, qmax, jmax)) == clean
        assert gf.check_th3(order, qmax, jmax).passed
        assert gf.check_th4(order, qmax, jmax).passed

    @pytest.mark.parametrize("stage", ["first", "last"])
    def test_chain_reports_the_failing_stage(self, monkeypatch, stage):
        # th2 compares A with three references; poison only the first or the last
        if stage == "first":
            orig = gf.gf_A_m
            monkeypatch.setattr(
                gf, "gf_A_m",
                lambda m, order: orig(m, order) + MultiSeries.monomial(Caps.of(order), int(m == 2), x=5),
            )
        else:
            orig = ct.a_zeros_closed
            monkeypatch.setattr(gf.counting, "a_zeros_closed", lambda n, m: orig(n, m) + ((n, m) == (5, 2)))
        assert _report_without_millis(gf.check_th2(6))["mismatch"] == {
            "exponents": [5, 0, 2, 0], "lhs": "5", "rhs": "6",
        }


# (order, qmax, jmax): jmax at, just above and well above the smallest
# accepted value, qmax below, at and above the order.
LETTER_GRID = [
    (1, 1, 0), (1, 1, 2), (2, 1, 0), (2, 2, 1), (3, 1, 0), (3, 2, 1),
    (3, 5, 2), (4, 2, 1), (4, 4, 3), (4, 4, 6), (5, 3, 2), (5, 3, 7),
    (6, 2, 1), (6, 6, 5), (7, 3, 4), (8, 5, 6), (8, 8, 9),
]


class TestDeepChecks:
    """th3/th4, l2, co1 and co2 at more orders and terms than TestChecks."""

    @pytest.mark.parametrize("qmax", [3, 8])
    @pytest.mark.parametrize("order", [6, 12, 24])
    def test_letter_sums(self, order, qmax):
        assert gf.check_th3(order, qmax, order + 2).passed
        assert gf.check_th4(order, qmax, order + 2).passed

    @pytest.mark.parametrize("order", [20, 40])
    def test_lemma(self, order):
        assert gf.check_l2(order, order + 2).passed

    def test_co1(self):
        assert gf.check_co1(24, 26).passed

    def test_co2(self):
        assert gf.check_co2(24, 26).passed


def _all_ints(ms):
    return all(type(c) is int for c in ms.coeffs.values())


def _builders(order):
    """Every series builder at x order `order`, as (name, series) pairs."""
    caps = Caps.of(order)
    yield "catalan_series", catalan_series(caps)
    yield "gf_A", gf.gf_A(order)
    for m in range(1, order + 1):
        yield f"gf_A_m({m})", gf.gf_A_m(m, order)
    yield "gf_B", gf.gf_B(order)
    yield "gf_fine", gf.gf_fine(order)
    yield "gf_A_via_lemma", gf.gf_A_via_lemma(order, order + 2)
    for qmax in (3, 8):
        yield f"gf_A4(qmax={qmax})", gf.gf_A4(order, qmax, order + 2)
        yield f"gf_A0(qmax={qmax})", gf.gf_A0(order, qmax, order + 2)
    for var in ("v", "w"):
        seed = MultiSeries.monomial(caps, 1, **{var: 1})
        for j in range(-1, order + 1):
            yield f"l_family({j}, {var})", l_family(j, seed)
            yield f"l_closed({j}, {var})", l_closed(j, caps, var)


class TestIntegerCoefficients:
    """Every builder stores int coefficients only: the kernel computes over
    the integers, so a count is read with coeff and needs no conversion."""

    @pytest.mark.parametrize("order", range(1, 13))
    def test_every_builder_stores_ints(self, order):
        for name, ms in _builders(order):
            assert _all_ints(ms), name


class TestSharedPieces:
    """The letter sums assembled from shared pieces equal the letter-count
    recurrences term by term, with int coefficients, and th3/th4 compute
    each piece once."""

    @pytest.mark.parametrize("order, qmax, jmax", LETTER_GRID)
    def test_a4_equals_per_term_reference(self, order, qmax, jmax):
        assert gf.check_th3(order, qmax, jmax).passed
        a4 = gf.gf_A4(order, qmax, jmax)
        assert _all_ints(a4)
        # term jmax+1 lies beyond the caps, so th3 may build one term more
        assert a4 == gf.gf_A4(order, qmax, jmax + 1)

    @pytest.mark.parametrize("order, qmax, jmax", LETTER_GRID)
    def test_a0_equals_per_term_reference(self, order, qmax, jmax):
        assert gf.check_th4(order, qmax, jmax).passed
        a0 = gf.gf_A0(order, qmax, jmax)
        assert _all_ints(a0)
        assert a0 == gf.gf_A0(order, qmax, jmax + 1)

    def test_th3_inverts_each_piece_once(self, monkeypatch):
        calls = []
        orig = series._invert
        monkeypatch.setattr(series, "_invert", lambda *a: calls.append(1) or orig(*a))
        assert gf.check_th3(12, 8, 14).passed
        assert len(calls) <= 40  # 178 when each cut rebuilt every piece

    def test_l_chain_steps_l_family(self, monkeypatch):
        seen = []
        monkeypatch.setattr(gf, "l_family", lambda j, seed: seen.append(j) or l_family(j, seed))
        caps = Caps.of(5, q=3)
        w = MultiSeries.monomial(caps, 1, w=1)
        assert list(gf._l_chain(w, 4)) == [l_family(j, w) for j in range(4)]
        assert seen == [0, 0, 0, 0]


class TestChebTerms:
    @pytest.mark.parametrize("z", ["v", "w"])
    def test_u_only_term_is_the_z0_slice(self, z):
        # P_j(z) at z = 0 is U_j, so T_j(z) at z = 0 is the U-only term,
        # including the zero terms that start beyond the x cap
        order = 6
        caps = Caps.of(order)
        zero = MultiSeries.zero(caps)
        for j in range(1, order + 3):
            assert gf._cheb_term(j, z, caps).substitute(z, zero) == gf._cheb_term(j, None, caps), j


# Every builder that inverts a Chebyshev denominator, run under python -O
# with u_3 poisoned.
POISONED_CALLS = [
    "gf.check_co1(4, 6)",
    "gf.gf_A_via_lemma(4, 6)",
    "gf.gf_A4(4, 3, 5)",
    "gf.gf_A0(4, 3, 5)",
    "gf.check_co2(4, 6)",
    "gf.check_l2(4, 6)",
]


class TestCertificates:
    def test_not_a_usage_error(self):
        assert issubclass(gf.CertificateError, AssertionError)
        assert not issubclass(gf.CertificateError, ValueError)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gf.check_co1(4, 6),
            lambda: gf.gf_A_via_lemma(4, 6),
            lambda: gf.gf_A4(4, 3, 5),
            lambda: gf.gf_A0(4, 3, 5),
            lambda: gf.check_co2(4, 6),
            lambda: gf.check_l2(4, 6),
        ],
    )
    def test_poisoned_leading_order_raises(self, monkeypatch, build):
        # a denominator's leading order is its constant term, which must be 1
        _poison_constant(monkeypatch)
        with pytest.raises(
            gf.CertificateError, match=r"^T_3\((0|v)\) denominator: constant term 2, expected 1$"
        ):
            build()

    def test_raised_under_optimize(self):
        out = _certificate_under_optimize(3, POISONED_CALLS).splitlines()
        assert len(out) == len(POISONED_CALLS), out
        for line in out:
            assert re.match(r"CertificateError T_3\((0|v)\) denominator: constant term 2", line), out


def _certificate_under_optimize(poisoned, calls):
    """What each of calls prints as CertificateError under python -O, with
    u_poisoned given constant term 2."""
    code = (
        "from catwords import genfun as gf, series\n"
        "assert False, 'asserts are on'\n"
        "orig = series.cheb_u\n"
        f"series.cheb_u = lambda k: (orig(k)[0] + 1, *orig(k)[1:]) if k == {poisoned} else orig(k)\n"
        f"for call in {calls!r}:\n"
        "    try:\n"
        "        eval(call)\n"
        "    except gf.CertificateError as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    else:\n"
        "        print('no CertificateError:', call)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-B", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
