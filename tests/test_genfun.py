import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

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

    def test_order_terms_cover_the_order(self):
        # term j starts at x^j, so terms j <= order reach the x cap, and
        # one term fewer misses an x^order coefficient
        for order in range(1, 31):
            assert gf.gf_A_via_lemma(order, order) == gf.gf_A(order), order
            with pytest.raises(gf.StabilityError, match=f"^jmax={order - 1} cannot cover"):
                gf.gf_A_via_lemma(order, order - 1)
            assert gf._lemma_A(order, order - 1) != gf.gf_A(order), order


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
        a4 = gf.gf_A4(8, 4, 10)
        inner = a4.substitute("w", MultiSeries.one(a4.caps))
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


def _x_slice(ms, n, q=None):
    """The terms of ms at x^n, and only those at q^q when q is given."""
    return {e: c for e, c in ms.terms() if e[0] == n and q in (None, e[3])}


class TestTruncationContract:
    """A coefficient at x^n does not depend on the x cap above n: each
    route built at order N gives, at every x^n with n < N, what the same
    route built at order n gives."""

    N = 12

    @pytest.mark.parametrize("build", [gf.gf_A, gf.gf_B, gf.gf_fine], ids=lambda b: b.__name__)
    def test_one_variable_routes(self, build):
        deep, compared = build(self.N), 0
        for n in range(self.N):
            expected = _x_slice(build(n), n)
            assert _x_slice(deep, n) == expected, n
            compared += len(expected)
        assert compared > 0

    @pytest.mark.parametrize("build", [gf.gf_A4, gf.gf_A0], ids=lambda b: b.__name__)
    def test_letter_routes(self, build):
        # the q^k slice of x^n, read at qmax = k as the letter genfun route does
        deep, compared = build(self.N, 6, self.N + 2), 0
        for n in range(self.N):
            for k in range(1, (n + 1) // 2 + 1):
                expected = _x_slice(build(n, k, n + 2), n, k)
                assert _x_slice(deep, n, k) == expected, (n, k)
                compared += len(expected)
        assert compared > 0

    def test_jmax_past_the_caps_changes_nothing(self, monkeypatch):
        # Every sum stops at the last term inside the caps, so a jmax far
        # past them builds the same terms: the same results from the same
        # number of inversions.
        order = 8
        calls = []
        orig = series._invert
        monkeypatch.setattr(series, "_invert", lambda *a: calls.append(1) or orig(*a))

        def run(jmax):
            calls.clear()
            out = [
                gf.gf_A_via_lemma(order, jmax),
                gf.gf_A4(order, 5, jmax),
                gf.gf_A0(order, 5, jmax),
                *(check(order, jmax) for check in (gf.check_co1, gf.check_co2, gf.check_l2)),
            ]
            return out, len(calls)

        (*series_near, co1, co2, l2), inverts_near = run(order + 2)
        (*series_far, co1_far, co2_far, l2_far), inverts_far = run(10**9)
        assert series_far == series_near
        for near, far in ((co1, co1_far), (co2, co2_far), (l2, l2_far)):
            assert near.passed and far.passed and far.mismatch == near.mismatch
        assert inverts_far == inverts_near


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


class TestReportShape:
    """VerificationReport is a __slots__ class with the API of a dataclass:
    its defaults, equality, repr, an assignable millis and the bytes of
    to_jsonable."""

    MISMATCH = {"exponents": [1, 0, 0, 0], "lhs": "1", "rhs": "2"}

    def test_defaults(self):
        rep = gf.VerificationReport("co1", {"order": 4})
        assert rep.mismatch is None and rep.millis == 0.0
        assert rep.passed and rep.status == "pass"
        failed = gf.VerificationReport(identity="co1", params={}, mismatch=self.MISMATCH)
        assert not failed.passed and failed.status == "fail" and failed.millis == 0.0

    def test_equality(self):
        rep = gf.VerificationReport("co1", {"order": 4})
        assert rep == gf.VerificationReport("co1", {"order": 4}, None, 0.0)
        for other in (
            gf.VerificationReport("co2", {"order": 4}),
            gf.VerificationReport("co1", {"order": 5}),
            gf.VerificationReport("co1", {"order": 4}, self.MISMATCH),
            gf.VerificationReport("co1", {"order": 4}, millis=1.0),
            ("co1", {"order": 4}, None, 0.0),
        ):
            assert rep != other
        with pytest.raises(TypeError):
            hash(rep)

    def test_repr(self):
        rep = gf.VerificationReport("co1", {"order": 4}, self.MISMATCH, 1.5)
        assert repr(rep) == (
            "VerificationReport(identity='co1', params={'order': 4}, mismatch={'exponents': "
            "[1, 0, 0, 0], 'lhs': '1', 'rhs': '2'}, millis=1.5)"
        )

    def test_millis_is_assignable(self):
        rep = gf.VerificationReport("co1", {"order": 4})
        rep.millis = 2.5
        assert rep.millis == 2.5 and rep.to_jsonable()["millis"] == 2.5
        assert not hasattr(rep, "__dict__")

    def test_to_jsonable(self):
        rep = gf.VerificationReport("co1", {"order": 4}, millis=1.23456)
        assert json.dumps(rep.to_jsonable()) == (
            '{"identity": "co1", "params": {"order": 4}, "status": "pass", "millis": 1.235}'
        )
        rep = gf.VerificationReport("co1", {"order": 4}, self.MISMATCH, 0.5)
        assert json.dumps(rep.to_jsonable()) == (
            '{"identity": "co1", "params": {"order": 4}, "status": "fail", "millis": 0.5, '
            '"mismatch": {"exponents": [1, 0, 0, 0], "lhs": "1", "rhs": "2"}}'
        )


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
        # each L_j is one l_family(0, ·) step from L_{j-1}: one step per
        # main and one per weight, three of each at qmax 3
        seen = []
        monkeypatch.setattr(gf, "l_family", lambda j, seed: seen.append(j) or l_family(j, seed))
        gf.gf_A4(5, 3, 7)
        assert seen == [0] * 6

    def test_letter_sum_peak_memory(self):
        # The sum starts at -M inner, so one A4-sized series is alive at a
        # time (about 2.9 MiB; 2.4 MiB in the per-term bracket form).  The
        # fully factored form, which built sum_j main_j A_j and then
        # subtracted M inner, holding two at once, peaked at 3.8 MiB.
        gf.gf_A4(6, 3, 8)
        tracemalloc.start()
        try:
            gf.gf_A4(24, 8, 26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * 2**20, peak


def _per_term_a4(order, qmax, jmax):
    """gf_A4 in its per-term bracket form, sum_j x^(j+1) main_j (A(x, v
    L_j) - inner): each main multiplies its whole bracket, built at the
    main's lowered caps, and there is no M inner product.  The same pieces,
    L_j chain and lowered caps as gf_A4."""
    caps, mains, weights, inv_d = gf._letter_pieces(order, qmax, jmax)
    one = MultiSeries.one(caps)
    xc = gf._x_catalan(caps)

    def sum_a(pieces, seed, less):
        acc = MultiSeries.zero(less.caps)
        l = seed
        for k, piece in enumerate(pieces, 1):
            l = l_family(0, l.cut(piece.caps))
            less = less.cut(piece.caps)
            acc = acc + (piece * (gf._apply_A(l, xc) - less)).times_x(k)
        return acc

    inner = (gf._apply_A(one, xc) + sum_a(weights, one, MultiSeries.zero(caps))) * inv_d
    return sum_a(mains, MultiSeries.monomial(caps, 1, w=1), inner)


class TestFoldedLetterSum:
    """gf_A4 is built as sum_j x^(j+1) main_j A(x, v L_j) - M inner, each
    main riding its A's power chain: the stores and caps are the per-term
    bracket form's, with fewer block products."""

    @pytest.mark.parametrize("order, qmax, jmax", LETTER_GRID + [(24, 8, 26)])
    def test_equals_per_term_bracket_form(self, order, qmax, jmax):
        a4 = gf.gf_A4(order, qmax, jmax)
        ref = _per_term_a4(order, qmax, jmax)
        assert a4.caps == ref.caps
        assert a4.coeffs == ref.coeffs

    def test_block_product_work(self, monkeypatch):
        # Block pairs multiplied by _mul_blocks: 49,844 with a 4-variable
        # main_j x bracket product per term, 40,128 with one M inner.
        work = []
        orig = series._mul_blocks
        monkeypatch.setattr(
            series, "_mul_blocks", lambda a, b, caps: work.append(len(a) * len(b)) or orig(a, b, caps)
        )
        gf.gf_A4(24, 8, 26)
        assert sum(work) <= 40_128, sum(work)


def _letter_oracle(order, qmax, jmax):
    """gf_A4 and gf_A0 by the full-caps formula: every term is x^k /
    (p_{j-1} p_j) inverted at the full caps, every L_j one l_family call
    and every A(x, u) a _geometric sum.  No lowered cap and no slice join
    is used."""
    caps = Caps.of(order, q=qmax)
    one, zero = MultiSeries.one(caps), MultiSeries.zero(caps)
    x, w, v, q = (MultiSeries.monomial(caps, 1, **{name: 1}) for name in "xwvq")
    xc = x * catalan_series(caps)

    def a(u):
        return gf._geometric(x * u, u * xc)

    def term(j, z, k):
        den = series._cheb_p(j - 1, z, caps) * series._cheb_p(j, z, caps)
        return MultiSeries.monomial(caps, 1, x=k) * den.invert()

    js = range(min(jmax, order - 1, qmax - 1) + 1)
    mains = [MultiSeries.monomial(caps, 1, w=1, q=j + 1) * term(j + 1, "w", j + 1) for j in js]
    weights = [MultiSeries.monomial(caps, 1, q=j + 1) * term(j + 2, None, j + 1) for j in js]
    den = sum(weights, one)
    inner = a(v) + sum((wt * a(v * l_family(j, one)) for j, wt in zip(js, weights)), zero)
    inner = inner * den.invert()
    a4 = sum((main * (a(v * l_family(j, w)) - inner) for j, main in zip(js, mains)), zero)
    a0 = sum(mains, zero) * (one - q).invert() * den.invert()
    return a4, a0


class TestLoweredCaps:
    """Each term of the letter sums is built at the x cap lowered by its
    x^(j+1) factor and shifted back: every coefficient is the one the
    full-caps formula gives."""

    @pytest.mark.parametrize("order", range(1, 13))
    def test_letter_sums_match_full_caps_formula(self, order):
        for qmax in range(1, 7):
            for jmax in sorted({min(order - 1, qmax - 1), order + 2}):
                a4, a0 = _letter_oracle(order, qmax, jmax)
                assert gf.gf_A4(order, qmax, jmax) == a4, (qmax, jmax)
                assert gf.gf_A0(order, qmax, jmax) == a0, (qmax, jmax)

    def test_letter_sums_match_full_caps_formula_at_24(self):
        a4, a0 = _letter_oracle(24, 8, 26)
        assert gf.gf_A4(24, 8, 26) == a4
        assert gf.gf_A0(24, 8, 26) == a0


@st.composite
def xw_series(draw):
    """A series in x and w alone, with random caps and coefficients."""
    caps = Caps(draw(st.integers(0, 7)), draw(st.integers(0, 4)), draw(st.integers(0, 7)), 2)
    terms = draw(
        st.lists(
            st.tuples(st.integers(0, caps.x), st.integers(0, caps.w), st.integers(-3, 3)),
            max_size=8,
        )
    )
    return MultiSeries.from_terms(caps, (((ex, ew, 0, 0), c) for ex, ew, c in terms))


@st.composite
def xw_series_and_scale(draw):
    """An x, w series l and a scale in x, w and q at the same random caps."""
    l = draw(xw_series())
    caps = l.caps
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(0, caps.x), st.integers(0, caps.w), st.integers(0, caps.q),
                st.integers(-3, 3),
            ),
            max_size=6,
        )
    )
    scale = MultiSeries.from_terms(caps, (((ex, ew, 0, eq), c) for ex, ew, eq, c in terms))
    return l, scale


class TestApplyA:
    @settings(max_examples=150, deadline=None)
    @given(xw_series())
    def test_matches_geometric_sum(self, l):
        # A(x, v*l) = sum_m (x v l)^m C^(m-1), summed term by term
        caps = l.caps
        xc = gf._x_catalan(caps)
        vl = MultiSeries.monomial(caps, 1, v=1) * l
        expected = gf._geometric(MultiSeries.monomial(caps, 1, x=1) * vl, vl * xc)
        assert gf._apply_A(l, xc) == expected

    def test_l_with_v_raises(self):
        caps = Caps.of(6)
        l = MultiSeries.one(caps) + MultiSeries.monomial(caps, 1, v=1)
        with pytest.raises(ValueError, match=r"^slice v\^1 carries v$"):
            gf._apply_A(l, gf._x_catalan(caps))

    def test_l_with_v_raises_under_optimize(self):
        assert _apply_A_under_optimize("l = carrier\nscale = None") == (
            "ValueError slice v^1 carries v\n"
        )

    @settings(max_examples=150, deadline=None)
    @given(xw_series_and_scale())
    def test_scale_multiplies_the_sum(self, l_scale):
        l, scale = l_scale
        xc = gf._x_catalan(l.caps)
        assert gf._apply_A(l, xc, scale) == scale * gf._apply_A(l, xc)

    def test_scale_with_v_raises(self):
        caps = Caps.of(6)
        scale = MultiSeries.one(caps) + MultiSeries.monomial(caps, 1, v=1)
        with pytest.raises(ValueError, match=r"^slice v\^1 carries v$"):
            gf._apply_A(MultiSeries.one(caps), gf._x_catalan(caps), scale)

    def test_scale_with_v_raises_under_optimize(self):
        assert _apply_A_under_optimize("l = MultiSeries.one(caps)\nscale = carrier") == (
            "ValueError slice v^1 carries v\n"
        )


def _apply_A_under_optimize(setup):
    """What _apply_A(l, xc, scale) prints as ValueError under python -O,
    with l and scale set by setup from carrier = 1 + x v^2."""
    code = (
        "from catwords import genfun as gf\n"
        "from catwords.series import Caps, MultiSeries\n"
        "assert False, 'asserts are on'\n"
        "caps = Caps.of(6)\n"
        "carrier = MultiSeries.one(caps) + MultiSeries.monomial(caps, 1, x=1, v=2)\n"
        f"{setup}\n"
        "try:\n"
        "    gf._apply_A(l, gf._x_catalan(caps), scale)\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-O", "-B", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestChebTerms:
    @pytest.mark.parametrize("z", ["v", "w"])
    def test_u_only_term_is_the_z0_slice(self, z):
        # P_j(z) at z = 0 is U_j, so a piece at z = 0 is the U-only piece,
        # at every lowered x cap
        caps = Caps.of(6)
        for j in range(1, caps.x + 3):
            for k in range(caps.x + 1):
                piece = gf._cheb_piece(j, z, caps, k)
                zero = MultiSeries.zero(piece.caps)
                assert piece.substitute(z, zero) == gf._cheb_piece(j, None, caps, k), (j, k)


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
