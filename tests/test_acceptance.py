"""Acceptance suite: one test per criterion, exact equality throughout.

Every criterion prints a PASS line with its runtime (visible under
pytest -s or -v with -rP); stated time budgets are asserted, not just
observed.  Run with:  pytest tests/test_acceptance.py -v -s
"""

import time

import pytest

from catwords import counting as ct
from catwords import genfun as gf
from catwords import words
from catwords.series import Caps, MultiSeries, l_closed, l_family
from conftest import PROFILE_MAX_N, project

GOLDEN_4 = ["0,0,0,0", "0,0,1,0", "0,1,0,0", "0,1,0,1", "0,1,1,0"]
GOLDEN_5 = sorted(
    "00000 01000 00100 00010 01100 01010 01001 00110 00101 "
    "01110 01101 01011 01210 01021".split()
)


class _Budget:
    def __init__(self, name, limit=None):
        self.name, self.limit = name, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f} s)")
            if self.limit is not None:
                assert elapsed < self.limit, f"{self.name} exceeded {self.limit} s"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f} s)")
        return False


def test_01_cardinality_to_14():
    with _Budget("1 cardinality n<=14", limit=60):
        for n in range(1, 15):
            count = sum(1 for _ in words.enumerate_words(n))
            assert count == ct.catalan_number(n - 1), n


def test_02_golden_listings():
    with _Budget("2 golden listings"):
        got4 = [str(w) for w in words.enumerate_words(4)]
        assert got4 == GOLDEN_4
        got5 = ["".join(str(a) for a in w) for w in words.enumerate_words(5)]
        assert got5 == GOLDEN_5


def test_03_zeros_four_way(profiles):
    with _Budget("3 zeros four-way", limit=30):
        a = gf.gf_A(PROFILE_MAX_N)
        for n in range(1, PROFILE_MAX_N + 1):
            table = project(profiles[n], lambda c, d, M: c[0])
            for m in range(1, n + 1):
                enum = table.get(m, 0)
                assert enum == ct.a_zeros(n, m) == ct.a_zeros_closed(n, m)
                assert enum == a.coeff(n, v=m)
        for n in range(2, 201):
            for m in range(2, n + 1):
                assert ct.a_zeros(n, m) == ct.a_zeros_closed(n, m), (n, m)


def test_04_ones_four_way(profiles):
    with _Budget("4 ones four-way"):
        b = gf.gf_B(PROFILE_MAX_N)
        for n in range(1, PROFILE_MAX_N + 1):
            table = project(profiles[n], lambda c, d, M: c[1])
            for m in range(0, n):
                enum = table.get(m, 0)
                assert enum == ct.b_ones(n, m)
                assert enum == b.coeff(n, v=m)
                if m >= 1:
                    assert enum == ct.b_ones_closed(n, m)
        for n in range(1, 101):
            assert ct.b_ones(n, 0) == 1
            if n >= 2:
                assert ct.b_ones(n, n - 1) == 0
                assert ct.b_ones_closed(n, n - 1) == 0
            assert ct.b_ones_closed(n, n) == 0
            for m in range(1, n):
                assert ct.b_ones(n, m) == ct.b_ones_closed(n, m), (n, m)


def test_05_descents(profiles):
    with _Budget("5 descents"):
        for n in range(1, 21):
            for m in range(1, n + 1):
                assert sum(ct.a_desc(n, m, k) for k in range(n)) == ct.a_zeros(n, m)
        for n in range(1, PROFILE_MAX_N + 1):
            table = project(profiles[n], lambda c, d, M: (c[0], d))
            for m in range(1, n + 1):
                for k in range(n):
                    assert ct.a_desc(n, m, k) == table.get((m, k), 0), (n, m, k)


def test_06_letter_arrays(profiles):
    with _Budget("6 letter arrays"):
        for n in range(1, PROFILE_MAX_N + 1):
            top = (n - 1) // 2
            for i in range(1, top + 2):
                table = project(profiles[n], lambda c, d, M: (c[i], c[0]))
                for t in range(1, n + 1):
                    for s in range(0, n - t + 1):
                        assert ct.a_letter(i, n, s, t) == table.get((s, t), 0), (i, n, s, t)
            for t in range(1, n + 1):
                for i in range(top + 1, top + 4):
                    assert ct.a_letter(i, n, 0, t) == ct.a_zeros(n, t)
        for n in range(1, 15):
            total = sum(ct.max_letter_count(n, i) for i in range(n + 1))
            assert total == ct.catalan_number(n - 1)


def test_07_fine_numbers(profiles):
    with _Budget("7 fine numbers"):
        f = gf.gf_fine(60)
        assert [f.coeff(n) for n in range(1, 8)] == [1, 0, 1, 2, 6, 18, 57]
        for n in range(1, PROFILE_MAX_N + 1):
            zeros = project(profiles[n], lambda c, d, M: c[0])
            odd = sum(cnt for m, cnt in zeros.items() if m % 2 == 1)
            assert f.coeff(n) == odd
        for n in (13, 14):
            odd = sum(
                1 for w in words.enumerate_words(n) if w.count(0) % 2 == 1
            )
            assert f.coeff(n) == odd
        for n in range(1, 61):
            parity_sum = sum(ct.a_zeros(n, m) for m in range(1, n + 1, 2))
            assert f.coeff(n) == parity_sum


def test_08_chebyshev_suite():
    with _Budget("8 chebyshev suite"):
        assert gf.check_cheb_det(40).passed
        assert gf.check_cheb_shift(40).passed
        assert gf.check_cheb_limit(20).passed


def test_09_identity_residuals():
    with _Budget("9 identity residuals", limit=120):
        assert gf.check_l1(20).passed
        assert gf.check_l2(20, 22).passed
        assert gf.check_co1(30, 32).passed
        assert gf.check_co2(20, 22).passed
        assert gf.check_co4(20).passed
        assert gf.check_remark2(20).passed
        reports = gf.verify_all(20, 8, 22)
        assert all(r.passed for r in reports), [
            (r.identity, r.mismatch) for r in reports if not r.passed
        ]


def test_10_letter_theorems():
    with _Budget("10 letter-statistic sums"):
        a4 = gf.gf_A4(10, 5, 12)
        for n in range(1, 11):
            for i in range(1, 6):
                for t in range(1, n + 1):
                    for s in range(1, n - t + 1):
                        assert a4.coeff(n, w=t, v=s, q=i) == ct.a_letter(i, n, s, t)
        a0 = gf.gf_A0(10, 10, 12)
        for n in range(1, 11):
            for i in range(1, 11):
                for t in range(1, n + 1):
                    assert a0.coeff(n, w=t, q=i) == ct.a_letter(i, n, 0, t)
        # truncation stability: one more term changes nothing
        assert gf._first_mismatch(a4, gf.gf_A4(10, 5, 13)) is None
        assert gf._first_mismatch(a0, gf.gf_A0(10, 10, 13)) is None


def test_11_l_family_closed_forms():
    with _Budget("11 L family closed forms"):
        caps = Caps.of(15)
        for var in ("v", "w"):
            seed = MultiSeries.monomial(caps, 1, **{var: 1})
            for j in range(-1, 16):
                assert l_family(j, seed) == l_closed(j, caps, var), (var, j)
