import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from functools import cache
from itertools import accumulate
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catwords import counting as ct
from catwords.words import StatisticSpec, tally
from conftest import PROFILE_MAX_N, project

SRC = Path(__file__).resolve().parent.parent / "src"


def convolve(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                out[i + j] += ai * bj
    return out


class TestBasics:
    def test_binomial(self):
        assert ct.binomial(6, 3) == 20
        assert ct.binomial(4, 0) == 1
        assert ct.binomial(3, 5) == 0
        assert ct.binomial(3, -1) == 0
        with pytest.raises(ValueError):
            ct.binomial(-1, 0)

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=-3, max_value=63))
    def test_binomial_matches_comb(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert ct.binomial(n, k) == expected

    def test_catalan(self):
        assert [ct.catalan_number(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
        assert ct.catalan_number(9) == 4862
        with pytest.raises(ValueError):
            ct.catalan_number(-1)


class TestDescentArray:
    def test_boundaries(self):
        assert ct.a_desc(5, 5, 0) == 1
        assert ct.a_desc(5, 5, 3) == 0
        assert ct.a_desc(6, 2, 0) == 0

    def test_spec_values(self):
        assert ct.a_desc(4, 2, 1) == 2  # 0110, 0101
        assert ct.a_desc(4, 3, 1) == 2  # 0100, 0010

    def test_domain_errors(self):
        for bad in [(0, 1, 0), (3, 0, 1), (3, 4, 0), (3, 1, -1)]:
            with pytest.raises(ValueError):
                ct.a_desc(*bad)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_descent_sum_collapses_to_zero_count(self, n):
        for m in range(1, n + 1):
            assert sum(ct.a_desc(n, m, k) for k in range(n)) == ct.a_zeros(n, m)

    def test_matches_enumeration(self, profiles):
        for n in range(1, PROFILE_MAX_N + 1):
            table = project(profiles[n], lambda c, d, M: (c[0], d))
            for m in range(1, n + 1):
                for k in range(n):
                    assert ct.a_desc(n, m, k) == table.get((m, k), 0), (n, m, k)


class TestZeroArray:
    def test_spec_values(self):
        assert ct.a_zeros(5, 3) == 5
        assert ct.a_zeros(7, 7) == 1
        assert ct.a_zeros(6, 1) == 0
        assert ct.a_zeros_closed(5, 2) == 5
        assert ct.a_zeros_closed(5, 4) == 3
        assert ct.a_zeros_closed(4, 3) == 2
        assert ct.a_zeros_closed(1, 1) == 1
        assert ct.a_zeros_closed(5, 1) == 0

    def test_domain_errors(self):
        for bad in [(0, 1), (3, 0), (3, 4)]:
            with pytest.raises(ValueError):
                ct.a_zeros(*bad)
            with pytest.raises(ValueError):
                ct.a_zeros_closed(*bad)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_recurrence_equals_closed_form(self, n):
        for m in range(1, n + 1):
            assert ct.a_zeros(n, m) == ct.a_zeros_closed(n, m), (n, m)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_total_is_catalan(self, n):
        assert sum(ct.a_zeros(n, m) for m in range(1, n + 1)) == ct.catalan_number(n - 1)

    def test_matches_enumeration(self, profiles):
        for n in range(1, PROFILE_MAX_N + 1):
            table = project(profiles[n], lambda c, d, M: c[0])
            for m in range(1, n + 1):
                assert ct.a_zeros(n, m) == table.get(m, 0)

    @given(st.integers(min_value=1, max_value=80), st.data())
    def test_closed_form_agrees_everywhere(self, n, data):
        m = data.draw(st.integers(min_value=1, max_value=n))
        assert ct.a_zeros(n, m) == ct.a_zeros_closed(n, m)


class TestOnesArray:
    def test_spec_values(self):
        assert ct.b_ones(5, 2) == 7
        assert ct.b_ones(8, 0) == 1
        assert ct.b_ones(5, 4) == 0
        assert ct.b_ones_zeros(5, 2, 2) == 2  # 01210, 01021
        assert ct.b_ones_zeros(5, 1, 3) == 0
        assert ct.b_ones_zeros(4, 2, 2) == 2  # 0110, 0101
        assert ct.b_ones_closed(5, 2) == 7
        assert ct.b_ones_closed(5, 3) == 3
        assert ct.b_ones_closed(6, 1) == 4

    def test_domain_errors(self):
        for bad in [(0, 0), (4, 4), (3, -1)]:
            with pytest.raises(ValueError):
                ct.b_ones(*bad)
        for bad in [(2, 1, 2), (5, 4, 2), (5, 1, 1), (5, 1, 5)]:
            with pytest.raises(ValueError):
                ct.b_ones_zeros(*bad)
        with pytest.raises(ValueError):
            ct.b_ones_closed(3, 0)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_closed_equals_recurrence(self, n):
        for m in range(1, n + 1):
            expected = ct.b_ones(n, m) if m <= n - 1 else 0
            assert ct.b_ones_closed(n, m) == expected, (n, m)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_formula_vanishes_past_range(self, n):
        # the closed sum is stated up to m = n although b(n, m) = 0 there
        if n >= 2:
            assert ct.b_ones_closed(n, n - 1) == 0
        assert ct.b_ones_closed(n, n) == 0

    @pytest.mark.parametrize("n", range(3, 31))
    def test_refinement_sums_to_total(self, n):
        for m in range(1, n - 1):
            total = sum(ct.b_ones_zeros(n, m, i) for i in range(2, n - m + 1))
            assert total == ct.b_ones(n, m)

    def test_matches_enumeration(self, profiles):
        for n in range(1, PROFILE_MAX_N + 1):
            ones = project(profiles[n], lambda c, d, M: c[1])
            for m in range(n):
                assert ct.b_ones(n, m) == ones.get(m, 0)
            joint = project(profiles[n], lambda c, d, M: (c[1], c[0]))
            for m in range(1, n - 1):
                for i in range(2, n - m + 1):
                    assert ct.b_ones_zeros(n, m, i) == joint.get((m, i), 0)


class TestLetterArray:
    def test_spec_values(self):
        assert ct.a_letter(1, 5, 2, 2) == 2
        assert ct.a_letter(1, 5, 0, 5) == 1
        assert ct.a_letter(2, 5, 0, 4) == 3  # 01000, 00100, 00010
        assert ct.a_letter(4, 5, 0, 3) == ct.a_zeros(5, 3) == 5
        assert ct.a_letter(2, 5, 1, 2) == 2  # 01210, 01021

    def test_bound_forces_zero(self):
        for n in range(2, 12):
            for i in range(1, 5):
                for t in range(1, n + 1):
                    s = n - t - 2 * (i - 1) + 1
                    if s > 0:
                        assert ct.a_letter(i, n, s, t) == 0

    def test_only_zeros_word(self):
        for n in range(1, 10):
            for t in range(1, n + 1):
                assert ct.a_letter(1, n, 0, t) == (1 if t == n else 0)

    def test_domain_errors(self):
        for bad in [(0, 5, 1, 2), (1, 0, 1, 2), (1, 5, -1, 2), (1, 5, 1, 0)]:
            with pytest.raises(ValueError):
                ct.a_letter(*bad)

    @pytest.mark.parametrize("i", range(1, 8))
    def test_profile_totals(self, i):
        for n in range(1, PROFILE_MAX_N + 1):
            total = sum(
                ct.a_letter(i, n, s, t)
                for t in range(1, n + 1)
                for s in range(0, n - t + 1)
            )
            assert total == ct.catalan_number(n - 1), (i, n)

    def test_stabilization_in_i(self):
        for n in range(1, 13):
            for t in range(1, n + 1):
                expected = ct.a_zeros(n, t)
                for i in range((n - 1) // 2 + 1, (n - 1) // 2 + 4):
                    assert ct.a_letter(i, n, 0, t) == expected, (i, n, t)

    def test_matches_enumeration(self, profiles):
        for n in range(1, PROFILE_MAX_N + 1):
            for i in range(1, 8):
                joint = project(profiles[n], lambda c, d, M: (c[i], c[0]))
                for t in range(1, n + 1):
                    for s in range(0, n - t + 1):
                        assert ct.a_letter(i, n, s, t) == joint.get((s, t), 0)


class TestLetterRow:
    """letter_row(i, n, s) is the stored row read whole: entry t is
    a_letter(i, n, s, t), and every entry past the row's end is 0."""

    def test_matches_tally(self):
        for n in range(1, PROFILE_MAX_N + 1):
            letters = range(1, n + 3)
            specs = [StatisticSpec("zeros"), *(StatisticSpec("letter", i) for i in letters)]
            joint = tally(n, specs)
            for i in letters:
                by_s = {s: {} for s in range(n + 1)}
                for key, c in joint.items():
                    row = by_s[key[i]]
                    row[key[0]] = row.get(key[0], 0) + c
                for s, expected in by_s.items():
                    row = ct.letter_row(i, n, s)
                    assert {t: c for t, c in enumerate(row) if c} == expected, (i, n, s)

    def test_matches_a_letter(self):
        for n in range(1, 31):
            for i in range(1, (n + 1) // 2 + 3):
                for s in range(n + 2):
                    row = ct.letter_row(i, n, s)
                    assert all(c == 0 for c in row[n + 1:]), (i, n, s)
                    padded = row + (0,) * (n + 2 - len(row))
                    for t in range(1, n + 2):
                        assert padded[t] == ct.a_letter(i, n, s, t), (i, n, s, t)

    def test_domain_errors(self):
        for bad in [(0, 5, 1), (1, 0, 1), (1, 5, -1)]:
            with pytest.raises(ValueError):
                ct.letter_row(*bad)

    def test_domain_errors_under_optimize(self):
        out = _run_fresh(
            "assert False, 'asserts are on'\n"
            "from catwords import counting as ct\n"
            "for bad in [(0, 5, 1), (1, 0, 1), (1, 5, -1)]:\n"
            "    try:\n"
            "        ct.letter_row(*bad)\n"
            "    except ValueError:\n"
            "        print('ValueError')\n",
            flags=("-O",),
        )
        assert out.splitlines() == ["ValueError"] * 3


class TestMaxLetter:
    def test_spec_values(self):
        assert ct.max_letter_count(5, 2) == 2
        assert ct.max_letter_count(5, 0) == 1
        assert sum(ct.max_letter_count(5, i) for i in range(5)) == 14

    @pytest.mark.parametrize("n", range(1, 15))
    def test_totals_and_vanishing(self, n):
        assert sum(ct.max_letter_count(n, i) for i in range(n + 1)) == ct.catalan_number(n - 1)
        for i in range((n - 1) // 2 + 1, n + 2):
            assert ct.max_letter_count(n, i) == 0

    def test_matches_enumeration(self, profiles):
        for n in range(1, PROFILE_MAX_N + 1):
            table = project(profiles[n], lambda c, d, M: M)
            for i in range(n):
                assert ct.max_letter_count(n, i) == table.get(i, 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ct.max_letter_count(0, 0)
        with pytest.raises(ValueError):
            ct.max_letter_count(3, -1)


class TestCatalanPowers:
    def test_spec_values(self):
        assert ct.coeff_C_power(3, 1) == 5
        assert ct.coeff_C_power(2, 2) == 5
        assert ct.coeff_C_power(1, 3) == 3
        assert ct.coeff_C_power(0, 0) == 1
        assert ct.coeff_C_power(4, 0) == 0

    def test_against_convolution_oracle(self):
        order = 12
        c = [ct.catalan_number(n) for n in range(order + 1)]
        power = [1] + [0] * order
        for m in range(1, 7):
            power = convolve(power, c, order)
            for n in range(order + 1):
                assert ct.coeff_C_power(n, m) == power[n], (n, m)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ct.coeff_C_power(-1, 2)
        with pytest.raises(ValueError):
            ct.coeff_C_power(2, -1)


class TestFineNumbers:
    def test_first_terms(self):
        assert [ct.fine_number(n) for n in range(1, 8)] == [1, 0, 1, 2, 6, 18, 57]

    def test_matches_enumeration(self, profiles):
        for n in range(1, PROFILE_MAX_N + 1):
            zeros = project(profiles[n], lambda c, d, M: c[0])
            odd = sum(cnt for m, cnt in zeros.items() if m % 2 == 1)
            assert ct.fine_number(n) == odd

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ct.fine_number(0)


# The memoized recursions that the bottom-up tables replaced, kept as the
# reference the tables must equal.
@cache
def ref_a_desc(n, m, k):
    if m == n:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    total = 0
    for d in range(1, min(m, k) + 1):
        w = ct.binomial(m - 1, d)
        if w == 0:
            continue
        for j in range(1, n - m + 1):
            c = ct.binomial(j, d)
            if c:
                total += w * c * ref_a_desc(n - m, j, k - d)
    return total


@cache
def ref_a_zeros(n, m):
    if m == n:
        return 1
    return sum(
        (ct.binomial(j + m - 1, j) - 1) * ref_a_zeros(n - m, j)
        for j in range(1, n - m + 1)
    )


@cache
def ref_b_ones(n, m):
    if m == 0:
        return 1
    if m == n - 1:
        return 0
    return sum(
        (ct.binomial(i + m - 1, m) - 1) * ref_a_zeros(n - i, m)
        for i in range(2, n - m + 1)
    )


@cache
def ref_a_avoid(i, n, t):
    if i == 0:
        return 0
    total = 1 if n == t else 0
    for ell in range(1, n - t + 1):
        w = ct.binomial(ell + t - 1, ell) - 1
        if w:
            total += w * ref_a_avoid(i - 1, n - t, ell)
    return total


@cache
def ref_a_letter(i, n, s, t):
    # Three recursions, dispatched on (i, s): the avoidance recursion at s = 0,
    # a product formula at i = 1, and the reduction in i otherwise.
    if s == 0:
        return ref_a_avoid(i, n, t) if t <= n else 0
    if s > n - t - 2 * (i - 1):
        return 0
    if i == 1:
        if t < 2:
            return 0  # a one needs a zero on each side
        return (ct.binomial(s + t - 1, s) - 1) * ref_a_zeros(n - t, s)
    m = n - s - t - 2 * i + 4
    return sum(
        (ct.binomial(ell + t - 1, ell) - 1) * ref_a_letter(i - 1, n - t, s, ell)
        for ell in range(2, m + 1)
    )


def ref_max_letter_count(n, i):
    if i == 0:
        return 1
    return sum(ref_a_avoid(i + 1, n, t) - ref_a_avoid(i, n, t) for t in range(1, n + 1))


def assert_same_int(value, expected, where):
    assert value == expected and type(value) is int, where


class TestZeroArrayFill:
    """The zero array keeps running sums per source row between fills, so it
    must come out the same whatever order its rows are grown in, and a fill
    that fails partway through a row must resume without a source advanced
    twice."""

    N = 80

    @pytest.fixture(autouse=True)
    def fresh(self, monkeypatch):
        monkeypatch.setattr(ct, "_ZEROS", [[0]])
        monkeypatch.setattr(ct, "_SUFFIX", [(0, [0], 0)])

    def expected(self, rows):
        return [[0] + [ref_a_zeros(r, m) for m in range(1, r + 1)] for r in range(rows)]

    @pytest.mark.parametrize(
        "steps", [range(1, N + 1), [N], [5, 17, 18, 60, N]], ids=["by-row", "at-once", "mixed"]
    )
    def test_fill_order_does_not_matter(self, steps):
        for n in steps:
            assert ct._zeros(n) == self.expected(n + 1)
        assert ct._ZEROS == self.expected(self.N + 1)

    # Row 41 makes passes 1-40 over a table warm to row 40, row 42 passes 41-81.
    @pytest.mark.parametrize("fail_at", [1, 20, 40, 41, 500])
    def test_interrupted_fill_resumes_exactly(self, monkeypatch, fail_at):
        ct._zeros(40)
        calls = []

        def flaky(y):
            calls.append(None)
            for k, v in enumerate(accumulate(y)):
                if len(calls) == fail_at and k == len(y) // 2:
                    raise RuntimeError("interrupted")
                yield v

        monkeypatch.setattr(ct, "accumulate", flaky)
        with pytest.raises(RuntimeError, match="interrupted"):
            ct._zeros(self.N)
        monkeypatch.setattr(ct, "accumulate", accumulate)
        published = len(ct._ZEROS)
        assert 41 <= published <= self.N
        assert ct._ZEROS == self.expected(published)  # no partial row is published
        assert ct._zeros(self.N) == self.expected(self.N + 1)


class TestCopiedAvoidanceRows:
    """Rows r <= 2k of avoidance layer k are the zero array's rows: a word
    needs length 2k + 1 to hold the letter k, and the bound is tight."""

    @pytest.mark.parametrize("k", range(1, 21))
    def test_rows_up_to_2k_are_zero_rows(self, k):
        for r in range(1, 2 * k + 1):
            assert ct._letter_row(0, k, r) == tuple(ct._zeros(r)[r])
            for t in range(1, r + 1):
                assert ct.a_letter(k, r, 0, t) == ct.a_zeros(r, t) == ref_a_avoid(k, r, t)
        r = 2 * k + 1
        assert [ct._letter_row(0, k, r)[t] for t in range(1, r + 1)] == [
            ref_a_avoid(k, r, t) for t in range(1, r + 1)
        ]
        assert any(ct.a_letter(k, r, 0, t) != ct.a_zeros(r, t) for t in range(1, r + 1))

    def test_max_letter_totals_to_80(self):
        for n in range(1, 81):
            total = sum(ct.max_letter_count(n, h) for h in range(n + 1))
            assert total == ct.catalan_number(n - 1), n


class TestTablesMatchRecursions:
    def test_descent_array(self):
        for n in range(1, 15):
            for m in range(1, n + 1):
                for k in range(n + 2):
                    assert_same_int(ct.a_desc(n, m, k), ref_a_desc(n, m, k), (n, m, k))

    def test_zero_and_one_arrays(self):
        for n in range(1, 61):
            for m in range(1, n + 1):
                assert_same_int(ct.a_zeros(n, m), ref_a_zeros(n, m), (n, m))
            for m in range(n):
                assert_same_int(ct.b_ones(n, m), ref_b_ones(n, m), (n, m))

    def test_avoidance_table(self):
        for n in range(1, 17):
            for i in range(1, n + 4):
                for t in range(1, n + 2):
                    assert_same_int(ct.a_letter(i, n, 0, t), ref_a_avoid(i, n, t), (i, n, t))

    def test_letter_table(self):
        for n in range(1, 17):
            for i in range(1, n + 4):
                for t in range(1, n + 2):
                    for s in range(0, n - t + 2):
                        where = (i, n, s, t)
                        assert_same_int(ct.a_letter(i, n, s, t), ref_a_letter(i, n, s, t), where)

    def test_letter_far_past_n_reads_layer_n(self):
        for t in range(1, 13):
            assert ct.a_letter(10**6, 12, 0, t) == ct.a_zeros(12, t)


def _run_fresh(code: str, timeout: int = 120, flags: tuple[str, ...] = ()) -> str:
    """Stdout of `code` run in a fresh interpreter, whose tables start empty."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, *flags, "-B", "-c", code],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_depth_does_not_grow_with_n():
    # Each check below needs a call depth near n under a recursive fill.
    _run_fresh(
        "import sys\n"
        "sys.setrecursionlimit(120)\n"
        "from catwords import counting as ct\n"
        "n = 250\n"
        "assert [ct.a_zeros(n, m) for m in range(1, n + 1)] == "
        "[ct.a_zeros_closed(n, m) for m in range(1, n + 1)]\n"
        "assert [ct.b_ones(n, m) for m in range(1, n)] == "
        "[ct.b_ones_closed(n, m) for m in range(1, n)]\n"
        "assert [sum(ct.a_desc(40, m, k) for k in range(40)) for m in range(1, 41)] == "
        "[ct.a_zeros(40, m) for m in range(1, 41)]\n"
        "assert sum(ct.max_letter_count(60, i) for i in range(60)) == ct.catalan_number(59)\n"
        "assert all(ct.a_letter(i, 60, 0, t) == ct.a_zeros(60, t)\n"
        "           for i in range(30, 62) for t in range(1, 61))\n"
        "assert [ct.a_letter(i, 60, 0, 1) for i in range(1, 30)] == [0] * 29\n"
        "assert sum(ct.a_letter(45, 92, s, t) for t in range(1, 93) for s in range(0, 93 - t))"
        " == ct.catalan_number(91)\n"
    )


def test_large_n_exact_under_optimize():
    # The recurrences must match the closed forms, whose divisions are
    # checked explicitly, with assert statements stripped.
    out = _run_fresh(
        "assert False, 'asserts are on'\n"
        "from catwords import counting as ct\n"
        "n = 300\n"
        "print([m for m in range(1, n + 1) if ct.a_zeros(n, m) != ct.a_zeros_closed(n, m)])\n"
        "print([m for m in range(1, n) if ct.b_ones(n, m) != ct.b_ones_closed(n, m)])\n",
        flags=("-O",),
    )
    assert out.splitlines() == ["[]", "[]"]


def test_ones_table_builds_no_weight_table():
    # b_ones steps along one column of binomials; only the letter layers
    # read the weight table.
    out = _run_fresh(
        "import contextlib, io\n"
        "from catwords import cli, counting as ct\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    assert cli.main(['count', '--table', 'ones', '--n', '200']) == 0\n"
        "print(ct._W == [[]])\n"
        "rows = dict(map(int, line.split()) for line in buf.getvalue().splitlines())\n"
        "print(len(rows), rows[0])\n"
        "print([m for m in range(1, 200) if rows.get(m, 0) != ct.b_ones_closed(200, m)])\n"
    )
    assert out.splitlines() == ["True", "199 1", "[]"]


def test_tables_are_the_only_store():
    # The public recurrences keep no memo: each call reads its table, and
    # their wrappers count every call, a repeated one too, as a miss.
    out = _run_fresh(
        "import json, tracemalloc\n"
        "from catwords import counting as ct, genfun\n"
        "read, letter_row = set(), ct.letter_row\n"
        "ct.letter_row = lambda i, n, s: read.add(s) or letter_row(i, n, s)\n"
        "tracemalloc.start()\n"
        "assert genfun.check_th3(12, 100, 14).passed\n"
        "held = tracemalloc.get_traced_memory()[0]\n"
        "ct.letter_row = letter_row\n"
        "calls = {'a_desc': (9, 3, 2), 'a_zeros': (9, 3), 'b_ones': (9, 3),\n"
        "         'a_letter': (2, 9, 1, 3)}\n"
        "infos = {}\n"
        "for name, args in calls.items():\n"
        "    f = getattr(ct, name)\n"
        "    before = f.cache_info().misses\n"
        "    assert f(*args) == f(*args)\n"
        "    info = f.cache_info()\n"
        "    infos[name] = [before, info.hits, info.misses, info.currsize]\n"
        "print(json.dumps({'held': held, 'infos': infos, 'read': sorted(read)}))\n"
    )
    result = json.loads(out)
    for name, (before, hits, misses, currsize) in result["infos"].items():
        assert (hits, misses, currsize) == (0, before + 2, 0), name
    assert result["read"] == list(range(1, 12))  # th3's reference reads rows s >= 1
    assert result["held"] < 2**20


def test_threaded_queries_are_consistent():
    # Eight threads fill cold tables from shuffled queries of every size.
    out = _run_fresh(
        "import json, random, sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from catwords import counting as ct\n"
        "sys.setswitchinterval(1e-6)\n"
        "queries = ([('a_zeros', n, m) for n in range(1, 40) for m in range(1, n + 1)]\n"
        "           + [('a_desc', n, m, k) for n in range(1, 16) for m in range(1, n + 1)\n"
        "              for k in range(n)]\n"
        "           + [('max_letter_count', n, i) for n in range(1, 30) for i in range(n)]\n"
        "           + [('a_letter', i, n, s, t) for n in range(1, 15) for i in range(1, 5)\n"
        "              for t in range(1, n + 1) for s in range(1, n - t + 1)])\n"
        "random.Random(5).shuffle(queries)\n"
        "with ThreadPoolExecutor(max_workers=8) as pool:\n"
        "    values = list(pool.map(lambda q: getattr(ct, q[0])(*q[1:]), queries, timeout=60))\n"
        "print(json.dumps([[*q, v] for q, v in zip(queries, values)]))\n"
    )
    reference = {
        "a_zeros": ct.a_zeros_closed,
        "a_desc": ref_a_desc,
        "max_letter_count": ref_max_letter_count,
        "a_letter": ref_a_letter,
    }
    results = json.loads(out)
    assert len(results) == 780 + 1240 + 435 + 1820
    for name, *args, value in results:
        assert value == reference[name](*args), (name, args)


def _fill_with_reader_waiting(monkeypatch, hook, step, fill):
    """Run `fill`, and at its first call of `hook` (which does `step`), wake
    a reader that runs `fill` too and give it a moment to answer.  Returns
    what the filler and the reader got, and whether the reader answered
    while the fill was still under way."""
    reader_started, reader_done = threading.Event(), threading.Event()
    read = []

    def reader():
        reader_started.set()
        read.append(fill())
        reader_done.set()

    answered_mid_fill = []
    thread = threading.Thread(target=reader, daemon=True)

    def hooked(*args):
        if not answered_mid_fill:
            thread.start()
            reader_started.wait(10)
            answered_mid_fill.append(reader_done.wait(0.5))
        return step(*args)

    monkeypatch.setattr(ct, hook, hooked)
    built = fill()
    thread.join(10)
    monkeypatch.setattr(ct, hook, step)
    return built, read, answered_mid_fill


def test_reader_waits_for_a_row_being_filled(monkeypatch):
    # The builder, in the middle of filling row n of a cold table, wakes a
    # reader of that same row and gives it a moment to answer.  A row
    # published before it is filled would answer at once, with a partial
    # row; a published row is only ever a finished one, so the reader must
    # wait on the lock until the fill is done.
    n = 12
    # A letter layer: each entry is a sum of products.
    s, i = 0, 1
    monkeypatch.setattr(ct, "_LETTER", [])
    ct._zeros(n)  # every other table the fill reads is warm
    ct._letter_row(s, i, n - 1)
    built, read, answered = _fill_with_reader_waiting(
        monkeypatch, "mul", mul, lambda: tuple(ct._letter_row(s, i, n))
    )
    assert answered == [False]
    assert read == [built]
    assert built == tuple(ref_a_letter(i, n, s, t) if t else 0 for t in range(n + 1))
    # The zero array: each source row takes one running-sum pass per row.
    monkeypatch.setattr(ct, "_ZEROS", [[0]])
    monkeypatch.setattr(ct, "_SUFFIX", [(0, [0], 0)])
    ct._zeros(n - 1)
    built, read, answered = _fill_with_reader_waiting(
        monkeypatch, "accumulate", accumulate, lambda: tuple(ct._zeros(n)[n])
    )
    assert answered == [False]
    assert read == [built]
    assert built == tuple(ref_a_zeros(n, m) if m else 0 for m in range(n + 1))
