"""Exact counting arrays for Catalan-word statistics.

Each statistic has at least two independent routes: a recurrence and
(where one exists) a closed form.  All arithmetic is unbounded integers;
closed-form divisions are performed in the integers and checked for
exactness, which doubles as a self-test.

The recurrences are filled bottom-up in n, into private tables that grow
in place, one whole row of n at a time, so no evaluation recurses through
n.  The zero array's weights W[m][j] = binom(j+m-1, j) - 1 are never
multiplied out: by the hockey-stick identity, each weighted sum is a
source row summed m times over, so every earlier row keeps its running
sums and a new row costs one pass of additions per source.  The letter
layers read the weight table W itself; the ones array steps along one
column of binomials per call and builds no table.  The descent
array is summed through a prefix array over its zero count, which makes
each entry a single sum over the descents taken by the zeros.  The letter
counts come from one recurrence in the letter i, filled for each s layer
by layer from the zero array; no word of length n has a letter above
(n - 1) / 2, so layer (n + 1) // 2 answers every larger i, and the
avoidance rows r <= 2k of layer k are copies of the zero array's.  The
tables are the only store of counted values: the public recurrences keep
no memo of their own, and every call reads its table.

Arrays:

  a_desc(n, m, k)        words with m zeros and k descents
  a_zeros(n, m)          words with m zeros (recurrence)
  a_zeros_closed(n, m)   same, via (m-1)/(n-1) * binom(2n-m-2, n-2)
  b_ones(n, m)           words with m ones (recurrence)
  b_ones_zeros(n, m, i)  words with m ones and i zeros
  b_ones_closed(n, m)    words with m ones, closed-form sum
  a_letter(i, n, s, t)   words with s copies of the letter i and t zeros
  letter_row(i, n, s)    the same for every t at once, as one stored row
  max_letter_count(n, i) words whose largest letter is exactly i
  fine_number(n)         words with an odd number of zeros
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from itertools import accumulate
from operator import mul

__all__ = [
    "ExactnessError",
    "binomial",
    "catalan_number",
    "a_desc",
    "a_zeros",
    "a_zeros_closed",
    "b_ones",
    "b_ones_zeros",
    "b_ones_closed",
    "a_letter",
    "letter_row",
    "max_letter_count",
    "coeff_C_power",
    "fine_number",
]


class ExactnessError(AssertionError):
    """An exactness guarantee failed: an implementation bug, not bad input.

    Raised explicitly, so ``python -O`` keeps it; not a ValueError, which
    the CLI reports as a usage error."""


def binomial(n: int, k: int) -> int:
    """binom(n, k); zero outside 0 <= k <= n.  Negative n is rejected."""
    if n < 0:
        raise ValueError("binomial: negative upper index is never needed here")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan_number(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("catalan_number: n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


# The public recurrences store nothing beyond their tables, but the benchmark
# tracer (perfbench/tracer.py, its COUNTING_CACHED) counts their calls through
# cache_info().  A wrapper of size 0 keeps no value and counts every call as a
# miss.  It goes only together with that lookup (ROADMAP item 6): without it
# the tracer, perfbench/selftest.py and tests/test_tracer_coupling.py break.
_counted = lru_cache(maxsize=0)


# Tables grow under this lock and are only ever appended to, one finished
# row at a time, so a reader that finds row n present may read it unlocked.
_GROW = threading.RLock()

# _W[m][j] = binom(j+m-1, j) - 1 for 1 <= m and m + j < len(_W); _W[0] is unused.
_W: list[list[int]] = [[]]


def _weights(n: int) -> list[list[int]]:
    """The weight table, grown to hold every W[m][j] with m + j <= n.

    Each new antidiagonal m + j = top is one Pascal step from the last:
    W[1][j] = 0, W[m][0] = 0 and W[m][j] = W[m-1][j] + W[m][j-1] + 1.
    """
    W = _W
    if len(W) <= n:
        with _GROW:
            for top in range(len(W), n + 1):
                for m in range(1, top):
                    j = top - m
                    W[m].append(W[m - 1][j] + W[m][j - 1] + 1 if m > 1 else 0)
                W.append([0])
    return W


# _DESC[n][k][m] = a_desc(n, m, k) for 0 <= k < n and 1 <= m <= n (m = 0 holds 0).
_DESC: list[list[list[int]]] = [[]]
# _DIAG[r][k][d] = S(r, d, k - d) for 1 <= d <= min(k, r) (d = 0 holds 0), where
# S(r, d, k') = sum_j binom(j, d) * a_desc(r, j, k') is the descent array's
# prefix array over the zero count j.
_DIAG: list[list[list[int]]] = [[]]


def _descents(n: int) -> list[list[list[int]]]:
    """The descent array, grown to hold every row n' <= n.

    a(n, m, k) = sum_d binom(m-1, d) * S(n-m, d, k-d): the recurrence's sum
    over j is read from the prefix array S of row n - m, filled once per row.
    """
    A, D = _DESC, _DIAG
    if len(A) <= n:
        with _GROW:
            pascal = [[math.comb(j, d) for d in range(j + 1)] for j in range(n + 1)]
            cols = [[math.comb(j, d) for j in range(n + 1)] for d in range(n + 1)]
            for r in range(len(A), n + 1):
                row = [[0] * (r + 1) for _ in range(r)]  # row[k][m] = a(r, m, k)
                row[0][r] = 1  # only the all-zeros word is descent-free
                for m in range(1, r):
                    diag, w = D[r - m], pascal[m - 1]
                    for k in range(1, min(r, len(diag))):
                        row[k][m] = sum(map(mul, w, diag[k]))
                D.append([
                    [0] + [
                        sum(map(mul, cols[d], row[k - d])) if k - d < r else 0
                        for d in range(1, min(k, r) + 1)
                    ]
                    for k in range(2 * r)
                ])
                A.append(row)
    return A


# _ZEROS[n][m] = a_zeros(n, m) for 1 <= m <= n (m = 0 holds 0).
_ZEROS: list[list[int]] = [[0]]
# _SUFFIX[p] = (passes, y, total) for each finished row p of _ZEROS: y is row p
# reversed and then prefix-summed `passes` times, and total is the row's sum.
# Each pass makes a new y; none is changed in place.  (A list: a tuple built
# from `accumulate` held about 0.4 MiB more at b_ones(200, .).)  Row 0 is
# never a source; its state is a placeholder.
_SUFFIX: list[tuple[int, list[int], int]] = [(0, [0], 0)]


def _zeros(n: int) -> list[list[int]]:
    """The zero array, grown to hold every row n' <= n.

    Entry m of row r reads source row p = r - m.  Its weighted sum
    sum_j binom(j+m-1, j) * z_j is the last entry of the reversed source
    row after m prefix-sum passes (the hockey-stick identity), and the -1
    in each weight takes off the row's plain sum.  Each source keeps its
    passes so far, so filling row r costs one `accumulate` pass per
    source: additions, not products.  A source's state is replaced in one
    assignment and records its pass count, so a fill that raises partway
    through a row resumes without advancing any source twice.
    """
    Z, S = _ZEROS, _SUFFIX
    if len(Z) <= n:
        with _GROW:
            for r in range(len(Z), n + 1):
                row = [0] * r + [1]
                for p in range(1, r):
                    passes, y, total = S[p]
                    if passes < r - p:
                        y = list(accumulate(y))
                        S[p] = (r - p, y, total)
                    row[r - p] = y[-1] - total
                # A slice, so that a row whose state landed before an
                # interrupted append replaces that state, not shifts it.
                S[r:] = [(0, row[::-1], sum(row))]
                Z.append(row)
    return Z


@_counted
def a_desc(n: int, m: int, k: int) -> int:
    """Words of length n with m zeros and k descents.

    Double-sum recurrence over the zero-deleting reduction; boundaries
    a(n, n, k) = [k == 0] and a(n, m, 0) = [n == m].  No word of length n
    has n descents, so the table holds k < n.
    """
    if n < 1 or not 1 <= m <= n or k < 0:
        raise ValueError(f"a_desc: parameters out of range: {(n, m, k)}")
    return _descents(n)[n][k][m] if k < n else 0


@_counted
def a_zeros(n: int, m: int) -> int:
    """Words of length n with m zeros, by the reduction recurrence.

    a(n, m) = [m == n] + sum_j W[m][j] * a(n - m, j), with W[m][j] =
    binom(j+m-1, j) - 1: the zero array's row n - m summed m times over,
    less its plain sum.
    """
    if n < 1 or not 1 <= m <= n:
        raise ValueError(f"a_zeros: parameters out of range: {(n, m)}")
    return _zeros(n)[n][m]


def a_zeros_closed(n: int, m: int) -> int:
    """Closed form (m-1)/(n-1) * binom(2n-m-2, n-2) for 2 <= m <= n.

    m = 1 is answered by convention: 1 for n = 1, else 0 (a single zero
    cannot support any larger letter).  The division must be exact; a
    remainder signals an implementation bug, not bad input.
    """
    if n < 1 or not 1 <= m <= n:
        raise ValueError(f"a_zeros_closed: parameters out of range: {(n, m)}")
    if m == 1:
        return 1 if n == 1 else 0
    num = (m - 1) * binomial(2 * n - m - 2, n - 2)
    quot, rem = divmod(num, n - 1)
    if rem:
        raise ExactnessError(f"a_zeros_closed: non-exact division at {(n, m)}")
    return quot


@_counted
def b_ones(n: int, m: int) -> int:
    """Words of length n with m ones, summed over their zero count i:
    sum_i (binom(i+m-1, m) - 1) * a(n - i, m).  The binomials are one
    running column, binom(i+m, m) = binom(i+m-1, m) * (i+m) / i, so no
    weight table is built."""
    if n < 1 or not 0 <= m <= n - 1:
        raise ValueError(f"b_ones: parameters out of range: {(n, m)}")
    if m == 0:
        return 1
    if m == n - 1:
        return 0
    Z = _zeros(n - 2)
    total, col = 0, m + 1  # col = binom(i+m-1, m) at i = 2
    for i in range(2, n - m + 1):
        total += (col - 1) * Z[n - i][m]
        col = col * (i + m) // i
    return total


def b_ones_zeros(n: int, m: int, i: int) -> int:
    """Words with m ones and i zeros: (binom(i+m-1, m) - 1) * a(n-i, m)."""
    if n < 3 or not 1 <= m <= n - 2 or not 2 <= i <= n - m:
        raise ValueError(f"b_ones_zeros: parameters out of range: {(n, m, i)}")
    return (binomial(i + m - 1, m) - 1) * a_zeros(n - i, m)


def b_ones_closed(n: int, m: int) -> int:
    """Closed-form sum for b(n, m), valid for m >= 2.

    Each term is (binom(j, m) - 1) times a zeros closed form, which keeps
    the exact-division check.  m = 1 falls outside the stated formula and
    is answered as n - 2 for n >= 3, else 0.  For m >= n - 1 the sum
    evaluates to 0, matching b_ones, rather than being special-cased.
    """
    if n < 1 or not 1 <= m <= n:
        raise ValueError(f"b_ones_closed: parameters out of range: {(n, m)}")
    if m == 1:
        return n - 2 if n >= 3 else 0
    return sum(
        (binomial(j, m) - 1) * a_zeros_closed(n + m - j - 1, m)
        for j in range(m, n)
    )


# _LETTER[s][i][n][t] = a_letter(i, n, s, t), held layer by layer in i; layer 0
# is [t == s] * a_zeros(n, s).  Each smaller positive letter occurs twice where
# i does, so a row for s > 0 stops at t = n - s - 2(i-1), and a read past the
# end of a row is 0.  Most rows for s > 0 are then the one empty tuple.
_LETTER: list[list[list[tuple[int, ...]]]] = []


def _letter_row(s: int, i: int, n: int) -> tuple[int, ...]:
    """Row n of layer i of the letter table for s.

    X(k, r, t) = [r == t][s == 0] + sum_ell W[t][ell] * X(k - 1, r - t, ell):
    deleting the t zeros leaves a word of length r - t whose zeros were the
    ones, with every letter lowered by one.  A missing row grows layer k to
    row n - (i - k), and every layer above i to row n.  For s = 0, a row
    r <= 2k is the zero array's row r: a word needs length 2k + 1 to hold
    the letter k.
    """
    X = _LETTER
    try:
        return X[s][i][n]
    except IndexError:
        with _GROW:
            W, Z = _weights(n), _zeros(n)
            X.extend([] for _ in range(len(X), s + 1))
            layers = X[s]
            layers.extend([()] for _ in range(len(layers), i + 1))  # no word has length 0
            for r in range(len(layers[0]), n - i + 1):
                layers[0].append((0,) * s + (Z[r][s],) if s <= r else ())
            for k in range(1, len(layers)):
                prev, layer = layers[k - 1], layers[k]
                for r in range(len(layer), n - max(i - k, 0) + 1):
                    if not s and r <= 2 * k:
                        layer.append(tuple(Z[r]))  # too short to hold the letter k
                        continue
                    top = r - s - 2 * (k - 1) if s else r - 1
                    row = [sum(map(mul, W[t], prev[r - t])) for t in range(1, top + 1)]
                    if not s:
                        row.append(1)  # t = r: the all-zeros word avoids every letter
                    layer.append((0, *row) if row else ())
    return X[s][i][n]


def letter_row(i: int, n: int, s: int) -> tuple[int, ...]:
    """The stored row whose entry t is a_letter(i, n, s, t), 0 past its end.
    Read at layer i of the letter table, capped at (n + 1) // 2, which answers
    every larger i too: no word of length n has a letter above (n - 1) / 2."""
    if i < 1 or n < 1 or s < 0:
        raise ValueError(f"letter_row: parameters out of range: {(i, n, s)}")
    return _letter_row(s, min(i, (n + 1) // 2), n) if s < n else ()


@_counted
def a_letter(i: int, n: int, s: int, t: int) -> int:
    """Words of length n with exactly s copies of the letter i and t zeros."""
    if i < 1:
        raise ValueError("a_letter: i must be >= 1 (zeros have their own array)")
    if n < 1 or s < 0 or t < 1:
        raise ValueError(f"a_letter: parameters out of range: {(i, n, s, t)}")
    if s + t > n:
        return 0  # s letters and t zeros do not fit in a word of length n
    row = letter_row(i, n, s)
    return row[t] if t < len(row) else 0


def max_letter_count(n: int, i: int) -> int:
    """Words of length n whose largest letter is exactly i.

    Avoiding the letter i+1 means the maximum is <= i, so the count is a
    difference of avoidance totals, each the sum of one letter row for
    s = 0; i = 0 is the all-zeros word alone.
    """
    if n < 1 or i < 0:
        raise ValueError(f"max_letter_count: parameters out of range: {(n, i)}")
    return sum(letter_row(i + 1, n, 0)) - sum(letter_row(i, n, 0)) if i else 1


def coeff_C_power(n: int, m: int) -> int:
    """Coefficient of x^n in the m-th power of the Catalan series.

    Evaluates m * (2n+m-1)! / (n! (n+m)!) exactly.  m = 0 extends to the
    constant series 1 by convention.
    """
    if n < 0 or m < 0:
        raise ValueError(f"coeff_C_power: parameters out of range: {(n, m)}")
    if m == 0:
        return 1 if n == 0 else 0
    num = m * math.factorial(2 * n + m - 1)
    den = math.factorial(n) * math.factorial(n + m)
    quot, rem = divmod(num, den)
    if rem:
        raise ExactnessError(f"coeff_C_power: non-exact division at {(n, m)}")
    return quot


def fine_number(n: int) -> int:
    """Words of length n with an odd number of zeros (the Fine numbers)."""
    if n < 1:
        raise ValueError("fine_number: n must be >= 1")
    return sum(a_zeros(n, m) for m in range(1, n + 1, 2))
