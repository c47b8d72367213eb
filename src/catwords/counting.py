"""Exact counting arrays for Catalan-word statistics.

Each statistic has at least two independent routes: a memoized recurrence
and (where one exists) a closed form.  All arithmetic is unbounded
integers; closed-form divisions are performed in the integers and checked
for exactness, which doubles as a self-test.

Arrays:

  a_desc(n, m, k)        words with m zeros and k descents
  a_zeros(n, m)          words with m zeros (recurrence)
  a_zeros_closed(n, m)   same, via (m-1)/(n-1) * binom(2n-m-2, n-2)
  b_ones(n, m)           words with m ones (recurrence)
  b_ones_zeros(n, m, i)  words with m ones and i zeros
  b_ones_closed(n, m)    words with m ones, closed-form sum
  a_letter(i, n, s, t)   words with s copies of the letter i and t zeros
  max_letter_count(n, i) words whose largest letter is exactly i
  fine_number(n)         words with an odd number of zeros
"""

from __future__ import annotations

import math
from functools import cache

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


@cache
def a_desc(n: int, m: int, k: int) -> int:
    """Words of length n with m zeros and k descents.

    Double-sum recurrence over the zero-deleting reduction; boundaries
    a(n, n, k) = [k == 0] and a(n, m, 0) = [n == m].
    """
    if n < 1 or not 1 <= m <= n or k < 0:
        raise ValueError(f"a_desc: parameters out of range: {(n, m, k)}")
    if m == n:
        return 1 if k == 0 else 0
    if k == 0:
        return 0  # m < n here, and only the all-zeros word is descent-free
    total = 0
    for d in range(1, min(m, k) + 1):
        w = binomial(m - 1, d)
        if w == 0:
            continue
        for j in range(1, n - m + 1):
            c = binomial(j, d)
            if c:
                total += w * c * a_desc(n - m, j, k - d)
    return total


@cache
def a_zeros(n: int, m: int) -> int:
    """Words of length n with m zeros, by the reduction recurrence."""
    if n < 1 or not 1 <= m <= n:
        raise ValueError(f"a_zeros: parameters out of range: {(n, m)}")
    if m == n:
        return 1
    return sum(
        (binomial(j + m - 1, j) - 1) * a_zeros(n - m, j)
        for j in range(1, n - m + 1)
    )


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


@cache
def b_ones(n: int, m: int) -> int:
    """Words of length n with m ones, summed over their zero count."""
    if n < 1 or not 0 <= m <= n - 1:
        raise ValueError(f"b_ones: parameters out of range: {(n, m)}")
    if m == 0:
        return 1
    if m == n - 1:
        return 0
    return sum(
        (binomial(i + m - 1, m) - 1) * a_zeros(n - i, m)
        for i in range(2, n - m + 1)
    )


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


@cache
def a_letter(i: int, n: int, s: int, t: int) -> int:
    """Words of length n with exactly s copies of the letter i and t zeros.

    Three recurrences, dispatched on (i, s): reduction for i > 1 with
    s > 0; a direct product formula for i = 1 with s > 0; and an
    avoidance recurrence for s = 0 that bottoms out at the zero array
    for i = 0.  For the letter i to occur at all, every smaller positive
    letter must occur twice, so s > n - t - 2(i-1) forces the count to 0.
    """
    if i < 1:
        raise ValueError("a_letter: i must be >= 1 (zeros have their own array)")
    if n < 1 or s < 0 or t < 1:
        raise ValueError(f"a_letter: parameters out of range: {(i, n, s, t)}")
    if s == 0:
        return _a_avoid(i, n, t)
    if s > n - t - 2 * (i - 1):
        return 0
    if i == 1:
        if t < 2:
            return 0  # a one needs a zero on each side
        return (binomial(s + t - 1, s) - 1) * a_zeros(n - t, s)
    m = n - s - t - 2 * i + 4
    return sum(
        (binomial(ell + t - 1, ell) - 1) * a_letter(i - 1, n - t, s, ell)
        for ell in range(2, m + 1)
    )


@cache
def _a_avoid(i: int, n: int, t: int) -> int:
    """Words with t zeros avoiding the letter i; i = 0 is identically zero."""
    if i == 0:
        return 0
    total = 1 if n == t else 0
    for ell in range(1, n - t + 1):
        w = binomial(ell + t - 1, ell) - 1
        if w:
            total += w * _a_avoid(i - 1, n - t, ell)
    return total


def max_letter_count(n: int, i: int) -> int:
    """Words of length n whose largest letter is exactly i.

    Avoiding the letter i+1 means the maximum is <= i, so the count is a
    difference of avoidance totals; i = 0 is the all-zeros word alone.
    """
    if n < 1 or i < 0:
        raise ValueError(f"max_letter_count: parameters out of range: {(n, i)}")
    if i == 0:
        return 1
    return sum(
        a_letter(i + 1, n, 0, t) - a_letter(i, n, 0, t) for t in range(1, n + 1)
    )


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
