"""Ground-truth layer: validation, exhaustive enumeration and statistics.

A Catalan word is a sequence of non-negative integers that

  (i)  never drops by more than one between adjacent letters, and
  (ii) whose leftmost occurrence of each value k > 0 has a k-1 somewhere
       to its left and somewhere to its right.

The words of a fixed length n form a Catalan family: there are C(n-1)
of them.  Everything here is brute force by design; the counting and
series modules are checked against this one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import tee
from operator import gt, methodcaller
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "CatalanWord",
    "StatisticSpec",
    "validate",
    "enumerate_words",
    "count_letter",
    "count_descents",
    "max_letter",
    "tally",
]

def _why_invalid(letters: tuple[int, ...]) -> str | None:
    """Return a reason the sequence is not a Catalan word, or None if it is."""
    if letters[0] != 0:
        return "first letter must be 0"
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    prev = 0
    for pos, a in enumerate(letters):
        if a < prev - 1:
            return f"drop larger than one at position {pos}"
        if a not in first:
            first[a] = pos
        last[a] = pos
        prev = a
    for k, pos in first.items():
        if k == 0:
            continue
        below = first.get(k - 1)
        if below is None or below > pos:
            return f"no {k - 1} to the left of the first {k}"
        if last[k - 1] < pos:
            return f"no {k - 1} to the right of the first {k}"
    return None


def _check_letters(letters: tuple[int, ...]) -> None:
    """Reject what is not a sequence of letters at all: the empty one and
    one with a negative letter."""
    if not letters:
        raise ValueError("empty sequence: Catalan words have length >= 1")
    if any(a < 0 for a in letters):
        raise ValueError("letters must be non-negative integers")


def validate(seq: Sequence[int]) -> bool:
    """True iff the non-empty sequence satisfies both membership rules."""
    letters = tuple(seq)
    _check_letters(letters)
    return _why_invalid(letters) is None


class CatalanWord(tuple):
    """A validated Catalan word; behaves as a tuple of its letters.

    Words serialize as comma-separated decimal letters ("0,1,0,1"),
    never as digit strings: letters exceed 9 once n >= 21.
    """

    __slots__ = ()

    def __new__(cls, letters: Iterable[int]) -> "CatalanWord":
        word = tuple.__new__(cls, letters)
        _check_letters(word)
        reason = _why_invalid(word)
        if reason is not None:
            raise ValueError(f"not a Catalan word: {reason}")
        return word

    @classmethod
    def parse(cls, text: str) -> "CatalanWord":
        return cls(int(part) for part in text.split(","))

    def __str__(self) -> str:
        return _letters_format(len(self)) % self

    def __repr__(self) -> str:
        return f"CatalanWord({tuple.__repr__(self)})"


@cache
def _letters_format(k: int) -> str:
    """The format string that writes k letters as CatalanWord.__str__ does."""
    return ",".join(["%d"] * k)


def enumerate_words(n: int, *, prune: bool = True) -> Iterator[CatalanWord]:
    """Yield every Catalan word of length n exactly once, lexicographically.

    Depth-first search over a word's state (u, M, p): its last letter u,
    its running maximum M and its lowest pending target p, where writing
    M+1 for the first time creates the target "write M again later".  The
    next letter v ranges over [max(0, u-1), M+1]; a larger v would lack a
    v-1 on its left, which also caps letters at floor((n-1)/2).  "Nothing
    pending" is the sentinel p = n, above every letter.  The lowest target
    is all the state needs:

      - every pending target lies below the last letter;
      - letters drop by at most one, so reaching p passes through every
        pending target and discharges it;
      - writing any other letter leaves the minimum unchanged.

    So v = p leaves nothing pending, v = M+1 with nothing pending makes M
    the target, and every other v keeps p.  A word is valid iff nothing is
    pending at full length.  Each depth holds only its own state, computed
    from the depth before, so backtracking undoes nothing.  A branch is cut
    when the remaining slots cannot descend from u to p; disabling
    ``prune`` keeps the stream identical and merely filters at full length.

    The generator is the visitor interface: stop consuming it to terminate
    early.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if n == 1:
        yield tuple.__new__(CatalanWord, (0,))
        return

    word = [0] * n
    maxs = [0] * n
    low = [n] * n
    d = 1
    word[1] = -1  # each depth tries word[d] + 1 next
    while d:
        v = word[d] + 1
        m = maxs[d - 1]
        if v > m + 1:
            d -= 1
            continue
        p = low[d - 1]
        if v == p:
            p = n
        elif v > m:
            if p == n:
                p = m
            m = v
        word[d] = v
        maxs[d] = m
        low[d] = p
        if d == n - 1:
            if p == n:
                yield tuple.__new__(CatalanWord, word)
            continue
        if prune and n - 1 - d < v - p:
            continue
        d += 1
        word[d] = v - 2 if v else -1


def count_letter(word: Sequence[int], i: int) -> int:
    """Number of positions holding the letter i."""
    if i < 0:
        raise ValueError("letter must be non-negative")
    return word.count(i)


def count_descents(word: Sequence[int]) -> int:
    """Number of adjacent pairs with left letter strictly greater."""
    return sum(map(gt, word, word[1:]))


def max_letter(word: Sequence[int]) -> int:
    """Largest letter value in the word."""
    return max(word)


# kind -> letter -> the statistic as a one-argument function of the word;
# only "letter" reads the letter.  The letter counts and the maximum bind
# to C callables, so a tally runs no bytecode for them.
_STATS: dict[str, Callable[[int | None], Callable[[Sequence[int]], int]]] = {
    "zeros": lambda letter: methodcaller("count", 0),
    "ones": lambda letter: methodcaller("count", 1),
    "descents": lambda letter: count_descents,
    "letter": lambda letter: methodcaller("count", letter),
    "max-letter": lambda letter: max,
}
STAT_KINDS = tuple(_STATS)


@dataclass(frozen=True)
class StatisticSpec:
    """One word statistic: zeros, ones, descents, letter(i) or max-letter."""

    kind: str
    letter: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in STAT_KINDS:
            raise ValueError(f"unknown statistic kind: {self.kind!r}")
        if self.kind == "letter":
            if self.letter is None or self.letter < 0:
                raise ValueError("letter statistic needs a letter i >= 0")
        elif self.letter is not None:
            raise ValueError(f"statistic {self.kind!r} takes no letter")

    def bind(self) -> Callable[[Sequence[int]], int]:
        """This statistic as a one-argument function of the word."""
        return _STATS[self.kind](self.letter)

    def evaluate(self, word: Sequence[int]) -> int:
        return self.bind()(word)


def tally(n: int, specs: Sequence[StatisticSpec]) -> Counter[tuple[int, ...]]:
    """Joint distribution of the given statistics over all words of length n.

    Keys are tuples of statistic values in spec order; counts sum to C(n-1).
    Each statistic maps over its own copy of the word stream, zip builds
    the key tuples and Counter counts them, so per word only a statistic
    written in Python (descents) runs bytecode.  zip draws from the copies
    in turn, so tee holds a single word.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if not specs:
        raise ValueError("need at least one statistic")
    fns = [spec.bind() for spec in specs]
    return Counter(zip(*map(map, fns, tee(enumerate_words(n), len(fns)))))
