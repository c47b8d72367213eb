"""Ground-truth layer: validation, exhaustive enumeration and statistics.

A Catalan word is a sequence of non-negative integers that

  (i)  never drops by more than one between adjacent letters, and
  (ii) whose leftmost occurrence of each value k > 0 has a k-1 somewhere
       to its left and somewhere to its right.

The words of a fixed length n form a Catalan family: there are C(n-1)
of them.  Everything here is brute force by design; the counting and
series modules are checked against this one.

Enumeration walks a prefix's state (u, M, p): its last letter, its
maximum and its lowest pending target.  The state decides every later
transition and whether the word ends valid, so the completions of a
prefix depend only on the state and the number of slots left.  The
search therefore walks each word's first n - _TAIL letters one by one
and finishes every prefix with a block of tails looked up under the key
(u, M, p, r) in a memo that lives for one call.  That walk, _walk, yields
(prefix, block) pairs and has two consumers: enumerate_words, which joins
each prefix to each of its tails as a CatalanWord, and tally, which joins
them as plain tuples and evaluates its statistics on each word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, tee
from operator import gt, methodcaller
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "CatalanWord",
    "StatisticSpec",
    "validate",
    "enumerate_words",
    "count_descents",
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

    def __str__(self) -> str:
        return _letters_format(len(self)) % self

    def __repr__(self) -> str:
        return f"CatalanWord({tuple.__repr__(self)})"


@cache
def _letters_format(k: int) -> str:
    """The format string that writes k letters as CatalanWord.__str__ does."""
    return ",".join(["%d"] * k)


def enumerate_words(n: int) -> Iterator[CatalanWord]:
    """Yield every Catalan word of length n exactly once, lexicographically.

    Each word is a prefix of the shared walk (see _walk) joined to one
    tail of its block, built in C as a CatalanWord.  The generator is the
    visitor interface: stop consuming it to terminate early.
    """
    new = partial(tuple.__new__, CatalanWord)
    for prefix, block in _walk(n):
        yield from map(new, map(prefix.__add__, block))


def _walk(n: int) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """Yield (prefix, block) for the words of length n, lexicographically:
    the words are prefix + tail for each tail in block, in block order.

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
    pending at full length.  A branch is cut when the remaining slots
    cannot descend from u to p; the cut only drops branches that the
    final test would reject.

    The search walks only the first k = max(n - _TAIL, 1) letters, one
    stack entry per depth, each computed from the depth before, so
    backtracking undoes nothing.  The state decides every later transition
    and the final test, so the completions of a prefix depend only on
    (u, M, p) and the r = n - k slots left: each prefix comes with the
    block tails[u, M, p, r] (see _TailBlocks), built once by the same
    transitions and cut.  The memo belongs to the call and is freed with
    the stream.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    tails = _TailBlocks(n)
    k = max(n - _TAIL, 1)  # prefix length
    if k == 1:
        yield (0,), tails[0, 0, n, n - 1]
        return

    word = [0] * k
    maxs = [0] * k
    low = [n] * k
    d = 1
    word[1] = -1  # each depth tries word[d] + 1 next
    while d:
        v = word[d] + 1
        if v > maxs[d - 1] + 1:
            d -= 1
            continue
        m, p = _step(v, maxs[d - 1], low[d - 1], n)
        word[d] = v
        if d == k - 1:
            yield tuple(word), tails[v, m, p, n - k]
            continue
        maxs[d] = m
        low[d] = p
        if n - 1 - d < v - p:
            continue
        d += 1
        word[d] = v - 2 if v else -1


def _step(v: int, m: int, p: int, n: int) -> tuple[int, int]:
    """The maximum and the lowest pending target after writing v to a
    prefix with maximum m and lowest pending target p (n: none)."""
    if v == p:
        return m, n
    if v > m:
        return v, m if p == n else p
    return m, p


# Letters per memoized tail: _walk searches all but the last
# _TAIL letters of a word one by one.
_TAIL = 6


class _TailBlocks(dict):
    """tails[u, M, p, r] for words of length n: every r-letter tuple, in
    lexicographic order, that completes a prefix in state (u, M, p), by the
    transitions and the cut of _walk.  A block is built on its
    first lookup, from the blocks one letter shorter, and kept."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __missing__(self, key: tuple[int, int, int, int]) -> tuple[tuple[int, ...], ...]:
        u, m, p, r = key
        n = self.n
        if not r:
            block = ((),) if p == n else ()
        elif r < u - p:
            block = ()
        else:
            out: list[tuple[int, ...]] = []
            for v in range(u - 1 if u else 0, m + 2):
                out += map((v,).__add__, self[(v, *_step(v, m, p, n), r - 1)])
            block = tuple(out)
        self[key] = block
        return block


def count_descents(word: Sequence[int]) -> int:
    """Number of adjacent pairs with left letter strictly greater."""
    return sum(map(gt, word, word[1:]))


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


def tally(n: int, specs: Sequence[StatisticSpec]) -> Counter[tuple[int, ...]]:
    """Joint distribution of the given statistics over all words of length n.

    Keys are tuples of statistic values in spec order; counts sum to C(n-1).
    The words come from the shared walk (see _walk) as plain tuples, each
    prefix + tail built once, and every statistic is evaluated on every
    word.  Each statistic maps over its own copy of the word stream, zip
    builds the key tuples and Counter counts them, so per word only a
    statistic written in Python (descents) runs bytecode.  zip draws from
    the copies in turn, so tee holds a single word.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if not specs:
        raise ValueError("need at least one statistic")
    fns = [spec.bind() for spec in specs]
    stream = chain.from_iterable(map(prefix.__add__, block) for prefix, block in _walk(n))
    return Counter(zip(*map(map, fns, tee(stream, len(fns)))))
