"""Ground-truth layer: validation, exhaustive enumeration and statistics.

A Catalan word is a sequence of non-negative integers that

  (i)  never drops by more than one between adjacent letters, and
  (ii) whose leftmost occurrence of each value k > 0 has a k-1 somewhere
       to its left and somewhere to its right.

The words of a fixed length n form a Catalan family: there are C(n-1)
of them.  Everything here is brute force by design; the counting and
series modules are checked against this one.

Enumeration runs one finite-state machine, written once as _moves: a
prefix's state decides every later letter and whether the word ends
valid.  _walk searches each word's first n - _TAIL letters by it and
finishes every prefix with a block of tails that _TailBlocks builds by
the same machine, as sequences of the type its caller names.  The
(prefix, block) pairs of _walk have two consumers: enumerate_words,
which walks tuples and joins each prefix to each of its tails as a
CatalanWord, and tally, which walks bytes, joins each word as one bytes
object and evaluates its statistics on it.  A byte holds a letter up to
255, so tally takes words of length at most 509.

A statistic is named by a StatisticSpec, a validated 2-tuple (kind,
letter) built by namedtuple: it compares, hashes and prints as that
tuple, and its constructor refuses an unknown kind or a bad letter, also
under ``python -O``.  Importing this module loads no dataclasses and no
typing.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache, partial
from itertools import chain, tee
from operator import gt, methodcaller

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
    for prefix, block in _walk(n, tuple):
        yield from map(new, map(prefix.__add__, block))


def _moves(u: int, m: int, p: int, r: int, n: int) -> Iterator[tuple[int, int, int]]:
    """The state (v, M, P) after each letter v that may follow a prefix in
    state (u, m, p) with r >= 1 slots left, in increasing v.

    A prefix's state is its last letter u, its running maximum m and its
    lowest pending target p, where writing m+1 for the first time creates
    the target "write m again later"; "nothing pending" is p = n, above
    every letter.  The next letter v ranges over [max(0, u-1), m+1]; a
    larger v would lack a v-1 on its left, which also caps letters at
    floor((n-1)/2).  The lowest target is all the state needs:

      - every pending target lies below the last letter;
      - letters drop by at most one, so reaching p passes through every
        pending target and discharges it;
      - writing any other letter leaves the minimum unchanged.

    So v = p leaves nothing pending, v = m+1 with nothing pending makes m
    the target, and every other v keeps p.  A word is valid iff nothing is
    pending at full length.  Reaching p from u takes at least u - p more
    letters, so when r < u - p no completion is valid and nothing is
    yielded: the cut drops only branches that the final test would reject.
    """
    if r < u - p:
        return
    for v in range(u - 1 if u else 0, m + 2):
        if v == p:
            yield v, m, n
        elif v > m:
            yield v, v, m if p == n else p
        else:
            yield v, m, p


def _walk(
    n: int, seq: type[Sequence[int]]
) -> Iterator[tuple[Sequence[int], tuple[Sequence[int], ...]]]:
    """Yield (prefix, block) for the words of length n, lexicographically:
    the words are prefix + tail for each tail in block, in block order.

    A depth-first search by _moves over the first k = max(n - _TAIL, 1)
    letters, holding one _moves iterator per depth; the stack starts at
    the first letter's state (0, 0, n).  Each prefix of length k comes
    with the block tails[u, M, p, n - k] of its completions (see
    _TailBlocks).  Prefixes and tails are of type seq, tuple or bytes,
    built from an iterable of letters; bytes needs every letter <= 255.
    The search is a loop, not recursion, so any n streams; the memo
    belongs to the call and is freed with the stream.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    tails = _TailBlocks(n, seq)
    k = max(n - _TAIL, 1)  # prefix length
    word: list[int] = []
    stack: list[Iterator[tuple[int, int, int]]] = [iter(((0, 0, n),))]
    while stack:
        d = len(stack) - 1  # the depth whose letter comes next
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        word[d:] = state[:1]  # depth d's letter; deeper letters go
        if d == k - 1:
            yield seq(word), tails[(*state, n - k)]
        else:
            stack.append(_moves(*state, n - 1 - d, n))


# Letters per memoized tail: _walk searches all but the last
# _TAIL letters of a word one by one.
_TAIL = 6


class _TailBlocks(dict):
    """tails[u, M, p, r] for words of length n: the tuple of every r-letter
    tail, in lexicographic order, that completes a prefix in state
    (u, M, p) by _moves, each tail a sequence of type seq (tuple or
    bytes).  A block is built on its first lookup, from the blocks one
    letter shorter, and kept."""

    __slots__ = ("n", "seq")

    def __init__(self, n: int, seq: type[Sequence[int]]) -> None:
        super().__init__()
        self.n = n
        self.seq = seq

    def __missing__(self, key: tuple[int, int, int, int]) -> tuple[Sequence[int], ...]:
        u, m, p, r = key
        seq = self.seq
        if r:
            block = tuple(chain.from_iterable(
                map(seq((v,)).__add__, self[v, mv, pv, r - 1])
                for v, mv, pv in _moves(u, m, p, r, self.n)
            ))
        else:
            block = (seq(),) if p == self.n else ()
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


class StatisticSpec(namedtuple("StatisticSpec", "kind letter", defaults=(None,))):
    """One word statistic, a validated 2-tuple (kind, letter): zeros, ones,
    descents, letter(i) or max-letter.  Only "letter" takes a letter, an
    int i >= 0 (a bool becomes a plain int); another type raises
    TypeError, and every other fault ValueError.  Build specs through the
    constructor: _replace and _make skip its checks."""

    __slots__ = ()

    def __new__(cls, kind: str, letter: int | None = None) -> "StatisticSpec":
        if kind not in STAT_KINDS:
            raise ValueError(f"unknown statistic kind: {kind!r}")
        if kind == "letter":
            if letter is not None and not isinstance(letter, int):
                raise TypeError(f"letter must be int, got {type(letter).__name__}")
            if letter is None or letter < 0:
                raise ValueError("letter statistic needs a letter i >= 0")
            letter = int(letter)
        elif letter is not None:
            raise ValueError(f"statistic {kind!r} takes no letter")
        return super().__new__(cls, kind, letter)

    def bind(self) -> Callable[[Sequence[int]], int]:
        """This statistic as a one-argument function of the word."""
        return _STATS[self.kind](self.letter)


# The longest word tally takes: its letters, at most (n - 1) // 2, and
# the clamped letter spec, (n + 1) // 2, must each fit in a byte.
_TALLY_MAX_N = 509


def tally(n: int, specs: Sequence[StatisticSpec]) -> Counter[tuple[int, ...]]:
    """Joint distribution of the given statistics over all words of length n.

    Keys are tuples of statistic values in spec order; counts sum to C(n-1).
    The words come from the shared walk (see _walk) as bytes, one letter
    per byte, each prefix + tail built once, and every statistic is
    evaluated on every word.  Each statistic maps over its own copy of the
    word stream, zip builds the key tuples and Counter counts them, so per
    word only a statistic written in Python (descents) runs bytecode.  zip
    draws from the copies in turn, so tee holds a single word.

    A byte holds letters up to 255, so n is at most 509; a longer n raises
    ValueError before any word is walked (no tally that large could
    finish).  A letter spec i counts as min(i, (n + 1) // 2): no word of
    length n holds a letter above (n - 1) // 2, so a larger i counts zero
    as (n + 1) // 2 does.
    """
    if n < 1:
        raise ValueError("word length must be >= 1")
    if n > _TALLY_MAX_N:
        raise ValueError(f"tally takes word lengths up to {_TALLY_MAX_N}, got {n}")
    if not specs:
        raise ValueError("need at least one statistic")
    top = (n + 1) // 2
    fns = [
        _STATS[spec.kind](spec.letter if spec.letter is None else min(spec.letter, top))
        for spec in specs
    ]
    stream = chain.from_iterable(map(prefix.__add__, block) for prefix, block in _walk(n, bytes))
    return Counter(zip(*map(map, fns, tee(stream, len(fns)))))
