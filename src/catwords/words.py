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
CatalanWord, and tally, which walks bytes and joins each block's words
end to end into one bytes chunk, one letter per byte.  tally evaluates
every statistic on every word of a chunk at once, as byte lanes of big
ints (broadword arithmetic): a letter count or the maximum is a window
sum of translated flags, read every n-th byte of one product, and
descents are the sign bits of one lane-wise subtraction of the chunk
shifted by a letter.  This is exact while n <= 255: letters are then at
most 127, so a lane difference a - b + 127 lies in [0, 254] and never
borrows, and a lane sum is at most n, so it never carries.  So tally
takes words of length at most 255.

A statistic is named by a StatisticSpec, a validated 2-tuple (kind,
letter) built by namedtuple: it compares, hashes and prints as that
tuple, and its constructor refuses an unknown kind or a bad letter, also
under ``python -O``.  Importing this module loads no dataclasses and no
typing.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import partial
from itertools import chain
from operator import gt

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
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"CatalanWord({tuple.__repr__(self)})"


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


# Lane evaluation.  A chunk is a run of n-letter words written end to
# end, one letter per byte; a lane evaluator maps it to one byte per word,
# that word's statistic, in a few bytes and big-int operations over the
# whole chunk.  Byte k of a little-endian int is its lane k.
def _word_sums(flags: int, size: int, n: int, width: int) -> bytes:
    """For each n-byte word of a size-byte chunk, the sum of the flag lanes
    at its first width positions, 0 <= width <= n.

    The product by 1 + 256 + ... + 256**(width - 1) adds each lane into the
    width - 1 lanes above it, so a word's sum lands in its lane width - 1.
    Flags are 0 or 1, so every lane of the product is at most width <= n
    and no lane carries into the next while n <= 255."""
    if not width:
        return bytes(size // n)
    product = flags * int.from_bytes(b"\x01" * width, "little")
    return product.to_bytes(size + n, "little")[width - 1 : size : n]


def _flag_lanes(flag: bytes, n: int) -> Callable[[bytes], bytes]:
    """Evaluator of the number of letters a in each word with flag[a] == 1;
    flag is a 256-byte table of zeros and ones."""
    return lambda chunk: _word_sums(
        int.from_bytes(chunk.translate(flag), "little"), len(chunk), n, n
    )


def _letter_lanes(c: int, n: int) -> Callable[[bytes], bytes]:
    """Evaluator of the number of letters c in each word, 0 <= c <= 255."""
    return _flag_lanes(bytes(c) + b"\x01" + bytes(255 - c), n)


def _descent_lanes(n: int) -> Callable[[bytes], bytes]:
    """Evaluator of the number of descents in each word; letters <= 127.

    With X the chunk and Y = X >> 8 the chunk shifted by one letter, lane k
    of X - Y + 0x7f...7f is a_k - a_(k+1) + 127.  Letters are at most 127,
    so the lane lies in [0, 254] and borrows nothing from the next, and
    its top bit is set iff a_k > a_(k+1).  A word's n - 1 pairs are the
    lanes at its first n - 1 positions; the window of n - 1 never reads
    the lane at its last letter, whose pair straddles two words or runs
    off the chunk."""

    def lanes(chunk: bytes) -> bytes:
        size = len(chunk)
        x = int.from_bytes(chunk, "little")
        low = int.from_bytes(b"\x7f" * size, "little")
        high = int.from_bytes(b"\x80" * size, "little")
        return _word_sums(((x - (x >> 8) + low) & high) >> 7, size, n, n - 1)

    return lanes


def _max_lanes(n: int, top: int) -> Callable[[bytes], bytes]:
    """Evaluator of the largest letter of each word whose letters are all
    at most top <= 255: the number of h in 1..top such that some letter of
    the word is >= h.  Each term is a window sum of the flags (letter >= h)
    mapped to 0 or 1, so the lane total is at most top and never carries."""
    at_least = [_flag_lanes(bytes(h) + b"\x01" * (256 - h), n) for h in range(1, top + 1)]
    nonzero = b"\x00" + b"\x01" * 255

    def lanes(chunk: bytes) -> bytes:
        total = sum(int.from_bytes(count(chunk).translate(nonzero), "little") for count in at_least)
        return total.to_bytes(len(chunk) // n, "little")

    return lanes


# kind -> lanes.  lanes(i, n, top) is the statistic's lane evaluator for
# chunks of n-letter words whose letters are at most top <= 127; it counts
# a letter i as min(i, top + 1), which no such word holds either.  Only
# "letter" reads the letter i.
_STATS: dict[str, Callable[[int | None, int, int], Callable[[bytes], bytes]]] = {
    "zeros": lambda i, n, top: _letter_lanes(0, n),
    "ones": lambda i, n, top: _letter_lanes(1, n),
    "descents": lambda i, n, top: _descent_lanes(n),
    "letter": lambda i, n, top: _letter_lanes(min(i, top + 1), n),
    "max-letter": lambda i, n, top: _max_lanes(n, top),
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


def _lanes(spec: StatisticSpec, n: int, top: int) -> Callable[[bytes], bytes]:
    """The spec's lane evaluator for chunks of n-letter words whose letters
    are at most top <= 127 (see _STATS)."""
    return _STATS[spec.kind](spec.letter, n, top)


# The longest word tally takes.  Its letters, at most (n - 1) // 2, must
# not exceed 127 for the descent lanes, and a word's count of any letter,
# up to n, must fit in a byte lane.
_TALLY_MAX_N = 255


def tally(n: int, specs: Iterable[StatisticSpec]) -> Counter[tuple[int, ...]]:
    """Joint distribution of the given statistics over all words of length n.

    Keys are tuples of statistic values in spec order; counts sum to C(n-1).
    The words come from the shared walk (see _walk) as bytes, one letter
    per byte.  Each (prefix, block) pair becomes one chunk, its words
    written end to end, and every statistic is evaluated on every word of
    the chunk at once, each from that word's own letters, as one byte per
    word (see _word_sums):

      - a letter count c is the sum of the flags (letter == c) over the
        word's n lanes;
      - descents are the sum of the pair flags of X - Y + 0x7f...7f over
        the word's first n - 1 lanes, Y being the chunk shifted by a letter;
      - the maximum is the number of h in 1..(n - 1) // 2 for which the
        word's sum of the flags (letter >= h) is nonzero.

    Counter then counts the zipped columns, once per block.  This is exact
    with no check while n <= 255: letters are at most 127, so each descent
    lane a - b + 127 lies in [0, 254] and never borrows, and every lane sum
    is at most n <= 255, so it never carries.  A longer n raises ValueError
    before any word is walked (no tally that large could finish).  A letter
    spec i counts as min(i, (n + 1) // 2): no word of length n holds a
    letter above (n - 1) // 2, so a larger i counts zero as (n + 1) // 2
    does.  specs may be any iterable; it is read once, into a tuple.
    """
    specs = tuple(specs)
    if n < 1:
        raise ValueError("word length must be >= 1")
    if n > _TALLY_MAX_N:
        raise ValueError(f"tally takes word lengths up to {_TALLY_MAX_N}, got {n}")
    if not specs:
        raise ValueError("need at least one statistic")
    evaluators = [_lanes(spec, n, (n - 1) // 2) for spec in specs]
    table: Counter[tuple[int, ...]] = Counter()
    for prefix, block in _walk(n, bytes):
        chunk = prefix.join(chain((b"",), block))
        table.update(zip(*[lanes(chunk) for lanes in evaluators]))
    return table
