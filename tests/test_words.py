import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catwords.counting import catalan_number
from catwords.words import (
    CatalanWord,
    StatisticSpec,
    _lanes,
    _moves,
    count_descents,
    enumerate_words,
    tally,
    validate,
)

# the length-4 and length-5 families, in lexicographic order
GOLDEN_4 = [
    (0, 0, 0, 0),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
]
GOLDEN_5 = sorted(
    [
        (0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 1, 0),
        (0, 1, 1, 0, 0),
        (0, 1, 0, 1, 0),
        (0, 1, 0, 0, 1),
        (0, 0, 1, 1, 0),
        (0, 0, 1, 0, 1),
        (0, 1, 1, 1, 0),
        (0, 1, 1, 0, 1),
        (0, 1, 0, 1, 1),
        (0, 1, 2, 1, 0),
        (0, 1, 0, 2, 1),
    ]
)


def oracle_valid(seq) -> bool:
    """Independent quadratic validity check, straight from the definition."""
    for i in range(len(seq) - 1):
        if seq[i + 1] < seq[i] - 1:
            return False
    for k in set(seq):
        if k == 0:
            continue
        i = seq.index(k)
        if not any(a == k - 1 for a in seq[:i]):
            return False
        if not any(a == k - 1 for a in seq[i + 1 :]):
            return False
    return True


class TestValidate:
    @pytest.mark.parametrize(
        "seq, ok",
        [
            ((0, 1, 0, 1), True),
            ((0, 1, 2, 1, 0), True),
            ((0,), True),
            ((0, 1, 2, 0), False),
            ((1, 0, 1), False),
            ((0, 2, 1, 0), False),
            ((0, 0, 1, 1), False),
        ],
    )
    def test_examples(self, seq, ok):
        assert validate(seq) is ok

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate(())

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            validate((0, -1))

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=9))
    def test_matches_definition_oracle(self, seq):
        assert validate(seq) is oracle_valid(seq)


class TestCatalanWord:
    def test_roundtrip(self):
        w = CatalanWord((0, 1, 0, 1))
        assert str(w) == "0,1,0,1"
        assert CatalanWord(map(int, str(w).split(","))) == w
        assert tuple(w) == (0, 1, 0, 1)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            CatalanWord((0, 2))
        with pytest.raises(ValueError):
            CatalanWord(())

    def test_orders_as_tuple(self):
        assert CatalanWord((0, 0, 1, 0)) < CatalanWord((0, 1, 0, 0))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_repr_evaluates_back(self, n):
        for w in enumerate_words(n):
            back = eval(repr(w))
            assert back == w and type(back) is CatalanWord

    def test_repr_of_one_letter_word(self):
        assert repr(CatalanWord((0,))) == "CatalanWord((0,))"


class TestEnumerate:
    def test_single_letter(self):
        assert list(enumerate_words(1)) == [(0,)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            next(enumerate_words(0))

    def test_golden_listings(self):
        assert [tuple(w) for w in enumerate_words(4)] == GOLDEN_4
        assert [tuple(w) for w in enumerate_words(5)] == GOLDEN_5

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cardinality(self, n):
        assert sum(1 for _ in enumerate_words(n)) == catalan_number(n - 1)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_stream_properties(self, n):
        seen = list(enumerate_words(n))
        assert all(validate(w) for w in seen)
        assert all(w[0] == 0 for w in seen)
        assert all(max(w) <= (n - 1) // 2 for w in seen)
        assert all(a < b for a, b in zip(seen, seen[1:]))  # strict lex order

    @pytest.mark.parametrize("n", range(1, 11))
    def test_prune_soundness(self, n):
        # the cut only drops branches that the full-length test rejects
        assert list(enumerate_words(n)) == list(ref_dfs_enumerate(n, prune=False))

    def test_early_termination(self):
        first_three = list(itertools.islice(enumerate_words(12), 3))
        assert len(first_three) == 3
        assert first_three[0] == (0,) * 12

    def test_concurrent_streams_agree(self):
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: list(enumerate_words(9)), range(4)))
        assert all(r == results[0] for r in results)


def ref_enumerate_words(n, *, prune=True):
    """The pending-set search kept as a reference: it tracks every pending
    target in a set and undoes each depth's changes when it backtracks."""
    if n == 1:
        yield (0,)
        return
    word = [0] * n
    maxs = [0] * n
    nxt = [0] * n
    discharged = [False] * n
    obliged = [False] * n
    applied = [False] * n
    pending = set()
    d = 1
    nxt[1] = 0
    while d >= 1:
        if applied[d]:
            u = word[d]
            if discharged[d]:
                pending.add(u)
            if obliged[d]:
                pending.remove(u - 1)
            applied[d] = False
            nxt[d] = u + 1
        u = nxt[d]
        if u > maxs[d - 1] + 1:
            d -= 1
            continue
        hit = u in pending
        rise = u > maxs[d - 1]
        if hit:
            pending.remove(u)
        if rise:
            pending.add(u - 1)
        word[d] = u
        maxs[d] = u if rise else maxs[d - 1]
        applied[d] = True
        discharged[d] = hit
        obliged[d] = rise
        if d == n - 1:
            if not pending:
                yield tuple(word)
            continue
        if prune and pending and n - 1 - d < u - min(pending):
            continue
        d += 1
        nxt[d] = u - 1 if u > 0 else 0


class TestStateEnumeration:
    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_pending_set_search(self, n, prune):
        # enumerate_words always cuts; the reference runs with and without
        got = list(enumerate_words(n))
        assert [tuple(w) for w in got] == list(ref_enumerate_words(n, prune=prune))
        assert all(type(w) is CatalanWord for w in got)


def ref_dfs_enumerate(n, *, prune=True):
    """The state search over every depth, kept as a reference: the same
    (u, M, p) walk without the memoized tail blocks."""
    if n == 1:
        yield tuple.__new__(CatalanWord, (0,))
        return
    word = [0] * n
    maxs = [0] * n
    low = [n] * n
    d = 1
    word[1] = -1
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


class TestPrefixTailEnumeration:
    """n <= 7 is all tail; from n = 8 on a prefix walk feeds the tails."""

    @pytest.mark.parametrize(
        "n, prune", [(n, True) for n in range(1, 14)] + [(n, False) for n in range(1, 11)]
    )
    def test_matches_state_dfs(self, n, prune):
        # pairwise, so n = 13 never holds either list of 208,012 words
        count = 0
        for got, want in itertools.zip_longest(
            enumerate_words(n), ref_dfs_enumerate(n, prune=prune)
        ):
            assert got == want
            assert type(got) is CatalanWord
            count += 1
        assert count == catalan_number(n - 1)

    def test_streaming_memory(self):
        # Holding the 208,012 words of n = 13 would take about 30 MiB; the
        # tail blocks take about 2.4 MiB and go when the stream ends.
        tracemalloc.start()
        try:
            count = 0
            for _ in enumerate_words(13):
                count += 1
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == catalan_number(12)
        assert peak < 8 * 2**20
        assert current < 2**20

    def test_walk_is_iterative(self):
        # a recursive walk would pass the interpreter's recursion limit
        # long before depth 994
        pairs = zip(
            itertools.islice(enumerate_words(1000), 5000),
            itertools.islice(ref_dfs_enumerate(1000), 5000),
        )
        count = 0
        for got, want in pairs:
            assert got == want
            count += 1
        assert count == 5000


@pytest.mark.parametrize("n", range(1, 31))
def test_transitions_count_catalan(n):
    # Push the number of prefixes in each state through _moves, one
    # letter at a time, from the first letter's state; the states with
    # nothing pending at full length are the words.
    states = Counter({(0, 0, n): 1})
    for r in range(n - 1, 0, -1):
        after = Counter()
        for (u, m, p), ways in states.items():
            for state in _moves(u, m, p, r, n):
                after[state] += ways
        states = after
    assert sum(ways for (u, m, p), ways in states.items() if p == n) == catalan_number(n - 1)


class TestStatistics:
    def test_count_descents(self):
        assert count_descents((0, 1, 0, 1)) == 1
        assert count_descents((0, 1, 2, 1, 0)) == 2
        assert count_descents((0, 0, 0, 0, 0)) == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StatisticSpec("weird")
        with pytest.raises(ValueError):
            StatisticSpec("letter")
        with pytest.raises(ValueError):
            StatisticSpec("letter", -1)
        with pytest.raises(ValueError):
            StatisticSpec("zeros", letter=3)


# Every refusal of the StatisticSpec constructor, with its message.
SPEC_ERRORS = [
    (("weird",), ValueError, "unknown statistic kind: 'weird'"),
    (("letter",), ValueError, "letter statistic needs a letter i >= 0"),
    (("letter", -1), ValueError, "letter statistic needs a letter i >= 0"),
    (("zeros", 3), ValueError, "statistic 'zeros' takes no letter"),
    (("max-letter", 0), ValueError, "statistic 'max-letter' takes no letter"),
    (("letter", 1.5), TypeError, "letter must be int, got float"),
    (("letter", "2"), TypeError, "letter must be int, got str"),
]


class TestStatisticSpecShape:
    """StatisticSpec is a validated 2-tuple (kind, letter) with the API of
    a frozen dataclass: keyword construction, a default letter, equality,
    hashing and read-only fields."""

    def test_keyword_construction(self):
        spec = StatisticSpec(kind="letter", letter=2)
        assert spec == StatisticSpec("letter", 2) == ("letter", 2)
        assert (spec.kind, spec.letter) == ("letter", 2)
        assert StatisticSpec(kind="zeros").letter is None
        assert repr(spec) == "StatisticSpec(kind='letter', letter=2)"
        assert repr(StatisticSpec("zeros")) == "StatisticSpec(kind='zeros', letter=None)"

    def test_equality_and_hashing(self):
        a, b = StatisticSpec("letter", 2), StatisticSpec(kind="letter", letter=2)
        assert a == b and hash(a) == hash(b)
        assert a != StatisticSpec("letter", 3)
        assert StatisticSpec("zeros") != StatisticSpec("ones")
        table = {a: "second letter", StatisticSpec("zeros"): "zeros"}
        assert table[b] == "second letter" and table[StatisticSpec("zeros")] == "zeros"
        assert len({a, b, StatisticSpec("zeros"), StatisticSpec("zeros")}) == 2

    def test_fields_are_read_only(self):
        spec = StatisticSpec("letter", 2)
        for field in ("kind", "letter", "other"):
            with pytest.raises(AttributeError):
                setattr(spec, field, 1)
        assert spec == ("letter", 2) and not hasattr(spec, "__dict__")

    @pytest.mark.parametrize("args, error, message", SPEC_ERRORS)
    def test_errors(self, args, error, message):
        with pytest.raises(error) as exc:
            StatisticSpec(*args)
        assert str(exc.value) == message

    def test_non_int_letter_is_refused_before_a_tally(self):
        # no letter equals 1.5, so such a tally would read every word as
        # holding none: refused, not counted
        with pytest.raises(TypeError, match="letter must be int"):
            tally(5, [StatisticSpec("letter", 1.5)])

    def test_bool_letter_becomes_int(self):
        spec = StatisticSpec("letter", True)
        assert type(spec.letter) is int and spec == StatisticSpec("letter", 1)
        assert tally(6, [spec]) == tally(6, [StatisticSpec("letter", 1)])

    def test_checks_hold_under_python_O(self):
        code = (
            "from catwords.words import StatisticSpec\n"
            f"for args in {[args for args, _, _ in SPEC_ERRORS]!r}:\n"
            "    try:\n"
            "        StatisticSpec(*args)\n"
            "    except (TypeError, ValueError) as exc:\n"
            "        print(type(exc).__name__, exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-O", "-B", "-c", code],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            f"{error.__name__} {message}" for _, error, message in SPEC_ERRORS
        ]


class TestTally:
    def test_zeros_table_n4(self):
        assert tally(4, [StatisticSpec("zeros")]) == {(4,): 1, (3,): 2, (2,): 2}

    def test_ones_table_n5(self):
        assert tally(5, [StatisticSpec("ones")]) == {(0,): 1, (1,): 3, (2,): 7, (3,): 3}

    def test_joint_zero_descent(self):
        table = tally(5, [StatisticSpec("zeros"), StatisticSpec("descents")])
        assert table[(5, 0)] == 1  # the all-zeros word is the only descent-free one

    @pytest.mark.parametrize("n", range(1, 10))
    def test_totals(self, n):
        table = tally(n, [StatisticSpec("zeros")])
        assert sum(table.values()) == catalan_number(n - 1)
        if n >= 2:
            assert (1,) not in table
        assert table[(n,)] == 1

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            tally(0, [StatisticSpec("zeros")])
        with pytest.raises(ValueError):
            tally(3, [])

    def test_empty_iterator_is_refused_as_an_empty_list(self):
        # an iterator is truthy even when empty, so it is read before the check
        with pytest.raises(ValueError, match="^need at least one statistic$"):
            tally(5, iter([]))


# Reference forms of the statistics and of CatalanWord.__str__, one Python
# generator per word, as they were written before the builtin forms.  The
# builtin forms must agree with them exactly.
def ref_count_letter(word, i):
    return sum(1 for a in word if a == i)


def ref_count_descents(word):
    return sum(1 for a, b in zip(word, word[1:]) if a > b)


def ref_str(word):
    return ",".join(str(a) for a in word)


REF_STATS = {
    "zeros": lambda word, letter: ref_count_letter(word, 0),
    "ones": lambda word, letter: ref_count_letter(word, 1),
    "descents": lambda word, letter: ref_count_descents(word),
    "letter": ref_count_letter,
    "max-letter": lambda word, letter: max(word),
}
ALL_SPECS = [
    StatisticSpec("zeros"),
    StatisticSpec("ones"),
    StatisticSpec("descents"),
    StatisticSpec("max-letter"),
    *(StatisticSpec("letter", i) for i in range(4)),
]


def ref_tally(columns, specs):
    """The one-word-at-a-time tally loop over the reference values:
    columns[spec][k] is the spec's reference statistic of the k-th word."""
    table = Counter()
    for key in zip(*(columns[spec] for spec in specs)):
        table[key] += 1
    return table


def peak_word(k):
    """0,1,...,k,...,1,0: a valid word of length 2k + 1 whose maximum is k."""
    return CatalanWord((*range(k + 1), *range(k - 1, -1, -1)))


class TestBuiltinForms:
    @pytest.mark.parametrize("n", range(1, 12))
    def test_tally_matches_reference(self, n):
        ws = list(enumerate_words(n))
        columns = {s: [REF_STATS[s.kind](w, s.letter) for w in ws] for s in ALL_SPECS}
        for spec in ALL_SPECS:
            assert tally(n, [spec]) == ref_tally(columns, [spec])
        for pair in itertools.product(ALL_SPECS, repeat=2):
            assert tally(n, pair) == ref_tally(columns, pair)

    def test_str_matches_reference(self):
        for n in range(1, 13):
            for w in enumerate_words(n):
                assert str(w) == ref_str(w)

    @pytest.mark.parametrize("k", [10, 11, 12, 15])
    def test_str_with_wide_letters(self, k):
        peak = peak_word(k)
        # a plateau and a second peak after the first, still a valid word
        long = CatalanWord((*peak, 0, 1, 1, 2, 1, 0))
        for w in (peak, long):
            assert len(w) >= 21 and max(w) >= 10
            assert str(w) == ref_str(w)
            assert CatalanWord(map(int, str(w).split(","))) == w
        assert str(peak_word(10)) == "0,1,2,3,4,5,6,7,8,9,10,9,8,7,6,5,4,3,2,1,0"

    def test_statistics_on_lists_and_tuples(self):
        samples = [(0,), *enumerate_words(8), tuple(peak_word(11))]
        for w in samples:
            for seq in (tuple(w), list(w), w):
                assert count_descents(seq) == ref_count_descents(w)
        assert count_descents([0]) == 0 and count_descents((0,)) == 0


# The statistics of the enumerate-tally benchmark's two tallies.
BENCHMARK_SPECS = (
    (StatisticSpec("zeros"), StatisticSpec("descents")),
    (StatisticSpec("letter", 2), StatisticSpec("zeros")),
)
STREAM_CASES = [
    *(
        pytest.param(n, specs, id=f"{n}-{name}")
        for n in (12, 13)
        for name, specs in zip(("zeros-descents", "letter-2"), BENCHMARK_SPECS)
    ),
    pytest.param(12, (StatisticSpec("ones"), StatisticSpec("max-letter")), id="12-ones-max-letter"),
]


@pytest.mark.parametrize("n, specs", STREAM_CASES)
def test_plain_tuple_tally_matches_word_stream(n, specs):
    """tally evaluates its statistics as byte lanes over each block of
    words joined end to end; evaluating each statistic by its reference
    and counting the CatalanWord stream one word at a time, without
    listing it, must give the same table."""
    expected = Counter()
    for w in enumerate_words(n):
        expected[tuple(REF_STATS[spec.kind](w, spec.letter) for spec in specs)] += 1
    assert sum(expected.values()) == catalan_number(n - 1)
    assert tally(n, specs) == expected


def lanes_match_reference(words, top, specs):
    """Each spec's lane evaluator on the words written end to end gives,
    word by word, what the reference statistics give."""
    n = len(words[0])
    chunk = bytes(itertools.chain.from_iterable(words))
    for spec in specs:
        got = list(_lanes(spec, n, top)(chunk))
        assert got == [REF_STATS[spec.kind](w, spec.letter) for w in words], spec


@st.composite
def letter_words(draw):
    """One to three words of a common length n in 1..255, letters 0..127."""
    n = draw(st.integers(min_value=1, max_value=255))
    count = draw(st.integers(min_value=1, max_value=3))
    letters = draw(st.lists(st.integers(0, 127), min_size=n * count, max_size=n * count))
    return [tuple(letters[k : k + n]) for k in range(0, n * count, n)]


class TestLanes:
    """The lane evaluators of tally on arbitrary letter sequences, not
    only Catalan words."""

    @settings(max_examples=60, deadline=None)
    @given(letter_words(), st.integers(min_value=0, max_value=300))
    def test_match_reference(self, words, i):
        specs = [*ALL_SPECS, StatisticSpec("letter", i), StatisticSpec("letter", 127)]
        lanes_match_reference(words, 127, specs)
        lanes_match_reference(words, max(map(max, words)), specs)

    def test_lane_sum_of_255(self):
        zeros = (0,) * 255
        lanes_match_reference([zeros, zeros], 127, ALL_SPECS)
        assert _lanes(StatisticSpec("zeros"), 255, 0)(bytes(510)) == b"\xff\xff"
        peak = (127, *zeros[1:])
        lanes_match_reference([zeros, peak, zeros, peak], 127, ALL_SPECS)

    @pytest.mark.parametrize("words", [
        [(0, 127), (0, 127)],
        [(127, 0), (127, 0)],
        [(0, 127), (127, 0), (0, 127)],
        [(127, 0), (0, 127), (127, 0)],
        [(0, 0, 127), (0, 127, 0), (127, 0, 0)],
    ])
    def test_127_next_to_0(self, words):
        lanes_match_reference(words, 127, ALL_SPECS)

    @pytest.mark.parametrize("words", [
        [(127,), (0,), (127,), (5,)],
        [(0,)],
        [(0, 0), (1, 0), (0, 1), (127, 127)],
    ])
    def test_one_and_two_letters(self, words):
        lanes_match_reference(words, 127, ALL_SPECS)
        lanes_match_reference(words, max(map(max, words)), ALL_SPECS)

    def test_descents_never_read_across_words(self):
        # every pair that straddles two words, or runs off the chunk,
        # descends; no pair inside a word does
        descents = StatisticSpec("descents")
        assert _lanes(descents, 4, 127)(bytes((0, 1, 2, 3) * 3)) == bytes(3)
        assert _lanes(descents, 2, 127)(bytes((0, 127) * 2)) == bytes(2)

    def test_empty_chunk(self):
        # the walk yields a prefix with no tails (one at n = 14)
        for spec in ALL_SPECS:
            assert _lanes(spec, 5, 2)(b"") == b""

    def test_length_past_a_byte_lane_is_refused(self):
        with pytest.raises(ValueError, match="^tally takes word lengths up to 255, got 256$"):
            tally(256, [StatisticSpec("zeros")])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_enumeration_matches_filtered_product(n):
    """Brute-force oracle for the oracle: filter all bounded sequences."""
    alphabet = range((n - 1) // 2 + 1)
    expected = sorted(
        seq
        for seq in itertools.product(alphabet, repeat=n)
        if oracle_valid(seq)
    )
    assert [tuple(w) for w in enumerate_words(n)] == expected
