import itertools
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from catwords.counting import catalan_number
from catwords.words import (
    CatalanWord,
    StatisticSpec,
    count_descents,
    count_letter,
    enumerate_words,
    max_letter,
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
        assert CatalanWord.parse("0,1,0,1") == w
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


class TestStatistics:
    def test_count_letter(self):
        assert count_letter((0, 1, 0, 2, 1), 0) == 2
        assert count_letter((0, 0, 0, 0, 0), 1) == 0
        assert count_letter((0, 1, 2, 1, 0), 1) == 2
        with pytest.raises(ValueError):
            count_letter((0,), -1)

    def test_count_descents(self):
        assert count_descents((0, 1, 0, 1)) == 1
        assert count_descents((0, 1, 2, 1, 0)) == 2
        assert count_descents((0, 0, 0, 0, 0)) == 0

    def test_max_letter(self):
        assert max_letter((0, 1, 2, 1, 0)) == 2
        assert max_letter((0,)) == 0
        assert max_letter((0, 1, 0, 1)) == 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StatisticSpec("weird")
        with pytest.raises(ValueError):
            StatisticSpec("letter")
        with pytest.raises(ValueError):
            StatisticSpec("zeros", letter=3)
        assert StatisticSpec("letter", 2).evaluate((0, 1, 2, 2, 1)) == 2


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
            assert CatalanWord.parse(str(w)) == w
        assert str(peak_word(10)) == "0,1,2,3,4,5,6,7,8,9,10,9,8,7,6,5,4,3,2,1,0"

    def test_statistics_on_lists_and_tuples(self):
        samples = [(0,), *enumerate_words(8), tuple(peak_word(11))]
        for w in samples:
            for seq in (tuple(w), list(w), w):
                assert count_descents(seq) == ref_count_descents(w)
                for i in range(13):
                    assert count_letter(seq, i) == ref_count_letter(w, i)
        assert count_letter([0], 0) == 1 and count_letter([0], 1) == 0
        assert count_descents([0]) == 0 and count_descents((0,)) == 0
        with pytest.raises(ValueError):
            count_letter([0], -1)

    def test_evaluate_matches_bind(self):
        for spec in ALL_SPECS:
            for w in enumerate_words(7):
                assert spec.evaluate(w) == spec.bind()(w) == REF_STATS[spec.kind](w, spec.letter)


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
