"""Tests for memoized word hashing and incremental subset-hash enumeration."""

from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.wordhash import clear_contrib_cache, word_contrib, wordhash
from repro.perf.memohash import hashed_index_subsets

WORDS = ["apple", "banana", "cherry", "date", "elderberry", "fig"]


def hashed_subsets(words, sizes):
    """``(subset, subset_hash)`` pairs: the materialized form of
    :func:`hashed_index_subsets`."""
    contribs = [word_contrib(w) for w in words]
    for key, indices in hashed_index_subsets(contribs, sizes):
        yield frozenset(words[i] for i in indices), key


class TestWordContrib:
    def test_contrib_equals_singleton_wordhash(self):
        for word in WORDS:
            assert word_contrib(word) == wordhash(frozenset({word}))

    def test_xor_of_contribs_equals_set_wordhash(self):
        acc = 0
        for word in WORDS:
            acc ^= word_contrib(word)
        assert acc == wordhash(frozenset(WORDS))

    def test_cache_round_trip(self):
        clear_contrib_cache()
        first = word_contrib("memo-test-word")
        assert word_contrib("memo-test-word") == first
        assert clear_contrib_cache() >= 1
        assert word_contrib("memo-test-word") == first


class TestHashedIndexSubsets:
    def test_order_matches_itertools_combinations(self):
        contribs = [word_contrib(w) for w in WORDS]
        sizes = [1, 2, 3]
        got = [
            tuple(indices)
            for _, indices in hashed_index_subsets(contribs, sizes)
        ]
        want = [
            combo
            for size in sizes
            for combo in combinations(range(len(WORDS)), size)
        ]
        assert got == want

    def test_keys_equal_wordhash_of_subset(self):
        contribs = [word_contrib(w) for w in WORDS]
        for key, indices in hashed_index_subsets(contribs, range(1, 7)):
            subset = frozenset(WORDS[i] for i in indices)
            assert key == wordhash(subset)

    def test_out_of_range_sizes_skipped(self):
        contribs = [word_contrib(w) for w in WORDS[:3]]
        assert list(hashed_index_subsets(contribs, [0, 4, 99])) == []

    def test_empty_contribs(self):
        assert list(hashed_index_subsets([], [1, 2])) == []

    def test_indices_are_live(self):
        # Documented sharp edge: the yielded list mutates in place, so a
        # caller keeping subset identities must copy.
        contribs = [word_contrib(w) for w in WORDS[:4]]
        raw = [idx for _, idx in hashed_index_subsets(contribs, [2])]
        copied = [
            tuple(idx) for _, idx in hashed_index_subsets(contribs, [2])
        ]
        assert len(set(copied)) == len(copied)
        assert all(r is raw[0] for r in raw)  # one live list throughout

    @given(
        st.lists(
            st.sampled_from([f"w{i}" for i in range(10)]),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
    )
    def test_property_matches_naive_rehash(self, words, sizes):
        words = sorted(words)
        sizes = sorted(sizes)
        got = {
            (subset, key) for subset, key in hashed_subsets(words, sizes)
        }
        want = {
            (frozenset(combo), wordhash(frozenset(combo)))
            for size in sizes
            for combo in combinations(words, size)
        }
        assert got == want
