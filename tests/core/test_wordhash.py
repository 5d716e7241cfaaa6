"""Tests for the stable order-independent word-set hash, and the one
per-word memo every hash path shares."""

import importlib
import string
from collections.abc import Iterable

from hypothesis import given
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.wordhash import fnv1a, hash_suffix, word_contrib, wordhash

# ``repro.core`` re-exports the function under the module's own name.
wordhash_module = importlib.import_module("repro.core.wordhash")

# ---------------------------------------------------------------------- #
# The reference: the un-memoized definition the memo replaced, verbatim
# but for the ``reference_`` prefix on the two public names.

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1
_EMPTY_SET_HASH = 0x9E3779B97F4A7C15


def reference_fnv1a(word: str) -> int:
    """64-bit FNV-1a hash of a single word (UTF-8 bytes)."""
    value = _FNV_OFFSET
    for byte in word.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _mix(value: int) -> int:
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def reference_wordhash(words: Iterable[str]) -> int:
    """Order-independent 64-bit hash of a set of words."""
    combined = 0
    empty = True
    for word in set(words):
        combined ^= _mix(reference_fnv1a(word))
        empty = False
    if empty:
        return _EMPTY_SET_HASH
    return combined


words_strategy = st.sets(
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
    min_size=1,
    max_size=8,
)


class TestFnv1a:
    def test_known_value_stability(self):
        # Pin the value: the index layout must be reproducible across runs.
        assert fnv1a("books") == fnv1a("books")
        assert fnv1a("") == 0xCBF29CE484222325

    def test_distinct_words_distinct_hashes(self):
        vocab = [f"word{i}" for i in range(2000)]
        assert len({fnv1a(w) for w in vocab}) == len(vocab)


class TestWordhash:
    def test_order_independent(self):
        assert wordhash(["used", "books"]) == wordhash(["books", "used"])

    def test_set_and_list_agree(self):
        assert wordhash({"a", "b"}) == wordhash(["a", "b"])

    def test_duplicates_in_iterable_ignored(self):
        # wordhash hashes the *set*; duplicate folding happens upstream.
        assert wordhash(["a", "a", "b"]) == wordhash(["a", "b"])

    def test_empty_set_nonzero(self):
        assert wordhash([]) != 0

    def test_subset_hashes_differ(self):
        assert wordhash({"a"}) != wordhash({"a", "b"})

    def test_no_collisions_among_small_random_sets(self):
        sets = []
        for i in range(1000):
            sets.append(frozenset({f"w{i}", f"w{i + 1}", f"w{2 * i + 7}"}))
        hashes = {wordhash(s) for s in set(sets)}
        assert len(hashes) == len(set(sets))

    @given(words_strategy)
    def test_deterministic(self, words):
        assert wordhash(words) == wordhash(sorted(words))

    @given(words_strategy, words_strategy)
    def test_different_sets_rarely_collide(self, a, b):
        if a != b:
            # 64-bit space: a hypothesis-sized sample must never collide.
            assert wordhash(a) != wordhash(b)

    def test_fits_in_64_bits(self):
        assert 0 <= wordhash({"x", "y", "z"}) < (1 << 64)


class TestHashSuffix:
    def test_masks_low_bits(self):
        assert hash_suffix(0b101101, 3) == 0b101

    def test_full_width(self):
        value = wordhash({"a"})
        assert hash_suffix(value, 64) == value

    def test_suffix_bounded(self):
        for bits in (1, 8, 28):
            assert 0 <= hash_suffix(wordhash({"q"}), bits) < (1 << bits)

    def test_rejects_nonpositive(self):
        import pytest

        with pytest.raises(ValueError):
            hash_suffix(1, 0)


# ---------------------------------------------------------------------- #
# One hash, one memo

any_words = st.lists(st.text(max_size=6), max_size=8)


class TestOneHash:
    @given(any_words)
    def test_equals_the_unmemoized_definition_on_every_input_shape(self, words):
        expected = reference_wordhash(words)
        assert wordhash(words) == expected
        assert wordhash(tuple(words)) == expected
        assert wordhash(word for word in words) == expected
        assert wordhash(set(words)) == expected
        assert wordhash(frozenset(words)) == expected

    def test_named_cases(self):
        for words in (
            [],
            ["books"],
            ["used", "books", "used"],
            ["café", "日本語", "🙂"],
            ["", "x"],
        ):
            assert wordhash(words) == reference_wordhash(words), words
        assert wordhash([]) == wordhash(iter(())) == _EMPTY_SET_HASH

    def test_memo_holds_the_mixed_word_hash(self):
        word = "memo-contract-word"
        assert word_contrib(word) == _mix(reference_fnv1a(word))
        assert wordhash_module._MEMO[word] == word_contrib(word)
        assert wordhash([word]) == word_contrib(word)

    def test_one_definition_and_one_memo(self):
        import repro.kernels.flat as flat
        import repro.kernels.pipeline as pipeline
        import repro.perf.memohash as memohash

        assert pipeline._CANONICAL_WORDHASH is wordhash
        assert pipeline.word_contrib is word_contrib
        assert flat.word_contrib is word_contrib
        assert not hasattr(memohash, "word_contrib")
        assert not hasattr(memohash, "_CONTRIB_CACHE")

    def test_deleting_absent_ads_does_not_grow_the_memo(self, tmp_path):
        from repro.segment import TieredConfig, TieredSegmentedIndex

        def ad(text, listing_id):
            return Advertisement.from_text(text, AdInfo(listing_id=listing_id))

        config = TieredConfig(seal_threshold=1_000, auto_merge=False)
        with TieredSegmentedIndex(tmp_path, config=config) as index:
            for i in range(40):
                index.insert(ad(f"stored w{i % 4}", i))
            index.seal()
            index.insert(ad("overlay only", 99))
            before = len(wordhash_module._MEMO)
            for i in range(10_000):
                assert not index.delete(ad(f"neverseen{i} stored", 1_000 + i))
            assert len(wordhash_module._MEMO) == before
            assert len(index) == 41 and index.tombstone_count() == 0
