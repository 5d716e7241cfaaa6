"""Tests for the LRU result cache, including invalidation correctness."""

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import MatchType, naive_broad_match
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.datagen.querygen import QueryConfig, generate_workload
from repro.perf.batch import BatchQueryEngine
from repro.serving.result_cache import CachedIndex


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


@pytest.fixture()
def cached():
    corpus = AdCorpus([ad("used books", 1), ad("books", 2)])
    return CachedIndex(WordSetIndex.from_corpus(corpus), capacity=8)


class TestCaching:
    def test_hit_on_repeat(self, cached):
        q = Query.from_text("cheap used books")
        first = cached.query(q)
        second = cached.query(q)
        assert [a.info.listing_id for a in first] == [
            a.info.listing_id for a in second
        ]
        assert cached.cache_stats.hits == 1
        assert cached.cache_stats.misses == 1

    def test_word_order_shares_entry(self, cached):
        cached.query(Query.from_text("used books"))
        cached.query(Query.from_text("books used"))
        assert cached.cache_stats.hits == 1

    def test_caller_cannot_corrupt_cache(self, cached):
        q = Query.from_text("used books")
        result = cached.query(q)
        result.clear()  # mutate the returned list
        again = cached.query(q)
        assert len(again) == 2

    def test_lru_eviction(self):
        corpus = AdCorpus([ad(f"w{i}", i) for i in range(10)])
        cached = CachedIndex(WordSetIndex.from_corpus(corpus), capacity=2)
        for i in range(3):
            cached.query(Query.from_text(f"w{i}"))
        cached.query(Query.from_text("w0"))  # evicted -> miss
        assert cached.cache_stats.misses == 4
        assert cached.cached_queries == 2

    def test_rejects_bad_capacity(self, cached):
        with pytest.raises(ValueError):
            CachedIndex(cached.index, capacity=0)


class TestInvalidation:
    def test_insert_invalidates(self, cached):
        q = Query.from_text("cheap used books")
        cached.query(q)
        cached.insert(ad("cheap books", 3))
        result = cached.query(q)
        assert 3 in {a.info.listing_id for a in result}
        assert cached.cache_stats.invalidations == 1

    def test_delete_invalidates(self, cached):
        q = Query.from_text("cheap used books")
        cached.query(q)
        assert cached.delete(ad("used books", 1))
        result = cached.query(q)
        assert 1 not in {a.info.listing_id for a in result}

    def test_failed_delete_keeps_cache(self, cached):
        q = Query.from_text("used books")
        cached.query(q)
        assert not cached.delete(ad("absent", 99))
        cached.query(q)
        assert cached.cache_stats.hits == 1


class TestDelegation:
    """CachedIndex is a true drop-in for the pluggable-index contract."""

    def test_query_with_match_type_is_cached(self, cached):
        q = Query.from_text("used books")
        first = cached.query(q, MatchType.EXACT)
        second = cached.query(q, MatchType.EXACT)
        assert [a.info.listing_id for a in first] == [1]
        assert [a.info.listing_id for a in second] == [1]
        assert cached.cache_stats.hits == 1

    def test_match_types_do_not_share_entries(self, cached):
        q = Query.from_text("cheap used books")
        broad = cached.query(q, MatchType.BROAD)
        exact = cached.query(q, MatchType.EXACT)
        assert len(broad) == 2 and exact == []
        assert cached.cache_stats.misses == 2

    def test_phrase_keyed_on_token_order(self, cached):
        # Broad match folds word order away; phrase match must not.
        a = cached.query(Query.from_text("used books"), MatchType.PHRASE)
        b = cached.query(Query.from_text("books used"), MatchType.PHRASE)
        # "used books" (1) is a phrase of the first ordering only; the
        # one-word phrase "books" (2) sits inside both.
        assert sorted(x.info.listing_id for x in a) == [1, 2]
        assert sorted(x.info.listing_id for x in b) == [2]
        assert cached.cache_stats.hits == 0

    def test_stats_forwards_to_index(self, cached):
        stats = cached.stats()
        assert stats.num_ads == 2
        assert stats.num_nodes == 2

    def test_len_delegates(self, cached):
        assert len(cached) == len(cached.index) == 2

    def test_insert_and_delete_pass_through(self, cached):
        cached.insert(ad("rare maps", 7))
        assert len(cached) == 3
        assert cached.delete(ad("rare maps", 7))
        assert len(cached) == 2

    def test_insert_forwards_locator(self, cached):
        cached.insert(ad("very cheap used books", 8), locator=frozenset({"used"}))
        assert cached.index.placement()[
            frozenset({"very", "cheap", "used", "books"})
        ] == frozenset({"used"})

    def test_unknown_attributes_fall_through(self, cached):
        assert cached.probe_count(Query.from_text("used books")) >= 1
        cached.check_invariants()
        with pytest.raises(AttributeError):
            cached.no_such_attribute

    def test_private_attributes_do_not_fall_through(self, cached):
        with pytest.raises(AttributeError):
            cached._not_a_real_attr

    def test_batch_pays_one_miss_per_wordset(self, cached):
        q1 = Query.from_text("used books")
        q2 = Query.from_text("books used")
        results = BatchQueryEngine(cached).query_broad_batch([q1, q2, q1])
        assert [len(r) for r in results] == [2, 2, 2]
        # The engine folds the repeats before the cache sees them.
        assert cached.cache_stats.misses == 1
        assert cached.cache_stats.hits == 0


class TestPowerLawHitRate:
    def test_small_cache_high_hit_rate_on_zipf_workload(self):
        """The design premise: power-law query frequencies make a small
        cache absorb most traffic."""
        generated = generate_corpus(CorpusConfig(num_ads=1_000, seed=3))
        workload = generate_workload(
            generated,
            QueryConfig(num_distinct=500, total_frequency=20_000, seed=1),
        )
        cached = CachedIndex(
            WordSetIndex.from_corpus(generated.corpus), capacity=100
        )
        for query in workload.sample_stream(3_000, seed=2):
            cached.query(query)
        # 100 slots over 500 distinct Zipf queries: well above 100/500.
        assert cached.cache_stats.hit_rate() > 0.5

    def test_results_always_match_oracle(self):
        generated = generate_corpus(CorpusConfig(num_ads=400, seed=5))
        corpus = generated.corpus
        cached = CachedIndex(WordSetIndex.from_corpus(corpus), capacity=16)
        workload = generate_workload(
            generated, QueryConfig(num_distinct=60, total_frequency=600, seed=2)
        )
        for query in workload.sample_stream(300, seed=3):
            got = sorted(a.info.listing_id for a in cached.query(query))
            want = sorted(
                a.info.listing_id for a in naive_broad_match(corpus, query)
            )
            assert got == want
