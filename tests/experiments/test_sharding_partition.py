"""The ``ext-sharding`` partitioner: the corpus split by word-set hash.

The scatter-gather simulator prices each shard's share of a query, so
the partition must lose and duplicate nothing: every query answered by
the union of the shards is the flat index's answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordhash import wordhash
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.experiments.ext_sharding import ShardedWordSetIndex


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


@pytest.fixture()
def corpus():
    return AdCorpus([ad(f"w{i % 13} common x{i}", i) for i in range(60)])


def union_ids(sharded, query):
    return sorted(
        a.info.listing_id for shard in sharded.shards for a in shard.query(query)
    )


class TestSharding:
    def test_rejects_bad_shard_count(self, corpus):
        with pytest.raises(ValueError):
            ShardedWordSetIndex.from_corpus(corpus, 0)

    def test_rejects_tracker_mismatch(self, corpus):
        with pytest.raises(ValueError):
            ShardedWordSetIndex.from_corpus(corpus, 3, [AccessTracker()])

    def test_total_size(self, corpus):
        sharded = ShardedWordSetIndex.from_corpus(corpus, 4)
        assert sum(len(shard) for shard in sharded.shards) == len(corpus)

    def test_reasonably_balanced(self, corpus):
        sharded = ShardedWordSetIndex.from_corpus(corpus, 4)
        assert sharded.balance_factor() < 2.0
        assert all(len(shard) > 0 for shard in sharded.shards)

    def test_same_wordset_same_shard(self, corpus):
        sharded = ShardedWordSetIndex.from_corpus(corpus, 4)
        for i, shard in enumerate(sharded.shards):
            for words in shard.placement():
                assert wordhash(words) % 4 == i

    def test_per_shard_trackers_fast_path(self, corpus):
        # On the fast path, shards whose locator vocabulary cannot cover a
        # size-3 subset (every locator here has 3 words) skip all probes;
        # every shard still records the query.
        trackers = [AccessTracker() for _ in range(3)]
        sharded = ShardedWordSetIndex.from_corpus(corpus, 3, trackers)
        assert union_ids(sharded, Query.from_text("w1 common x1")) == [1]
        assert all(t.stats.queries == 1 for t in trackers)
        assert sum(t.stats.hash_probes for t in trackers) >= 1


words_alphabet = [f"w{i}" for i in range(9)]


@st.composite
def corpus_queries_shards(draw):
    phrases = draw(
        st.lists(
            st.lists(st.sampled_from(words_alphabet), min_size=1, max_size=4)
            .map(" ".join),
            min_size=1,
            max_size=25,
        )
    )
    ads = [ad(p, i) for i, p in enumerate(phrases)]
    queries = draw(
        st.lists(
            st.lists(st.sampled_from(words_alphabet), min_size=1, max_size=5)
            .map(" ".join),
            min_size=1,
            max_size=5,
        )
    )
    shards = draw(st.integers(1, 6))
    return ads, [Query.from_text(q) for q in queries], shards


class TestShardedProperties:
    @given(corpus_queries_shards())
    @settings(max_examples=60, deadline=None)
    def test_shard_union_is_flat(self, data):
        ads, queries, shards = data
        corpus = AdCorpus(ads)
        flat = WordSetIndex.from_corpus(corpus)
        sharded = ShardedWordSetIndex.from_corpus(corpus, shards)
        for q in queries:
            assert union_ids(sharded, q) == sorted(
                a.info.listing_id for a in flat.query(q)
            )
