"""Tests for the deduplicating batch query engine."""

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs import MetricsRegistry
from repro.perf.batch import BatchQueryEngine
from repro.resilience import Deadline, DegradedReason, ManualClock


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


@pytest.fixture()
def corpus():
    return AdCorpus(
        [ad(f"w{i % 7} common x{i}", i) for i in range(40)]
        + [ad("common", 100)]
    )


def ids(results):
    return [sorted(a.info.listing_id for a in batch) for batch in results]


def counted(index):
    """An engine over ``index`` and the registry its counters land in."""
    registry = MetricsRegistry()
    return BatchQueryEngine(index, obs=registry), registry


def count(registry, name):
    return registry.counter(f"batch.{name}").value


class TestDedup:
    def test_same_wordset_computed_once(self, corpus):
        engine, registry = counted(WordSetIndex.from_corpus(corpus))
        batch = [
            Query.from_text("w1 common x1"),
            Query.from_text("common w1 x1"),  # same word-set, other order
            Query.from_text("common"),
        ]
        results = engine.query_broad_batch(batch)
        assert count(registry, "queries") == 3
        assert count(registry, "distinct_wordsets") == 2
        assert ids(results)[0] == ids(results)[1]

    def test_results_are_independent_copies(self, corpus):
        engine = BatchQueryEngine(WordSetIndex.from_corpus(corpus))
        q = Query.from_text("common")
        first, second = engine.query_broad_batch([q, q])
        first.clear()
        assert second  # clearing one position must not affect the other

    def test_stats_accumulate_across_batches(self, corpus):
        engine, registry = counted(WordSetIndex.from_corpus(corpus))
        engine.query_broad_batch([Query.from_text("common")])
        engine.query_broad_batch([Query.from_text("common")])
        assert count(registry, "batches") == 2
        assert count(registry, "queries") == 2

    def test_empty_batch(self, corpus):
        engine = BatchQueryEngine(WordSetIndex.from_corpus(corpus))
        assert engine.query_broad_batch([]) == []


class TestOrderEquivalence:
    def queries(self):
        return [
            Query.from_text(t)
            for t in (
                "w1 common x1",
                "common",
                "w2 common x2",
                "no match here",
                "common w1 x1",
            )
        ]

    def test_matches_sequential_single_index(self, corpus):
        index = WordSetIndex.from_corpus(corpus)
        engine = BatchQueryEngine(index)
        batch = engine.query_broad_batch(self.queries())
        sequential = [index.query(q) for q in self.queries()]
        assert ids(batch) == ids(sequential)


class TestMatchTypes:
    def test_phrase_and_exact_dedup_on_tokens(self):
        index = WordSetIndex.from_corpus(
            AdCorpus([ad("used books", 1), ad("books used", 2)])
        )
        engine, registry = counted(index)
        batch = [
            Query.from_text("used books"),
            Query.from_text("books used"),  # same word-set, different tokens
        ]
        exact = engine.query_batch(batch, MatchType.EXACT)
        assert ids(exact) == [[1], [2]]
        # Token-keyed dedup: two distinct token sequences, no sharing.
        assert count(registry, "distinct_wordsets") == 2


class TickingIndex:
    """A plain index without ``supports_deadline`` or
    ``query_kernel_batch``: each query advances ``clock`` by 1 ms."""

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.calls = 0

    def query(self, query):
        self.calls += 1
        self.clock.advance(1.0)
        return self.inner.query(query)


class TestDeadlineWithoutIndexSupport:
    def test_batch_stops_between_representatives(self, corpus):
        """An index that never sees the budget is stopped by the engine:
        once the deadline expires the remaining positions come back
        empty, and the budget is flagged DEADLINE."""
        clock = ManualClock()
        inner = WordSetIndex.from_corpus(corpus)
        index = TickingIndex(inner, clock)
        batch = [Query.from_text(f"w{i} common") for i in range(5)]
        deadline = Deadline.after_ms(2.0, clock=clock)
        got = BatchQueryEngine(index).query_broad_batch(batch, deadline)
        assert index.calls == 2
        assert ids(got[:2]) == ids([inner.query(q) for q in batch[:2]])
        assert got[2:] == [[], [], []]
        assert deadline.partial
        assert DegradedReason.DEADLINE in deadline.partial_reasons

    def test_generous_budget_is_invisible(self, corpus):
        clock = ManualClock()
        inner = WordSetIndex.from_corpus(corpus)
        batch = [Query.from_text(f"w{i} common") for i in range(5)]
        deadline = Deadline.after_ms(10.0, clock=clock)
        got = BatchQueryEngine(TickingIndex(inner, clock)).query_broad_batch(
            batch, deadline
        )
        assert ids(got) == ids([inner.query(q) for q in batch])
        assert not deadline.partial

