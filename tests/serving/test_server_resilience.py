"""Resilience features of the ad server: deadline budgets, a failing
retrieval that propagates (the netserve frontend admits and sheds, the
worker isolates a failing request) — and the guarantee that with
everything disabled the baseline pipeline is untouched."""

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.resilience import Deadline, DegradedReason, ManualClock
from repro.serving.server import AdServer, ServingStats


def ad(text, listing_id, bid=100):
    return Advertisement.from_text(
        text,
        AdInfo(listing_id=listing_id, campaign_id=listing_id, bid_price_micros=bid),
    )


@pytest.fixture()
def corpus():
    return AdCorpus(
        [
            ad("used books", 1, bid=300),
            ad("books", 2, bid=200),
            ad("cheap used books", 3, bid=500),
        ]
    )


@pytest.fixture()
def index(corpus):
    return WordSetIndex.from_corpus(corpus)


class FailingIndex:
    """Raises on query until ``healthy`` is flipped back on."""

    supports_deadline = False

    def __init__(self, inner):
        self.inner = inner
        self.healthy = True

    def query(self, query, match_type=MatchType.BROAD):
        if not self.healthy:
            raise RuntimeError("retrieval down")
        return self.inner.query(query, match_type)


class TestBaselineUntouched:
    def test_no_resilience_no_behavior_change(self, index):
        server = AdServer(index, slots=2)
        result = server.serve(Query.from_text("cheap used books"))
        assert [a.info.listing_id for a in result.ads] == [3, 1]
        assert result.degraded_reason is DegradedReason.NONE
        assert not result.degraded
        assert server.stats.degraded == 0

    def test_snapshot_has_resilience_counters_at_zero(self, index):
        server = AdServer(index)
        server.serve(Query.from_text("books"))
        snapshot = server.stats.snapshot()
        assert snapshot["degraded"] == 0
        assert "stale_results" not in snapshot
        assert "shed" not in snapshot
        assert "retrieval_errors" not in snapshot
        assert snapshot["deadline_partials"] == 0
        assert not any(k.startswith("degraded_reason.") for k in snapshot)

    def test_generous_deadline_matches_baseline(self, index):
        plain = AdServer(index, slots=2)
        budgeted = AdServer(index, slots=2, default_deadline_ms=1e9)
        query = Query.from_text("cheap used books")
        assert [a.info.listing_id for a in budgeted.serve(query).ads] == [
            a.info.listing_id for a in plain.serve(query).ads
        ]
        assert not budgeted.serve(query).degraded


class TestDeadline:
    def test_expired_deadline_flags_result(self, index):
        clock = ManualClock()
        server = AdServer(index, slots=2, default_deadline_ms=10.0, clock=clock)

        original_query = index.query

        def slow_query(query, match_type=MatchType.BROAD, deadline=None):
            clock.advance(50.0)
            return original_query(query, match_type, deadline)

        index.query = slow_query
        result = server.serve(Query.from_text("cheap used books"))
        assert result.degraded_reason is DegradedReason.DEADLINE
        assert server.stats.deadline_partials == 1
        assert server.stats.degraded == 1
        assert server.stats.snapshot()["degraded_reason.deadline"] == 1

    def test_caller_deadline_wins_over_default(self, index):
        clock = ManualClock()
        server = AdServer(index, slots=2, default_deadline_ms=1e9, clock=clock)
        expired = Deadline.after_ms(1.0, clock=clock)
        clock.advance(5.0)
        result = server.serve(Query.from_text("books"), deadline=expired)
        assert result.degraded_reason is DegradedReason.DEADLINE


class PoisonedIndex(FailingIndex):
    """Raises only for queries holding the word ``poison``."""

    def query(self, query, match_type=MatchType.BROAD):
        if "poison" in query.words:
            raise RuntimeError("poisoned word-set")
        return self.inner.query(query, match_type)


class TestBatchFailureRule:
    """A failing retrieval propagates out of ``serve`` and
    ``serve_batch`` alike, with no result and no count; the worker
    re-serves a failed batch's items one by one
    (``tests/netserve/test_batching.py``)."""

    def test_batch_errors_propagate_by_default(self, index):
        server = AdServer(PoisonedIndex(index), slots=2)
        with pytest.raises(RuntimeError, match="poisoned"):
            server.serve_batch(
                [Query.from_text("books"), Query(("poison",))]
            )


class TestSnapshotShape:
    def test_reason_keys_sorted_and_complete(self):
        stats = ServingStats()
        stats.record_reason(DegradedReason.RETRIEVAL_ERROR)
        stats.record_reason(DegradedReason.DEADLINE)
        stats.record_reason(DegradedReason.DEADLINE)
        stats.record_reason(DegradedReason.NONE)  # never recorded
        snapshot = stats.snapshot()
        reason_keys = [k for k in snapshot if k.startswith("degraded_reason.")]
        assert reason_keys == [
            "degraded_reason.deadline",
            "degraded_reason.retrieval_error",
        ]
        assert snapshot["degraded_reason.deadline"] == 2
