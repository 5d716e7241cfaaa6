"""Resilience features of the ad server: admission shedding, deadline
budgets, adaptive degradation, the retrieval failure rule — and the
guarantee that with everything disabled the baseline pipeline is
untouched."""

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.resilience import (
    AdmissionConfig,
    AdmissionController,
    Deadline,
    DegradationLevel,
    DegradationPolicy,
    DegradedReason,
    ManualClock,
    Priority,
)
from repro.resilience.degrade import DEFAULT_LADDER
from repro.segment import PackedSegmentIndex, SegmentBuilder
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
        assert server.stats.shed == 0
        assert server.stats.degraded == 0

    def test_snapshot_has_resilience_counters_at_zero(self, index):
        server = AdServer(index)
        server.serve(Query.from_text("books"))
        snapshot = server.stats.snapshot()
        assert snapshot["shed"] == 0
        assert snapshot["degraded"] == 0
        assert "stale_results" not in snapshot
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


class TestAdmission:
    def make_server(self, index, **admission_kwargs):
        clock = ManualClock()
        admission = AdmissionController(
            AdmissionConfig(**admission_kwargs), clock=clock
        )
        return AdServer(index, slots=2, admission=admission), clock

    def test_shed_returns_flagged_empty_result(self, index):
        # burst=2 admits exactly one NORMAL request (needs 1 + 0.1*burst
        # tokens, leaving the bucket under the reserve line).
        server, _ = self.make_server(index, rate_per_s=10.0, burst=2.0)
        query = Query.from_text("cheap used books")
        assert server.serve(query).ads  # drains the bucket to 1 token
        shed = server.serve(query)
        assert shed.ads == []
        assert shed.degraded
        assert shed.degraded_reason is DegradedReason.SHED_CAPACITY

    def test_shed_counts_in_stats_but_not_queries(self, index):
        server, _ = self.make_server(index, rate_per_s=10.0, burst=2.0)
        query = Query.from_text("books")
        server.serve(query)
        server.serve(query)
        assert server.stats.queries == 1
        assert server.stats.shed == 1
        snapshot = server.stats.snapshot()
        assert snapshot["degraded_reason.shed_capacity"] == 1

    def test_priority_passes_through(self, index):
        server, _ = self.make_server(index, rate_per_s=10.0, burst=10.0)
        query = Query.from_text("books")
        for _ in range(7):
            assert not server.serve(query, priority=Priority.HIGH).degraded
        # Bucket at LOW's reserve line: LOW sheds, HIGH still serves.
        assert (
            server.serve(query, priority=Priority.LOW).degraded_reason
            is DegradedReason.SHED_CAPACITY
        )
        assert not server.serve(query, priority=Priority.HIGH).degraded

    def test_inflight_released_after_serve(self, index):
        server, _ = self.make_server(index, max_queue_depth=1)
        query = Query.from_text("books")
        for _ in range(5):
            assert not server.serve(query).degraded
        assert server.admission.inflight == 0

    def test_batch_preserves_order_around_shed_positions(self, index):
        # burst=3 admits exactly two NORMAL requests before the reserve
        # line; the third position sheds.
        server, _ = self.make_server(index, rate_per_s=10.0, burst=3.0)
        queries = [
            Query.from_text("cheap used books"),
            Query.from_text("books"),
            Query.from_text("used books"),
        ]
        results = server.serve_batch(queries)
        assert len(results) == 3
        assert [r.query for r in results] == queries
        assert not results[0].degraded
        assert not results[1].degraded
        assert results[2].degraded_reason is DegradedReason.SHED_CAPACITY
        assert server.stats.shed == 1


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


class TestDegradation:
    def make_server(self, index, pressure, **kwargs):
        policy = DegradationPolicy(
            high_ms=50.0,
            low_ms=10.0,
            ladder=(
                DegradationLevel(),
                DegradationLevel(max_query_words=1),
            ),
            cooldown_queries=2,
            pressure_fn=pressure,
        )
        return AdServer(index, slots=2, degradation=policy, **kwargs)

    def test_pressure_truncates_queries(self, index):
        server = self.make_server(index, lambda: 100.0)
        query = Query.from_text("cheap used books")
        first = server.serve(query)
        assert first.degraded_reason is DegradedReason.NONE
        full_ids = {a.info.listing_id for a in first.ads}
        # The second query trips the cooldown before retrieval: the
        # ladder steps to max_query_words=1 and the result is truncated.
        degraded = server.serve(query)
        assert degraded.degraded_reason is DegradedReason.TRUNCATED
        assert {a.info.listing_id for a in degraded.ads} <= full_ids
        assert server.stats.degraded == 1
        assert server.stats.snapshot()["degraded_reason.truncated"] == 1

    def test_pressure_clears_and_fidelity_returns(self, index):
        readings = [100.0, 0.0]
        server = self.make_server(index, lambda: readings.pop(0))
        query = Query.from_text("cheap used books")
        server.serve(query)
        server.serve(query)  # steps down
        assert server.degradation.degraded
        server.serve(query)
        server.serve(query)  # steps back up
        assert not server.degradation.degraded
        result = server.serve(query)
        assert result.degraded_reason is DegradedReason.NONE


class PoisonedIndex(FailingIndex):
    """Raises only for queries holding the word ``poison``."""

    def query(self, query, match_type=MatchType.BROAD):
        if "poison" in query.words:
            raise RuntimeError("poisoned word-set")
        return self.inner.query(query, match_type)


class TestBatchFailureRule:
    """``serve_batch`` applies the same per-position failure rule as
    ``serve``: retry alone, then a flagged empty slate, else raise."""

    def test_batch_retrieval_errors_are_flagged(self, index):
        failing = FailingIndex(index)
        failing.healthy = False
        server = AdServer(failing, slots=2, degrade_on_error=True)
        queries = [Query.from_text("used books"), Query.from_text("books")]
        results = server.serve_batch(queries)
        results += server.serve_batch(queries[:1])
        results.append(server.serve(queries[0]))
        assert [r.degraded_reason for r in results] == [
            DegradedReason.RETRIEVAL_ERROR
        ] * 4
        assert all(r.ads == [] for r in results)
        snapshot = server.stats.snapshot()
        assert snapshot["retrieval_errors"] == 4
        assert snapshot["degraded"] == 4
        assert snapshot["degraded_reason.retrieval_error"] == 4

    def test_only_the_failing_position_degrades(self, index):
        server = AdServer(PoisonedIndex(index), slots=2, degrade_on_error=True)
        healthy = AdServer(index, slots=2)
        good, bad = Query.from_text("cheap used books"), Query(("poison",))
        results = server.serve_batch([good, bad, good])
        assert [r.degraded_reason for r in results] == [
            DegradedReason.NONE,
            DegradedReason.RETRIEVAL_ERROR,
            DegradedReason.NONE,
        ]
        assert results[0].ads == healthy.serve(good).ads
        assert server.stats.retrieval_errors == 1
        assert server.stats.degraded == 1

    def test_batch_errors_propagate_by_default(self, index):
        server = AdServer(PoisonedIndex(index), slots=2)
        with pytest.raises(RuntimeError, match="poisoned"):
            server.serve_batch(
                [Query.from_text("books"), Query(("poison",))]
            )

    @pytest.mark.parametrize("kind", ["wordset", "packed"])
    def test_deepest_default_rung_flags_retrieval_errors(
        self, corpus, kind, tmp_path, monkeypatch
    ):
        # The deepest DEFAULT_LADDER rung over the indexes production
        # serves: a raising retrieval, lone or batched, still gets an
        # empty slate flagged RETRIEVAL_ERROR.
        index = WordSetIndex.from_corpus(corpus)
        if kind == "packed":
            SegmentBuilder(index).write(tmp_path / "rung.seg")
            index = PackedSegmentIndex(tmp_path / "rung.seg")
        policy = DegradationPolicy(cooldown_queries=1, pressure_fn=lambda: 1e9)
        server = AdServer(
            index, slots=2, degrade_on_error=True, degradation=policy
        )
        queries = [Query.from_text("cheap used books"), Query.from_text("books")]
        while policy.current is not DEFAULT_LADDER[-1]:
            assert server.serve(queries[0]).ads

        def down(*args, **kwargs):
            raise RuntimeError("retrieval down")

        monkeypatch.setattr(index, "query", down)
        monkeypatch.setattr(index, "query_kernel_batch", down, raising=False)
        results = server.serve_batch(queries) + [server.serve(queries[1])]
        assert policy.current is DEFAULT_LADDER[-1]
        assert [r.degraded_reason for r in results] == [
            DegradedReason.RETRIEVAL_ERROR
        ] * 3
        assert all(r.ads == [] for r in results)
        assert server.stats.retrieval_errors == 3


class TestSnapshotShape:
    def test_reason_keys_sorted_and_complete(self):
        stats = ServingStats()
        stats.record_reason(DegradedReason.TRUNCATED)
        stats.record_reason(DegradedReason.DEADLINE)
        stats.record_reason(DegradedReason.DEADLINE)
        stats.record_reason(DegradedReason.NONE)  # never recorded
        snapshot = stats.snapshot()
        reason_keys = [k for k in snapshot if k.startswith("degraded_reason.")]
        assert reason_keys == [
            "degraded_reason.deadline",
            "degraded_reason.truncated",
        ]
        assert snapshot["degraded_reason.deadline"] == 2
