"""Breaker-guarded shard fan-out: partial results, fail-fast, and the
min_shards floor — standalone and wired into the sharded indexes."""

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.sharded import ShardedWordSetIndex
from repro.obs import MetricsRegistry
from repro.resilience import (
    BreakerConfig,
    BreakerState,
    Deadline,
    DegradedReason,
    FanoutGuard,
    ManualClock,
    ShardsUnavailableError,
)
from repro.serving import AdServer


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


class FlakyShard:
    """A stand-in shard: returns its payload or raises."""

    def __init__(self, payload, failing=False):
        self.payload = payload
        self.failing = failing
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.failing:
            raise RuntimeError("shard down")
        return list(self.payload)


def gather(guard, shards, deadline=None):
    return guard.gather(shards, lambda shard: shard(), deadline)


class TestValidation:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            FanoutGuard(0)

    def test_rejects_bad_min_shards(self):
        with pytest.raises(ValueError):
            FanoutGuard(2, min_shards=3)
        with pytest.raises(ValueError):
            FanoutGuard(2, min_shards=0)

    def test_rejects_mismatched_gather(self):
        guard = FanoutGuard(2, clock=ManualClock())
        with pytest.raises(ValueError):
            gather(guard, [FlakyShard(["a"])])


class TestGather:
    def test_healthy_gather_unions_in_shard_order(self):
        guard = FanoutGuard(3, clock=ManualClock())
        shards = [FlakyShard(["a"]), FlakyShard(["b"]), FlakyShard(["c"])]
        deadline = Deadline.unlimited()
        assert gather(guard, shards, deadline) == ["a", "b", "c"]
        assert not deadline.partial

    def test_failing_shard_yields_flagged_partial(self):
        registry = MetricsRegistry()
        guard = FanoutGuard(3, clock=ManualClock(), obs=registry)
        shards = [
            FlakyShard(["a"]),
            FlakyShard(["b"], failing=True),
            FlakyShard(["c"]),
        ]
        deadline = Deadline.unlimited()
        assert gather(guard, shards, deadline) == ["a", "c"]
        assert DegradedReason.PARTIAL_SHARDS in deadline.partial_reasons
        assert registry.value("resilience.shard_errors") == 1
        assert registry.value("resilience.partial_fanouts") == 1

    def test_allow_partial_false_propagates(self):
        guard = FanoutGuard(2, allow_partial=False, clock=ManualClock())
        shards = [FlakyShard(["a"]), FlakyShard(["b"], failing=True)]
        with pytest.raises(RuntimeError):
            gather(guard, shards)
        # The breaker still recorded the failure.
        assert guard.breakers[1].failure_rate() > 0.0

    def test_open_breaker_short_circuits_the_shard(self):
        clock = ManualClock()
        guard = FanoutGuard(
            2,
            breaker=BreakerConfig(window=4, min_samples=2, failure_threshold=0.5),
            clock=clock,
        )
        shards = [FlakyShard(["a"]), FlakyShard(["b"], failing=True)]
        gather(guard, shards)
        gather(guard, shards)
        assert guard.breakers[1].state is BreakerState.OPEN
        calls_before = shards[1].calls
        gather(guard, shards)
        assert shards[1].calls == calls_before  # never dispatched

    def test_open_breaker_without_partial_fails_fast(self):
        clock = ManualClock()
        guard = FanoutGuard(
            2,
            breaker=BreakerConfig(window=4, min_samples=2, failure_threshold=0.5),
            allow_partial=False,
            clock=clock,
        )
        shards = [FlakyShard(["a"]), FlakyShard(["b"], failing=True)]
        for _ in range(2):
            with pytest.raises(RuntimeError):
                gather(guard, shards)
        assert guard.breakers[1].state is BreakerState.OPEN
        with pytest.raises(ShardsUnavailableError):
            gather(guard, shards)

    def test_min_shards_floor(self):
        guard = FanoutGuard(2, min_shards=2, clock=ManualClock())
        shards = [FlakyShard(["a"]), FlakyShard(["b"], failing=True)]
        with pytest.raises(ShardsUnavailableError) as excinfo:
            gather(guard, shards)
        assert excinfo.value.ok == 1
        assert excinfo.value.required == 2

    def test_deadline_expiry_mid_gather(self):
        clock = ManualClock()
        guard = FanoutGuard(3, clock=clock)

        class AdvancingShard(FlakyShard):
            def __call__(self):
                clock.advance(10.0)
                return super().__call__()

        shards = [
            AdvancingShard(["a"]),
            AdvancingShard(["b"]),
            AdvancingShard(["c"]),
        ]
        deadline = Deadline.after_ms(15.0, clock=clock)
        result = gather(guard, shards, deadline)
        assert result == ["a", "b"]
        assert DegradedReason.DEADLINE in deadline.partial_reasons
        assert shards[2].calls == 0


class TestShardedIndexIntegration:
    @pytest.fixture()
    def corpus(self):
        return AdCorpus(
            [
                ad("used books", 1),
                ad("comic books", 2),
                ad("books", 3),
                ad("cheap used books", 4),
                ad("cheap flights", 5),
            ]
        )

    def test_guard_mismatch_rejected(self, corpus):
        guard = FanoutGuard(2, clock=ManualClock())
        with pytest.raises(ValueError):
            ShardedWordSetIndex(4, guard=guard)

    def test_guarded_query_matches_unguarded(self, corpus):
        plain = ShardedWordSetIndex.from_corpus(corpus, num_shards=4)
        guarded = ShardedWordSetIndex.from_corpus(corpus, num_shards=4)
        guarded.guard = FanoutGuard(4, clock=ManualClock())
        query = Query.from_text("cheap used books")
        assert guarded.query(query) == plain.query(query)

    def test_broken_shard_degrades_to_partial(self, corpus):
        index = ShardedWordSetIndex.from_corpus(corpus, num_shards=4)
        index.guard = FanoutGuard(
            4,
            breaker=BreakerConfig(window=4, min_samples=2, failure_threshold=0.5),
            clock=ManualClock(),
        )
        query = Query.from_text("cheap used books")
        full_ids = {a.info.listing_id for a in index.query(query)}
        broken = index.shards[0]

        def boom(*args, **kwargs):
            raise RuntimeError("segment corrupted")

        broken.query = boom
        deadline = Deadline.unlimited()
        partial = index.query(query, deadline=deadline)
        assert {a.info.listing_id for a in partial} <= full_ids
        assert DegradedReason.PARTIAL_SHARDS in deadline.partial_reasons

    QUERIES = ("cheap used books", "comic books", "cheap used books", "cheap flights")

    def test_batched_serve_matches_unguarded(self, corpus):
        """A guarded index is gathered through its breakers, never by
        the batch engine's own scatter — at no cost in answers."""
        plain = ShardedWordSetIndex.from_corpus(corpus, num_shards=4)
        guarded = ShardedWordSetIndex.from_corpus(corpus, num_shards=4)
        guarded.guard = FanoutGuard(4, clock=ManualClock())
        queries = [Query.from_text(text) for text in self.QUERIES]
        got = AdServer(guarded, slots=4, reserve_micros=0).serve_batch(queries)
        want = AdServer(plain, slots=4, reserve_micros=0).serve_batch(queries)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert all(r.ads for r in got)
        assert all(
            breaker.failure_rate() == 0.0 for breaker in guarded.guard.breakers
        )

    def test_broken_shard_flags_batched_serve_partial(self, corpus):
        index = ShardedWordSetIndex.from_corpus(corpus, num_shards=4)
        index.guard = FanoutGuard(4, clock=ManualClock())
        server = AdServer(index, slots=4, reserve_micros=0)
        queries = [Query.from_text(text) for text in self.QUERIES]
        full = [
            {a.info.listing_id for a in r.ads}
            for r in server.serve_batch(queries)
        ]

        def boom(*args, **kwargs):
            raise RuntimeError("segment corrupted")

        # Both entry points: the per-query probe loop and the kernel
        # batch a shard-level scatter would call directly.
        index.shards[0].query = boom
        index.shards[0].query_kernel_batch = boom
        results = server.serve_batch(queries, deadline=Deadline.unlimited())
        assert [r.degraded_reason for r in results] == [
            DegradedReason.PARTIAL_SHARDS
        ] * len(queries)
        for result, full_ids in zip(results, full):
            assert {a.info.listing_id for a in result.ads} <= full_ids
        assert index.guard.breakers[0].failure_rate() > 0.0
        assert server.stats.snapshot()["degraded_reason.partial_shards"] == len(
            queries
        )
