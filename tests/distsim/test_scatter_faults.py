"""Fault tolerance in the scatter-gather cluster: retry-with-backoff,
per-shard timeouts, and graceful partial results."""

import pytest

from repro.core.queries import Query
from repro.distsim.scatter import ScatterConfig, ScatterGatherCluster
from repro.faults import FaultInjector
from repro.obs import MetricsRegistry


QUERIES = [Query.from_text("cheap used books"), Query.from_text("maps")]


def flat_service(_shard, _query):
    return 1.0


def run_cluster(config, injector=None, registry=None, qps=100.0):
    cluster = ScatterGatherCluster(
        flat_service, config, obs=registry, faults=injector
    )
    return cluster.run(QUERIES, arrival_rate_qps=qps)


class TestScatterRetries:
    def test_transient_failure_recovered_by_retry(self):
        registry = MetricsRegistry()
        injector = FaultInjector()
        # First two submissions to shard0 are dropped; retries succeed.
        injector.arm_forever("server.shard0", times=2)
        config = ScatterConfig(
            num_shards=2, duration_ms=500.0, max_retries=3,
            retry_backoff_ms=0.5,
        )
        metrics = run_cluster(config, injector, registry)
        assert registry.value("scatter.retries") == 2
        assert registry.value("scatter.shard_failures") == 0
        assert registry.value("scatter.failed_queries") == 0
        assert registry.value("partial_results") == 0
        assert metrics.completed > 0

    def test_exhausted_retries_fail_the_query_without_partials(self):
        registry = MetricsRegistry()
        injector = FaultInjector()
        # Shard0 drops every submission for the whole run.
        injector.arm_forever("server.shard0", times=10_000)
        config = ScatterConfig(
            num_shards=2, duration_ms=300.0, max_retries=1,
        )
        metrics = run_cluster(config, injector, registry)
        assert metrics.completed == 0
        assert registry.value("scatter.failed_queries") > 0
        assert registry.value("scatter.retries") > 0
        assert registry.value("partial_results") == 0

    def test_partial_results_degrade_gracefully(self):
        registry = MetricsRegistry()
        injector = FaultInjector()
        injector.arm_forever("server.shard0", times=10_000)
        config = ScatterConfig(
            num_shards=3, duration_ms=300.0, allow_partial=True,
        )
        metrics = run_cluster(config, injector, registry)
        # Every query loses shard0 but completes on the other two.
        assert metrics.completed > 0
        assert registry.value("partial_results") >= metrics.completed
        assert registry.value("scatter.failed_queries") == 0

    def test_min_shards_bounds_degradation(self):
        registry = MetricsRegistry()
        injector = FaultInjector()
        injector.arm_forever("server.shard0", times=10_000)
        injector.arm_forever("server.shard1", times=10_000)
        config = ScatterConfig(
            num_shards=3, duration_ms=300.0, allow_partial=True,
            min_shards=2,
        )
        metrics = run_cluster(config, injector, registry)
        # Only one shard answers — below min_shards, so queries fail.
        assert metrics.completed == 0
        assert registry.value("scatter.failed_queries") > 0


class TestScatterTimeouts:
    def test_slow_shard_times_out_into_partial_result(self):
        registry = MetricsRegistry()

        def skewed(shard, _query):
            return 10_000.0 if shard == 0 else 0.5

        config = ScatterConfig(
            num_shards=2, duration_ms=300.0, shard_timeout_ms=20.0,
            allow_partial=True,
        )
        cluster = ScatterGatherCluster(skewed, config, obs=registry)
        metrics = cluster.run(QUERIES, arrival_rate_qps=20.0)
        assert metrics.completed > 0
        assert registry.value("scatter.shard_timeouts") > 0
        assert registry.value("partial_results") >= metrics.completed
        # The timeout also bounds latency: nothing waits for the
        # 10-second shard.
        assert max(metrics.latencies_ms) < 100.0

    def test_no_timeout_by_default(self):
        config = ScatterConfig(num_shards=2, duration_ms=300.0)
        metrics = run_cluster(config)
        assert metrics.completed > 0


class TestScatterConfigValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ScatterGatherCluster(
                flat_service, ScatterConfig(max_retries=-1)
            )

    def test_min_shards_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ScatterGatherCluster(
                flat_service,
                ScatterConfig(num_shards=2, min_shards=3),
            )

    def test_fault_free_run_matches_baseline(self):
        """The fault machinery must not change the base simulation: a
        run with default config equals the pre-harness seed behaviour
        (same seeds, same RNG draw order)."""
        config = ScatterConfig(num_shards=2, duration_ms=500.0)
        baseline = run_cluster(config)
        with_harness = run_cluster(
            config, FaultInjector(), MetricsRegistry()
        )
        assert baseline.latencies_ms == with_harness.latencies_ms

