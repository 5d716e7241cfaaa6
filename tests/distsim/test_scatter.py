"""Tests for the scatter-gather sharded cluster simulation."""

import hashlib

import pytest

from repro.core.queries import Query
from repro.distsim.scatter import (
    ScatterConfig,
    ScatterGatherCluster,
    uniform_shard_service,
)
from repro.experiments import ext_sharding
from repro.experiments.common import SMALL

QUERIES = [Query.from_text(f"q{i}") for i in range(4)]


def make_cluster(num_shards, total_ms=2.0, **kwargs):
    config = ScatterConfig(
        num_shards=num_shards, duration_ms=2_000.0, seed=3, **kwargs
    )
    return ScatterGatherCluster(
        uniform_shard_service(lambda q: total_ms, num_shards), config
    )


class TestScatterGather:
    def test_basic_run(self):
        metrics = make_cluster(4).run(QUERIES, arrival_rate_qps=100)
        assert metrics.completed > 50
        assert metrics.mean_latency_ms() > 0

    def test_sharding_divides_cpu_work(self):
        one = make_cluster(1).run(QUERIES, 200)
        four = make_cluster(4).run(QUERIES, 200)
        # Four servers each do 1/4 of the work: per-server utilization drops.
        assert four.cpu_utilization < one.cpu_utilization

    def test_sharding_cuts_latency_for_heavy_queries(self):
        one = make_cluster(1, total_ms=8.0).run(QUERIES, 50)
        four = make_cluster(4, total_ms=8.0).run(QUERIES, 50)
        assert four.mean_latency_ms() < one.mean_latency_ms()

    def test_straggler_effect_with_jitter(self):
        """Wide fan-outs pay the max of N network legs: with cheap
        service, more shards can *hurt* latency."""
        narrow = make_cluster(
            1, total_ms=0.1, network_jitter_ms=2.0
        ).run(QUERIES, 50)
        wide = make_cluster(
            16, total_ms=0.1, network_jitter_ms=2.0
        ).run(QUERIES, 50)
        assert wide.mean_latency_ms() > narrow.mean_latency_ms()

    def test_throughput_scales_with_shards(self):
        # At a rate that saturates 1 shard, 4 shards keep up.
        one = make_cluster(1, total_ms=4.0).run(QUERIES, 1_500)
        four = make_cluster(4, total_ms=4.0).run(QUERIES, 1_500)
        assert four.achieved_rps > one.achieved_rps

    def test_deterministic(self):
        a = make_cluster(3).run(QUERIES, 100)
        b = make_cluster(3).run(QUERIES, 100)
        assert a.latencies_ms == b.latencies_ms

    def test_validation(self):
        cluster = make_cluster(2)
        with pytest.raises(ValueError):
            cluster.run(QUERIES, 0)
        with pytest.raises(ValueError):
            cluster.run([], 10)
        with pytest.raises(ValueError):
            ScatterGatherCluster(
                uniform_shard_service(lambda q: 1.0, 1),
                ScatterConfig(num_shards=0),
            )

    def test_uniform_service_floor(self):
        service = uniform_shard_service(lambda q: 0.0, 8)
        assert service(0, QUERIES[0]) == 0.001


class TestScatterConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"cores_per_server": 0},
            {"duration_ms": 0.0},
            {"network_base_ms": -1.0},
            {"network_jitter_ms": -0.1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ScatterConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = ScatterConfig()
        assert config.num_shards >= 1
        assert config.cores_per_server >= 1


def _skewed_service(shard, query):
    """Legs of unequal length, so which leg the gather waits for shows."""
    return 0.05 + 0.4 * len(query.words) / (shard + 1)


_DIGEST_QUERIES = [Query.from_text(t) for t in ("a", "b c", "d e f", "g h i j")]


class TestPinnedOutput:
    """The simulator's exact output, pinned by hash.

    Any change to the order of random draws or events, to when the
    gather completes or to how a leg is charged moves these digests.
    """

    def test_grid_digest(self):
        digest = hashlib.sha256()
        for shards in (1, 2, 4, 16):
            for jitter in (0.0, 0.3, 2.0):
                for rate in (50.0, 400.0, 1500.0):
                    config = ScatterConfig(
                        num_shards=shards,
                        network_jitter_ms=jitter,
                        duration_ms=400.0,
                        seed=7,
                    )
                    metrics = ScatterGatherCluster(
                        _skewed_service, config
                    ).run(_DIGEST_QUERIES, rate)
                    digest.update(
                        repr(
                            (
                                metrics.latencies_ms,
                                metrics.cpu_utilization,
                                metrics.completed_in_window,
                            )
                        ).encode()
                    )
        assert digest.hexdigest() == (
            "47aeed18fcfdc395ae0b32c2081f419404daf5dc1e7f8ed64a3e17b54fe14e53"
        )

    def test_ext_sharding_small_report(self):
        report = ext_sharding.format_report(ext_sharding.run(SMALL))
        assert hashlib.sha256(report.encode()).hexdigest() == (
            "ebae5e7469e7a6e54508006e14875b850678660873c6494d3f0159cbf666c521"
        )
