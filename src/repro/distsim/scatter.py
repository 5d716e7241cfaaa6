"""Scatter-gather simulation for sharded deployments (Section VII-B's
"split the data across servers" scenario).

Each shard runs on its own multi-core server.  A query is broadcast to all
shards (paying network latency per leg), each shard does its share of the
retrieval work, and the response completes when the **slowest** shard has
answered — the straggler effect that makes wide fan-outs latency-fragile
even as they divide CPU work.

Per-shard service times come from the same cost-model tables as the
two-tier cluster, scaled by each shard's share of the work.  Every leg
answers: the simulation has no retries, timeouts or breakers.  The
serving tier's defences against slow or failing workers live in
:mod:`repro.resilience` and the netserve frontend.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.queries import Query
from repro.distsim.events import EventQueue
from repro.distsim.metrics import RunMetrics
from repro.distsim.network import NetworkModel
from repro.distsim.server import Server


@dataclass(frozen=True, slots=True)
class ScatterConfig:
    num_shards: int = 4
    cores_per_server: int = 4
    duration_ms: float = 5_000.0
    network_base_ms: float = 0.5
    network_jitter_ms: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.cores_per_server < 1:
            raise ValueError("cores_per_server must be >= 1")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.network_base_ms < 0:
            raise ValueError("network_base_ms must be >= 0")
        if self.network_jitter_ms < 0:
            raise ValueError("network_jitter_ms must be >= 0")


class ScatterGatherCluster:
    """N shard servers answering every query in parallel."""

    def __init__(
        self,
        shard_service_ms: Callable[[int, Query], float],
        config: ScatterConfig = ScatterConfig(),
    ) -> None:
        self.shard_service_ms = shard_service_ms
        self.config = config

    def run(self, queries: Sequence[Query], arrival_rate_qps: float) -> RunMetrics:
        if arrival_rate_qps <= 0:
            raise ValueError("arrival rate must be positive")
        if not queries:
            raise ValueError("need at least one query")
        config = self.config
        events = EventQueue()
        network = NetworkModel(
            config.network_base_ms, config.network_jitter_ms, seed=config.seed
        )
        rng = random.Random(config.seed + 1)
        servers = [
            Server(events, cores=config.cores_per_server, name=f"shard{i}")
            for i in range(config.num_shards)
        ]
        latencies: list[float] = []
        finish_times: list[float] = []
        duration = config.duration_ms
        mean_gap_ms = 1000.0 / arrival_rate_qps

        def arrival(query_index: int, arrival_time: float) -> None:
            query = queries[query_index % len(queries)]
            start = events.now
            pending = config.num_shards

            def complete() -> None:
                latencies.append(events.now - start)
                finish_times.append(events.now)

            def on_leg_done() -> None:
                # Gather once the slowest leg has answered, then pay the
                # reply's network hop.
                nonlocal pending
                pending -= 1
                if pending == 0:
                    events.schedule(network.delay_ms(), complete)

            def submit(shard: int) -> None:
                servers[shard].submit(
                    self.shard_service_ms(shard, query), on_done=on_leg_done
                )

            for i in range(config.num_shards):
                events.schedule(network.delay_ms(), lambda shard=i: submit(shard))

            next_time = arrival_time + rng.expovariate(1.0 / mean_gap_ms)
            if next_time < duration:
                events.schedule_at(
                    next_time, lambda: arrival(query_index + 1, next_time)
                )

        events.schedule_at(0.0, lambda: arrival(0, 0.0))
        events.run(until=duration * 2)
        utilization = sum(
            server.utilization(duration) for server in servers
        ) / len(servers)
        return RunMetrics(
            latencies_ms=tuple(latencies),
            duration_ms=duration,
            cpu_utilization=utilization,
            offered_rps=arrival_rate_qps,
            completed_in_window=sum(1 for t in finish_times if t <= duration),
        )


def uniform_shard_service(
    total_service_ms: Callable[[Query], float], num_shards: int
) -> Callable[[int, Query], float]:
    """Each shard does 1/N of the query's total retrieval work (hash-
    partitioned corpora split candidate volume roughly evenly)."""

    def service(_shard: int, query: Query) -> float:
        return max(0.001, total_service_ms(query) / num_shards)

    return service

