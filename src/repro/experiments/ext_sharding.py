"""Extension experiment: scaling out with scatter-gather shards.

Section VII-B covers the two-server (index + data) split; this extension
studies the next step — hash-partitioning the corpus across N index shards
— with the discrete-event scatter-gather cluster: per-shard CPU work
shrinks ~1/N, but every query pays the *maximum* of N network legs.

Expected shape: latency improves with shards while per-shard service time
dominates, then flattens (and can regress) once the straggler network leg
dominates; throughput scales near-linearly.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.ads import Advertisement
from repro.core.wordhash import wordhash
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.datagen.querygen import QueryConfig, generate_workload
from repro.distsim.scatter import ScatterConfig, ScatterGatherCluster
from repro.experiments.common import MODEL, SMALL, Scale, format_table

#: Scale factor from modeled ns to simulated CPU ms (as in fig9, but
#: heavier per-query work so sharding has something to divide).
MS_PER_NS = 2e-3


class ShardedWordSetIndex:
    """The corpus hash-partitioned into ``num_shards`` independent
    :class:`WordSetIndex` shards: an ad lives in shard
    ``wordhash(ad.words) % num_shards``, so a word-set's ads stay whole.
    Broad match admits no query-side routing, so every query goes to
    every shard; one tracker per shard prices each shard's share."""

    def __init__(self, shards: list[WordSetIndex]) -> None:
        self.shards = shards

    @classmethod
    def from_corpus(
        cls,
        corpus: Iterable[Advertisement],
        num_shards: int,
        trackers: list[AccessTracker] | None = None,
    ) -> ShardedWordSetIndex:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if trackers is not None and len(trackers) != num_shards:
            raise ValueError("need one tracker per shard")
        parts: list[list[Advertisement]] = [[] for _ in range(num_shards)]
        for ad in corpus:
            parts[wordhash(ad.words) % num_shards].append(ad)
        return cls(
            [
                WordSetIndex.from_corpus(
                    part, tracker=trackers[i] if trackers else None
                )
                for i, part in enumerate(parts)
            ]
        )

    def balance_factor(self) -> float:
        """max/mean shard size; 1.0 is perfectly balanced."""
        sizes = [len(shard) for shard in self.shards]
        mean = sum(sizes) / len(sizes)
        if mean == 0:
            return 1.0
        return max(sizes) / mean


@dataclass(frozen=True, slots=True)
class ShardPoint:
    num_shards: int
    mean_latency_ms: float
    p95_latency_ms: float
    achieved_rps: float
    cpu_utilization: float
    balance_factor: float


@dataclass(frozen=True, slots=True)
class ExtShardingResult:
    points: list[ShardPoint]
    arrival_rate_qps: float


def run(scale: Scale = SMALL, seed: int = 0) -> ExtShardingResult:
    generated = generate_corpus(CorpusConfig(num_ads=scale.num_ads, seed=seed))
    workload = generate_workload(
        generated,
        QueryConfig(
            num_distinct=scale.num_distinct_queries,
            total_frequency=scale.total_query_frequency,
            seed=seed + 100,
        ),
    )
    corpus = generated.corpus
    queries = workload.sample_stream(
        min(scale.trace_length, 1_000), seed=seed + 5
    )

    arrival = 800.0
    points = []
    for num_shards in (1, 2, 4, 8):
        trackers = [AccessTracker() for _ in range(num_shards)]
        sharded = ShardedWordSetIndex.from_corpus(
            corpus, num_shards=num_shards, trackers=trackers
        )
        # Per-shard modeled service per distinct query.
        service_tables: list[dict] = [dict() for _ in range(num_shards)]
        for query in set(queries):
            for i, (shard, tracker) in enumerate(
                zip(sharded.shards, trackers)
            ):
                tracker.reset()
                shard.query(query)
                service_tables[i][query] = max(
                    0.001, tracker.reset().modeled_ns(MODEL) * MS_PER_NS
                )

        cluster = ScatterGatherCluster(
            lambda i, q: service_tables[i][q],
            ScatterConfig(num_shards=num_shards, duration_ms=2_500.0,
                          seed=seed),
        )
        metrics = cluster.run(queries, arrival_rate_qps=arrival)
        points.append(
            ShardPoint(
                num_shards=num_shards,
                mean_latency_ms=metrics.mean_latency_ms(),
                p95_latency_ms=metrics.percentile_ms(95),
                achieved_rps=metrics.achieved_rps,
                cpu_utilization=metrics.cpu_utilization,
                balance_factor=sharded.balance_factor(),
            )
        )
    return ExtShardingResult(points=points, arrival_rate_qps=arrival)


def format_report(result: ExtShardingResult) -> str:
    rows = [
        [
            str(p.num_shards),
            f"{p.mean_latency_ms:.2f}",
            f"{p.p95_latency_ms:.2f}",
            f"{p.achieved_rps:,.0f}",
            f"{p.cpu_utilization:.0%}",
            f"{p.balance_factor:.2f}",
        ]
        for p in result.points
    ]
    table = format_table(
        ["shards", "mean ms", "p95 ms", "rps", "cpu/shard", "balance"], rows
    )
    return (
        "Extension — scatter-gather sharding "
        f"(arrival {result.arrival_rate_qps:.0f} qps)\n"
        f"{table}\n"
        "(per-shard CPU falls ~1/N; the gather step pays the slowest of N\n"
        " network legs, bounding the latency win)\n"
    )
