"""``inproc_long`` and ``tiered_churn``: the retrieval layers without sockets.

* ``inproc_long`` calls ``AdServer.serve_batch`` over the packed
  segment with batches of 32 sixteen-word queries on the numpy kernel
  backend: subset enumeration, ``flat_probe_keys``, ``B^sig``
  membership, ``BatchQueryEngine`` dedup, then filters and auction over
  long slates.  No byte crosses a socket, so a wire change must not
  move it.
* ``tiered_churn`` drives one ``TieredSegmentedIndex`` from one thread
  with 50 % queries, 35 % inserts and 15 % deletes, seals and merges
  inline, so that the same ``segment`` code is measured writing beside
  reading and a stall lands on the op that caused it.  Every unit
  inserts exactly ``seal_threshold`` ads: one seal per unit, a merge in
  every fourth, and counts that repeat exactly.

Both compare every slate with the ``WordSetIndex`` oracle.
"""

from __future__ import annotations

import contextlib
import os
import random
import shutil
import time
from collections import Counter
from collections.abc import Iterator
from pathlib import Path
from typing import Any

import repro.kernels
from repro.core.ads import AdCorpus, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import MetricsRegistry
from repro.segment.builder import SegmentBuilder
from repro.segment.packed import PackedSegmentIndex
from repro.segment.tiered import TieredConfig, TieredSegmentedIndex
from repro.serving.server import AdServer, ServeResult

import layers
import proc
from harness import RunContext, SetupStages, UnitSample, mean_us
from inputs import STRATA, Inputs, stratified_units
from segment_setup import build_pack_open
from spans import Patch

__all__ = [
    "InprocLongWorkload",
    "TieredChurnWorkload",
    "long_capacity",
    "tiered_capacity",
]

# ------------------------------------------------------------------ #
# inproc_long

BATCH = 32
#: Distinct queries per batch; the other 12 repeat them, so that the
#: batch engine's dedup has work (dedup rate 0.375).
BATCH_DISTINCT = STRATA
BATCHES_PER_UNIT = 1
LONG_WARM_UNITS = 8
#: Distinct long queries the traced run's retrieval pass answers.
LONG_LAYER_SAMPLE = 200
#: Batches the traced run replays on the counting instance.
LONG_COUNTED_BATCHES = 20


def long_capacity(inputs: Inputs) -> int:
    """Units ``inproc_long`` can run before a stratum runs dry."""
    per_stratum = BATCHES_PER_UNIT * BATCH_DISTINCT // STRATA
    return len(inputs.long_pool) // STRATA // per_stratum - LONG_WARM_UNITS


class InprocLongWorkload:
    ops_per_unit = BATCH * BATCHES_PER_UNIT

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self._segment = ctx.scratch / "corpus.seg"
        self._packed: PackedSegmentIndex | None = None
        self._server: AdServer | None = None
        self._results: list[list[ServeResult]] = []
        pool = ctx.inputs.long_pool
        drawn = stratified_units(
            len(pool),
            LONG_WARM_UNITS + ctx.units,
            BATCHES_PER_UNIT * BATCH_DISTINCT // STRATA,
            random.Random(ctx.seed),
        )
        units = [
            [
                (unit[b * BATCH_DISTINCT : (b + 1) * BATCH_DISTINCT] * 2)[:BATCH]
                for b in range(BATCHES_PER_UNIT)
            ]
            for unit in drawn
        ]
        self._warm, self._units = units[:LONG_WARM_UNITS], units[LONG_WARM_UNITS:]

    def _queries(self, batch: list[int]) -> list[Query]:
        tokens = self.ctx.inputs.long_pool.tokens
        return [Query(tokens=tokens[index]) for index in batch]

    def setup(self, stages: SetupStages) -> None:
        repro.kernels.set_backend("numpy")
        self._packed = build_pack_open(self.ctx.inputs.ads, self._segment, stages)
        self._server = AdServer(self._packed)

    def discard(self) -> None:
        repro.kernels.set_backend(None)
        self._server = None
        if self._packed is not None:
            self._packed.close()
            self._packed = None

    def server_pids(self) -> dict[str, list[int]]:
        return {}

    def warm_up(self) -> None:
        assert self._server is not None
        for unit in self._warm:
            for batch in unit:
                self._server.serve_batch(self._queries(batch))

    def run_unit(self, index: int, traced: bool) -> UnitSample:
        assert self._server is not None
        server = self._server
        tracer = self.ctx.tracer if traced else None
        batches = [self._queries(batch) for batch in self._units[index]]
        latencies = []
        self._results = []
        patched = tracer.patched(layers.BATCH_PATCHES) if tracer else contextlib.nullcontext()
        with patched:
            unit_started = time.perf_counter_ns()
            for b, queries in enumerate(batches):
                started = time.perf_counter_ns()
                if tracer is not None:
                    with tracer.span("serving.serve_batch", f"u{index}-b{b}"):
                        results = server.serve_batch(queries)
                else:
                    results = server.serve_batch(queries)
                latencies.append(time.perf_counter_ns() - started)
                self._results.append(results)
            elapsed = time.perf_counter_ns() - unit_started
        return UnitSample(
            ops=self.ops_per_unit, elapsed_ns=elapsed, latencies_ns=latencies
        )

    def check_unit(self, index: int) -> int:
        expected = self.ctx.inputs.long_pool.expected
        tracer = self.ctx.tracer
        failed = 0
        for batch, results in zip(self._units[index], self._results):
            for pool_index, result in zip(batch, results):
                if tracer is not None:
                    with tracer.span("layer.serving.result_encode"):
                        encoded = result.to_dict()
                else:
                    encoded = result.to_dict()
                if encoded != expected[pool_index]:
                    failed += 1
        return failed

    def finish(self, unit_factor: float) -> dict[str, float]:
        ctx = self.ctx
        assert self._packed is not None
        metrics = {
            "server_rss_mb": proc.rss_bytes(os.getpid()) / 1e6,
            "bytes_per_ad": os.path.getsize(self._segment) / len(ctx.inputs.ads),
            "packed.resident_bytes": float(self._packed.resident_bytes()),
        }
        tracer = ctx.tracer
        if tracer is None:
            return metrics
        metrics.update(layers.batch_metrics(tracer, BATCH, unit_factor))
        metrics["serving.result_encode_us"] = (
            mean_us(tracer.durations_ns("layer.serving.result_encode")) * unit_factor
        )

        # Counts, on an instance that carries a registry.
        obs = MetricsRegistry()
        counted_index = PackedSegmentIndex(self._segment, obs=obs)
        try:
            counted = AdServer(counted_index, obs=obs)
            batches = [batch for unit in self._units for batch in unit]
            for batch in batches[:LONG_COUNTED_BATCHES]:
                counted.serve_batch(self._queries(batch))
        finally:
            counted_index.close()
        queries = obs.counter("batch.queries").value
        metrics["perf.dedup_rate"] = (
            1.0 - obs.counter("batch.distinct_wordsets").value / queries
        )
        metrics["serving.fill_rate"] = counted.stats.fill_rate()

        sample = list(
            dict.fromkeys(i for unit in self._units for batch in unit for i in batch)
        )[:LONG_LAYER_SAMPLE]
        queries = self._queries(sample)
        metrics.update(
            layers.packed_metrics(tracer, str(self._segment), self._packed, queries)
        )
        metrics.update(layers.wordset_metrics(tracer, ctx.inputs.ads, queries))
        return metrics


# ------------------------------------------------------------------ #
# tiered_churn

UNIT_QUERIES = 5 * STRATA
UNIT_INSERTS = 70
UNIT_DELETES = 30
#: Deletes per unit that hit ads inserted (and sealed) one unit before;
#: the rest hit the bulk-loaded corpus.  Either way the victim is in a
#: sealed segment, so the overlay grows by exactly the inserts.
UNIT_DELETES_FRESH = 10
FRESH_STRATA = 10
#: Four seals: the warm-up absorbs the first merge, which rewrites the
#: whole bulk-loaded segment.
TIERED_WARM_UNITS = 4
TIERED_CONFIG = TieredConfig(seal_threshold=UNIT_INSERTS, fan_in=4)

#: Calls made once or a few times per unit: wrapped for the whole traced
#: run, because their counts are per run.
RARE_PATCHES: list[Patch] = [
    (TieredSegmentedIndex, "seal", "tiered.seal"),
    (TieredSegmentedIndex, "merge_level", "tiered.merge"),
    (os, "fsync", "tiered.fsync"),
]
#: Calls made per op: wrapped in the traced units only.
HOT_PATCHES: list[Patch] = [
    (PackedSegmentIndex, "query", "packed.query"),
    (WordSetIndex, "query", "wordset.query"),
]


def _op_pattern() -> str:
    """The unit's op kinds, evenly interleaved; the same in every unit."""
    slots = [
        ((k + 0.5) / count, kind)
        for kind, count in (("Q", UNIT_QUERIES), ("I", UNIT_INSERTS), ("D", UNIT_DELETES))
        for k in range(count)
    ]
    return "".join(kind for _, kind in sorted(slots))


def tiered_capacity(inputs: Inputs) -> int:
    """Units ``tiered_churn`` can run on the query, fresh-ad and victim
    pools."""
    return (
        min(
            len(inputs.pool) // STRATA // (UNIT_QUERIES // STRATA),
            len(inputs.fresh) // FRESH_STRATA // (UNIT_INSERTS // FRESH_STRATA),
            len(inputs.ads) // UNIT_DELETES,
        )
        - TIERED_WARM_UNITS
    )


class TieredChurnWorkload:
    ops_per_unit = UNIT_QUERIES + UNIT_INSERTS + UNIT_DELETES

    def __init__(self, ctx: RunContext) -> None:
        self.ctx = ctx
        self._segment = ctx.scratch / "corpus.seg"
        self._setups = 0
        self._directory: Path | None = None
        self._packed: PackedSegmentIndex | None = None
        self._index: TieredSegmentedIndex | None = None
        # The oracle mirrors every op; in the traced run it also counts
        # what a WordSetIndex does for the run's queries.
        self._oracle_obs = MetricsRegistry()
        self._oracle = WordSetIndex.from_corpus(
            AdCorpus(ctx.inputs.ads),
            obs=self._oracle_obs if ctx.tracer is not None else None,
        )
        self._patches = contextlib.ExitStack()
        self._pattern = _op_pattern()
        self._slates: list[list[Advertisement]] = []
        self._deleted: list[bool] = []
        self._live: Counter[int] = Counter()
        self._read_amplification: list[int] = []
        self._segment_bytes_written = 0
        self._inserted_bytes = 0
        self._oracle_base: dict[str, float] = {}
        self._plan()

    def _plan(self) -> None:
        ctx = self.ctx
        inputs = ctx.inputs
        rng = random.Random(ctx.seed)
        total = TIERED_WARM_UNITS + ctx.units
        queries = stratified_units(len(inputs.pool), total, UNIT_QUERIES // STRATA, rng)
        inserts = stratified_units(
            len(inputs.fresh), total, UNIT_INSERTS // FRESH_STRATA, rng, FRESH_STRATA
        )
        base_victims = rng.sample(range(len(inputs.ads)), total * UNIT_DELETES)
        units: list[dict[str, list[Any]]] = []
        for u in range(total):
            victims = [
                inputs.ads[i]
                for i in base_victims[u * UNIT_DELETES : (u + 1) * UNIT_DELETES]
            ]
            if u:
                previous = units[u - 1]["I"]
                victims[:UNIT_DELETES_FRESH] = rng.sample(previous, UNIT_DELETES_FRESH)
                rng.shuffle(victims)
            units.append(
                {
                    "Q": [Query(tokens=inputs.pool.tokens[i]) for i in queries[u]],
                    "I": [inputs.fresh[i] for i in inserts[u]],
                    "D": victims,
                }
            )
        self._warm, self._units = units[:TIERED_WARM_UNITS], units[TIERED_WARM_UNITS:]

    # ---------------------------------------------------------- #

    def setup(self, stages: SetupStages) -> None:
        ctx = self.ctx
        self._packed = build_pack_open(ctx.inputs.ads, self._segment, stages)
        self._setups += 1
        self._directory = ctx.scratch / f"tiered{self._setups}"
        # The tiered bulk load takes the place of the cluster boot.
        with stages.stage("boot"):
            self._index = TieredSegmentedIndex.pack_corpus(
                AdCorpus(ctx.inputs.ads), self._directory, TIERED_CONFIG
            )

    def discard(self) -> None:
        self._patches.close()
        if self._index is not None:
            self._index.close()
            self._index = None
        if self._packed is not None:
            self._packed.close()
            self._packed = None
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None

    def server_pids(self) -> dict[str, list[int]]:
        return {}

    def warm_up(self) -> None:
        ctx = self.ctx
        self._live = Counter(ad.info.listing_id for ad in ctx.inputs.ads)
        for unit in self._warm:
            self._apply(unit, None)
            self._mirror(unit)
        if ctx.tracer is not None:
            self._patches.enter_context(ctx.tracer.patched(RARE_PATCHES))
            self._patches.enter_context(self._count_segment_bytes())
            self._oracle_base = self._oracle_counts()

    def _oracle_counts(self) -> dict[str, float]:
        return {
            name: self._oracle_obs.counter(name).value
            for name in ("index.queries", "index.probes", "index.node_scans")
        }

    @contextlib.contextmanager
    def _count_segment_bytes(self) -> Iterator[None]:
        """Add up the size of every segment file written (seals and
        merges both go through ``SegmentBuilder.write``)."""
        original = SegmentBuilder.write

        def write(builder: SegmentBuilder, path: Any, *args: Any, **kwargs: Any) -> None:
            original(builder, path, *args, **kwargs)
            self._segment_bytes_written += os.path.getsize(path)

        SegmentBuilder.write = write  # type: ignore[method-assign]
        try:
            yield
        finally:
            SegmentBuilder.write = original  # type: ignore[method-assign]

    def _apply(self, unit: dict[str, list[Any]], span_prefix: str | None) -> list[int]:
        """Run one unit's ops on the tiered index; returns the latency
        of every query op.  Reads are what ``latency_p50_ms`` reports:
        they are half the ops, so a median over all ops would sit on
        the cliff between the write ops and the reads."""
        assert self._index is not None
        index = self._index
        tracer = self.ctx.tracer if span_prefix is not None else None
        cursors = {"Q": iter(unit["Q"]), "I": iter(unit["I"]), "D": iter(unit["D"])}
        calls = {"Q": index.query, "I": index.insert, "D": index.delete}
        names = {"Q": "tiered.query", "I": "tiered.insert", "D": "tiered.delete"}
        self._slates = []
        self._deleted = []
        sinks = {"Q": self._slates.append, "I": lambda _: None, "D": self._deleted.append}
        latencies = []
        for k, kind in enumerate(self._pattern):
            arg = next(cursors[kind])
            started = time.perf_counter_ns()
            if tracer is not None:
                with tracer.span(names[kind], f"{span_prefix}-{k}"):
                    out = calls[kind](arg)
            else:
                out = calls[kind](arg)
            if kind == "Q":
                latencies.append(time.perf_counter_ns() - started)
            sinks[kind](out)
        return latencies

    def _mirror(self, unit: dict[str, list[Any]]) -> int:
        """Apply the same ops to the oracle and compare what the tiered
        index answered; returns the number of ops that disagree."""
        oracle = self._oracle
        cursors = {"Q": iter(unit["Q"]), "I": iter(unit["I"]), "D": iter(unit["D"])}
        slates = iter(self._slates)
        deleted = iter(self._deleted)
        failed = 0
        for kind in self._pattern:
            arg = next(cursors[kind])
            if kind == "Q":
                want = sorted(ad.info.listing_id for ad in oracle.query(arg))
                got = sorted(ad.info.listing_id for ad in next(slates))
                failed += want != got
            elif kind == "I":
                oracle.insert(arg)
                self._live[arg.info.listing_id] += 1
            else:
                acknowledged = next(deleted)
                failed += oracle.delete(arg) != acknowledged
                if acknowledged:
                    self._live[arg.info.listing_id] -= 1
        return failed

    def run_unit(self, index: int, traced: bool) -> UnitSample:
        tracer = self.ctx.tracer if traced else None
        unit = self._units[index]
        with tracer.patched(HOT_PATCHES) if tracer else contextlib.nullcontext():
            started = time.perf_counter_ns()
            latencies = self._apply(unit, f"u{index}" if traced else None)
            elapsed = time.perf_counter_ns() - started
        return UnitSample(ops=self.ops_per_unit, elapsed_ns=elapsed, latencies_ns=latencies)

    def check_unit(self, index: int) -> int:
        assert self._index is not None
        unit = self._units[index]
        self._read_amplification.append(self._index.read_amplification())
        self._inserted_bytes += sum(ad.size_bytes() for ad in unit["I"])
        return self._mirror(unit)

    def finish(self, unit_factor: float) -> dict[str, float]:
        ctx = self.ctx
        assert self._index is not None and self._directory is not None
        index = self._index
        # Deletes since the last seal live in memory only: seal commits
        # them, which is what makes them acknowledged writes.
        index.seal()
        on_disk = sum(entry.stat().st_size for entry in self._directory.iterdir())
        metrics = {
            "server_rss_mb": proc.rss_bytes(os.getpid()) / 1e6,
            "bytes_per_ad": on_disk / len(index),
        }
        index.close()
        self._index = None

        # Zero lost acknowledged writes: what a fresh process reads from
        # the directory is what the oracle's history says is live.
        with TieredSegmentedIndex(self._directory, read_only=True) as reopened:
            on_reopen = Counter(ad.info.listing_id for ad in reopened.live_ads())
        expected = +self._live
        lost = sum((expected - on_reopen).values())
        phantom = sum((on_reopen - expected).values())
        metrics["extra_attempted"] = 1
        metrics["extra_failed"] = lost + phantom

        tracer = ctx.tracer
        if tracer is None:
            return metrics
        assert self._packed is not None
        self_ns = tracer.self_times_ns()
        oracle = {
            name: value - self._oracle_base[name]
            for name, value in self._oracle_counts().items()
        }
        seal_ms = [ns / 1e6 for ns in tracer.durations_ns("tiered.seal")]
        merge_ms = [ns / 1e6 for ns in tracer.durations_ns("tiered.merge")]
        metrics.update(
            {
                "tiered.insert_us": mean_us(tracer.durations_ns("tiered.insert")) * unit_factor,
                "tiered.delete_us": mean_us(tracer.durations_ns("tiered.delete")) * unit_factor,
                "tiered.query_us": mean_us(tracer.durations_ns("tiered.query")) * unit_factor,
                "tiered.seals": float(len(seal_ms) - 1),  # less finish()'s own
                "tiered.merges": float(len(merge_ms)),
                "tiered.seal_stall_ms_max": max(seal_ms) * unit_factor,
                "tiered.merge_stall_ms_max": max(merge_ms, default=0.0) * unit_factor,
                "tiered.write_amplification": self._segment_bytes_written
                / self._inserted_bytes,
                "tiered.read_amplification": sum(self._read_amplification)
                / len(self._read_amplification),
                "tiered.fsync_calls": float(tracer.count("tiered.fsync")),
                "packed.query_us": mean_us(self_ns.get("packed.query", [])) * unit_factor,
                "wordset.query_us": mean_us(self_ns.get("wordset.query", [])) * unit_factor,
                "wordset.probes_per_query": oracle["index.probes"]
                / oracle["index.queries"],
                "wordset.nodes_scanned_per_query": oracle["index.node_scans"]
                / oracle["index.queries"],
            }
        )

        # The cost model beside the measured read, on the packed corpus,
        # for the queries of the first units.  packed.query_us stays the
        # in-run per-segment read measured above.
        sample = [query for unit in self._units[:5] for query in unit["Q"]]
        for name, value in layers.packed_metrics(
            tracer, str(self._segment), self._packed, sample
        ).items():
            if name != "packed.query_us":
                metrics[name] = value
        return metrics
