"""``net_uniq`` and ``net_zipf``: the full serving cluster over sockets.

Both boot the same ``ServingCluster`` - 2 workers, ``max_batch=8``,
singleflight coalescing, a 4 096-entry result cache, supervision on,
the frontend in its own process so that the client never shares a GIL
with it - and drive it closed-loop from 2 connections (this host has 2
cores; callers wait for replies, so a slow system receives less load).

* ``net_uniq`` sends every query once.  Cache and coalescer cannot
  help, so wire codec, socket hops, worker queue and ``AdServer.serve``
  over the packed segment do the work.
* ``net_zipf`` draws Zipf(1.1) over 2 048 distinct queries, which fit
  the cache and are all cached by the warm-up pass.  Replies come from
  ``netserve.coalesce``; the frontend and the wire do the work and the
  retrieval layers almost none.

Every reply is compared with the oracle's ``ServeResult.to_dict()``.
"""

from __future__ import annotations

import bisect
import contextlib
import multiprocessing
import os
import random
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.core.queries import Query
from repro.netserve import wire
from repro.netserve.client import ServeClient, ServeConnectionError
from repro.netserve.cluster import ClusterConfig, ServingCluster
from repro.netserve.coalesce import GenerationalLRUCache, canonical_serve_key
from repro.segment.packed import PackedSegmentIndex
from repro.serving.request import ServeRequest

import layers
import proc
from harness import RunContext, SetupStages, UnitSample, mean_us
from inputs import STRATA, Inputs, stratified_draw, stratified_units
from segment_setup import build_pack_open
from spans import Patch

__all__ = ["NetWorkload", "uniq_capacity"]

CONNECTIONS = 2
CACHE_ENTRIES = 4096
ZIPF_DISTINCT = 2048
ZIPF_EXPONENT = 1.1
#: Requests per unit: ~120 ms of work at this host's ~330 and ~8 500
#: requests per second.
UNIQ_PER_UNIT = 2 * STRATA
ZIPF_PER_UNIT = 1000
UNIQ_WARM_UNITS = 10
#: Requests of the run replayed by the traced run's layer pass.
UNIQ_LAYER_SAMPLE = 600
ZIPF_LAYER_SAMPLE = 3000

#: Client-side calls that get a span inside ``client.request``.
CLIENT_PATCHES: list[Patch] = [
    (wire, "encode_frame", "wire.encode"),
    (wire, "recv_raw_frame", "net.wait"),
    (wire, "decode_payload", "wire.decode"),
]

#: One planned request: id, ``serve`` frame payload, pool index.
Planned = tuple[str, dict[str, Any], int]


def uniq_capacity(inputs: Inputs) -> int:
    """Units ``net_uniq`` can run before a stratum of the pool runs dry."""
    return len(inputs.pool) // STRATA // (UNIQ_PER_UNIT // STRATA) - UNIQ_WARM_UNITS


class NetWorkload:
    def __init__(self, ctx: RunContext, zipf: bool) -> None:
        self.ctx = ctx
        self.zipf = zipf
        self.ops_per_unit = ZIPF_PER_UNIT if zipf else UNIQ_PER_UNIT
        self._segment = ctx.scratch / "corpus.seg"
        self._boots = 0
        self._runtime_dir: str | None = None
        self._cluster: ServingCluster | None = None
        self._packed: PackedSegmentIndex | None = None
        self._clients: list[ServeClient] = []
        self._threads: ThreadPoolExecutor | None = None
        self._replies: list[list[tuple[int, dict[str, Any] | None]]] = []
        self._stats0: dict[str, Any] = {}
        self._plan()

    # ---------------------------------------------------------- #
    # Inputs

    def _planned(self, unit: str, k: int, index: int) -> Planned:
        request_id = f"{unit}-{k}"
        request = ServeRequest(
            query=Query(tokens=self.ctx.inputs.pool.tokens[index]),
            request_id=request_id,
        )
        return (request_id, {"type": "serve", "request": request.to_dict()}, index)

    def _plan(self) -> None:
        ctx = self.ctx
        rng = random.Random(ctx.seed)
        pool_size = len(ctx.inputs.pool)
        if self.zipf:
            distinct = stratified_draw(
                pool_size, min(ZIPF_DISTINCT, pool_size // 2), rng
            )
            weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(distinct))]
            cumulative: list[float] = []
            total = 0.0
            for weight in weights:
                total += weight
                cumulative.append(total)
            warm = [distinct]
            units = [
                [
                    distinct[bisect.bisect_left(cumulative, rng.random() * total)]
                    for _ in range(ZIPF_PER_UNIT)
                ]
                for _ in range(ctx.units)
            ]
        else:
            drawn = stratified_units(
                pool_size, UNIQ_WARM_UNITS + ctx.units, UNIQ_PER_UNIT // STRATA, rng
            )
            warm, units = drawn[:UNIQ_WARM_UNITS], drawn[UNIQ_WARM_UNITS:]
        self._warm = [
            [self._planned(f"w{u}", k, index) for k, index in enumerate(unit)]
            for u, unit in enumerate(warm)
        ]
        self._units = [
            [self._planned(f"u{u}", k, index) for k, index in enumerate(unit)]
            for u, unit in enumerate(units)
        ]

    # ---------------------------------------------------------- #
    # Set-up and teardown

    def setup(self, stages: SetupStages) -> None:
        ctx = self.ctx
        self._packed = build_pack_open(ctx.inputs.ads, self._segment, stages)
        # A fresh directory per boot: a stale frontend.port file would
        # be read as this boot's port.
        self._boots += 1
        self._runtime_dir = str(ctx.scratch / f"rt{self._boots}")
        config = ClusterConfig(
            segment_path=str(self._segment),
            num_workers=2,
            max_batch=8,
            coalesce=True,
            cache_entries=CACHE_ENTRIES,
            frontend_process=True,
            supervise=True,
            runtime_dir=self._runtime_dir,
        )
        with stages.stage("boot", children=self._all_pids):
            self._cluster = ServingCluster(config)
            self._cluster.start()

    def discard(self) -> None:
        if self._threads is not None:
            self._threads.shutdown()
            self._threads = None
        for client in self._clients:
            client.close()
        self._clients = []
        if self._cluster is not None:
            self._cluster.stop()
            self._cluster = None
        if self._packed is not None:
            self._packed.close()
            self._packed = None
        if self._runtime_dir is not None:
            shutil.rmtree(self._runtime_dir, ignore_errors=True)
            self._runtime_dir = None

    def server_pids(self) -> dict[str, list[int]]:
        pids: dict[str, list[int]] = {"frontend": [], "worker": []}
        for child in multiprocessing.active_children():
            if child.pid is None:
                continue
            if child.name == "netserve-frontend":
                pids["frontend"].append(child.pid)
            elif child.name.startswith("netserve-worker-"):
                pids["worker"].append(child.pid)
        return pids

    def _all_pids(self) -> list[int]:
        return [pid for pids in self.server_pids().values() for pid in pids]

    # ---------------------------------------------------------- #
    # Driving the cluster

    def _connect(self) -> ServeClient:
        assert self._cluster is not None
        host, port = self._cluster.address
        return ServeClient(host, port, timeout_s=30.0)

    def _drive(
        self, connection: int, items: list[Planned], traced: bool
    ) -> list[tuple[int, dict[str, Any] | None]]:
        """One connection's share of a unit, closed loop."""
        tracer = self.ctx.tracer if traced else None
        out: list[tuple[int, dict[str, Any] | None]] = []
        for request_id, payload, _ in items:
            client = self._clients[connection]
            started = time.perf_counter_ns()
            try:
                if tracer is not None:
                    with tracer.span("client.request", request_id):
                        reply = client.request(payload)
                else:
                    reply = client.request(payload)
            except (TimeoutError, ServeConnectionError, wire.WireError):
                # Counted as failed by check_unit; the connection's
                # state is unknown, so it is replaced.
                reply = None
                client.close()
                self._clients[connection] = self._connect()
            out.append((time.perf_counter_ns() - started, reply))
        return out

    def _send(self, items: list[Planned], traced: bool) -> list[
        list[tuple[int, dict[str, Any] | None]]
    ]:
        """Split ``items`` between the connections and wait for all."""
        assert self._threads is not None
        futures = [
            self._threads.submit(self._drive, c, items[c::CONNECTIONS], traced)
            for c in range(CONNECTIONS)
        ]
        return [future.result() for future in futures]

    def warm_up(self) -> None:
        self._threads = ThreadPoolExecutor(max_workers=CONNECTIONS)
        self._clients = [self._connect() for _ in range(CONNECTIONS)]
        for unit in self._warm:
            self._send(unit, traced=False)
        with self._connect() as control:
            self._stats0 = control.stats()

    def run_unit(self, index: int, traced: bool) -> UnitSample:
        items = self._units[index]
        tracer = self.ctx.tracer if traced else None
        with tracer.patched(CLIENT_PATCHES) if tracer else contextlib.nullcontext():
            started = time.perf_counter_ns()
            self._replies = self._send(items, traced)
            elapsed = time.perf_counter_ns() - started
        return UnitSample(
            ops=len(items),
            elapsed_ns=elapsed,
            latencies_ns=[ns for part in self._replies for ns, _ in part],
        )

    def check_unit(self, index: int) -> int:
        expected = self.ctx.inputs.pool.expected
        items = self._units[index]
        failed = 0
        for c, part in enumerate(self._replies):
            for (request_id, _, pool_index), (_, reply) in zip(
                items[c::CONNECTIONS], part
            ):
                if (
                    reply is None
                    or reply.get("type") != "result"
                    or reply.get("request_id") != request_id
                    or reply.get("result") != expected[pool_index]
                ):
                    failed += 1
        return failed

    # ---------------------------------------------------------- #
    # End of run

    def finish(self, unit_factor: float) -> dict[str, float]:
        ctx = self.ctx
        with self._connect() as control:
            stats1 = control.stats()
        pids = self._all_pids()
        metrics: dict[str, float] = {
            # Private pages only: what the workers were forked with and
            # still share with this process is the benchmark's inputs.
            "server_rss_mb": sum(proc.private_bytes(pid) for pid in pids) / 1e6,
            "bytes_per_ad": os.path.getsize(self._segment) / len(ctx.inputs.ads),
        }
        metrics.update(_stats_metrics(self._stats0, stats1))
        assert self._packed is not None
        metrics["packed.resident_bytes"] = float(self._packed.resident_bytes())
        if ctx.tracer is not None:
            metrics.update(self._traced_metrics(unit_factor))
        return metrics

    def _traced_metrics(self, unit_factor: float) -> dict[str, float]:
        ctx = self.ctx
        tracer = ctx.tracer
        assert tracer is not None and self._packed is not None

        # Client side, from the spans of the timed units.
        self_ns = tracer.self_times_ns()
        requests = len(self_ns.get("client.request", ()))
        client_ms = mean_us(self_ns.get("client.request", [])) / 1e3 * unit_factor
        metrics = {
            "client.encode_us": sum(self_ns.get("wire.encode", ())) / 1e3 / requests * unit_factor,
            "client.decode_us": sum(self_ns.get("wire.decode", ())) / 1e3 / requests * unit_factor,
        }

        # Everything behind the sockets, replayed in this process on
        # the run's own requests.
        sample_size = ZIPF_LAYER_SAMPLE if self.zipf else UNIQ_LAYER_SAMPLE
        stream = [item for unit in self._units for item in unit][:sample_size]
        # The cache as the warm-up left it: net_zipf's holds every
        # distinct query (the replies were checked against the oracle,
        # so the oracle's answers are what it holds).
        cache = GenerationalLRUCache(CACHE_ENTRIES)
        expected = ctx.inputs.pool.expected
        if self.zipf:
            for request_id, payload, pool_index in self._warm[0]:
                cache.put(
                    canonical_serve_key(payload["request"]),
                    0,
                    {
                        "type": "result",
                        "result": expected[pool_index],
                        "generation": 0,
                        "request_id": request_id,
                    },
                )
        cached = {index for _, _, index in self._warm[0]} if self.zipf else set()
        to_workers = [item for item in stream if item[2] not in cached]
        serving, replies = layers.serving_metrics(
            tracer, self._packed, [payload for _, payload, _ in to_workers]
        )
        worker_reply = {reply["request_id"]: reply for reply in replies}
        frontend = layers.wire_frontend_metrics(
            tracer, [payload for _, payload, _ in stream], worker_reply, cache
        )
        queries = [
            Query(tokens=ctx.inputs.pool.tokens[index])
            for index in dict.fromkeys(index for _, _, index in stream)
        ]
        packed = layers.packed_metrics(tracer, str(self._segment), self._packed, queries)
        wordset = layers.wordset_metrics(tracer, ctx.inputs.ads, queries)
        worker_request_us = serving.pop("worker_request_us")
        for part in (serving, frontend, packed, wordset):
            metrics.update(part)

        # The budget of one request: what each layer costs on the path
        # of an average request of the stream; the rest is sockets,
        # wake-ups and the worker's batching wait.
        worker_share = cache.misses / len(stream)
        metrics["budget.client_ms"] = client_ms
        metrics["budget.wire_ms"] = (
            metrics["wire.encode_us_per_op"] + metrics["wire.decode_us_per_op"]
        ) / 1e3
        metrics["budget.frontend_ms"] = (
            metrics["frontend.key_us"]
            + metrics["frontend.cache_get_us"]
            + metrics["frontend.restamp_us"]
        ) / 1e3
        metrics["budget.serving_ms"] = worker_share * worker_request_us / 1e3
        return metrics


def _stats_metrics(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, float]:
    """``frontend.*`` and ``worker.*`` counters as deltas of two
    ``stats`` frames."""

    def frontend(name: str) -> float:
        return after["frontend"]["counters"].get(name, 0) - before["frontend"][
            "counters"
        ].get(name, 0)

    requests = frontend("frontend.requests")
    hits = frontend("frontend.cache_hits")
    lookups = hits + frontend("frontend.cache_misses")
    served = [
        now.get("served", 0) - then.get("served", 0)
        for then, now in zip(before["workers"], after["workers"])
    ]
    batches = sum(
        now["batching"]["batches"] - then["batching"]["batches"]
        for then, now in zip(before["workers"], after["workers"])
    )
    busiest = max(after["workers"], key=lambda worker: worker.get("served", 0))
    return {
        "frontend.cache_hit_rate": hits / lookups if lookups else 0.0,
        "frontend.coalesced_share": frontend("frontend.coalesced") / requests,
        "frontend.shed_share": frontend("frontend.shed") / requests,
        "frontend.worker_failovers": frontend("frontend.worker_failovers"),
        "worker.batch_size_mean": sum(served) / batches if batches else 0.0,
        "worker.queue_wait_p50_ms": busiest["batching"]["queue_wait_ms"]["p50"],
        "worker.queue_rejects": float(
            sum(
                now["batching"]["queue_rejects"] - then["batching"]["queue_rejects"]
                for then, now in zip(before["workers"], after["workers"])
            )
        ),
        "worker.served_split": max(served) / sum(served) if sum(served) else 0.0,
    }
