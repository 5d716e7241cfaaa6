"""The traced run's in-process layer pass.

The frontend and the workers are other processes, and this PR records
spans from the benchmark's files only.  So after the timed units the
traced run replays a sample of *its own* requests through each layer's
public functions in this process, spans around every call: the same
bytes the run put on the wire, the same queries the workers answered.
Counts come from separately instrumented instances (an ``obs``
registry, an ``AccessTracker``), so the instances that are timed run
exactly as they do when serving.

Every function returns per-layer metrics by their published names.
A pass that times something takes a reference sample before and after
and returns its times already in reference time.
"""

from __future__ import annotations

from typing import Any

import repro.kernels.probe as kernels_probe
import repro.segment.packed as packed_module
import repro.serving.server as server_module
from repro.core.ads import AdCorpus, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.cost import AccessTracker, CostModel
from repro.netserve import wire
from repro.netserve.coalesce import (
    GenerationalLRUCache,
    canonical_serve_key,
    restamp_result,
)
from repro.obs.registry import MetricsRegistry
from repro.perf.batch import BatchQueryEngine
from repro.segment.packed import PackedSegmentIndex
from repro.serving.request import ServeRequest
from repro.serving.server import AdServer

from harness import mean_us
from hostspeed import HostSpeed
from spans import Patch, Tracer

__all__ = [
    "BATCH_PATCHES",
    "SERVE_PATCHES",
    "batch_metrics",
    "packed_metrics",
    "serving_metrics",
    "wire_frontend_metrics",
    "wordset_metrics",
]

#: Calls ``AdServer.serve`` makes that get a span of their own.
SERVE_PATCHES: list[Patch] = [
    (PackedSegmentIndex, "query", "packed.query"),
    (server_module, "run_gsp_auction", "serving.auction"),
]

#: Calls ``AdServer.serve_batch`` makes on the kernel path.
BATCH_PATCHES: list[Patch] = [
    (BatchQueryEngine, "query_broad_batch", "perf.batch"),
    (PackedSegmentIndex, "query_kernel_batch", "packed.kernel_batch"),
    (packed_module, "flat_probe_keys", "kernels.flat_keys"),
    (kernels_probe, "sig_hit_positions", "kernels.hit"),
    (server_module, "run_gsp_auction", "serving.auction"),
]


def _counter(obs: MetricsRegistry, name: str) -> float:
    return obs.counter(name).value


def packed_metrics(
    tracer: Tracer,
    segment_path: str,
    packed: PackedSegmentIndex,
    queries: list[Query],
) -> dict[str, float]:
    """``packed.*``, ``cost.*`` and the probe count, for ``queries``
    answered one by one (the scalar path) off the packed corpus."""
    # Timed on the second pass: the node cache as a serving worker has
    # it, whatever ``packed`` was used for before.
    for query in queries:
        packed.query(query)
    host = HostSpeed()
    before = host.sample()
    for query in queries:
        with tracer.span("layer.packed.query"):
            packed.query(query)
    factor = host.factor(before, host.sample())

    # Counts: an instance with a registry and a tracker, never timed.
    # A bound tracker forces the scalar path, which is what the section
    # IV model describes.
    obs = MetricsRegistry()
    tracker = AccessTracker()
    counted = PackedSegmentIndex(segment_path, tracker=tracker, obs=obs)
    try:
        for query in queries:
            counted.query(query)
    finally:
        counted.close()
    stats = tracker.stats
    n = len(queries)
    node_scans = _counter(obs, "segment.node_scans")
    modeled_us = stats.modeled_ns(CostModel()) / 1e3 / n
    packed_us = mean_us(tracer.durations_ns("layer.packed.query")) * factor
    return {
        "packed.query_us": packed_us,
        "packed.candidates_per_query": _counter(obs, "segment.results") / n,
        "packed.nodes_decoded_per_query": _counter(obs, "segment.cache_misses") / n,
        "packed.node_cache_hit_rate": (
            _counter(obs, "segment.cache_hits") / node_scans if node_scans else 0.0
        ),
        "kernels.probe_keys_per_query": _counter(obs, "segment.probes") / n,
        "cost.random_accesses_per_query": stats.random_accesses / n,
        "cost.bytes_scanned_per_query": stats.bytes_scanned / n,
        "cost.modeled_us_per_query": modeled_us,
        "cost.measured_over_modeled": packed_us / modeled_us if modeled_us else 0.0,
    }


def wordset_metrics(
    tracer: Tracer, ads: list[Advertisement], queries: list[Query]
) -> dict[str, float]:
    """``wordset.*``: the mutable index (the tiered overlay's type)
    answering ``queries`` over the same corpus."""
    obs = MetricsRegistry()
    wordset = WordSetIndex.from_corpus(AdCorpus(ads), obs=obs)
    host = HostSpeed()
    before = host.sample()
    for query in queries:
        with tracer.span("layer.wordset.query"):
            wordset.query(query)
    factor = host.factor(before, host.sample())
    n = len(queries)
    return {
        "wordset.query_us": mean_us(tracer.durations_ns("layer.wordset.query")) * factor,
        "wordset.probes_per_query": _counter(obs, "index.probes") / n,
        "wordset.nodes_scanned_per_query": _counter(obs, "index.node_scans") / n,
    }


def serving_metrics(
    tracer: Tracer, packed: PackedSegmentIndex, requests: list[dict[str, Any]]
) -> tuple[dict[str, float], list[dict[str, Any]]]:
    """What a worker does with each ``serve`` payload, one request at a
    time: decode, ``AdServer.serve``, encode.  Returns ``serving.*``
    metrics (zeros when no request reaches a worker), with the whole
    worker-side time of one request as ``worker_request_us``, and the
    reply frames' payloads (the frontend pass's input)."""
    server = AdServer(packed)
    replies: list[dict[str, Any]] = []
    host = HostSpeed()
    before = host.sample()
    with tracer.patched(SERVE_PATCHES):
        for payload in requests:
            with tracer.span("layer.worker.request", payload["request"]["request_id"]):
                with tracer.span("layer.worker.request_decode"):
                    request = ServeRequest.from_dict(payload["request"])
                with tracer.span("layer.serving.serve"):
                    result = server.serve(request)
                with tracer.span("layer.serving.result_encode"):
                    encoded = result.to_dict()
            replies.append(
                {
                    "type": "result",
                    "result": encoded,
                    "generation": 0,
                    "request_id": request.request_id,
                }
            )
    factor = host.factor(before, host.sample())
    self_ns = tracer.self_times_ns()

    def self_us(name: str) -> float:
        return mean_us(self_ns.get(name, [])) * factor

    return (
        {
            # serve's own time plus the auction; retrieval is packed.*
            "serving.serve_us": self_us("layer.serving.serve") + self_us("serving.auction"),
            "serving.auction_us": self_us("serving.auction"),
            "serving.result_encode_us": self_us("layer.serving.result_encode"),
            "serving.fill_rate": server.stats.fill_rate(),
            "worker_request_us": mean_us(tracer.durations_ns("layer.worker.request"))
            * factor,
        },
        replies,
    )


def wire_frontend_metrics(
    tracer: Tracer,
    requests: list[dict[str, Any]],
    worker_reply: dict[str, dict[str, Any]],
    cache: GenerationalLRUCache,
) -> dict[str, float]:
    """What the wire codec and the frontend do for each request of the
    stream, in order, against ``cache`` (the cluster's size, holding
    what the run's warm-up left in it).

    ``worker_reply`` maps a request id to the worker's reply payload; a
    cache miss costs the worker-side encode and the frontend-side
    decode of it, a hit only restamp and re-encode.
    """
    request_bytes = reply_bytes = 0
    host = HostSpeed()
    before = host.sample()
    for payload in requests:
        request_id = payload["request"]["request_id"]
        with tracer.span("layer.wire.encode", request_id):
            frame = wire.encode_frame(payload)
        request_bytes += len(frame)
        with tracer.span("layer.wire.decode", request_id):
            decoded = wire.decode_payload(frame[wire.HEADER.size :])
        request = decoded["request"]
        with tracer.span("layer.frontend.key", request_id):
            key = canonical_serve_key(request)
        with tracer.span("layer.frontend.cache_get", request_id):
            shared = cache.get(key)
        if shared is None:
            with tracer.span("layer.wire.encode", request_id):
                worker_frame = wire.encode_frame(worker_reply[request_id])
            with tracer.span("layer.wire.decode", request_id):
                shared = wire.decode_payload(worker_frame[wire.HEADER.size :])
            cache.put(key, 0, shared)
        with tracer.span("layer.frontend.restamp", request_id):
            stamped = restamp_result(shared, request)
        with tracer.span("layer.wire.encode", request_id):
            reply_frame = wire.encode_frame(stamped)
        reply_bytes += len(reply_frame)
        with tracer.span("layer.wire.decode", request_id):
            wire.decode_payload(reply_frame[wire.HEADER.size :])
    factor = host.factor(before, host.sample())
    n = len(requests)

    def per_op_us(name: str) -> float:
        return sum(tracer.durations_ns(name)) / 1e3 / n * factor

    return {
        "wire.request_bytes_per_op": request_bytes / n,
        "wire.reply_bytes_per_op": reply_bytes / n,
        "wire.encode_us_per_op": per_op_us("layer.wire.encode"),
        "wire.decode_us_per_op": per_op_us("layer.wire.decode"),
        "frontend.key_us": per_op_us("layer.frontend.key"),
        "frontend.cache_get_us": per_op_us("layer.frontend.cache_get"),
        "frontend.restamp_us": per_op_us("layer.frontend.restamp"),
    }


def batch_metrics(
    tracer: Tracer, queries_per_batch: int, factor: float
) -> dict[str, float]:
    """``perf.*``, ``kernels.*`` and ``packed.kernel_batch`` times from
    the spans :data:`BATCH_PATCHES` recorded in the timed units, whose
    speed factor the caller passes."""
    self_ns = tracer.self_times_ns()
    queries = len(self_ns["perf.batch"]) * queries_per_batch

    def per_query(name: str) -> float:
        return sum(self_ns.get(name, ())) / 1e3 / queries * factor

    return {
        "perf.batch_us_per_query": per_query("perf.batch"),
        "packed.kernel_batch_us_per_query": per_query("packed.kernel_batch"),
        "kernels.flat_keys_us_per_query": per_query("kernels.flat_keys"),
        "kernels.hit_us_per_query": per_query("kernels.hit"),
        "serving.auction_us": per_query("serving.auction"),
        "serving.serve_us": per_query("serving.serve_batch")
        + per_query("serving.auction"),
    }
