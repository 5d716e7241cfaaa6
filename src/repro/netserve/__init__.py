"""``repro.netserve`` — the real network serving tier.

The in-process stack ends at :class:`~repro.serving.server.AdServer`;
this package puts a network in front of it, reusing every layer built
so far rather than inventing parallel ones:

* **workers** (:mod:`~repro.netserve.worker`) — forked per-core
  processes, each an ``AdServer`` over a
  :class:`~repro.segment.PackedSegmentIndex` mapping the **same**
  segment file, so N workers share one copy of the index bytes; each
  is one thread on one ``selectors`` loop that serves the serve frames
  a turn read as one micro-batch (``serve_batch``, then a reply per
  connection) so the batch kernels engage under concurrent load;
* **frontend** (:mod:`~repro.netserve.frontend`) — one asyncio process
  doing admission (PR 5's priority token bucket), per-worker circuit
  breakers, and raw-frame relay, with opt-in singleflight coalescing
  and a generation-aware result cache (:mod:`~repro.netserve.coalesce`)
  for duplicate-heavy traffic;
* **wire** (:mod:`~repro.netserve.wire`) — 4-byte length-prefixed
  compact JSON; the payloads are exactly
  :meth:`~repro.serving.request.ServeRequest.to_dict` and
  :meth:`~repro.serving.server.ServeResult.to_dict`, so the redesigned
  request/result dataclasses *are* the wire schema;
* **cluster** (:mod:`~repro.netserve.cluster`) — boot/supervise/stop,
  as a context manager, with graceful drain on stop and a rolling
  restart primitive;
* **supervisor** (:mod:`~repro.netserve.supervisor`) — the self-healing
  loop: liveness + heartbeat hang detection, backoff respawns with a
  crash-loop budget, zero-copy re-verification on every respawn, and
  frontend breaker resets so a recovered worker takes traffic again
  immediately;
* **chaos** (:mod:`~repro.netserve.chaos`) — the kill-driven drill
  (SIGKILL / SIGSTOP / torn connections under closed-loop load) that
  gates the resilience claims in CI (report: ``chaos-report.json``);
* **client** (:mod:`~repro.netserve.client`) — the blocking client
  whose ``serve(ServeRequest) -> ServeResult`` reads identically to
  the in-process call;
* **loadgen** (:mod:`~repro.netserve.loadgen`) — closed-loop driving
  (round-robin or duplicate-heavy Zipf traffic) plus the SLO report
  (QPS, p50/p95/p99, shed rate, coalescing/cache hit rates, per-worker
  QPS and memory) that :mod:`~repro.netserve.smoke` gates in CI.

Speed numbers for the tier come from ``python3 bench/run.py`` (workloads
``net_uniq`` / ``net_zipf``; see ``bench/README.md``), not from here.
"""

from repro.netserve.chaos import ChaosConfig, run_chaos
from repro.netserve.client import (
    RemoteServeError,
    ServeClient,
    ServeConnectionError,
)
from repro.netserve.cluster import ClusterConfig, ServingCluster
from repro.netserve.coalesce import (
    GenerationalLRUCache,
    canonical_serve_key,
    restamp_result,
)
from repro.netserve.frontend import Frontend, FrontendConfig
from repro.netserve.loadgen import LoadGenConfig, run_loadgen
from repro.netserve.memory import (
    memory_report,
    private_resident_bytes,
    resident_bytes,
    segment_mapping_report,
)
from repro.netserve.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameFormatError,
    FrameTooLarge,
    TornFrame,
    WireError,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.netserve.supervisor import (
    RestartBudget,
    SupervisorConfig,
    WorkerStatus,
    WorkerSupervisor,
)
from repro.netserve.worker import WorkerConfig, run_worker

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "ChaosConfig",
    "ClusterConfig",
    "FrameFormatError",
    "FrameTooLarge",
    "Frontend",
    "FrontendConfig",
    "GenerationalLRUCache",
    "LoadGenConfig",
    "RemoteServeError",
    "RestartBudget",
    "ServeClient",
    "ServeConnectionError",
    "ServingCluster",
    "SupervisorConfig",
    "TornFrame",
    "WireError",
    "WorkerConfig",
    "WorkerStatus",
    "WorkerSupervisor",
    "canonical_serve_key",
    "decode_payload",
    "encode_frame",
    "memory_report",
    "private_resident_bytes",
    "recv_frame",
    "resident_bytes",
    "restamp_result",
    "run_chaos",
    "run_loadgen",
    "run_worker",
    "segment_mapping_report",
    "send_frame",
]
