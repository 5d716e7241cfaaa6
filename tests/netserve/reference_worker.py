"""One serving worker process: a packed segment behind a Unix socket.

A worker is forked by :class:`~repro.netserve.cluster.ServingCluster`
(or run directly via :func:`run_worker`).  It opens the **same** segment
file every sibling opens — ``mmap`` of one file means one set of page
cache pages shared across all of them — wraps it in the standard
:class:`~repro.serving.server.AdServer` pipeline, and answers
length-prefixed JSON frames (:mod:`repro.netserve.wire`) on an
``AF_UNIX`` listener:

* ``{"type": "serve", "request": {...}}`` → ``{"type": "result",
  "result": {...}, "generation": N}`` — the payloads are exactly
  :meth:`ServeRequest.to_dict` / :meth:`ServeResult.to_dict`; the
  ``generation`` stamp is the serving data generation (the tiered
  manifest generation, or 0 forever for a frozen packed segment) and
  is what lets the frontend's result cache invalidate on manifest
  swaps.
* ``{"type": "stats"}`` → served/error counters, serve-latency and
  batching percentiles from the worker's own :mod:`repro.obs`
  registry, and the :mod:`repro.netserve.memory` report that powers
  the zero-copy gate.
* ``{"type": "ping"}`` → ``{"type": "pong"}`` (the readiness probe).
* ``{"type": "shutdown"}`` → acked, then the process **drains**: new
  serves are refused with a retryable error, but everything already on
  the dispatch queue is served and its reply flushed (bounded by
  ``drain_timeout_s``) before the process exits — a planned shutdown
  must not turn admitted requests into visible failures.

Serving is **micro-batched**: connection threads decode and validate
``serve`` frames, then enqueue the :class:`ServeRequest` (with a reply
slot) on a bounded dispatch queue.  A single dispatcher thread blocks
only while idle: woken by a request, it takes whatever else is already
queued, up to ``max_batch``, and serves at once — a batch is what
accumulated while the previous one was being served, never something
a request slept for.  Every batch, a lone request included, goes
through :meth:`AdServer.serve_batch`, whose
:class:`~repro.perf.batch.BatchQueryEngine` dedups word-sets and engages
the vectorized probe kernels once a batch holds two or more distinct
word-sets.  Each :class:`ServeResult` fans back to its
originating connection thread via its reply slot.  There is **no
global serve lock**: the dispatcher owns the index between batches,
which is also the only place the tiered manifest hot-reload swap
happens (throttled to ``reload_check_interval_s`` so the hot path
never stats the filesystem per request).  ``stats``/``ping`` are
answered directly on the connection thread and can never queue behind
an in-flight batch.

The worker **never dies on a bad request**: schema errors and pipeline
exceptions are answered with typed ``error`` frames and counted; only a
transport-level fault ends that one connection.  The frontend keeps a
pool of long-lived connections, so accept volume is tiny; each accepted
connection is served by a daemon thread.
"""

from __future__ import annotations

import contextlib
import gc
import os
import queue
import signal
import socket
import threading
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any

from repro.netserve.memory import memory_report
from repro.netserve.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    WireError,
    recv_frame,
    send_frame,
)
from repro.obs.registry import MetricsRegistry
from repro.segment.format import SegmentFormatError
from repro.segment.packed import PackedSegmentIndex
from repro.segment.tiered import TieredSegmentedIndex, manifest_fingerprint
from repro.serving.request import ServeRequest, WireSchemaError
from repro.serving.server import AdServer, ServeResult

__all__ = ["WorkerConfig", "run_worker"]

DEFAULT_RELOAD_CHECK_INTERVAL_S = 0.25

# Dispatch-queue sentinel: wakes the dispatcher for a clean drain.
_SHUTDOWN = object()


@dataclass(frozen=True, slots=True)
class WorkerConfig:
    """Everything one worker process needs, picklable for fork/spawn.

    Parameters
    ----------
    segment_path:
        The packed segment every worker maps (the shared bytes).
    socket_path:
        This worker's ``AF_UNIX`` listener path.
    worker_id:
        Stable id used in stats and frontend routing.
    slots / reserve_micros:
        Auction shape, passed through to :class:`AdServer`.
    default_deadline_ms:
        Server-side budget applied when a request carries none.
    max_frame_bytes:
        Per-frame wire budget.
    max_batch:
        Most requests one dispatcher batch (or one shutdown-drain
        chunk) may carry.  1 (the default) serves every request as a
        batch of one, which retrieves exactly as a lone query does.
        Batches fill only from what is already queued, so the bound
        costs nothing under light load.
    queue_depth:
        Bound on the dispatch queue.  A full queue answers a typed
        retryable ``error`` frame instead of blocking the connection
        thread forever (backpressure, not deadlock).
    reload_check_interval_s:
        Tiered mode: how often the dispatcher is allowed to stat the
        manifest between batches.  0 probes before every batch (tests).
    drain_timeout_s:
        Graceful-drain budget at shutdown: requests already accepted
        onto the dispatch queue are *served* (their clients are blocked
        on those replies) for up to this long; only what the budget
        cannot cover is answered with a retryable error.  0 restores
        the old error-everything drain.
    """

    segment_path: str
    socket_path: str
    worker_id: int = 0
    slots: int = 4
    reserve_micros: int = 1
    default_deadline_ms: float | None = None
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    max_batch: int = 1
    queue_depth: int = 1024
    reload_check_interval_s: float = DEFAULT_RELOAD_CHECK_INTERVAL_S
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.reload_check_interval_s < 0:
            raise ValueError("reload_check_interval_s must be >= 0")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")


class _PendingServe:
    """One enqueued request plus the slot its reply comes back in."""

    __slots__ = ("request", "enqueued_at", "done", "response")

    def __init__(self, request: ServeRequest) -> None:
        self.request = request
        self.enqueued_at = perf_counter()
        self.done = threading.Event()
        self.response: dict[str, Any] | None = None

    def resolve(self, response: dict[str, Any]) -> None:
        if self.done.is_set():  # idempotent: shutdown drain may race
            return
        self.response = response
        self.done.set()


class _Worker:
    """The in-process state behind one worker's accept loop."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.obs = MetricsRegistry()
        # A directory is a tiered index (manifest + segment tiers); a
        # file is the classic single packed segment.
        self._tiered = os.path.isdir(config.segment_path)
        self.index: PackedSegmentIndex | TieredSegmentedIndex
        if self._tiered:
            self.index = self._open_tiered()
            self._manifest_fp = manifest_fingerprint(config.segment_path)
            self._generation = self.index.generation
        else:
            self.index = PackedSegmentIndex(config.segment_path, obs=self.obs)
            self._manifest_fp = None
            self._generation = 0
        self.server = AdServer(
            self.index,
            slots=config.slots,
            reserve_micros=config.reserve_micros,
            default_deadline_ms=config.default_deadline_ms,
            obs=self.obs,
        )
        self.served = 0
        self.errors = 0
        self.wire_errors = 0
        self.manifest_reloads = 0
        self.batches = 0
        self.queue_rejects = 0
        self.drained = 0
        self.drain_errors = 0
        self._last_reload_probe = monotonic()
        self._stop = threading.Event()
        self._queue: queue.Queue[Any] = queue.Queue(maxsize=config.queue_depth)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            daemon=True,
            name=f"netserve-worker-{config.worker_id}-dispatch",
        )
        self._dispatcher.start()

    # ---------------------------------------------------------- #

    def _open_tiered(self) -> TieredSegmentedIndex:
        return TieredSegmentedIndex(
            self.config.segment_path,
            obs=self.obs,
            read_only=True,
        )

    def _maybe_reload(self) -> None:
        """Pick up a manifest swap between batches (tiered mode only).

        Runs on the dispatcher thread, which is the only thread that
        touches the index — so the swap needs no lock at all.  The
        filesystem probe is throttled to ``reload_check_interval_s``;
        the atomic rename commit means the fingerprint moves exactly
        when a new generation lands, so a throttled probe can only
        delay pickup by the interval, never miss it.  A reload that
        races a writer's post-commit victim unlink fails to open and
        simply retries at the next probe — the old generation keeps
        serving meanwhile.
        """
        if not self._tiered:
            return
        interval = self.config.reload_check_interval_s
        now = monotonic()
        if interval > 0 and now - self._last_reload_probe < interval:
            return
        self._last_reload_probe = now
        fingerprint = manifest_fingerprint(self.config.segment_path)
        if fingerprint is None or fingerprint == self._manifest_fp:
            return
        try:
            fresh = self._open_tiered()
        except (OSError, SegmentFormatError):
            return
        old = self.index
        self.index = fresh
        self.server.index = fresh
        self._manifest_fp = fingerprint
        self._generation = fresh.generation
        self.manifest_reloads += 1
        old.close()

    # ------------------------- dispatcher --------------------- #

    def _dispatch_loop(self) -> None:
        """Drain the queue in micro-batches until shutdown."""
        while True:
            try:
                first = self._queue.get(timeout=0.2)
            except queue.Empty:
                if self._stop.is_set():
                    self._drain_shutdown()
                    return
                continue
            if first is _SHUTDOWN:
                self._drain_shutdown()
                return
            batch: list[_PendingServe] = [first]
            saw_shutdown = self._collect(batch)
            self._serve_batch(batch)
            if saw_shutdown:
                self._drain_shutdown()
                return

    def _collect(self, batch: list[_PendingServe]) -> bool:
        """Top up ``batch`` to ``max_batch`` from what is already queued.

        Never blocks: waiting for batch-mates costs every request the
        wait and buys nothing ``serve_batch`` amortises.  Returns True
        when the shutdown sentinel surfaced mid-collect (the batch in
        hand is still served before draining).
        """
        while len(batch) < self.config.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return False
            if item is _SHUTDOWN:
                return True
            batch.append(item)
        return False

    def _serve_batch(self, batch: list[_PendingServe]) -> None:
        """One dispatcher turn: reload window, serve, fan out replies."""
        self._maybe_reload()
        now = perf_counter()
        queue_wait = self.obs.histogram("span.worker_queue_wait")
        for item in batch:
            queue_wait.observe((now - item.enqueued_at) * 1e3)
        self.obs.histogram("worker.batch_size").observe(float(len(batch)))
        self.batches += 1
        batch_started = perf_counter()
        self._serve_and_reply(batch)
        self.obs.histogram("span.worker_batch").observe(
            (perf_counter() - batch_started) * 1e3
        )

    def _serve_and_reply(self, batch: list[_PendingServe]) -> int:
        """Serve ``batch`` through :meth:`AdServer.serve_batch` and
        resolve every reply slot; returns how many got a ``result``.

        One poisoned request must not fail its batch-mates: when the
        batch raises, each item is re-served as a batch of its own, so
        only the bad item is answered with an error frame.
        """
        results: list[ServeResult | None]
        try:
            results = self.server.serve_batch([item.request for item in batch])
        except Exception:  # noqa: BLE001 — the worker never dies
            results = []
            for item in batch:
                try:
                    results.extend(self.server.serve_batch([item.request]))
                except Exception as exc:  # noqa: BLE001
                    self.errors += 1
                    item.resolve(
                        self._error_frame(
                            f"{type(exc).__name__}: {exc}",
                            item.request.request_id,
                            retryable=True,
                        )
                    )
                    results.append(None)
        finished = perf_counter()
        latency = self.obs.histogram("span.worker_serve")
        served = 0
        for item, result in zip(batch, results):
            if result is None:
                continue  # already answered with an error frame
            latency.observe((finished - item.enqueued_at) * 1e3)
            response: dict[str, Any] = {
                "type": "result",
                "result": result.to_dict(),
                "generation": self._generation,
            }
            if item.request.request_id is not None:
                response["request_id"] = item.request.request_id
            item.resolve(response)
            served += 1
        self.served += served
        return served

    def _drain_shutdown(self) -> None:
        """Graceful drain: flush replies for everything already queued.

        The clients behind those reply slots were *admitted* — erroring
        them now would turn a planned shutdown into visible failures.
        Serve them, in chunks of at most ``max_batch``, within the
        ``drain_timeout_s`` budget; only what the budget cannot cover
        gets the retryable shutdown error.  New work is already refused
        at the door (``_serve`` checks ``_stop`` before enqueueing), so
        the queue can only shrink.
        """
        deadline = monotonic() + self.config.drain_timeout_s
        while True:
            chunk: list[_PendingServe] = []
            saw_shutdown = self._collect(chunk)
            if not chunk:
                if saw_shutdown:
                    continue  # a repeated sentinel: work may follow it
                return
            if monotonic() < deadline:
                self.drained += self._serve_and_reply(chunk)
                continue
            for item in chunk:
                self.drain_errors += 1
                item.resolve(
                    self._error_frame(
                        "worker shutting down",
                        item.request.request_id,
                        retryable=True,
                    )
                )

    # ------------------------ frame handling ------------------ #

    def handle(self, payload: dict[str, Any]) -> dict[str, Any] | None:
        """One request frame → one response payload (``None`` = exit).

        Only ``serve`` goes through the dispatch queue; control frames
        (``ping``/``stats``/``shutdown``) are answered right here on
        the calling thread so they never wait behind a serve batch.
        """
        msg_type = payload.get("type")
        if msg_type == "serve":
            return self._serve(payload)
        if msg_type == "ping":
            return {"type": "pong", "worker_id": self.config.worker_id}
        if msg_type == "stats":
            return self.stats_payload()
        if msg_type == "shutdown":
            self._stop.set()
            with contextlib.suppress(queue.Full):
                self._queue.put_nowait(_SHUTDOWN)
            return {"type": "ok"}
        self.wire_errors += 1
        return {
            "type": "error",
            "error": f"unknown frame type {msg_type!r}",
            "retryable": False,
        }

    def _serve(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Connection-thread half of a serve: validate, enqueue, wait."""
        try:
            request = ServeRequest.from_dict(payload.get("request"))
        except WireSchemaError as exc:
            self.wire_errors += 1
            return self._error_frame(str(exc), None, retryable=False)
        if self._stop.is_set():
            return self._error_frame(
                "worker shutting down", request.request_id, retryable=True
            )
        item = _PendingServe(request)
        try:
            self._queue.put(item, timeout=1.0)
        except queue.Full:
            self.queue_rejects += 1
            return self._error_frame(
                "worker dispatch queue full",
                request.request_id,
                retryable=True,
            )
        while not item.done.wait(timeout=0.5):
            if not self._dispatcher.is_alive():
                # Enqueued after the dispatcher's final drain: answer
                # here rather than hang the connection forever.
                item.resolve(
                    self._error_frame(
                        "worker shutting down",
                        request.request_id,
                        retryable=True,
                    )
                )
        response = item.response
        assert response is not None  # resolve() always sets it
        return response

    def _error_frame(
        self, message: str, request_id: str | None, retryable: bool
    ) -> dict[str, Any]:
        frame: dict[str, Any] = {
            "type": "error",
            "error": message,
            "retryable": retryable,
        }
        if request_id is not None:
            frame["request_id"] = request_id
        return frame

    def stats_payload(self) -> dict[str, Any]:
        latency = self.obs.histogram("span.worker_serve")
        batch_size = self.obs.histogram("worker.batch_size")
        queue_wait = self.obs.histogram("span.worker_queue_wait")
        payload: dict[str, Any] = {
            "type": "stats",
            "worker_id": self.config.worker_id,
            "pid": os.getpid(),
            "served": self.served,
            "errors": self.errors,
            "wire_errors": self.wire_errors,
            "degraded": self.server.stats.degraded,
            "generation": self._generation,
            "serve_ms": {
                "count": latency.count,
                "mean": latency.mean(),
                "p50": latency.p50,
                "p95": latency.p95,
                "p99": latency.p99,
            },
            "batching": {
                "max_batch": self.config.max_batch,
                "queue_depth": self.config.queue_depth,
                "batches": self.batches,
                "queue_rejects": self.queue_rejects,
                "batch_size": {
                    "count": batch_size.count,
                    "mean": batch_size.mean(),
                    "p95": batch_size.p95,
                    "max": batch_size.snapshot()["max"],
                },
                "queue_wait_ms": {
                    "p50": queue_wait.p50,
                    "p95": queue_wait.p95,
                    "p99": queue_wait.p99,
                },
            },
            "drain": {
                "drain_timeout_s": self.config.drain_timeout_s,
                "drained": self.drained,
                "drain_errors": self.drain_errors,
            },
            "segment_bytes": self.index.segment_bytes(),
        }
        if self._tiered:
            assert isinstance(self.index, TieredSegmentedIndex)
            payload["tiered"] = {
                "generation": self.index.generation,
                "segments": len(self.index.segments),
                "read_amplification": self.index.read_amplification(),
                "manifest_reloads": self.manifest_reloads,
            }
            # The mapping report keys off one file; tiered workers map
            # many, so report process-level memory only.
            payload.update(memory_report(None))
        else:
            payload.update(memory_report(self.config.segment_path))
        return payload

    # ---------------------------------------------------------- #

    def serve_connection(self, conn: socket.socket) -> None:
        """Frames until EOF; transport faults end only this connection."""
        max_bytes = self.config.max_frame_bytes
        with contextlib.closing(conn):
            while not self._stop.is_set():
                try:
                    payload = recv_frame(conn, max_bytes)
                except WireError:
                    self.wire_errors += 1
                    return
                except OSError:
                    return
                if payload is None:
                    return
                response = self.handle(payload)
                if response is None:
                    return
                try:
                    send_frame(conn, response, max_bytes)
                except (WireError, OSError):
                    self.wire_errors += 1
                    return
                if self._stop.is_set():
                    return

    def close(self) -> None:
        """Stop the dispatcher, drain stragglers, release the index."""
        self._stop.set()
        with contextlib.suppress(queue.Full):
            self._queue.put_nowait(_SHUTDOWN)
        self._dispatcher.join(timeout=5.0)
        self._drain_shutdown()
        self.index.close()

    def run(self) -> None:
        path = self.config.socket_path
        with contextlib.suppress(OSError):
            os.unlink(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
            listener.listen(16)
            listener.settimeout(0.2)
            while not self._stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self.serve_connection,
                    args=(conn,),
                    daemon=True,
                    name=f"netserve-worker-{self.config.worker_id}-conn",
                )
                thread.start()
        finally:
            listener.close()
            with contextlib.suppress(OSError):
                os.unlink(path)
            self.close()


def run_worker(config: WorkerConfig) -> None:
    """Process entry point: serve until ``shutdown`` or ``SIGTERM``."""
    # What a forked worker inherits moves to the collector's permanent
    # generation: a full collection writes to every object it traverses,
    # which would copy the parent's pages into this process and undo
    # the copy-on-write sharing the cluster forks for.
    gc.freeze()
    worker = _Worker(config)

    def _terminate(signum: int, frame: object) -> None:
        worker._stop.set()

    with contextlib.suppress(ValueError):  # non-main thread (tests)
        signal.signal(signal.SIGTERM, _terminate)
        signal.signal(signal.SIGINT, _terminate)
    worker.run()
