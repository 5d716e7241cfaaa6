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
* ``{"type": "shutdown"}`` → acked, then the process **drains**: the
  serves it has already read are served and their replies flushed
  (bounded by ``drain_timeout_s``) before the process exits — a
  planned shutdown must not turn admitted requests into visible
  failures.

The worker is **one thread running one** :mod:`selectors` **loop**
(:meth:`_Worker.run`).  Each turn waits for readiness, then:

1. accepts, reads every readable connection into its own
   :class:`~repro.netserve.wire.FrameSplitter`, and answers ``ping``,
   ``stats`` and ``shutdown`` at once;
2. serves the ``serve`` frames that turn read, in chunks of at most
   ``max_batch``, each through :meth:`AdServer.serve_batch` — a batch is
   what arrived while the previous one was being served, never
   something a request waited for;
3. writes each reply with a non-blocking send; a reply the socket
   cannot take whole is finished when the connection turns writable.

A connection with a frame in service or unsent output is not read, so
each connection has one frame in the worker at a time, and a client
that stops reading its replies stops being read.  The loop owns the
index between batches, which is also the only place the tiered
manifest hot-reload swap happens (throttled to
``reload_check_interval_s`` so the hot path never stats the filesystem
per request).  A control frame that arrives while a batch is being
served waits for that batch — there is no other thread to answer it —
but is answered before any serve queued behind it.

The worker **never dies on a bad request**: schema errors and pipeline
exceptions are answered with typed ``error`` frames and counted; only a
transport-level fault ends that one connection.
"""

from __future__ import annotations

import contextlib
import gc
import os
import selectors
import signal
import socket
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Any, Sequence

from repro.netserve.memory import memory_report
from repro.netserve.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER,
    FrameSplitter,
    TornFrame,
    WireError,
    decode_payload,
    encode_frame,
)
from repro.obs.registry import MetricsRegistry
from repro.segment.format import SegmentFormatError
from repro.segment.packed import PackedSegmentIndex
from repro.segment.tiered import TieredSegmentedIndex, manifest_fingerprint
from repro.serving.request import ServeRequest, WireSchemaError
from repro.serving.server import AdServer, ServeResult

__all__ = ["WorkerConfig", "run_worker"]

DEFAULT_RELOAD_CHECK_INTERVAL_S = 0.25

#: How long an idle loop sleeps in ``select``: the most a ``SIGTERM``
#: waits before the loop notices it.
SELECT_TIMEOUT_S = 0.2

#: Most bytes one ``recv`` takes from a connection.
READ_CHUNK = 1 << 16


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
        Most requests one batch (or one shutdown-drain chunk) may
        carry.  1 (the default) serves every request as a batch of
        one, which retrieves exactly as a lone query does.  Batches
        fill only from what one loop turn read, so the bound costs
        nothing under light load.
    queue_depth:
        Most serves one loop turn admits.  A serve past it is answered
        with a typed retryable ``error`` frame (backpressure, not an
        unbounded backlog).
    reload_check_interval_s:
        Tiered mode: how often the loop is allowed to stat the
        manifest between batches.  0 probes before every batch (tests).
    drain_timeout_s:
        Graceful-drain budget at shutdown: serves already read are
        *served* (their clients are blocked on those replies) and
        their replies flushed for up to this long; only what the budget
        cannot cover is answered with a retryable error.  0 answers
        every such serve with that error.
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


class _Connection:
    """One accepted socket: its frame splitter and unsent reply bytes."""

    __slots__ = ("sock", "splitter", "out", "busy")

    def __init__(self, sock: socket.socket, max_frame_bytes: int) -> None:
        self.sock = sock
        self.splitter = FrameSplitter(max_frame_bytes)
        # While set, the connection is watched for writing, not reading.
        self.out = b""
        # A serve frame of this connection waits for its batch.
        self.busy = False


class _PendingServe:
    """One admitted request and the connection its reply goes to."""

    __slots__ = ("request", "conn", "enqueued_at")

    def __init__(self, request: ServeRequest, conn: _Connection) -> None:
        self.request = request
        self.conn = conn
        self.enqueued_at = perf_counter()


class _Worker:
    """The in-process state behind one worker's selector loop."""

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
        self._batch_size = self.obs.histogram("worker.batch_size")
        self._queue_wait = self.obs.histogram("span.worker_queue_wait")
        self._batch_ms = self.obs.histogram("span.worker_batch")
        self._serve_ms = self.obs.histogram("span.worker_serve")
        self.served = 0
        self.errors = 0
        self.wire_errors = 0
        self.manifest_reloads = 0
        self.batches = 0
        self.queue_rejects = 0
        self.drained = 0
        self.drain_errors = 0
        self._last_reload_probe = monotonic()
        # Set by a ``shutdown`` frame or a signal; the loop ends at the
        # end of the turn that sees it.
        self._stop = False
        self._drain_until: float | None = None
        self._selector = selectors.DefaultSelector()
        self._pending: list[_PendingServe] = []
        # Idle connections whose splitter may hold a whole frame: taken
        # on the next turn, which then does not sleep in ``select``.
        self._resume: list[_Connection] = []

    # ---------------------------------------------------------- #

    def _open_tiered(self) -> TieredSegmentedIndex:
        return TieredSegmentedIndex(
            self.config.segment_path,
            obs=self.obs,
            read_only=True,
        )

    def _maybe_reload(self) -> None:
        """Pick up a manifest swap between batches (tiered mode only).

        Runs on the loop, the only thread there is — so the swap needs
        no lock at all.  The filesystem probe is throttled to
        ``reload_check_interval_s``; the atomic rename commit means the
        fingerprint moves exactly when a new generation lands, so a
        throttled probe can only delay pickup by the interval, never
        miss it.  A reload that races a writer's post-commit victim
        unlink fails to open and simply retries at the next probe — the
        old generation keeps serving meanwhile.
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

    # -------------------------- serving ------------------------ #

    def _serve_pending(self) -> None:
        """Serve what this turn admitted, in chunks of ``max_batch``.

        Once a shutdown is seen the chunks are the drain: served while
        the ``drain_timeout_s`` budget lasts, then answered with a
        retryable error.
        """
        pending, self._pending = self._pending, []
        size = self.config.max_batch
        for start in range(0, len(pending), size):
            chunk = pending[start : start + size]
            if not self._stop:
                self._serve_batch(chunk)
            elif monotonic() < self._drain_deadline():
                self.drained += self._serve_and_reply(chunk)
            else:
                for item in chunk:
                    self.drain_errors += 1
                    self._answer(
                        item,
                        self._error_frame(
                            "worker shutting down",
                            item.request.request_id,
                            retryable=True,
                        ),
                    )

    def _serve_batch(self, batch: list[_PendingServe]) -> None:
        """One batch: reload window, serve, reply."""
        self._maybe_reload()
        now = perf_counter()
        for item in batch:
            self._queue_wait.observe((now - item.enqueued_at) * 1e3)
        self._batch_size.observe(float(len(batch)))
        self.batches += 1
        batch_started = perf_counter()
        self._serve_and_reply(batch)
        self._batch_ms.observe((perf_counter() - batch_started) * 1e3)

    def _serve_and_reply(self, batch: list[_PendingServe]) -> int:
        """Serve ``batch`` through :meth:`AdServer.serve_batch` and
        answer every item; returns how many got a ``result``.

        One poisoned request must not fail its batch-mates: when the
        batch raises, each item is re-served as a batch of its own, so
        only the bad item is answered with an error frame.
        """
        results: Sequence[ServeResult | None]
        try:
            results = self.server.serve_batch([item.request for item in batch])
        except Exception:  # noqa: BLE001 — the worker never dies
            isolated: list[ServeResult | None] = []
            for item in batch:
                try:
                    isolated.extend(self.server.serve_batch([item.request]))
                except Exception as exc:  # noqa: BLE001
                    self.errors += 1
                    self._answer(
                        item,
                        self._error_frame(
                            f"{type(exc).__name__}: {exc}",
                            item.request.request_id,
                            retryable=True,
                        ),
                    )
                    isolated.append(None)
            results = isolated
        finished = perf_counter()
        latency = self._serve_ms
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
            self._answer(item, response)
            served += 1
        self.served += served
        return served

    def _answer(self, item: _PendingServe, response: dict[str, Any]) -> None:
        """Reply to a served request; its connection may read again."""
        conn = item.conn
        conn.busy = False
        self._reply(conn, response)
        if not conn.out and conn.splitter.buffered:
            self._resume.append(conn)

    def _drain_deadline(self) -> float:
        if self._drain_until is None:
            self._drain_until = monotonic() + self.config.drain_timeout_s
        return self._drain_until

    # ------------------------ frame handling ------------------ #

    def _handle(self, conn: _Connection, payload: dict[str, Any]) -> None:
        """One request frame: admit a serve, or answer at once."""
        msg_type = payload.get("type")
        if msg_type == "serve":
            self._admit(conn, payload)
        elif msg_type == "ping":
            self._reply(conn, {"type": "pong", "worker_id": self.config.worker_id})
        elif msg_type == "stats":
            self._reply(conn, self.stats_payload())
        elif msg_type == "shutdown":
            self._stop = True
            self._drain_deadline()
            self._reply(conn, {"type": "ok"})
        else:
            self.wire_errors += 1
            self._reply(
                conn,
                {
                    "type": "error",
                    "error": f"unknown frame type {msg_type!r}",
                    "retryable": False,
                },
            )

    def _admit(self, conn: _Connection, payload: dict[str, Any]) -> None:
        """Validate a serve and queue it for this turn's batches."""
        try:
            request = ServeRequest.from_dict(payload.get("request"))
        except WireSchemaError as exc:
            self.wire_errors += 1
            self._reply(conn, self._error_frame(str(exc), None, retryable=False))
            return
        if self._stop:
            self._reply(
                conn,
                self._error_frame(
                    "worker shutting down", request.request_id, retryable=True
                ),
            )
            return
        if len(self._pending) >= self.config.queue_depth:
            self.queue_rejects += 1
            self._reply(
                conn,
                self._error_frame(
                    "worker dispatch queue full",
                    request.request_id,
                    retryable=True,
                ),
            )
            return
        conn.busy = True
        self._pending.append(_PendingServe(request, conn))

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
        latency = self._serve_ms
        batch_size = self._batch_size
        queue_wait = self._queue_wait
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

    # ------------------------- transport ----------------------- #

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except BlockingIOError:  # the backlog is empty
                return
            sock.setblocking(False)
            conn = _Connection(sock, self.config.max_frame_bytes)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Connection) -> None:
        if conn.busy or conn.sock.fileno() < 0:
            return  # its serve was admitted earlier this turn, or closed
        try:
            data = conn.sock.recv(READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if not data:
            try:
                conn.splitter.eof()
            except TornFrame:
                self.wire_errors += 1
            self._close(conn)
            return
        conn.splitter.feed(data)
        self._take_frames(conn)

    def _take_frames(self, conn: _Connection) -> None:
        """Handle ``conn``'s buffered frames until one is in service,
        a reply is left unsent, or no whole frame is left."""
        while not (conn.busy or conn.out) and conn.sock.fileno() >= 0:
            try:
                frame = conn.splitter.next_frame()
                if frame is None:
                    return
                payload = decode_payload(frame[HEADER.size :])
            except WireError:
                self.wire_errors += 1
                self._close(conn)
                return
            self._handle(conn, payload)

    def _reply(self, conn: _Connection, payload: dict[str, Any]) -> None:
        try:
            data = encode_frame(payload, self.config.max_frame_bytes)
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except (WireError, OSError):
            self.wire_errors += 1
            self._close(conn)
            return
        if sent < len(data):
            conn.out = data[sent:]
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _flush(self, conn: _Connection) -> bool:
        """Send what ``conn`` still owes; True once all of it is out."""
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return False
        except OSError:
            self.wire_errors += 1
            self._close(conn)
            return False
        conn.out = conn.out[sent:]
        return not conn.out

    def _close(self, conn: _Connection) -> None:
        if conn.sock.fileno() >= 0:
            self._selector.unregister(conn.sock)
            conn.sock.close()

    def _turn(self, listener: socket.socket) -> None:
        """One loop turn: read and answer control, serve, reply."""
        resume, self._resume = self._resume, []
        events = self._selector.select(0 if resume else SELECT_TIMEOUT_S)
        for conn in resume:
            self._take_frames(conn)
        for key, _ in events:
            conn = key.data
            if conn is None:
                self._accept(listener)
            elif not conn.out:
                self._read(conn)
            elif self._flush(conn):
                self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
                self._take_frames(conn)
        if self._pending:
            self._serve_pending()

    def _drain(self) -> None:
        """After the last turn: flush unsent replies within the drain
        budget; connections that owe nothing close at once."""
        for key in list(self._selector.get_map().values()):
            if key.data is None:
                self._selector.unregister(key.fileobj)  # the listener
            elif not key.data.out:
                self._close(key.data)
        deadline = self._drain_deadline()
        while True:
            remaining = deadline - monotonic()
            if not self._selector.get_map() or remaining <= 0:
                return
            for key, _ in self._selector.select(remaining):
                if self._flush(key.data):
                    self._close(key.data)

    def run(self) -> None:
        path = self.config.socket_path
        with contextlib.suppress(OSError):
            os.unlink(path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
            listener.listen(16)
            listener.setblocking(False)
            self._selector.register(listener, selectors.EVENT_READ, None)
            while not self._stop:
                self._turn(listener)
            self._drain()
        finally:
            for key in list(self._selector.get_map().values()):
                if key.data is not None:
                    key.data.sock.close()
            self._selector.close()
            listener.close()
            with contextlib.suppress(OSError):
                os.unlink(path)
            self.index.close()


def run_worker(config: WorkerConfig) -> None:
    """Process entry point: serve until ``shutdown`` or ``SIGTERM``."""
    # What a forked worker inherits moves to the collector's permanent
    # generation: a full collection writes to every object it traverses,
    # which would copy the parent's pages into this process and undo
    # the copy-on-write sharing the cluster forks for.
    gc.freeze()
    worker = _Worker(config)

    def _terminate(signum: int, frame: object) -> None:
        worker._stop = True

    with contextlib.suppress(ValueError):  # non-main thread (tests)
        signal.signal(signal.SIGTERM, _terminate)
        signal.signal(signal.SIGINT, _terminate)
    worker.run()
