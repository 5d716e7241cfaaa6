"""The asyncio frontend: admission, routing, and clean shedding.

The frontend owns the TCP listener clients speak to.  Per request it
does exactly three things — **admit** (the priority token bucket,
so overload sheds lowest-priority first, at the door, before any
worker sees the request), **route** (pick a healthy worker connection;
a per-worker :class:`~repro.resilience.breaker.CircuitBreaker` tracks
transport health so a wedged worker stops receiving traffic), and
**relay** (forward the client's already-encoded ``serve`` frame bytes
verbatim and stream the worker's ``result`` frame bytes back — the
frontend decodes the request JSON once for admission and never
re-encodes either side).

Failure policy is *shed clean, never hang*:

* a shed request is answered immediately with an empty ``result``
  frame flagged with the shed reason — same schema as a full answer;
* a torn/oversized/garbage client frame ends that client connection
  (oversized gets a typed ``error`` frame first; a torn frame has no
  trustworthy framing left to answer into);
* a worker transport fault feeds the breaker, the frame is retried on
  the next worker, and only when every worker is unavailable does the
  client get a ``retrieval_error``-degraded empty result.

Two opt-in layers exploit duplicate-heavy (Zipf) traffic, both OFF by
default so the relay path above stays byte-for-byte the plain relay:

* **singleflight coalescing** (``coalesce=True``): identical in-flight
  serve frames — same :func:`~repro.netserve.coalesce.canonical_serve_key`
  — share one worker round trip; every client still receives its own
  ``request_id``-stamped reply (``frontend.coalesced`` counts the
  followers);
* **result cache** (``cache_entries>0``): a bounded
  :class:`~repro.netserve.coalesce.GenerationalLRUCache` of decoded
  result payloads, invalidated wholesale when the worker-stamped
  segment/manifest ``generation`` in a result frame moves — a tiered
  manifest commit can never be served stale (``frontend.cache_hits`` /
  ``frontend.cache_invalidations``).

Requests whose canonical key is ``None`` (malformed in any way) bypass
both layers and relay raw, so the worker's own schema errors stay
authoritative.

**Supervision integration**: a worker transport fault no longer
just feeds the breaker — the request is retried exactly **once**, on a
*different* worker (counted in ``frontend.worker_failovers``).  The
retry is always safe because the frontend buffers a worker's complete
``result`` frame before relaying any of it: a reply torn by worker
death mid-read has sent the client **zero** bytes, so the failover can
never duplicate output.  (With a single worker the one retry goes back
to that worker's other channel, which covers reconnect-after-restart.)
The :class:`~repro.netserve.supervisor.WorkerSupervisor` feeds recovery
state back through :meth:`Frontend.mark_worker_ready` /
:meth:`Frontend.mark_worker_failed` (directly in thread mode, via
``admin`` frames when the frontend runs as its own process): a respawn
resets that worker's breaker to half-open so the first live request
closes it, and a crash-looped worker is removed from routing entirely
so its traffic share rebalances onto the survivors.  Per-worker breaker
state is exported as the ``frontend.breaker_state.w<id>`` gauge
(0 closed / 1 half-open / 2 open / 3 permanently failed) so a chaos
drill can assert breakers actually reopen after respawns.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.netserve.coalesce import (
    GenerationalLRUCache,
    canonical_serve_key,
    restamp_result,
)
from repro.netserve.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER,
    FrameTooLarge,
    TornFrame,
    WireError,
    decode_payload,
    encode_frame,
    read_raw_frame,
)
from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.admission import (
    AdmissionConfig,
    AdmissionController,
    Priority,
)
from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.deadline import DegradedReason

__all__ = ["Frontend", "FrontendConfig"]

#: Numeric encoding of breaker state for the per-worker gauge.
_BREAKER_GAUGE = {
    BreakerState.CLOSED: 0.0,
    BreakerState.HALF_OPEN: 1.0,
    BreakerState.OPEN: 2.0,
}

#: Gauge value for a worker removed from routing (crash-looped).
_GAUGE_FAILED = 3.0


@dataclass(frozen=True, slots=True)
class FrontendConfig:
    """Tuning for one :class:`Frontend`.

    Parameters
    ----------
    host / port:
        TCP bind address; port 0 picks an ephemeral port (read it back
        from :attr:`Frontend.port` after :meth:`Frontend.start`).
    conns_per_worker:
        Pooled connections per worker — the worker-side concurrency.
    worker_timeout_s:
        Budget for one worker round trip; a slower worker counts as a
        breaker failure and the request moves on.
    client_idle_timeout_s:
        Optional budget for reading one client frame; a client that
        stalls mid-frame is disconnected instead of pinning the
        connection forever (``None`` waits indefinitely).
    max_frame_bytes:
        Per-frame wire budget, both directions.
    reserve_micros:
        Reserve price echoed in frontend-built (shed/error) results so
        they decode with the same schema as worker results.
    admission:
        Token-bucket / queue-depth config; ``None`` admits everything.
    breaker:
        Per-worker breaker tuning (defaults are fine for tests).
    coalesce:
        Singleflight identical in-flight serve frames (default off —
        off is bit-identical to the plain relay path).
    cache_entries:
        Result-cache capacity; 0 (default) disables the cache.
    """

    host: str = "127.0.0.1"
    port: int = 0
    conns_per_worker: int = 1
    worker_timeout_s: float = 10.0
    client_idle_timeout_s: float | None = None
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    reserve_micros: int = 1
    admission: AdmissionConfig | None = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    coalesce: bool = False
    cache_entries: int = 0


class _Channel:
    """One pooled frontend→worker connection (lazily (re)connected)."""

    __slots__ = ("worker_id", "path", "reader", "writer")

    def __init__(self, worker_id: int, path: str) -> None:
        self.worker_id = worker_id
        self.path = path
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def ensure_connected(self) -> None:
        if self.writer is not None and not self.writer.is_closing():
            return
        self.reader, self.writer = await asyncio.open_unix_connection(
            self.path
        )

    def mark_dead(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = None
        self.writer = None


class Frontend:
    """Admission + routing over a pool of worker connections."""

    def __init__(
        self,
        worker_sockets: list[str],
        config: FrontendConfig | None = None,
        obs: MetricsRegistry | None = None,
    ) -> None:
        if not worker_sockets:
            raise ValueError("need at least one worker socket")
        self.config = config if config is not None else FrontendConfig()
        self.obs = obs if obs is not None else MetricsRegistry()
        self.worker_sockets = list(worker_sockets)
        self.admission = (
            AdmissionController(self.config.admission, obs=active_or_none(self.obs))
            if self.config.admission is not None
            else None
        )
        self.breakers = {
            worker_id: CircuitBreaker(
                self.config.breaker,
                obs=active_or_none(self.obs),
                name=f"worker-{worker_id}",
            )
            for worker_id in range(len(worker_sockets))
        }
        self._pool: asyncio.Queue[_Channel] = asyncio.Queue()
        self._num_channels = 0
        self._control: dict[int, tuple[_Channel, asyncio.Lock]] = {}
        self._clients: set[asyncio.StreamWriter] = set()
        self._server: asyncio.base_events.Server | None = None
        self.port: int | None = None
        self.cache = (
            GenerationalLRUCache(self.config.cache_entries)
            if self.config.cache_entries > 0
            else None
        )
        self._inflight: dict[Any, asyncio.Task[dict[str, Any] | None]] = {}
        self._failed_workers: set[int] = set()
        for name, help_text in (
            ("frontend.requests", "Serve frames accepted from clients"),
            ("frontend.shed", "Requests shed at the frontend door"),
            ("frontend.wire_errors", "Client frames that violated framing"),
            ("frontend.worker_errors", "Worker transport faults observed"),
            ("frontend.worker_failovers", "Requests retried on another worker"),
            ("frontend.unrouted", "Requests no worker could answer"),
            ("frontend.client_timeouts", "Clients disconnected for stalling"),
            ("frontend.breaker_resets", "Breakers reset half-open on respawn"),
            ("frontend.workers_failed", "Workers removed from routing"),
            ("frontend.coalesced", "Serve frames that joined an in-flight twin"),
            ("frontend.cache_hits", "Serve frames answered from the result cache"),
            ("frontend.cache_misses", "Cache lookups that went to a worker"),
            ("frontend.cache_invalidations", "Cache flushes on generation bumps"),
        ):
            self.obs.counter(name, help=help_text)
        for worker_id in range(len(worker_sockets)):
            self._observe_breaker(worker_id)

    # ---------------------------------------------------------- #
    # Lifecycle

    async def start(self) -> None:
        """Connect the worker pool and start accepting clients."""
        for worker_id, path in enumerate(self.worker_sockets):
            control = _Channel(worker_id, path)
            await control.ensure_connected()
            self._control[worker_id] = (control, asyncio.Lock())
            for _ in range(self.config.conns_per_worker):
                channel = _Channel(worker_id, path)
                await channel.ensure_connected()
                self._pool.put_nowait(channel)
                self._num_channels += 1
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, close every pooled and control connection."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._clients):
            with contextlib.suppress(OSError):
                writer.close()
        self._clients.clear()
        while not self._pool.empty():
            self._pool.get_nowait().mark_dead()
        for control, _ in self._control.values():
            control.mark_dead()
        self._control.clear()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ---------------------------------------------------------- #
    # Client side

    async def _read_client_frame(
        self, reader: asyncio.StreamReader
    ) -> bytes | None:
        if self.config.client_idle_timeout_s is None:
            return await read_raw_frame(reader, self.config.max_frame_bytes)
        return await asyncio.wait_for(
            read_raw_frame(reader, self.config.max_frame_bytes),
            timeout=self.config.client_idle_timeout_s,
        )

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients.add(writer)
        try:
            while True:
                try:
                    frame = await self._read_client_frame(reader)
                except FrameTooLarge as exc:
                    self.obs.counter("frontend.wire_errors").inc()
                    await self._reply(
                        writer,
                        {"type": "error", "error": str(exc), "retryable": False},
                    )
                    return
                except (TornFrame, WireError):
                    self.obs.counter("frontend.wire_errors").inc()
                    return
                except (asyncio.TimeoutError, TimeoutError):
                    self.obs.counter("frontend.client_timeouts").inc()
                    return
                except (OSError, ConnectionResetError):
                    return
                if frame is None:
                    return
                try:
                    payload = decode_payload(frame[HEADER.size:])
                except WireError as exc:
                    self.obs.counter("frontend.wire_errors").inc()
                    await self._reply(
                        writer,
                        {"type": "error", "error": str(exc), "retryable": False},
                    )
                    return
                if not await self._route(frame, payload, writer):
                    return
        finally:
            self._clients.discard(writer)
            with contextlib.suppress(OSError):
                writer.close()
                await writer.wait_closed()

    async def _route(
        self,
        frame: bytes,
        payload: dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> bool:
        """One decoded client frame; False ends the connection."""
        msg_type = payload.get("type")
        if msg_type == "ping":
            await self._reply(writer, {"type": "pong"})
            return True
        if msg_type == "stats":
            await self._reply(writer, await self.stats_payload())
            return True
        if msg_type == "serve":
            await self._serve(frame, payload, writer)
            return True
        if msg_type == "admin":
            await self._reply(writer, self._admin(payload))
            return True
        self.obs.counter("frontend.wire_errors").inc()
        await self._reply(
            writer,
            {
                "type": "error",
                "error": f"unknown frame type {msg_type!r}",
                "retryable": False,
            },
        )
        return False

    async def _serve(
        self,
        frame: bytes,
        payload: dict[str, Any],
        writer: asyncio.StreamWriter,
    ) -> None:
        self.obs.counter("frontend.requests").inc()
        request = payload.get("request")
        if not isinstance(request, dict):
            self.obs.counter("frontend.wire_errors").inc()
            await self._reply(
                writer,
                {
                    "type": "error",
                    "error": "serve frame carries no request object",
                    "retryable": False,
                },
            )
            return
        started = perf_counter()
        try:
            priority = Priority.from_name(request.get("priority", "normal"))
        except (ValueError, AttributeError):
            priority = Priority.NORMAL
        if self.admission is not None:
            decision = self.admission.try_admit(priority)
            if not decision.admitted:
                self.obs.counter("frontend.shed").inc()
                await self._reply(
                    writer,
                    self._local_result(request, decision.reason, payload),
                )
                return
        try:
            key = (
                canonical_serve_key(request)
                if (self.config.coalesce or self.cache is not None)
                else None
            )
            if key is not None:
                shared = await self._serve_shared(key, frame)
                if shared is None:
                    self.obs.counter("frontend.unrouted").inc()
                    await self._reply(
                        writer,
                        self._local_result(
                            request, DegradedReason.RETRIEVAL_ERROR, payload
                        ),
                    )
                else:
                    await self._reply(writer, restamp_result(shared, request))
            else:
                response = await self._dispatch(frame)
                if response is None:
                    self.obs.counter("frontend.unrouted").inc()
                    await self._reply(
                        writer,
                        self._local_result(
                            request, DegradedReason.RETRIEVAL_ERROR, payload
                        ),
                    )
                else:
                    writer.write(response)
                    with contextlib.suppress(OSError, ConnectionResetError):
                        await writer.drain()
        finally:
            if self.admission is not None:
                self.admission.release()
        self.obs.histogram("span.frontend").observe(
            (perf_counter() - started) * 1e3
        )

    def _local_result(
        self,
        request: dict[str, Any],
        reason: DegradedReason,
        payload: dict[str, Any],
    ) -> dict[str, Any]:
        """A frontend-built empty result: same schema as a worker's."""
        tokens = request.get("query")
        if not isinstance(tokens, list):
            tokens = []
        result: dict[str, Any] = {
            "type": "result",
            "result": {
                "query": [t for t in tokens if isinstance(t, str)],
                "degraded_reason": reason.value,
                "outcome": {
                    "reserve_micros": self.config.reserve_micros,
                    "candidates": 0,
                    "awards": [],
                },
            },
        }
        request_id = request.get("request_id")
        if isinstance(request_id, str):
            result["request_id"] = request_id
        return result

    async def _reply(
        self, writer: asyncio.StreamWriter, payload: dict[str, Any]
    ) -> None:
        with contextlib.suppress(OSError, ConnectionResetError):
            writer.write(encode_frame(payload, self.config.max_frame_bytes))
            await writer.drain()

    # ---------------------------------------------------------- #
    # Supervision hooks (called directly in thread mode, via ``admin``
    # frames when the frontend runs as its own process)

    def _observe_breaker(self, worker_id: int) -> None:
        """Export one worker's routing health as a gauge."""
        value = (
            _GAUGE_FAILED
            if worker_id in self._failed_workers
            else _BREAKER_GAUGE[self.breakers[worker_id].state]
        )
        self.obs.gauge(
            f"frontend.breaker_state.w{worker_id}",
            help="0 closed / 1 half-open / 2 open / 3 failed",
        ).set(value)

    def mark_worker_ready(self, worker_id: int) -> None:
        """A supervised worker respawned: put it back in routing with
        its breaker half-open, so the first live request closes it
        instead of waiting out the breaker's own cooling-off."""
        if worker_id not in self.breakers:
            raise KeyError(f"unknown worker {worker_id}")
        self._failed_workers.discard(worker_id)
        self.breakers[worker_id].reset_half_open()
        self.obs.counter("frontend.breaker_resets").inc()
        self._observe_breaker(worker_id)

    def mark_worker_failed(self, worker_id: int) -> None:
        """A worker crash-looped out of its restart budget: stop
        routing to it at all; its share rebalances onto the survivors."""
        if worker_id not in self.breakers:
            raise KeyError(f"unknown worker {worker_id}")
        if worker_id not in self._failed_workers:
            self._failed_workers.add(worker_id)
            self.obs.counter("frontend.workers_failed").inc()
        self._observe_breaker(worker_id)

    def _admin(self, payload: dict[str, Any]) -> dict[str, Any]:
        """The supervisor's control surface when the frontend runs as
        its own process.  Worker ids are validated; unknown ops get a
        typed error (the frames are trusted-network control plane, like
        the worker ``shutdown`` frame)."""
        op = payload.get("op")
        worker_id = payload.get("worker_id")
        if not isinstance(worker_id, int) or worker_id not in self.breakers:
            return {
                "type": "error",
                "error": f"unknown worker {worker_id!r}",
                "retryable": False,
            }
        if op == "worker_ready":
            self.mark_worker_ready(worker_id)
            return {"type": "ok"}
        if op == "worker_failed":
            self.mark_worker_failed(worker_id)
            return {"type": "ok"}
        return {
            "type": "error",
            "error": f"unknown admin op {op!r}",
            "retryable": False,
        }

    # ---------------------------------------------------------- #
    # Worker side

    async def _dispatch(self, frame: bytes) -> bytes | None:
        """Relay ``frame`` to a healthy worker; the raw response frame,
        or ``None`` when every attempt failed or short-circuited.

        A failed attempt (worker died mid-reply, transport fault,
        timeout) is retried exactly once, on a worker we have not yet
        tried — counted in ``frontend.worker_failovers``.  The retry
        can never duplicate client output: the complete response frame
        is buffered here before a single byte is relayed back, so a
        torn reply means the client has received nothing.  With only
        one worker the retry may revisit it (covers the
        reconnect-after-restart case); beyond two failed attempts the
        caller sheds with a typed degraded result rather than storming
        every worker.
        """
        attempts = 0
        failover_counted = False
        tried_workers: set[int] = set()
        single_worker = len(self.worker_sockets) == 1
        for _ in range(max(self._num_channels, 1)):
            channel = await self._pool.get()
            worker_id = channel.worker_id
            if worker_id in self._failed_workers:
                self._pool.put_nowait(channel)
                continue
            if worker_id in tried_workers and not single_worker:
                self._pool.put_nowait(channel)
                continue
            breaker = self.breakers[worker_id]
            if not breaker.allow():
                self._observe_breaker(worker_id)
                self._pool.put_nowait(channel)
                continue
            if attempts == 1 and not failover_counted:
                self.obs.counter("frontend.worker_failovers").inc()
                failover_counted = True
            try:
                await channel.ensure_connected()
                assert channel.reader is not None
                assert channel.writer is not None
                channel.writer.write(frame)
                await channel.writer.drain()
                response = await asyncio.wait_for(
                    read_raw_frame(
                        channel.reader, self.config.max_frame_bytes
                    ),
                    timeout=self.config.worker_timeout_s,
                )
                if response is None:
                    raise TornFrame("worker closed between frames")
            except (
                WireError,
                OSError,
                ConnectionError,
                asyncio.TimeoutError,
                TimeoutError,
            ):
                self.obs.counter("frontend.worker_errors").inc()
                breaker.record_failure()
                self._observe_breaker(worker_id)
                channel.mark_dead()
                self._pool.put_nowait(channel)
                tried_workers.add(worker_id)
                attempts += 1
                if attempts >= 2:
                    return None
                continue
            # The worker answered: transport is healthy regardless of
            # whether the payload is a result or a typed error.
            breaker.record_success()
            self._observe_breaker(worker_id)
            self._pool.put_nowait(channel)
            return response
        return None

    # ---------------------------------------------------------- #
    # Coalescing + result cache (both opt-in)

    async def _serve_shared(
        self, key: Any, frame: bytes
    ) -> dict[str, Any] | None:
        """Answer one canonical-keyed serve: cache, then singleflight.

        Returns the *shared* decoded response payload (the caller
        restamps it per client), or ``None`` when no worker answered.
        """
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self.obs.counter("frontend.cache_hits").inc()
                return hit
            self.obs.counter("frontend.cache_misses").inc()
        if not self.config.coalesce:
            return await self._dispatch_decoded(key, frame)
        inflight = self._inflight.get(key)
        if inflight is not None and not inflight.done():
            self.obs.counter("frontend.coalesced").inc()
            # shield: a follower's disconnect must not cancel the
            # leader's round trip out from under the other followers.
            return await asyncio.shield(inflight)
        task = asyncio.ensure_future(self._dispatch_decoded(key, frame))
        self._inflight[key] = task

        def _clear(done: asyncio.Task[dict[str, Any] | None]) -> None:
            if self._inflight.get(key) is done:
                del self._inflight[key]

        task.add_done_callback(_clear)
        return await asyncio.shield(task)

    async def _dispatch_decoded(
        self, key: Any, frame: bytes
    ) -> dict[str, Any] | None:
        """One worker round trip, decoded, generation-observed, cached."""
        raw = await self._dispatch(frame)
        if raw is None:
            return None
        try:
            response = decode_payload(raw[HEADER.size:])
        except WireError:
            self.obs.counter("frontend.worker_errors").inc()
            return None
        if self.cache is not None and response.get("type") == "result":
            generation = response.get("generation")
            if not isinstance(generation, int):
                generation = 0
            if self.cache.observe_generation(generation):
                self.obs.counter("frontend.cache_invalidations").inc()
            result = response.get("result")
            if (
                isinstance(result, dict)
                and result.get("degraded_reason", "none") == "none"
            ):
                # Only full-fidelity answers are worth remembering —
                # a degraded slate would otherwise outlive the overload
                # that produced it.
                self.cache.put(key, generation, response)
        return response

    # ---------------------------------------------------------- #
    # Stats

    async def stats_payload(self) -> dict[str, Any]:
        """Frontend counters plus a fresh ``stats`` probe per worker."""
        workers: list[dict[str, Any]] = []
        probe = encode_frame({"type": "stats"}, self.config.max_frame_bytes)
        for worker_id, (control, lock) in sorted(self._control.items()):
            async with lock:
                try:
                    await control.ensure_connected()
                    assert control.reader is not None
                    assert control.writer is not None
                    control.writer.write(probe)
                    await control.writer.drain()
                    raw = await asyncio.wait_for(
                        read_raw_frame(
                            control.reader, self.config.max_frame_bytes
                        ),
                        timeout=self.config.worker_timeout_s,
                    )
                    if raw is None:
                        raise TornFrame("worker closed between frames")
                    workers.append(decode_payload(raw[HEADER.size:]))
                except (
                    WireError,
                    OSError,
                    ConnectionError,
                    asyncio.TimeoutError,
                    TimeoutError,
                ):
                    control.mark_dead()
                    workers.append(
                        {"worker_id": worker_id, "unreachable": True}
                    )
        counters = {
            metric.name: metric.value
            for metric in self.obs.collect()
            if metric.kind == "counter"
            and metric.name.startswith(("frontend.", "resilience."))
        }
        return {
            "type": "stats",
            "frontend": {
                "port": self.port,
                "num_workers": len(self.worker_sockets),
                "conns_per_worker": self.config.conns_per_worker,
                "coalesce": self.config.coalesce,
                "cache": self.cache.stats() if self.cache is not None else None,
                "counters": counters,
                "breakers": {
                    str(worker_id): (
                        "failed"
                        if worker_id in self._failed_workers
                        else breaker.state.value
                    )
                    for worker_id, breaker in self.breakers.items()
                },
                "failed_workers": sorted(self._failed_workers),
            },
            "workers": workers,
        }
