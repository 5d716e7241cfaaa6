"""The asyncio frontend: admission, routing, and clean shedding.

The frontend owns the TCP listener clients speak to.  Per request it
**admits** (a priority token bucket sheds lowest-priority first, at the
door), **routes** (a per-worker
:class:`~repro.resilience.breaker.CircuitBreaker` keeps a wedged worker
out of rotation) and **answers**.  A request the sharing layers below
do not serve is relayed as the client's frame bytes and answered with
the worker's reply bytes; one they serve is decoded for its key, and
its answer is the shared worker reply re-encoded per client.

It runs on :class:`asyncio.Protocol` callbacks: a client connection
splits frames with a :class:`~repro.netserve.wire.FrameSplitter`, and a
cache hit is answered inside ``data_received`` with one
``transport.write``, with no task, timeout or future per frame.  A
reply that must wait (a worker trip, a ``stats`` probe) holds its place
in the connection's reply queue, so replies keep request order; a
client that stops reading its replies stops having its frames read.

*Shed clean, never hang*: a shed request gets an empty ``result``
flagged with the reason; a torn, oversized (typed ``error`` first),
garbage or idle client loses its connection.  A worker transport fault
(torn reply, closed connection, timeout) feeds the breaker and the
request is retried once on a *different* worker
(``frontend.worker_failovers``); a worker channel hands back only whole
reply frames, so the retry cannot duplicate output.  Only when no
worker answers does the client get a ``retrieval_error`` result.

Two opt-in layers serve duplicate-heavy traffic: **singleflight**
(``coalesce``: a miss joins the in-flight trip of its
:func:`~repro.netserve.coalesce.canonical_serve_key`) and a **result
cache** (``cache_entries``: a
:class:`~repro.netserve.coalesce.GenerationalLRUCache` flushed when the
worker-stamped ``generation`` moves).  Requests with no canonical key
relay raw, so worker schema errors stay authoritative.  The supervisor
reports through :meth:`Frontend.mark_worker_ready` and
:meth:`Frontend.mark_worker_failed`, directly or via ``admin`` frames.
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from collections.abc import Callable, Coroutine
from dataclasses import dataclass, field
from time import monotonic, perf_counter
from typing import Any, cast

from repro.netserve.coalesce import (
    GenerationalLRUCache, canonical_serve_key, restamp_result,
)
from repro.netserve.wire import (
    DEFAULT_MAX_FRAME_BYTES, HEADER, FrameSplitter, FrameTooLarge,
    TornFrame, WireError, decode_payload, encode_frame,
)
from repro.obs.registry import Counter, MetricsRegistry, active_or_none
from repro.resilience.admission import AdmissionConfig, AdmissionController, Priority
from repro.resilience.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.resilience.deadline import DegradedReason

__all__ = ["Frontend", "FrontendConfig"]

#: Per-worker gauge values: breaker state, or 3.0 once out of routing.
_BREAKER_GAUGE = {BreakerState.CLOSED: 0.0, BreakerState.HALF_OPEN: 1.0, BreakerState.OPEN: 2.0}
_GAUGE_FAILED = 3.0

#: Called once with a worker's raw reply frame, or ``None`` on failure.
_OnReply = Callable[[bytes | None], None]

#: Unanswered frames one client may pipeline before its reading pauses.
_MAX_OWED = 64


@dataclass(frozen=True, slots=True)
class FrontendConfig:
    """Tuning for one :class:`Frontend`.

    ``port`` 0 picks an ephemeral port (:attr:`Frontend.port`).  A
    worker slower than ``worker_timeout_s`` counts as a breaker failure.
    ``client_idle_timeout_s`` bounds one client frame from when the
    frontend starts waiting for it: a client idle or stalled mid-frame
    past it is disconnected (``None`` waits forever).  ``admission``
    ``None`` admits everything; ``cache_entries`` 0 disables the cache.
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


def _error(message: str) -> dict[str, Any]:
    return {"type": "error", "error": message, "retryable": False}


class _Channel(asyncio.Protocol):
    """One frontend→worker connection, one frame in flight at a time.
    It lives as long as its connection: a dead one (``transport is
    None``) is replaced, so late callbacks reach an unused object."""

    __slots__ = ("worker_id", "transport", "_splitter", "_on_reply", "_timer")

    def __init__(self, worker_id: int, max_frame_bytes: int) -> None:
        self.worker_id = worker_id
        self.transport: asyncio.Transport | None = None
        self._splitter = FrameSplitter(max_frame_bytes)
        self._on_reply: _OnReply | None = None
        self._timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)

    def send(self, frame: bytes, on_reply: _OnReply, timeout_s: float) -> None:
        """Write ``frame``; ``on_reply`` gets the complete reply frame,
        or ``None`` when the connection fails or ``timeout_s`` passes."""
        assert self.transport is not None, "send on a dead channel"
        self._on_reply = on_reply
        self._timer = asyncio.get_running_loop().call_later(timeout_s, self._finish, None)
        self.transport.write(frame)

    def data_received(self, data: bytes) -> None:
        self._splitter.feed(data)
        try:
            frame = self._splitter.next_frame()
        except WireError:
            self._finish(None)
            return
        if frame is not None:
            self._finish(frame)

    def eof_received(self) -> None:
        self._finish(None)

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None
        self._finish(None)

    def _finish(self, frame: bytes | None) -> None:
        if frame is None:
            self.close()
        on_reply, self._on_reply = self._on_reply, None
        if on_reply is not None:
            if self._timer is not None:
                self._timer.cancel()
            on_reply(frame)

    def close(self) -> None:
        transport, self.transport = self.transport, None
        if transport is not None:
            transport.close()


@dataclass(slots=True)
class _Slot:
    """One client frame's place in its connection's reply order."""

    data: bytes | None = None


class _Client(asyncio.Protocol):
    """One client connection: frames in, replies out in request order."""

    __slots__ = (
        "frontend", "transport", "_splitter", "_owed", "_paused", "_held",
        "_eof", "_ending", "_idle_since", "_idle_timer",
    )

    def __init__(self, frontend: Frontend) -> None:
        self.frontend = frontend
        self.transport: asyncio.Transport | None = None
        self._splitter = FrameSplitter(frontend.config.max_frame_bytes)
        self._owed: deque[_Slot] = deque()  # replies owed, oldest first
        self._paused = False  # writes backed up
        self._held = False  # reading paused until replies drain
        self._eof = False
        self._ending = False  # read no more frames; close once flushed
        self._idle_since = 0.0
        self._idle_timer: asyncio.TimerHandle | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = cast(asyncio.Transport, transport)
        self.frontend._clients.add(self)
        timeout = self.frontend.config.client_idle_timeout_s
        if timeout is not None:
            self._idle_since = monotonic()
            self._idle_timer = asyncio.get_running_loop().call_later(timeout, self._check_idle)

    def data_received(self, data: bytes) -> None:
        if self._ending:
            return
        self._splitter.feed(data)
        self._read_frames()

    def eof_received(self) -> bool:
        self._eof = True
        self._read_frames()
        return True  # keep writing until every owed reply is out

    def connection_lost(self, exc: Exception | None) -> None:
        self.transport = None
        self._ending = True
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        self.frontend._clients.discard(self)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        if self._idle_timer is not None:
            self._idle_since = monotonic()
        self._read_frames()

    def _read_frames(self) -> None:
        frontend, splitter, owed = self.frontend, self._splitter, self._owed
        consumed = False
        while not self._ending:
            # Frames wait unread while writes or owed replies back up.
            held = self._paused or len(owed) >= _MAX_OWED
            if held != self._held and self.transport is not None:
                self._held = held
                if held:
                    self.transport.pause_reading()
                elif not self._eof:
                    self.transport.resume_reading()
            if held:
                return
            try:
                frame = splitter.next_frame()
                if frame is None:
                    break
                payload = decode_payload(frame[HEADER.size:])
            except WireError as exc:  # over budget, or not a JSON object
                frontend._wire_errors.inc()
                self.end(frontend._encode(_error(str(exc))))
                return
            consumed = True
            frontend._route(frame, payload, self)
        if self._ending:
            return
        if self._eof:
            try:
                splitter.eof()
            except TornFrame:
                frontend._wire_errors.inc()
            self.end()
        elif consumed and self._idle_timer is not None:
            self._idle_since = monotonic()  # the next frame's budget starts

    def _check_idle(self) -> None:
        timeout = self.frontend.config.client_idle_timeout_s
        assert timeout is not None
        now = monotonic()
        # The budget runs only while the frontend waits on the client.
        busy = self._owed or self._paused
        due = now + timeout if busy else self._idle_since + timeout
        if now < due:
            loop = asyncio.get_running_loop()
            self._idle_timer = loop.call_later(due - now, self._check_idle)
            return
        self.frontend.obs.counter("frontend.client_timeouts").inc()
        self.end()

    def send(self, data: bytes) -> None:
        """Answer the current frame: now, unless a reply is still owed."""
        if self._owed:
            self._owed.append(_Slot(data))
        elif self.transport is not None:
            self.transport.write(data)

    def hold(self) -> _Slot:
        """Reserve the current frame's reply place; :meth:`fill` it."""
        slot = _Slot()
        self._owed.append(slot)
        return slot

    def fill(self, slot: _Slot, data: bytes) -> None:
        slot.data = data
        owed = self._owed
        while owed and owed[0].data is not None:
            ready = owed.popleft().data
            if self.transport is not None and ready is not None:
                self.transport.write(ready)
        if not owed:
            if self._ending:
                self.close()
            elif self._idle_timer is not None:
                self._idle_since = monotonic()
        if self._held and not self._paused:
            self._read_frames()

    def end(self, data: bytes | None = None) -> None:
        """Read no more frames; close after the owed replies and ``data``."""
        self._ending = True
        if self.transport is not None:
            self.transport.pause_reading()
        if data is not None:
            self.send(data)
        if not self._owed:
            self.close()

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()


@dataclass(slots=True)
class _Trip:
    """One frame's way to a worker: two attempts, on different workers."""

    frame: bytes
    done: _OnReply
    attempts: int = 0
    failover: bool = False
    tried: set[int] = field(default_factory=set)


#: A client waiting on a worker trip: (client, slot, request, admitted at).
_Waiter = tuple[_Client, _Slot, dict[str, Any], float]


class Frontend:
    """Admission + routing over a pool of worker connections."""

    def __init__(
        self, worker_sockets: list[str], config: FrontendConfig | None = None,
        obs: MetricsRegistry | None = None,
    ) -> None:
        if not worker_sockets:
            raise ValueError("need at least one worker socket")
        self.config = config if config is not None else FrontendConfig()
        self.obs = obs if obs is not None else MetricsRegistry()
        self.worker_sockets = list(worker_sockets)
        admission, active = self.config.admission, active_or_none(self.obs)
        self.admission = None if admission is None else AdmissionController(admission, obs=active)
        self.breakers = {
            worker_id: CircuitBreaker(self.config.breaker, obs=active, name=f"worker-{worker_id}")
            for worker_id in range(len(worker_sockets))
        }
        # Idle pooled channels, taken FIFO; trips wait FIFO for one.
        self._idle: deque[_Channel] = deque()
        self._waiting: deque[_Trip] = deque()
        self._control: dict[int, _Channel] = {}
        self._probe_lock = asyncio.Lock()
        self._clients: set[_Client] = set()
        self._tasks: set[asyncio.Task[None]] = set()
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        entries = self.config.cache_entries
        self.cache = GenerationalLRUCache(entries) if entries > 0 else None
        self._keyed = self.config.coalesce or self.cache is not None
        self._inflight: dict[Any, list[_Waiter]] = {}
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
        # The per-frame counters, bound once.
        self._requests = self.obs.counter("frontend.requests")
        self._wire_errors = self.obs.counter("frontend.wire_errors")
        self._cache_hits = self.obs.counter("frontend.cache_hits")
        self._cache_misses = self.obs.counter("frontend.cache_misses")
        self._span = self.obs.histogram("span.frontend")
        self._pong = encode_frame({"type": "pong"})
        for worker_id in range(len(worker_sockets)):
            self._observe_breaker(worker_id)

    # ---------------------------------------------------------- #
    # Lifecycle

    async def start(self) -> None:
        """Connect the worker pool and start accepting clients."""
        for worker_id in range(len(self.worker_sockets)):
            self._control[worker_id] = await self._connect(worker_id)
            for _ in range(self.config.conns_per_worker):
                self._idle.append(await self._connect(worker_id))
        server = await asyncio.get_running_loop().create_server(
            functools.partial(_Client, self), self.config.host, self.config.port
        )
        self._server = server
        self.port = server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting; close every client, idle and control channel."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for client in list(self._clients):
            client.close()
        for channel in [*self._idle, *self._control.values()]:
            channel.close()
        for task in list(self._tasks):
            task.cancel()
        self._idle.clear()
        self._control.clear()
        if server is not None:
            await server.wait_closed()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    async def _connect(self, worker_id: int) -> _Channel:
        factory = functools.partial(_Channel, worker_id, self.config.max_frame_bytes)
        loop = asyncio.get_running_loop()
        _, channel = await loop.create_unix_connection(factory, self.worker_sockets[worker_id])
        return channel

    def _spawn(self, coro: Coroutine[Any, Any, None]) -> None:
        """A task for a rare path (stats, reconnect), kept until done."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # ---------------------------------------------------------- #
    # Client side

    def _encode(self, payload: dict[str, Any]) -> bytes:
        """One frame; a reply over the frame budget becomes a typed error."""
        try:
            return encode_frame(payload, self.config.max_frame_bytes)
        except FrameTooLarge as exc:
            return encode_frame(_error(str(exc)), self.config.max_frame_bytes)

    def _route(self, frame: bytes, payload: dict[str, Any], client: _Client) -> None:
        msg_type = payload.get("type")
        if msg_type == "serve":
            self._serve(frame, payload, client)
        elif msg_type == "ping":
            client.send(self._pong)
        elif msg_type == "stats":
            self._spawn(self._answer_stats(client, client.hold()))
        elif msg_type == "admin":
            client.send(self._encode(self._admin(payload)))
        else:
            self._wire_errors.inc()
            client.end(self._encode(_error(f"unknown frame type {msg_type!r}")))

    async def _answer_stats(self, client: _Client, slot: _Slot) -> None:
        client.fill(slot, self._encode(await self.stats_payload()))

    def _serve(self, frame: bytes, payload: dict[str, Any], client: _Client) -> None:
        self._requests.inc()
        request = payload.get("request")
        if not isinstance(request, dict):
            self._wire_errors.inc()
            client.send(self._encode(_error("serve frame carries no request object")))
            return
        started = perf_counter()
        if self.admission is not None:
            try:
                priority = Priority.from_name(request.get("priority", "normal"))
            except (ValueError, AttributeError):
                priority = Priority.NORMAL
            decision = self.admission.try_admit(priority)
            if not decision.admitted:
                self.obs.counter("frontend.shed").inc()
                client.send(self._encode(self._local_result(request, decision.reason)))
                return
        key = canonical_serve_key(request) if self._keyed else None
        if key is not None and self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self._cache_hits.inc()
                client.send(self._encode(restamp_result(hit, request)))
                self._served(started)
                return
            self._cache_misses.inc()
        waiters: list[_Waiter] = [(client, client.hold(), request, started)]
        if key is not None and self.config.coalesce:
            twins = self._inflight.get(key)
            if twins is not None:
                self.obs.counter("frontend.coalesced").inc()
                twins.extend(waiters)
                return
            self._inflight[key] = waiters
        done = functools.partial(self._answer, key, waiters)
        self._advance(_Trip(frame, done))

    def _served(self, started: float) -> None:
        """An admitted request was answered."""
        if self.admission is not None:
            self.admission.release()
        self._span.observe((perf_counter() - started) * 1e3)

    def _answer(self, key: Any, waiters: list[_Waiter], raw: bytes | None) -> None:
        """Answer every client waiting on one worker trip: an unkeyed
        serve with the worker's own reply bytes, a keyed one with the
        shared reply restamped for each client."""
        shared: dict[str, Any] | None = None
        if key is not None:
            if self._inflight.get(key) is waiters:
                del self._inflight[key]
            shared = self._decode_result(key, raw)
        for client, slot, request, started in waiters:
            if shared is not None:
                reply = self._encode(restamp_result(shared, request))
            elif key is None and raw is not None:
                reply = raw
            else:
                self.obs.counter("frontend.unrouted").inc()
                failed = self._local_result(request, DegradedReason.RETRIEVAL_ERROR)
                reply = self._encode(failed)
            client.fill(slot, reply)
            self._served(started)

    def _decode_result(self, key: Any, raw: bytes | None) -> dict[str, Any] | None:
        """A keyed trip's reply, decoded, generation-observed, cached."""
        if raw is None:
            return None
        try:
            response = decode_payload(raw[HEADER.size:])
        except WireError:
            self.obs.counter("frontend.worker_errors").inc()
            return None
        if self.cache is not None and response.get("type") == "result":
            generation = response.get("generation")
            generation = generation if isinstance(generation, int) else 0
            if self.cache.observe_generation(generation):
                self.obs.counter("frontend.cache_invalidations").inc()
            result = response.get("result")
            # A degraded slate must not outlive the overload behind it.
            if isinstance(result, dict) and result.get("degraded_reason", "none") == "none":
                self.cache.put(key, generation, response)
        return response

    def _local_result(self, request: dict[str, Any], reason: DegradedReason) -> dict[str, Any]:
        """A frontend-built empty result: same schema as a worker's."""
        tokens = request.get("query")
        result: dict[str, Any] = {"type": "result", "result": {
            "query": [t for t in tokens if isinstance(t, str)] if isinstance(tokens, list) else [],
            "degraded_reason": reason.value,
            "outcome": {
                "reserve_micros": self.config.reserve_micros, "candidates": 0, "awards": [],
            },
        }}
        request_id = request.get("request_id")
        if isinstance(request_id, str):
            result["request_id"] = request_id
        return result

    # ---------------------------------------------------------- #
    # Supervision hooks (direct calls, or ``admin`` frames)

    def _observe_breaker(self, worker_id: int) -> None:
        """Export one worker's routing health as a gauge."""
        failed = worker_id in self._failed_workers
        value = _GAUGE_FAILED if failed else _BREAKER_GAUGE[self.breakers[worker_id].state]
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
        if self._waiting:
            self._reroute()  # a waiting trip may take its idle channels

    def mark_worker_failed(self, worker_id: int) -> None:
        """A worker crash-looped out of its restart budget: stop
        routing to it at all; its share rebalances onto the survivors."""
        if worker_id not in self.breakers:
            raise KeyError(f"unknown worker {worker_id}")
        if worker_id not in self._failed_workers:
            self._failed_workers.add(worker_id)
            self.obs.counter("frontend.workers_failed").inc()
        self._observe_breaker(worker_id)
        if self._waiting:
            self._reroute()  # a trip left no worker fails now

    def _admin(self, payload: dict[str, Any]) -> dict[str, Any]:
        """The supervisor's control surface (trusted network, like the
        worker ``shutdown`` frame); unknown ids and ops get an error."""
        op = payload.get("op")
        worker_id = payload.get("worker_id")
        if not isinstance(worker_id, int) or worker_id not in self.breakers:
            return _error(f"unknown worker {worker_id!r}")
        if op == "worker_ready":
            self.mark_worker_ready(worker_id)
            return {"type": "ok"}
        if op == "worker_failed":
            self.mark_worker_failed(worker_id)
            return {"type": "ok"}
        return _error(f"unknown admin op {op!r}")

    # ---------------------------------------------------------- #
    # Worker side

    def _advance(self, trip: _Trip) -> None:
        """Route ``trip``, or queue it FIFO for the next freed channel."""
        if not self._idle or not self._dispatch(trip):
            self._waiting.append(trip)

    def _may_use(self, worker_id: int, trip: _Trip) -> bool:
        """May ``trip`` go to ``worker_id`` now?  Not when the worker is
        failed, already tried (unless it is the only one) or refused by
        its breaker, asked without spending a half-open trial."""
        return (
            worker_id not in self._failed_workers
            and (worker_id not in trip.tried or len(self.worker_sockets) == 1)
            and self.breakers[worker_id].permits()
        )

    def _dispatch(self, trip: _Trip) -> bool:
        """Take idle channels FIFO (a skipped one goes to the back)
        until one may carry ``trip``; False when none may but a worker
        that could is busy, so the trip must wait.  ``trip.done`` gets
        the raw reply frame, or ``None`` when no worker may carry it or
        every attempt failed: a failed attempt is retried once, on a
        worker not yet tried (with one worker, on its other channel),
        rather than storming every worker.  A trip failed here counts
        one short circuit on each breaker that refused it."""
        idle = self._idle
        for _ in range(len(idle)):
            channel = idle.popleft()
            if self._may_use(channel.worker_id, trip):
                self._take(channel, trip)
                return True
            idle.append(channel)
        if any(self._may_use(worker_id, trip) for worker_id in self.breakers):
            return False
        for worker_id, breaker in self.breakers.items():
            if worker_id not in self._failed_workers and not (
                worker_id in trip.tried and len(self.worker_sockets) > 1
            ):
                breaker.allow()  # refused: counts the short circuit
                self._observe_breaker(worker_id)
        trip.done(None)
        return True

    def _take(self, channel: _Channel, trip: _Trip) -> None:
        """Carry ``trip`` on ``channel``, which it may use."""
        self.breakers[channel.worker_id].allow()
        if trip.attempts == 1 and not trip.failover:
            self.obs.counter("frontend.worker_failovers").inc()
            trip.failover = True
        if channel.transport is None:
            self._spawn(self._reconnect(channel, trip))
        else:
            self._send(channel, trip)

    def _wake(self) -> None:
        """Offer the channel a reply just freed (the newest idle one) to
        the first waiting trip that may use it.  When none may, the
        reply may have left some trip no worker at all: re-route them
        all."""
        channel = self._idle[-1]
        waiting = self._waiting
        for at, trip in enumerate(waiting):
            if not self._may_use(channel.worker_id, trip):
                continue
            self._idle.pop()
            del waiting[at]
            self._take(channel, trip)
            return
        self._reroute()

    def _reroute(self) -> None:
        """Route every waiting trip afresh, in order: each goes out,
        fails or waits again."""
        waiting = self._waiting
        for _ in range(len(waiting)):
            trip = waiting.popleft()
            if not self._dispatch(trip):
                waiting.append(trip)

    async def _reconnect(self, dead: _Channel, trip: _Trip) -> None:
        try:
            channel = await self._connect(dead.worker_id)
        except OSError:
            self._on_reply(dead, trip, None)
            return
        self._send(channel, trip)

    def _send(self, channel: _Channel, trip: _Trip) -> None:
        on_reply = functools.partial(self._on_reply, channel, trip)
        channel.send(trip.frame, on_reply, self.config.worker_timeout_s)

    def _on_reply(self, channel: _Channel, trip: _Trip, raw: bytes | None) -> None:
        worker_id = channel.worker_id
        breaker = self.breakers[worker_id]
        self._idle.append(channel)
        retry = False
        if raw is None:
            self.obs.counter("frontend.worker_errors").inc()
            breaker.record_failure()
            trip.tried.add(worker_id)
            trip.attempts += 1
            retry = trip.attempts < 2
        else:
            # The worker answered: transport is healthy regardless of
            # whether the payload is a result or a typed error.
            breaker.record_success()
        self._observe_breaker(worker_id)
        if retry:
            self._advance(trip)
        if self._waiting and self._idle:
            self._wake()
        if not retry:
            trip.done(raw)

    # ---------------------------------------------------------- #
    # Stats

    async def _probe(self, worker_id: int, frame: bytes) -> bytes:
        """One control-channel round trip: the reply body."""
        channel = self._control[worker_id]
        if channel.transport is None:
            channel = self._control[worker_id] = await self._connect(worker_id)
        loop = asyncio.get_running_loop()
        reply: asyncio.Future[bytes | None] = loop.create_future()

        def on_reply(raw: bytes | None) -> None:
            if not reply.done():
                reply.set_result(raw)

        channel.send(frame, on_reply, self.config.worker_timeout_s)
        raw = await reply
        if raw is None:
            raise TornFrame("worker closed or timed out mid-probe")
        return raw[HEADER.size:]

    async def stats_payload(self) -> dict[str, Any]:
        """Frontend counters plus a fresh ``stats`` probe per worker."""
        workers: list[dict[str, Any]] = []
        probe = encode_frame({"type": "stats"}, self.config.max_frame_bytes)
        async with self._probe_lock:
            for worker_id in sorted(self._control):
                try:
                    body = await self._probe(worker_id, probe)
                    workers.append(decode_payload(body))
                except (WireError, OSError):
                    workers.append({"worker_id": worker_id, "unreachable": True})
        counters = {
            metric.name: metric.value for metric in self.obs.collect()
            if isinstance(metric, Counter) and metric.name.startswith(("frontend.", "resilience."))
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
                    str(worker_id): "failed" if worker_id in self._failed_workers
                    else breaker.state.value
                    for worker_id, breaker in self.breakers.items()
                },
                "failed_workers": sorted(self._failed_workers),
            },
            "workers": workers,
        }
