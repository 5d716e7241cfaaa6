"""The protocol frontend's mechanism: reply order and no task per hit.

A client may pipeline frames.  The frontend reads them as they arrive
and answers what it can at once, but replies leave in request order: a
cache hit, a ``ping`` or a ``stats`` answer waits behind an earlier
miss still at the worker, and pipelined serves that no worker can take
are each answered in order.  A request whose only idle channels lead
to a worker it may not use waits for a healthy worker's channel.  A
cache hit costs no asyncio task at all, and a reply too large for the
frame budget is a typed error, not a dropped connection.
"""

import asyncio
import contextlib
import json
import socket

from repro.netserve.client import ServeClient
from repro.netserve.frontend import FrontendConfig
from repro.netserve.wire import HEADER, encode_frame
from repro.resilience.breaker import BreakerConfig, BreakerState

from tests.netserve.conftest import requires_af_unix
from tests.netserve.frontend_rig import (
    ThreadWorkers,
    counter,
    read_raw,
    running_frontend,
    wait_for,
)

pytestmark = requires_af_unix

CONFIG = FrontendConfig(
    coalesce=True, cache_entries=64, conns_per_worker=2, client_idle_timeout_s=30.0
)


def _serve(query, request_id):
    return {"type": "serve", "request": {"query": query, "request_id": request_id}}


def test_pipelined_replies_keep_request_order(segment_path, tmp_path):
    with ThreadWorkers(segment_path, tmp_path, count=1) as workers, running_frontend(
        workers.sockets, CONFIG
    ) as frontend:
        with ServeClient("127.0.0.1", frontend.port) as warm:
            warm.request(_serve(["cached", "books"], "warm"))
        workers.hold.set()
        pipelined = [
            _serve(["slow", "books"], "miss"),
            _serve(["books", "cached"], "hit"),
            {"type": "ping"},
            {"type": "stats"},
            # No canonical key: relayed raw, answered by the worker's
            # schema check on a second channel while the miss is held.
            _serve("books", "raw"),
        ]
        with socket.create_connection(("127.0.0.1", frontend.port), timeout=10) as conn:
            conn.sendall(b"".join(encode_frame(frame) for frame in pipelined))
            assert workers.entered.wait(5.0), "the miss never reached the worker"
            # Everything after the miss is answerable now; give it the
            # chance to overtake before the miss is released.
            wait_for(
                lambda: counter(frontend, "frontend.requests") == 4,
                what="every serve frame read",
            )
            conn.settimeout(0.3)
            try:
                early = conn.recv(1)
            except socket.timeout:
                early = b""
            assert early == b"", "a reply left before the held miss's"
            conn.settimeout(10)
            workers.release.set()
            replies = [json.loads(read_raw(conn)[HEADER.size:]) for _ in pipelined]
    assert [reply["type"] for reply in replies] == [
        "result",
        "result",
        "pong",
        "stats",
        "error",
    ]
    assert replies[0]["request_id"] == "miss"
    assert replies[1]["request_id"] == "hit"
    assert replies[1]["result"]["query"] == ["books", "cached"]
    assert replies[4]["retryable"] is False  # the worker's schema error


def test_cache_hits_create_no_tasks(segment_path, tmp_path):
    created = []

    def counting_factory(loop, coro, **kwargs):
        created.append(getattr(coro, "__qualname__", repr(coro)))
        return asyncio.Task(coro, loop=loop, **kwargs)

    with ThreadWorkers(segment_path, tmp_path, count=1) as workers, running_frontend(
        workers.sockets, CONFIG, task_factory=counting_factory
    ) as frontend:
        with ServeClient("127.0.0.1", frontend.port) as client:
            client.request(_serve(["books", "extra"], "warm"))
            before = list(created)
            for i in range(200):
                reply = client.request(_serve(["extra", "books"], f"h{i}"))
                assert reply["request_id"] == f"h{i}"
            during = created[len(before):]
        assert counter(frontend, "frontend.cache_hits") == 200
    assert during == []


def test_pipelined_serves_with_no_worker_left_are_answered_in_order(segment_path, tmp_path):
    # Every trip fails inside the callback that read its frame.
    count = 3 * 64
    with ThreadWorkers(segment_path, tmp_path, count=1) as workers, running_frontend(
        workers.sockets, CONFIG
    ) as frontend:
        frontend.mark_worker_failed(0)
        frames = b"".join(
            encode_frame(_serve([f"w{i % 7}", "books"], f"r{i}")) for i in range(count)
        )
        with socket.create_connection(("127.0.0.1", frontend.port), timeout=10) as conn:
            conn.sendall(frames)
            replies = [json.loads(read_raw(conn)[HEADER.size:]) for _ in range(count)]
        assert counter(frontend, "frontend.unrouted") == count
    assert [reply["request_id"] for reply in replies] == [f"r{i}" for i in range(count)]
    assert {reply["result"]["degraded_reason"] for reply in replies} == {"retrieval_error"}


def test_a_reply_over_the_frame_budget_is_a_typed_error(segment_path, tmp_path, generated_corpus):
    # The request fits the budget; its restamped cached reply does not.
    budget = 1 << 16
    config = FrontendConfig(cache_entries=64, max_frame_bytes=budget)
    query = sorted(generated_corpus.templates[0])
    with ThreadWorkers(segment_path, tmp_path, count=1) as workers, running_frontend(
        workers.sockets, config
    ) as frontend:
        with ServeClient("127.0.0.1", frontend.port, max_frame_bytes=budget) as client:
            warm = client.request(_serve(query, "warm"))
            assert warm["result"]["outcome"]["awards"]
            reply = client.request(_serve(query, "x" * (budget - 200)))
            assert reply["type"] == "error" and "exceeds budget" in reply["error"]
            assert client.ping()  # the connection is still served


#: Requests pipelined behind worker 1's two held ones.
LATE = 6


@contextlib.contextmanager
def _waiting_behind_an_open_breaker(segment_path, tmp_path):
    """Worker 0's breaker is open and both of worker 1's channels hold
    a request: ``LATE`` more, pipelined on a third connection, wait.
    Yields the frontend, the workers, worker 0's breaker and the three
    connections."""
    config = FrontendConfig(
        conns_per_worker=2,
        client_idle_timeout_s=30.0,
        breaker=BreakerConfig(min_samples=1, reset_after_ms=600_000.0),
    )
    with ThreadWorkers(segment_path, tmp_path, count=2) as workers, running_frontend(
        workers.sockets, config
    ) as frontend:
        breaker = frontend.breakers[0]
        while breaker.state is not BreakerState.OPEN:
            breaker.record_failure()
        workers.hold.set()
        conns = [
            socket.create_connection(("127.0.0.1", frontend.port), timeout=10)
            for _ in range(3)
        ]
        try:
            for at, conn in enumerate(conns[:2]):
                conn.sendall(encode_frame(_serve([f"busy{at}", "books"], f"busy{at}")))
            assert workers.entered.wait(5.0), "worker 1 never took a request"
            wait_for(
                lambda: {ch.worker_id for ch in frontend._idle} == {0},
                what="worker 1's channels taken",
            )
            conns[2].sendall(
                b"".join(
                    encode_frame(_serve([f"late{i}", "books"], f"late{i}"))
                    for i in range(LATE)
                )
            )
            wait_for(
                lambda: len(frontend._waiting) == LATE,
                what="the late requests queued",
            )
            yield frontend, workers, breaker, conns
        finally:
            for conn in conns:
                conn.close()


def _reply(conn):
    return json.loads(read_raw(conn)[HEADER.size:])


def test_trips_wait_for_a_healthy_channel(segment_path, tmp_path):
    """Worker 0's breaker is open and both of worker 1's channels are
    busy: the pipelined requests behind them wait for worker 1 rather
    than spending their takes on worker 0's idle channels and failing,
    and waiting asks the open breaker nothing, so no short circuit is
    counted however many trips wait or how often replies wake them."""
    with _waiting_behind_an_open_breaker(segment_path, tmp_path) as (
        frontend, workers, breaker, conns
    ):
        workers.release.set()
        replies = [_reply(conn) for conn in conns[:2]]
        replies += [_reply(conns[2]) for _ in range(LATE)]
        assert counter(frontend, "frontend.unrouted") == 0
        assert breaker.short_circuits == 0
        assert breaker.state is BreakerState.OPEN
    assert [reply["request_id"] for reply in replies] == [
        "busy0", "busy1", *(f"late{i}" for i in range(LATE))
    ]
    assert {reply["result"]["degraded_reason"] for reply in replies} == {"none"}
    assert {worker for worker, _ in workers.served} == {1}


def test_waiting_trips_left_no_worker_fail_at_once(segment_path, tmp_path):
    """The busy worker the waiting requests count on is marked failed:
    they are answered ``retrieval_error`` at once, before its held
    requests return, each counting one short circuit on the breaker
    that refused it."""
    with _waiting_behind_an_open_breaker(segment_path, tmp_path) as (
        frontend, workers, breaker, conns
    ):
        with ServeClient("127.0.0.1", frontend.port) as admin:
            admin.request({"type": "admin", "op": "worker_failed", "worker_id": 1})
        conns[2].settimeout(5.0)
        late = [_reply(conns[2]) for _ in range(LATE)]
        assert not workers.release.is_set()
        assert breaker.short_circuits == LATE
        workers.release.set()
        busy = [_reply(conn) for conn in conns[:2]]
    assert [reply["request_id"] for reply in late] == [f"late{i}" for i in range(LATE)]
    assert {reply["result"]["degraded_reason"] for reply in late} == {"retrieval_error"}
    assert {reply["result"]["degraded_reason"] for reply in busy} == {"none"}


def test_a_reply_that_opens_the_last_breaker_fails_the_waiting(segment_path, tmp_path):
    """Worker 1's held replies come back torn and open its breaker too:
    the requests waiting for it have no worker left and are answered
    ``retrieval_error``, not left waiting for a channel none may use."""
    with _waiting_behind_an_open_breaker(segment_path, tmp_path) as (
        frontend, workers, _, conns
    ):
        workers.tear_next_reply()
        workers.tear_next_reply()
        workers.release.set()
        conns[2].settimeout(5.0)
        late = [_reply(conns[2]) for _ in range(LATE)]
        busy = [_reply(conn) for conn in conns[:2]]
        assert frontend.breakers[1].state is BreakerState.OPEN
        assert len(frontend._waiting) == 0
    assert [reply["request_id"] for reply in late] == [f"late{i}" for i in range(LATE)]
    assert {reply["result"]["degraded_reason"] for reply in late + busy} == {
        "retrieval_error"
    }
