"""The protocol frontend against the stream frontend it replaced.

``reference_frontend.py`` is the stream-based frontend (StreamReader,
``wait_for`` per frame, a shielded task per singleflight) kept verbatim,
code and all, apart from three docstring phrases.
Both frontends are driven, one after the other, against the same live
workers with one scripted frame sequence: misses, hits (with and
without a ``request_id``, in another token order), coalesced twins, an
unkeyable serve relayed raw, a serve with no request, an unknown admin
op, a degraded answer that must not be cached, ``ping``, a worker reply
torn mid-frame (failover to the other worker), and oversized, garbage,
unknown-type and torn client frames.  Every client reply must be
byte-identical, the frontend half of the final ``stats`` frame
(counters, cache and breaker states) equal, and the same worker must
serve each request under both (the same routing).
"""

import json
import socket

import pytest

from repro.netserve.frontend import Frontend, FrontendConfig
from repro.netserve.wire import HEADER, encode_frame

from tests.netserve import reference_frontend
from tests.netserve.conftest import requires_af_unix
from tests.netserve.frontend_rig import (
    ThreadWorkers,
    counter,
    read_raw,
    read_to_eof,
    running_frontend,
    wait_for,
)

pytestmark = requires_af_unix

MAX_FRAME = 1 << 16


def _serve(query, request_id=None, **extra):
    request = {"query": query, **extra}
    if request_id is not None:
        request["request_id"] = request_id
    return encode_frame({"type": "serve", "request": request})


#: Closed-loop steps on one connection: (label, frame, tear the reply).
SCRIPT = [
    ("miss", _serve(["cheap", "books"], "r1"), False),
    ("hit, other order", _serve(["books", "cheap", "cheap"], "r2"), False),
    ("miss 2", _serve(["used", "books"], "r3"), False),
    ("hit, no request_id", _serve(["used", "books"]), False),
    ("ping", encode_frame({"type": "ping"}), False),
    ("unkeyable, relayed raw", _serve("books", "r4"), False),
    ("serve without request", encode_frame({"type": "serve"}), False),
    ("unknown admin op", encode_frame({"type": "admin", "op": "x", "worker_id": 0}), False),
    ("degraded", _serve(["books"], "r5", deadline_ms=1e-9), False),
    ("degraded, not cached", _serve(["books"], "r6", deadline_ms=1e-9), False),
    # Eight worker trips so far: with two channels per worker, the torn
    # trip takes worker 0's first channel, and the next idle one, on
    # the same worker, must be skipped for the failover.
    ("miss 3", _serve(["rare", "books"], "r11"), False),
    ("miss 4", _serve(["old", "books"], "r12"), False),
    ("miss 5", _serve(["new", "books"], "r13"), False),
    ("torn reply, failover", _serve(["plenty", "books"], "r7"), True),
    ("hit after failover", _serve(["plenty", "books"], "r8"), False),
    ("miss after the tear", _serve(["fresh", "padding"], "r9"), False),
    ("miss after the tear 2", _serve(["more", "padding"], "r10"), False),
]

#: Frames that end their connection: everything the frontend sends
#: back before it closes.
FAULTS = [
    ("oversized", HEADER.pack(MAX_FRAME + 1)),
    ("garbage", HEADER.pack(11) + b"not json {{"),
    ("unknown type", encode_frame({"type": "teleport"})),
    ("torn at eof", encode_frame({"type": "ping"})[:6]),
]


def _connect(frontend):
    return socket.create_connection(("127.0.0.1", frontend.port), timeout=10.0)


def _stats(conn):
    conn.sendall(encode_frame({"type": "stats"}))
    return json.loads(read_raw(conn)[HEADER.size:])


def drive(frontend, workers):
    """The script's transcript: (label, reply bytes) pairs, the
    frontend half of the final stats frame, and the routing: which
    worker served each request, in order."""
    transcript = []
    workers.served.clear()
    with _connect(frontend) as main:
        for label, frame, tear in SCRIPT:
            if tear:
                workers.tear_next_reply()
            main.sendall(frame)
            transcript.append((label, read_raw(main)))
        # Coalesced twins: the leader is parked inside the worker while
        # its twin (another token order, another id) arrives.
        before = counter(frontend, "frontend.coalesced")
        workers.hold.set()
        with _connect(frontend) as leader, _connect(frontend) as twin:
            leader.sendall(_serve(["twin", "books"], "t1"))
            assert workers.entered.wait(5.0), "leader never reached a worker"
            twin.sendall(_serve(["books", "twin"], "t2"))
            wait_for(
                lambda: counter(frontend, "frontend.coalesced") == before + 1,
                what="the twin coalescing",
            )
            workers.release.set()
            transcript.append(("leader", read_raw(leader)))
            transcript.append(("twin", read_raw(twin)))
        workers.hold.clear()
        workers.entered.clear()
        workers.release.clear()
        for label, frame in FAULTS:
            with _connect(frontend) as conn:
                conn.sendall(frame)
                if label == "torn at eof":
                    conn.shutdown(socket.SHUT_WR)
                transcript.append((label, read_to_eof(conn)))
        stats = _stats(main)
    section = stats["frontend"]
    del section["port"]
    return transcript, section, list(workers.served)


@pytest.fixture()
def workers(segment_path, tmp_path):
    with ThreadWorkers(segment_path, tmp_path) as running:
        yield running


def test_protocol_frontend_matches_the_stream_frontend(workers):
    config = FrontendConfig(
        coalesce=True,
        cache_entries=64,
        conns_per_worker=2,
        max_frame_bytes=MAX_FRAME,
        worker_timeout_s=5.0,
    )
    results = {}
    for name, cls in (
        ("reference", reference_frontend.Frontend),
        ("protocol", Frontend),
    ):
        with running_frontend(workers.sockets, config, frontend_cls=cls) as frontend:
            results[name] = drive(frontend, workers)
    reference, section, routed = results["reference"]
    replies, new_section, new_routed = results["protocol"]
    assert [label for label, _ in replies] == [label for label, _ in reference]
    for (label, got), (_, want) in zip(replies, reference):
        assert got == want, label
    assert new_section == section
    assert new_routed == routed
    # The torn request was served twice: once torn, once by the other worker.
    assert [w for w, request_id in routed if request_id == "r7"] in ([0, 1], [1, 0])
    # The script reached what it is for.
    counters = section["counters"]
    assert counters["frontend.worker_failovers"] == 1
    assert counters["frontend.coalesced"] == 1
    assert counters["frontend.cache_hits"] == 3
    assert counters["frontend.wire_errors"] == 5
    assert json.loads(dict(reference)["torn reply, failover"][HEADER.size:])[
        "result"
    ]["degraded_reason"] == "none"
