"""Wire-protocol fault injection: torn frames, oversized prefixes, and
mid-frame disconnects, built with the :mod:`repro.faults` mutators and
thrown at a live frontend.

The invariant under test is *shed clean, never hang*: a client that
violates framing loses its connection (optionally after a typed
``error`` frame), the fault lands in the ``frontend.wire_errors`` /
``frontend.client_timeouts`` counters, and the tier keeps serving
well-formed clients.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.faults.mutators import tear_tail, truncate_at
from repro.netserve import ClusterConfig, ServeClient, ServingCluster
from repro.netserve.wire import (
    HEADER,
    TornFrame,
    encode_frame,
    read_raw_frame,
    recv_frame,
)
from repro.netserve.worker import WorkerConfig
from repro.serving import ServeRequest

from tests.netserve.conftest import requires_af_unix
from tests.netserve.frontend_rig import read_raw
from tests.netserve.worker_rig import RunningWorker

pytestmark = requires_af_unix

#: A request frame big enough that every mutation lands mid-payload.
REQUEST = {
    "type": "serve",
    "request": {
        "query": ["cheap", "used", "books", "and", "plenty", "of", "padding"],
        "request_id": "fault-probe",
    },
}


@pytest.fixture(scope="module")
def cluster(segment_path):
    config = ClusterConfig(
        segment_path=str(segment_path),
        num_workers=1,
        # A stalling client must be disconnected, not waited on forever:
        # this is what turns a partial frame into a bounded fault.
        client_idle_timeout_s=0.75,
        max_frame_bytes=1 << 16,
    )
    with ServingCluster(config) as running:
        yield running


@pytest.fixture()
def raw_socket(cluster):
    host, port = cluster.address
    sock = socket.create_connection((host, port), timeout=10.0)
    yield sock
    sock.close()


def _mutated_frame(tmp_path, name, mutate):
    """Encode a valid frame to a file, corrupt it on disk, read it back
    — the same torn-bytes discipline the durability tests use."""
    path = tmp_path / name
    path.write_bytes(encode_frame(REQUEST))
    mutate(path)
    return path.read_bytes()


def _counters(cluster):
    host, port = cluster.address
    with ServeClient(host, port) as client:
        return client.stats()["frontend"]["counters"]


def _assert_still_serving(cluster):
    host, port = cluster.address
    with ServeClient(host, port) as client:
        result = client.serve(ServeRequest.from_text("books"))
    assert result.query.tokens == ("books",)


class TestTornFrames:
    def test_tear_tail_then_disconnect_is_counted_not_fatal(
        self, cluster, raw_socket, tmp_path
    ):
        before = _counters(cluster)["frontend.wire_errors"]
        torn = _mutated_frame(
            tmp_path, "torn.frame", lambda p: tear_tail(p, keep_fraction=0.5)
        )
        assert len(torn) > HEADER.size, "mutation must keep a full header"
        raw_socket.sendall(torn)
        raw_socket.shutdown(socket.SHUT_WR)
        # The frontend closes its side; the read unblocks with EOF
        # rather than hanging until the test times out.
        assert raw_socket.recv(4096) == b""
        assert _counters(cluster)["frontend.wire_errors"] == before + 1
        _assert_still_serving(cluster)

    def test_partial_header_disconnect_is_torn(
        self, cluster, raw_socket, tmp_path
    ):
        before = _counters(cluster)["frontend.wire_errors"]
        stub = _mutated_frame(
            tmp_path, "header.frame", lambda p: truncate_at(p, 2)
        )
        assert len(stub) == 2
        raw_socket.sendall(stub)
        raw_socket.shutdown(socket.SHUT_WR)
        assert raw_socket.recv(4096) == b""
        assert _counters(cluster)["frontend.wire_errors"] == before + 1
        _assert_still_serving(cluster)

    def test_stalled_mid_frame_client_is_disconnected_by_timeout(
        self, cluster, raw_socket, tmp_path
    ):
        """A client that sends half a frame and then *stays connected*
        is the hang case — the idle timeout must shed it."""
        before = _counters(cluster)["frontend.client_timeouts"]
        half = _mutated_frame(
            tmp_path,
            "stall.frame",
            lambda p: truncate_at(p, HEADER.size + 10),
        )
        raw_socket.sendall(half)  # ...and never the rest
        raw_socket.settimeout(10.0)
        assert raw_socket.recv(4096) == b""
        assert _counters(cluster)["frontend.client_timeouts"] == before + 1
        _assert_still_serving(cluster)


class TestFlowControl:
    """The idle budget runs only while the frontend waits on the
    client, and a client that reads nothing stops being read."""

    def test_idle_between_frames_disconnects(self, cluster, raw_socket):
        before = _counters(cluster)["frontend.client_timeouts"]
        raw_socket.sendall(encode_frame(REQUEST))
        reply = recv_frame(raw_socket)
        assert reply is not None and reply["type"] == "result"
        started = time.monotonic()
        # ...then nothing: the next frame's budget runs out.
        assert raw_socket.recv(4096) == b""
        assert time.monotonic() - started < 5.0
        assert _counters(cluster)["frontend.client_timeouts"] == before + 1
        _assert_still_serving(cluster)

    def test_busy_client_outlives_the_timeout(self, cluster):
        before = _counters(cluster)["frontend.client_timeouts"]
        host, port = cluster.address
        with ServeClient(host, port) as client:
            started = time.monotonic()
            while time.monotonic() - started < 2.0:  # > 2x the 0.75 s budget
                assert client.request(REQUEST)["type"] == "result"
                time.sleep(0.05)
            assert client.ping()
        assert _counters(cluster)["frontend.client_timeouts"] == before

    def test_client_that_reads_nothing_is_paused(self, segment_path, generated_corpus):
        config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=1,
            cache_entries=64,
            client_idle_timeout_s=0.75,
        )
        # A query with ads, so each reply carries a full slate.
        request = {"query": sorted(generated_corpus.templates[0])}
        with ServingCluster(config) as running:
            host, port = running.address
            with ServeClient(host, port) as other:
                probe = other.request({"type": "serve", "request": request})
                assert probe["result"]["outcome"]["awards"]
                reply_bytes = len(json.dumps(probe)) + HEADER.size
                requests0 = other.stats()["frontend"]["counters"]["frontend.requests"]
                # Far more reply bytes than the socket buffers between
                # the frontend and a reader that reads nothing can hold.
                count = (24 << 20) // reply_bytes
                frames = b"".join(
                    encode_frame({"type": "serve", "request": {**request, "request_id": f"p{i}"}})
                    for i in range(count)
                )
                quiet = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                quiet.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                quiet.settimeout(30.0)
                quiet.connect((host, port))
                sender = threading.Thread(target=quiet.sendall, args=(frames,), daemon=True)
                sender.start()
                try:
                    # The frontend stops reading the quiet client...
                    seen, stable = -1, 0
                    deadline = time.monotonic() + 20.0
                    while stable < 3:
                        assert time.monotonic() < deadline, "reading never paused"
                        time.sleep(0.15)
                        now = other.stats()["frontend"]["counters"]["frontend.requests"]
                        stable = stable + 1 if now == seen else 0
                        seen = now
                    assert seen - requests0 < count
                    assert [
                        client.transport.is_reading()
                        for client in list(running.frontend._clients)
                        if client.transport is not None
                    ].count(False) == 1
                    # ...while another client is still served, and stays
                    # connected for twice the idle budget: it is waiting
                    # on the frontend, not idle.
                    for _ in range(10):
                        assert other.request({"type": "serve", "request": request})
                        time.sleep(0.15)
                    # Once it reads, every reply arrives, in order.
                    for i in range(count):
                        reply = json.loads(read_raw(quiet)[HEADER.size:])
                        assert reply["request_id"] == f"p{i}"
                    sender.join(10.0)
                    assert not sender.is_alive()
                finally:
                    quiet.close()
            with ServeClient(host, port) as probe:
                counters = probe.stats()["frontend"]["counters"]
            assert counters["frontend.cache_hits"] == count + 10


#: A generation-stamped worker result frame (the PR 9 schema) — the
#: frontend's cache invalidation keys on the ``generation`` int, so a
#: torn result frame must fault loudly, never decode to a stale stamp.
RESULT_FRAME = {
    "type": "result",
    "request_id": "fault-probe",
    "generation": 7,
    "result": {
        "query": ["cheap", "used", "books", "and", "plenty", "of", "padding"],
        "degraded_reason": "none",
        "outcome": {"reserve_micros": 1, "candidates": 1, "awards": []},
    },
}


class TestTornResultFrames:
    """The worker→frontend direction, through both codecs."""

    def _mutated(self, tmp_path, name, mutate):
        path = tmp_path / name
        path.write_bytes(encode_frame(RESULT_FRAME))
        mutate(path)
        return path.read_bytes()

    def test_torn_result_frame_is_torn_on_sync_codec(self, tmp_path):
        torn = self._mutated(
            tmp_path, "result.frame", lambda p: tear_tail(p, keep_fraction=0.5)
        )
        assert len(torn) > HEADER.size, "mutation must keep a full header"
        left, right = socket.socketpair()
        try:
            left.sendall(torn)
            left.close()
            with pytest.raises(TornFrame):
                recv_frame(right)
        finally:
            right.close()

    def test_torn_result_frame_is_torn_on_async_codec(self, tmp_path):
        torn = self._mutated(
            tmp_path,
            "result-async.frame",
            lambda p: tear_tail(p, keep_fraction=0.5),
        )

        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(torn)
            reader.feed_eof()
            return await read_raw_frame(reader)

        with pytest.raises(TornFrame):
            asyncio.run(run())

    def test_result_header_stub_is_torn(self, tmp_path):
        stub = self._mutated(
            tmp_path, "result-header.frame", lambda p: truncate_at(p, 3)
        )
        assert len(stub) == 3
        left, right = socket.socketpair()
        try:
            left.sendall(stub)
            left.close()
            with pytest.raises(TornFrame):
                recv_frame(right)
        finally:
            right.close()


class TestOversizedFrames:
    def test_oversized_prefix_gets_typed_error_then_close(
        self, cluster, raw_socket
    ):
        before = _counters(cluster)["frontend.wire_errors"]
        raw_socket.sendall(HEADER.pack((1 << 16) + 1))
        reply = recv_frame(raw_socket)
        assert reply is not None and reply["type"] == "error"
        assert "exceeds" in reply["error"]
        assert raw_socket.recv(4096) == b""
        assert _counters(cluster)["frontend.wire_errors"] == before + 1
        _assert_still_serving(cluster)

    def test_garbage_payload_gets_typed_error(self, cluster, raw_socket):
        body = b"this is not json at all {{{"
        raw_socket.sendall(HEADER.pack(len(body)) + body)
        reply = recv_frame(raw_socket)
        assert reply is not None and reply["type"] == "error"
        _assert_still_serving(cluster)

    def test_unknown_frame_type_gets_typed_error(self, cluster, raw_socket):
        raw_socket.sendall(encode_frame({"type": "teleport"}))
        reply = recv_frame(raw_socket)
        assert reply is not None and reply["type"] == "error"
        assert "teleport" in reply["error"]
        _assert_still_serving(cluster)


#: 50 kB of ``[``: inside the fixture's 64 KiB frame budget, far past
#: the JSON decoder's nesting depth (the interpreter's recursion limit).
DEEP_BODY = b"[" * 50_000


class TestDeepNesting:
    """A nesting depth the decoder cannot follow is a malformed frame,
    not a ``RecursionError`` out of the codec."""

    def test_frontend_answers_a_typed_error_and_counts_it(
        self, cluster, raw_socket
    ):
        before = _counters(cluster)["frontend.wire_errors"]
        raw_socket.sendall(HEADER.pack(len(DEEP_BODY)) + DEEP_BODY)
        reply = recv_frame(raw_socket)
        assert reply is not None and reply["type"] == "error"
        assert reply["retryable"] is False
        assert raw_socket.recv(4096) == b""
        assert _counters(cluster)["frontend.wire_errors"] == before + 1
        _assert_still_serving(cluster)

    def test_worker_connection_counts_it_and_ends(self, segment_path, tmp_path):
        config = WorkerConfig(
            segment_path=str(segment_path),
            socket_path=str(tmp_path / "deep.sock"),
        )
        with RunningWorker(config) as rig, rig.connect() as conn:
            conn.sendall(HEADER.pack(len(DEEP_BODY)) + DEEP_BODY)
            assert conn.recv(4096) == b""  # the connection was closed
            stats = rig.stats()
            assert stats["wire_errors"] == 1
            assert rig.serve(["books"])["type"] == "result"
