"""The selector-loop worker against the threaded worker it replaced.

``reference_worker.py`` is the threaded worker (an accept thread, one
thread per connection, a dispatcher thread behind a bounded queue),
kept verbatim.  Both are driven, one after the other, over real sockets
with one script: serves with and without a ``request_id``, a degraded
serve, a schema error, a serve with no request, an unknown frame type,
``ping``; an oversized length prefix, a non-JSON body and a frame torn
at EOF, each on a connection of its own; a batch that raises, where
only the poisoned item may get an error frame; ``stats``; and a
``shutdown`` that lands while one serve is in flight and another is
waiting behind it.  Every reply must be byte-identical and the
counters of the ``stats`` frame equal.

One split differs on purpose.  The threaded worker's dispatcher had
already dequeued the serve waiting behind the held one when the
shutdown arrived, and counted it as a batch; the loop reads the serve
in the same turn as the shutdown, acks the shutdown first, and serves
the serve through the drain.  Both answer it with the same result.
"""

import json
import socket
import time

import pytest

from repro.netserve import worker
from repro.netserve.wire import HEADER, encode_frame

from tests.netserve import reference_worker
from tests.netserve.conftest import requires_af_unix
from tests.netserve.frontend_rig import read_raw, read_to_eof
from tests.netserve.worker_rig import RunningWorker

pytestmark = requires_af_unix

MAX_FRAME = 1 << 16


def _serve(query, request_id=None, **extra):
    request = {"query": query, **extra}
    if request_id is not None:
        request["request_id"] = request_id
    return encode_frame({"type": "serve", "request": request})


#: Closed-loop steps on one connection: (label, frame).
SCRIPT = [
    ("serve", _serve(["cheap", "books"], "r1")),
    ("serve, no request_id", _serve(["used", "books"])),
    ("serve, other order", _serve(["books", "cheap", "cheap"], "r2")),
    ("degraded", _serve(["books"], "r3", deadline_ms=1e-9)),
    ("schema error", _serve("books", "r4")),
    ("serve without request", encode_frame({"type": "serve"})),
    ("unknown type", encode_frame({"type": "teleport"})),
    ("ping", encode_frame({"type": "ping"})),
]

#: Frames that end their connection: everything the worker sends back
#: before it closes (nothing).
FAULTS = [
    ("oversized", HEADER.pack(MAX_FRAME + 1)),
    ("non-JSON", HEADER.pack(11) + b"not json {{"),
    ("torn at eof", encode_frame({"type": "ping"})[:6]),
]

#: ``stats`` fields that are counters or settings, not clocks or memory.
STATS_FIELDS = (
    "worker_id", "served", "errors", "wire_errors", "degraded",
    "generation", "batching", "drain", "segment_bytes",
)


def _poisonable(serve_batch):
    def poisonable_serve_batch(requests):
        if any("poison" in r.query.tokens for r in requests):
            raise RuntimeError("poisoned batch")
        return serve_batch(requests)

    return poisonable_serve_batch


def _queued(rig, count):
    """Until ``count`` serves wait behind the held batch.  The threaded
    worker queues them on its connection threads; the loop reads them
    from its socket buffers on its next turn, so needs no wait."""
    pending = getattr(rig.worker, "_queue", None)
    if pending is None:
        return
    deadline = time.monotonic() + 5.0
    while pending.qsize() < count:
        assert time.monotonic() < deadline, "serves never queued"
        time.sleep(0.001)


def _stats(rig, conn):
    stats = rig.request({"type": "stats"}, conn)
    del stats["batching"]["queue_wait_ms"]
    return {field: stats[field] for field in STATS_FIELDS} | {
        "serve_count": stats["serve_ms"]["count"]
    }


def drive(rig):
    """The script's transcript of (label, reply bytes), the counters of
    its ``stats`` frame, and the worker's counters once it has exited."""
    transcript = []
    with rig.connect() as main, rig.connect() as good, rig.connect() as bad:
        for conn in (good, bad):
            assert rig.request({"type": "ping"}, conn)["type"] == "pong"
        for label, frame in SCRIPT:
            main.sendall(frame)
            transcript.append((label, read_raw(main)))
        for label, frame in FAULTS:
            with rig.connect() as conn:
                conn.sendall(frame)
                if label == "torn at eof":
                    conn.shutdown(socket.SHUT_WR)
                transcript.append((label, read_to_eof(conn)))
        # A batch of two that raises: each item is re-served alone.
        rig.hold_next()
        main.sendall(_serve(["held", "books"], "held"))
        assert rig.entered.wait(5.0), "the held serve never reached its batch"
        good.sendall(_serve(["good", "books"], "good"))
        _queued(rig, 1)
        bad.sendall(_serve(["poison", "books"], "poison"))
        _queued(rig, 2)
        rig.release.set()
        for label, conn in (("held", main), ("good", good), ("poison", bad)):
            transcript.append((label, read_raw(conn)))
        stats = _stats(rig, main)

    # A shutdown while one serve is in flight and one waits behind it.
    with rig.connect() as a, rig.connect() as b, rig.connect() as c:
        for conn in (a, b, c):
            assert rig.request({"type": "ping"}, conn)["type"] == "pong"
        rig.hold_next()
        a.sendall(_serve(["books"], "in-flight"))
        assert rig.entered.wait(5.0), "the in-flight serve never reached its batch"
        b.sendall(_serve(["cheap", "books"], "behind"))
        _queued(rig, 1)
        c.sendall(encode_frame({"type": "shutdown"}))
        rig.release.set()
        for label, conn in (("ack", c), ("in-flight", a), ("behind", b)):
            transcript.append((label, read_raw(conn)))
            transcript.append((f"{label}, then", read_to_eof(conn)))
    rig.join()
    final = {
        name: getattr(rig.worker, name)
        for name in (
            "served", "errors", "wire_errors", "queue_rejects",
            "batches", "drained", "drain_errors",
        )
    }
    return transcript, stats, final, list(rig.batches)


@pytest.mark.parametrize("max_batch", [1, 4])
def test_the_loop_worker_matches_the_threaded_worker(segment_path, tmp_path, max_batch):
    results = {}
    for name, module in (("reference", reference_worker), ("loop", worker)):
        config = module.WorkerConfig(
            segment_path=str(segment_path),
            socket_path=str(tmp_path / f"{name}.sock"),
            max_frame_bytes=MAX_FRAME,
            max_batch=max_batch,
        )
        rig = RunningWorker(config, worker_cls=module._Worker, wrap=_poisonable)
        try:
            results[name] = drive(rig)
        finally:
            rig.stop()
    reference, stats, final, batches = results["reference"]
    replies, new_stats, new_final, new_batches = results["loop"]
    assert [label for label, _ in replies] == [label for label, _ in reference]
    for (label, got), (_, want) in zip(replies, reference):
        assert got == want, label
    assert new_stats == stats
    # The serve behind the in-flight one: a batch there, the drain here.
    assert (final["batches"], final["drained"]) == (new_final["batches"] + 1, 0)
    assert new_final["drained"] == 1
    for counters in (final, new_final):
        del counters["batches"], counters["drained"]
    assert new_final == final
    assert new_batches == batches
    # The script reached what it is for.
    assert stats["wire_errors"] == 6
    assert stats["errors"] == 1
    replied = {label: json.loads(raw[HEADER.size:]) for label, raw in reference if raw}
    assert replied["good"]["type"] == "result"
    assert replied["poison"]["type"] == "error"
    assert replied["poison"]["retryable"] is True
    assert replied["degraded"]["result"]["degraded_reason"] == "deadline"
    assert replied["behind"]["type"] == "result"
    assert replied["ack"] == {"type": "ok"}
    assert stats["batching"]["batch_size"]["max"] == min(max_batch, 2)
