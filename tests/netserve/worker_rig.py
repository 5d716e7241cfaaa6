"""A worker runs inside the test process; tests speak to it on its socket.

:class:`RunningWorker` builds a worker object and runs its ``run`` loop
on a daemon thread, so a test drives it over a real ``AF_UNIX`` socket
with blocking clients, as the frontend does.  Its only hook inside the
worker is ``server.serve_batch``, the one call every batch and every
drain chunk goes through.  It wraps that call to log each batch's
request ids (``batches``), to park the next batch on demand
(:meth:`hold_next` / ``entered`` / ``release``), and to run a caller's
``serve_batch`` wrapper (``wrap``).  :meth:`stop` ends the worker with a ``shutdown``
frame and joins its thread.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time

from repro.netserve.wire import encode_frame, recv_frame
from repro.netserve.worker import WorkerConfig, _Worker


class RunningWorker:
    """One worker's loop on a daemon thread, behind its socket."""

    def __init__(self, config: WorkerConfig, worker_cls=_Worker, wrap=None):
        self.config = config
        self.path = config.socket_path
        self.batches = []
        self.entered = threading.Event()
        self.release = threading.Event()
        self._hold = False
        self.worker = worker_cls(config)
        inner = self.worker.server.serve_batch
        if wrap is not None:
            inner = wrap(inner)

        def serve_batch(requests, **kwargs):
            self.batches.append([r.request_id for r in requests])
            if self._hold:
                self._hold = False
                self.entered.set()
                assert self.release.wait(10.0), "held batch never released"
            return inner(requests, **kwargs)

        self.worker.server.serve_batch = serve_batch
        self.thread = threading.Thread(target=self.worker.run, daemon=True)
        self.thread.start()
        wait_listening(self.path)

    def hold_next(self):
        """Park the next batch inside ``serve_batch`` until ``release``."""
        self.entered.clear()
        self.release.clear()
        self._hold = True

    def connect(self, timeout_s=10.0):
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(timeout_s)
        conn.connect(self.path)
        return conn

    def request(self, payload, conn=None):
        """One frame, one reply, on ``conn`` or a fresh connection."""
        if conn is not None:
            conn.sendall(encode_frame(payload))
            return recv_frame(conn)
        with self.connect() as fresh:
            fresh.sendall(encode_frame(payload))
            return recv_frame(fresh)

    def stats(self):
        return self.request({"type": "stats"})

    def serve(self, query, request_id=None, conn=None):
        request = {"query": list(query)}
        if request_id is not None:
            request["request_id"] = request_id
        return self.request({"type": "serve", "request": request}, conn)

    def behind_held_batch(self, payloads):
        """Send each of ``payloads`` on its own connection while a
        warm-up serve's batch is held, so the loop reads them all in its
        next turn; returns the held serve's reply and theirs, in order."""
        conns = [self.connect() for _ in range(len(payloads) + 1)]
        try:
            for conn in conns:  # accepted and registered before the hold
                assert self.request({"type": "ping"}, conn)["type"] == "pong"
            held, rest = conns[0], conns[1:]
            self.hold_next()
            held.sendall(encode_frame({"type": "serve", "request": {"query": ["held"]}}))
            assert self.entered.wait(5.0), "the warm-up serve never reached serve_batch"
            for conn, payload in zip(rest, payloads):
                conn.sendall(encode_frame(payload))
            self.release.set()
            return recv_frame(held), [recv_frame(conn) for conn in rest]
        finally:
            for conn in conns:
                conn.close()

    def join(self, timeout_s=10.0):
        self.thread.join(timeout_s)
        assert not self.thread.is_alive(), "worker loop never ended"

    def stop(self, timeout_s=10.0):
        """``shutdown`` frame, acknowledged, then the loop's end."""
        self.release.set()
        if self.thread.is_alive():
            with contextlib.suppress(OSError):
                assert self.request({"type": "shutdown"}) == {"type": "ok"}
        self.join(timeout_s)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def wait_listening(path, timeout_s=5.0):
    """Until a connect to ``path`` succeeds: the path exists from
    ``bind`` on, but a connect is refused until ``listen``."""
    deadline = time.monotonic() + timeout_s
    while True:
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(path)
            return
        except OSError:
            assert time.monotonic() < deadline, f"worker {path} never listened"
            time.sleep(0.01)
        finally:
            probe.close()
