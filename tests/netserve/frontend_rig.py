"""Frontends and workers run inside the test process, over real sockets.

:class:`LoopThread` runs an event loop on a daemon thread, so a test
can drive a frontend with blocking clients.  :class:`ThreadWorkers`
serves real worker objects on ``AF_UNIX`` sockets from threads, with
two fault hooks: ``hold`` parks every serve batch until ``release``,
and :meth:`ThreadWorkers.tear_next_reply` makes the next result reply
go out half-written before its connection closes, as when a worker
dies while writing.  ``served`` logs (worker id, request id) for every
request a worker serves, before its reply is written.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time

from repro.netserve import worker as worker_module
from repro.netserve.frontend import Frontend
from repro.netserve.wire import HEADER, encode_frame
from repro.netserve.worker import WorkerConfig, _Worker


class LoopThread:
    """An event loop running on its own daemon thread."""

    def __init__(self, task_factory=None):
        self.loop = asyncio.new_event_loop()
        if task_factory is not None:
            self.loop.set_task_factory(task_factory)
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def run(self, coro, timeout_s=10.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout_s)

    def close(self):
        async def cancel_rest():
            current = asyncio.current_task()
            rest = [t for t in asyncio.all_tasks() if t is not current]
            for task in rest:
                task.cancel()
            await asyncio.gather(*rest, return_exceptions=True)

        self.run(cancel_rest())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5.0)
        assert not self.thread.is_alive(), "event loop thread never stopped"
        self.loop.close()


@contextlib.contextmanager
def running_frontend(sockets, config, frontend_cls=Frontend, task_factory=None):
    """A started frontend (``frontend_cls``) on its own loop thread."""
    loop = LoopThread(task_factory)
    frontend = frontend_cls(sockets, config)
    try:
        loop.run(frontend.start())
        yield frontend
    finally:
        with contextlib.suppress(Exception):
            loop.run(frontend.stop())
        loop.close()


class ThreadWorkers:
    """``count`` workers over one segment, each served from a thread."""

    def __init__(self, segment_path, directory, count=2):
        self.hold = threading.Event()
        self.entered = threading.Event()
        self.release = threading.Event()
        self._tear = 0
        self._tear_lock = threading.Lock()
        self.served = []
        self.workers = []
        self.threads = []
        self.sockets = []
        self._send_frame = worker_module.send_frame
        worker_module.send_frame = self._maybe_tear
        try:
            for worker_id in range(count):
                path = str(directory / f"worker-{worker_id}.sock")
                config = WorkerConfig(
                    segment_path=str(segment_path), socket_path=path, worker_id=worker_id
                )
                worker = _Worker(config)
                self._gate(worker)
                thread = threading.Thread(target=worker.run, daemon=True)
                thread.start()
                self.workers.append(worker)
                self.threads.append(thread)
                self.sockets.append(path)
            for path in self.sockets:
                _wait_listening(path)
        except BaseException:
            self.close()
            raise

    def _gate(self, worker):
        original = worker.server.serve_batch
        worker_id = worker.config.worker_id

        def serve_batch(requests, **kwargs):
            self.served.extend((worker_id, r.request_id) for r in requests)
            if self.hold.is_set():
                self.entered.set()
                assert self.release.wait(10.0), "held batch never released"
            return original(requests, **kwargs)

        worker.server.serve_batch = serve_batch

    def tear_next_reply(self):
        with self._tear_lock:
            self._tear += 1

    def _maybe_tear(self, sock, payload, max_frame_bytes):
        if payload.get("type") == "result":
            with self._tear_lock:
                tear, self._tear = self._tear > 0, max(self._tear - 1, 0)
            if tear:
                frame = encode_frame(payload, max_frame_bytes)
                sock.sendall(frame[: HEADER.size + (len(frame) - HEADER.size) // 2])
                raise OSError("reply torn mid-frame")
        self._send_frame(sock, payload, max_frame_bytes)

    def close(self):
        self.release.set()
        for worker in self.workers:
            worker._stop.set()
        for thread in self.threads:
            thread.join(5.0)
            assert not thread.is_alive(), "worker thread never stopped"
        worker_module.send_frame = self._send_frame

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _wait_listening(path, timeout_s=5.0):
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


def counter(frontend, name):
    return next((m.value for m in frontend.obs.collect() if m.name == name), 0)


def wait_for(predicate, timeout_s=5.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, f"{what} never held"
        time.sleep(0.002)


def read_exactly(sock, size):
    chunks = []
    while size:
        chunk = sock.recv(size)
        assert chunk, "connection closed mid-frame"
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def read_raw(sock):
    """One raw reply frame, header included."""
    header = read_exactly(sock, HEADER.size)
    (length,) = HEADER.unpack(header)
    return header + read_exactly(sock, length)


def read_to_eof(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
