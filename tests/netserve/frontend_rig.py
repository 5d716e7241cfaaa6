"""Frontends and workers run inside the test process, over real sockets.

:class:`LoopThread` runs an event loop on a daemon thread, so a test
can drive a frontend with blocking clients.  :class:`ThreadWorkers`
serves real worker objects on ``AF_UNIX`` sockets from threads, with
two fault hooks: ``hold`` parks every serve batch until ``release``,
and :meth:`ThreadWorkers.tear_next_reply` makes the next result reply
reach the frontend half-written before its connection closes, as when
a worker dies while writing.  A relay in front of each worker does the
tearing, so the worker itself runs as it does in production.
``served`` logs (worker id, request id) for every request a worker
serves, before its reply is written.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time

from repro.netserve.frontend import Frontend
from repro.netserve.wire import HEADER
from repro.netserve.worker import WorkerConfig

from tests.netserve.worker_rig import RunningWorker


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
    """``count`` workers over one segment, each served from a thread
    behind a :class:`TearingRelay`; ``sockets`` are the relays'."""

    def __init__(self, segment_path, directory, count=2):
        self.hold = threading.Event()
        self.entered = threading.Event()
        self.release = threading.Event()
        self._tear = 0
        self._tear_lock = threading.Lock()
        self.served = []
        self.workers = []
        self.relays = []
        self.sockets = []
        try:
            for worker_id in range(count):
                config = WorkerConfig(
                    segment_path=str(segment_path),
                    socket_path=str(directory / f"worker-{worker_id}.real.sock"),
                    worker_id=worker_id,
                )
                self.workers.append(RunningWorker(config, wrap=self._gate(worker_id)))
                path = str(directory / f"worker-{worker_id}.sock")
                self.relays.append(TearingRelay(path, config.socket_path, self._take_tear))
                self.sockets.append(path)
        except BaseException:
            self.close()
            raise

    def _gate(self, worker_id):
        def wrap(original):
            def serve_batch(requests, **kwargs):
                self.served.extend((worker_id, r.request_id) for r in requests)
                if self.hold.is_set():
                    self.entered.set()
                    assert self.release.wait(10.0), "held batch never released"
                return original(requests, **kwargs)

            return serve_batch

        return wrap

    def tear_next_reply(self):
        with self._tear_lock:
            self._tear += 1

    def _take_tear(self):
        with self._tear_lock:
            tear, self._tear = self._tear > 0, max(self._tear - 1, 0)
        return tear

    def close(self):
        self.release.set()
        for relay in self.relays:
            relay.close()
        for worker in self.workers:
            worker.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TearingRelay:
    """An ``AF_UNIX`` relay in front of one worker.  It copies bytes
    both ways, one thread per direction, and when ``take_tear()`` says
    so it passes on only the first half of the next ``result`` frame
    coming back, then closes both sides: a worker dying mid-write."""

    def __init__(self, path, target, take_tear):
        self.target = target
        self.take_tear = take_tear
        self._stop = threading.Event()
        self._sockets = []
        self.listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.listener.bind(path)
        self.listener.listen(16)
        self.listener.settimeout(0.05)
        self.thread = threading.Thread(target=self._accept_loop, daemon=True)
        self.thread.start()

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                client, _ = self.listener.accept()
            except socket.timeout:
                continue
            client.settimeout(None)
            upstream = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                upstream.connect(self.target)
            except OSError:
                _hang_up(client)
                continue
            self._sockets += [client, upstream]
            for pump in (self._up, self._down):
                threading.Thread(target=pump, args=(client, upstream), daemon=True).start()

    def _up(self, client, upstream):
        try:
            while chunk := client.recv(65536):
                upstream.sendall(chunk)
        except OSError:
            pass
        finally:
            _hang_up(upstream)

    def _down(self, client, upstream):
        try:
            while True:
                frame = read_raw(upstream)
                result = json.loads(frame[HEADER.size:]).get("type") == "result"
                if result and self.take_tear():
                    client.sendall(frame[: HEADER.size + (len(frame) - HEADER.size) // 2])
                    return
                client.sendall(frame)
        except (OSError, AssertionError):  # read_raw asserts on EOF
            pass
        finally:
            _hang_up(client)
            _hang_up(upstream)

    def close(self):
        self._stop.set()
        self.thread.join(5.0)
        assert not self.thread.is_alive(), "relay never stopped"
        self.listener.close()
        for sock in self._sockets:
            _hang_up(sock)


def _hang_up(sock):
    """Close ``sock``, waking any thread blocked reading it."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    sock.close()


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
