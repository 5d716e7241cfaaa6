"""``ServingCluster`` — boot, supervise, and tear down the whole tier.

One cluster is: N worker processes (each :func:`~repro.netserve.worker
.run_worker` over the **same** packed segment file), one
:class:`~repro.netserve.frontend.Frontend`, and the runtime directory
holding the workers' Unix sockets.  Workers are started with the
``fork`` start method where available, so the segment mapping
established by the parent's build step is shared copy-on-write and the
mmap'd file pages are shared, period.

The frontend can run two ways:

* **in-process** (default) — on a daemon thread with its own event
  loop.  Right for tests: one process to debug, nothing to orphan.
* **as a process** (``frontend_process=True``) — forked like a worker,
  publishing its bound port through a file in the runtime directory.
  Right for benchmarks: the load generator's client loop and the
  frontend's relay loop stop sharing one GIL, so measured scaling is
  the workers', not the harness's.

``ServingCluster`` is a context manager; ``stop()`` is idempotent and
**graceful by design**: stop supervising (so nothing resurrects what is
being torn down), stop admitting (frontend down first), then drain —
every worker gets a ``shutdown`` frame, serves what it has already
read, flushes the replies, and exits; ``terminate``/``kill``
are escalation for processes that ignore all of that, never the first
move.

With ``supervise=True`` (the default) the cluster runs a
:class:`~repro.netserve.supervisor.WorkerSupervisor` that detects dead
*and hung* workers, respawns them with backoff, retires crash-loopers,
and feeds recovery state back into the frontend's per-worker circuit
breakers — the self-healing layer the chaos harness
(:mod:`repro.netserve.chaos`) drives under fire.
:meth:`ServingCluster.rolling_restart` restarts workers one at a time
(e.g. to pick up a new manifest generation) with no capacity gap.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.netserve.frontend import Frontend, FrontendConfig
from repro.netserve.supervisor import SupervisorConfig, WorkerSupervisor
from repro.netserve.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    recv_frame,
    send_frame,
)
from repro.netserve.worker import (
    DEFAULT_RELOAD_CHECK_INTERVAL_S,
    WorkerConfig,
    run_worker,
)
from repro.resilience.admission import AdmissionConfig
from repro.resilience.breaker import BreakerConfig

__all__ = ["ClusterConfig", "ServingCluster"]


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Shape of one serving cluster (see class docstring).

    Each worker keeps a private decoded-node cache of
    ``DEFAULT_CACHE_BYTES`` for every segment it has open.
    """

    segment_path: str
    num_workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    conns_per_worker: int = 2
    worker_timeout_s: float = 10.0
    client_idle_timeout_s: float | None = 30.0
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    slots: int = 4
    reserve_micros: int = 1
    default_deadline_ms: float | None = None
    admission: AdmissionConfig | None = None
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    runtime_dir: str | None = None
    boot_timeout_s: float = 30.0
    frontend_process: bool = False
    # Batched-pipeline knobs (PR 9), all off-by-default-equivalent:
    # max_batch=1 serves every request as a batch of one, coalesce off
    # and cache_entries=0 keep the frontend a pure relay.
    max_batch: int = 1
    worker_queue_depth: int = 1024
    reload_check_interval_s: float = DEFAULT_RELOAD_CHECK_INTERVAL_S
    coalesce: bool = False
    cache_entries: int = 0
    # Self-healing (PR 10): supervise by default — a production tier
    # that cannot survive a worker death is not a tier.  supervisor
    # None means SupervisorConfig() defaults; drain_timeout_s bounds
    # the graceful flush of each worker's backlog at stop().
    supervise: bool = True
    supervisor: SupervisorConfig | None = None
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.drain_timeout_s < 0:
            raise ValueError("drain_timeout_s must be >= 0")

    def worker_config(self, worker_id: int, socket_path: str) -> WorkerConfig:
        return WorkerConfig(
            segment_path=self.segment_path,
            socket_path=socket_path,
            worker_id=worker_id,
            slots=self.slots,
            reserve_micros=self.reserve_micros,
            default_deadline_ms=self.default_deadline_ms,
            max_frame_bytes=self.max_frame_bytes,
            max_batch=self.max_batch,
            queue_depth=self.worker_queue_depth,
            reload_check_interval_s=self.reload_check_interval_s,
            drain_timeout_s=self.drain_timeout_s,
        )

    def frontend_config(self) -> FrontendConfig:
        return FrontendConfig(
            host=self.host,
            port=self.port,
            conns_per_worker=self.conns_per_worker,
            worker_timeout_s=self.worker_timeout_s,
            client_idle_timeout_s=self.client_idle_timeout_s,
            max_frame_bytes=self.max_frame_bytes,
            reserve_micros=self.reserve_micros,
            admission=self.admission,
            breaker=self.breaker,
            coalesce=self.coalesce,
            cache_entries=self.cache_entries,
        )


def _mp_context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX fallback
        return multiprocessing.get_context("spawn")


def _run_frontend_process(
    config: ClusterConfig, worker_sockets: list[str], port_path: str
) -> None:
    """Child entry: run the frontend forever, publishing its port.

    SIGTERM (the cluster's graceful-stop signal) closes the listener
    and every connection through :meth:`Frontend.stop` — stop admitting
    first is what makes the workers' drain finite.
    """
    # As in ``run_worker``: keep the pages inherited through ``fork``
    # shared.
    gc.freeze()
    import asyncio
    import signal

    async def main() -> None:
        frontend = Frontend(worker_sockets, config.frontend_config())
        await frontend.start()
        tmp = port_path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(str(frontend.port))
        os.replace(tmp, port_path)
        loop = asyncio.get_running_loop()
        stopped = asyncio.Event()
        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGTERM, stopped.set)
        serve = asyncio.ensure_future(frontend.serve_forever())
        stop_wait = asyncio.ensure_future(stopped.wait())
        try:
            await asyncio.wait(
                {serve, stop_wait}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            serve.cancel()
            stop_wait.cancel()
            await asyncio.gather(serve, stop_wait, return_exceptions=True)
            await frontend.stop()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(main())


class ServingCluster:
    """Lifecycle owner for workers + frontend (see module docstring)."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.processes: list[multiprocessing.process.BaseProcess] = []
        self.worker_sockets: list[str] = []
        self.port: int | None = None
        self.frontend: Frontend | None = None
        self.supervisor: WorkerSupervisor | None = None
        self._ctx: multiprocessing.context.BaseContext | None = None
        self._frontend_proc: multiprocessing.process.BaseProcess | None = None
        self._loop: Any = None
        self._thread: threading.Thread | None = None
        self._runtime_dir: str | None = None
        self._owns_runtime_dir = False
        self._started = False

    # ---------------------------------------------------------- #

    def __enter__(self) -> ServingCluster:
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        assert self.port is not None, "cluster not started"
        return (self.config.host, self.port)

    def start(self) -> None:
        """Boot workers, wait until each answers ``ping``, then the
        frontend; returns with :attr:`port` bound and serving."""
        if self._started:
            return
        config = self.config
        if config.runtime_dir is not None:
            self._runtime_dir = config.runtime_dir
            os.makedirs(self._runtime_dir, exist_ok=True)
        else:
            self._runtime_dir = tempfile.mkdtemp(prefix="netserve-")
            self._owns_runtime_dir = True
        ctx = _mp_context()
        self._ctx = ctx
        deadline = time.monotonic() + config.boot_timeout_s
        try:
            for worker_id in range(config.num_workers):
                path = os.path.join(self._runtime_dir, f"w{worker_id}.sock")
                # A previous incarnation (crashed cluster, SIGKILL'd
                # worker) may have left its socket file behind in a
                # caller-provided runtime dir; the fresh worker's bind
                # must never collide with the corpse's path.
                with contextlib.suppress(OSError):
                    os.unlink(path)
                self.worker_sockets.append(path)
                self.processes.append(self._spawn_worker(worker_id))
            for worker_id, path in enumerate(self.worker_sockets):
                self._await_worker(worker_id, path, deadline)
            if config.frontend_process:
                self._start_frontend_process(ctx, deadline)
            else:
                self._start_frontend_thread()
            if config.supervise:
                self._start_supervisor()
            self._started = True
        except BaseException:
            # A mid-boot failure must not leak already-forked workers
            # or their socket files: stop() reaps both.
            self.stop()
            raise

    def _spawn_worker(
        self, worker_id: int
    ) -> multiprocessing.process.BaseProcess:
        """Fork one worker (boot and every supervised respawn)."""
        assert self._ctx is not None
        proc = self._ctx.Process(
            target=run_worker,
            args=(
                self.config.worker_config(
                    worker_id, self.worker_sockets[worker_id]
                ),
            ),
            name=f"netserve-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        if worker_id < len(self.processes):
            self.processes[worker_id] = proc
        return proc

    def _await_worker(
        self,
        worker_id: int,
        path: str,
        deadline: float,
    ) -> None:
        proc = self.processes[worker_id]
        while True:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.settimeout(2.0)
                    s.connect(path)
                    send_frame(s, {"type": "ping"})
                    reply = recv_frame(s)
                if reply is not None and reply.get("type") == "pong":
                    return
            except OSError:
                pass
            if not proc.is_alive():
                # Dead before its ping gate: a clear boot error now,
                # not a TimeoutError after the whole boot deadline.
                raise RuntimeError(
                    f"worker {worker_id} died during boot "
                    f"(exitcode {proc.exitcode}) before answering ping"
                )
            if time.monotonic() > deadline:
                raise TimeoutError(f"worker socket {path} never became ready")
            time.sleep(0.05)

    def _start_frontend_thread(self) -> None:
        import asyncio

        loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            asyncio.set_event_loop(loop)
            frontend = Frontend(
                self.worker_sockets, self.config.frontend_config()
            )
            try:
                loop.run_until_complete(frontend.start())
            except BaseException as exc:  # noqa: BLE001 — reported to caller
                failure.append(exc)
                started.set()
                return
            self.frontend = frontend
            self.port = frontend.port
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(frontend.stop())
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._loop = loop
        self._thread = threading.Thread(
            target=runner, name="netserve-frontend", daemon=True
        )
        self._thread.start()
        started.wait(self.config.boot_timeout_s)
        if failure:
            raise failure[0]
        if self.port is None:
            raise TimeoutError("frontend never bound its port")

    # ---------------------------------------------------------- #
    # Supervision

    def _start_supervisor(self) -> None:
        supervisor = WorkerSupervisor(
            spawn=self._spawn_worker,
            config=self.config.supervisor,
            on_worker_ready=self._notify_worker_ready,
            on_worker_failed=self._notify_worker_failed,
            max_frame_bytes=self.config.max_frame_bytes,
        )
        for worker_id, (path, proc) in enumerate(
            zip(self.worker_sockets, self.processes)
        ):
            supervisor.watch(worker_id, path, proc)
        supervisor.start()
        self.supervisor = supervisor

    def _notify_worker_ready(self, worker_id: int) -> None:
        self._notify_frontend("worker_ready", worker_id)

    def _notify_worker_failed(self, worker_id: int) -> None:
        self._notify_frontend("worker_failed", worker_id)

    def _notify_frontend(self, op: str, worker_id: int) -> None:
        """Tell the frontend about a worker state change — a direct
        call onto its loop in thread mode, an ``admin`` frame over TCP
        when it runs as its own process.  Best-effort either way: a
        frontend that cannot be told still recovers through the
        breaker's own half-open cycle."""
        frontend = self.frontend
        if frontend is not None and self._loop is not None:
            method = (
                frontend.mark_worker_ready
                if op == "worker_ready"
                else frontend.mark_worker_failed
            )
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(method, worker_id)
            return
        if self.port is None:
            return
        with contextlib.suppress(OSError, Exception):
            with socket.create_connection(
                (self.config.host, self.port), timeout=2.0
            ) as conn:
                send_frame(
                    conn,
                    {"type": "admin", "op": op, "worker_id": worker_id},
                )
                recv_frame(conn)

    def rolling_restart(self) -> list[int]:
        """Restart workers one at a time (graceful drain each); the new
        pids.  Requires supervision — the restart machinery is the
        supervisor's."""
        if self.supervisor is None:
            raise RuntimeError(
                "rolling_restart requires a supervised cluster "
                "(ClusterConfig.supervise=True)"
            )
        return self.supervisor.rolling_restart()

    def _start_frontend_process(
        self, ctx: multiprocessing.context.BaseContext, deadline: float
    ) -> None:
        assert self._runtime_dir is not None
        port_path = os.path.join(self._runtime_dir, "frontend.port")
        proc = ctx.Process(
            target=_run_frontend_process,
            args=(self.config, self.worker_sockets, port_path),
            name="netserve-frontend",
            daemon=True,
        )
        proc.start()
        self._frontend_proc = proc
        while True:
            if os.path.exists(port_path):
                with open(port_path, encoding="ascii") as fh:
                    self.port = int(fh.read().strip())
                return
            if not proc.is_alive():
                raise RuntimeError("frontend process died during boot")
            if time.monotonic() > deadline:
                raise TimeoutError("frontend never published its port")
            time.sleep(0.05)

    # ---------------------------------------------------------- #

    def stop(self) -> None:
        """Graceful drain, then teardown; safe to call twice.

        Ordering is the whole point: (1) stop supervising, or the loop
        would resurrect the workers being stopped; (2) stop admitting —
        the frontend goes down first (SIGTERM is its graceful-stop
        signal in process mode), so no new work reaches a worker;
        (3) drain — each worker gets a ``shutdown`` frame, serves what
        it has already read, flushes the replies, and exits; (4) escalate — ``terminate`` then ``kill`` only for
        processes that ignored all of that; (5) sweep socket files the
        escalation path could not let workers unlink themselves.
        """
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self._thread is not None and self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._thread = None
            self._loop = None
            self.frontend = None
        if self._frontend_proc is not None:
            self._frontend_proc.terminate()
            self._frontend_proc.join(timeout=5.0)
            if self._frontend_proc.is_alive():  # pragma: no cover
                self._frontend_proc.kill()
                self._frontend_proc.join(timeout=5.0)
            self._frontend_proc = None
        for path in self.worker_sockets:
            with contextlib.suppress(OSError, Exception):
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.settimeout(1.0)
                    s.connect(path)
                    send_frame(s, {"type": "shutdown"})
                    recv_frame(s)
        drain_grace = self.config.drain_timeout_s + 5.0
        for proc in self.processes:
            proc.join(timeout=drain_grace)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join(timeout=5.0)
        # Workers unlink their own socket on a clean exit; sweep what
        # the escalation path (or a SIGKILL'd incarnation) left behind.
        for path in self.worker_sockets:
            with contextlib.suppress(OSError):
                os.unlink(path)
        self.processes.clear()
        self.worker_sockets.clear()
        self.port = None
        if self._owns_runtime_dir and self._runtime_dir is not None:
            shutil.rmtree(self._runtime_dir, ignore_errors=True)
        self._runtime_dir = None
        self._owns_runtime_dir = False
        self._started = False
        self._ctx = None
