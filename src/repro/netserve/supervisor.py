"""Worker supervision: the loop that makes the serving tier self-heal.

A :class:`~repro.netserve.cluster.ServingCluster` without supervision
boots its workers once; a SIGKILL'd or wedged worker then stays dead for
the life of the cluster and the frontend sheds that worker's share of
traffic forever.  :class:`WorkerSupervisor` closes that gap.  It runs a
daemon thread in the cluster-owning process that, every
``poll_interval_s``:

* **detects death** — ``Process.is_alive()`` / exitcode, catching
  SIGKILL, OOM kills, and uncaught exceptions;
* **detects hangs** — a heartbeat ``ping`` frame with a hard timeout,
  so a worker that is *alive but not answering* (SIGSTOP'd, deadlocked,
  spinning) is detected too; after ``hang_misses`` consecutive missed
  pings the worker is SIGKILL'd (SIGKILL terminates stopped processes,
  which ``terminate``'s SIGTERM cannot) and treated as dead;
* **respawns** — with exponential backoff per :class:`RestartBudget`,
  unlinking the dead incarnation's stale ``AF_UNIX`` socket path before
  the rebind so the fresh worker can never collide with the corpse's
  file;
* **re-verifies zero-copy** — every respawned worker is probed for its
  :mod:`repro.netserve.memory` mapping report; a worker whose private
  mapping bytes exceed ``mapping_private_fraction`` of the segment is
  counted in ``supervisor.mapping_violations`` (the PR 7 zero-copy
  claim must survive respawns, not just boots);
* **gives up honestly** — a worker that flaps ``crash_loop_budget``
  times inside ``crash_loop_window_s`` is marked permanently
  :attr:`~WorkerStatus.FAILED`; the frontend is told
  (``on_worker_failed``) so its traffic share is rebalanced onto the
  survivors instead of burning retries against a crash loop.

On every successful respawn the frontend is notified
(``on_worker_ready``) so the worker's circuit breaker resets to
half-open — the first real request closes it — rather than waiting out
the breaker's own cooling-off with a healthy worker idle.

:meth:`rolling_restart` is the planned-maintenance primitive built on
the same machinery: restart workers **one at a time** (graceful
``shutdown`` frame → drain → respawn → ready-gate), so a new manifest
generation or config can be picked up with no capacity gap and no
crash-loop accounting.

Counters (in the supervisor's :mod:`repro.obs` registry, surfaced by
:meth:`WorkerSupervisor.stats` and the chaos report):
``supervisor.deaths_detected``, ``supervisor.hangs_detected``,
``supervisor.respawns``, ``supervisor.rolling_restarts``,
``supervisor.crash_loops``, ``supervisor.mapping_violations``, and the
``supervisor.workers_alive`` gauge.
"""

from __future__ import annotations

import contextlib
import os
import socket
import threading
from collections import deque
from dataclasses import dataclass
from enum import Enum
from multiprocessing.process import BaseProcess
from time import monotonic, sleep
from typing import Any, Callable

from repro.netserve.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    WireError,
    recv_frame,
    send_frame,
)
from repro.obs.registry import MetricsRegistry

__all__ = [
    "RestartBudget",
    "SupervisorConfig",
    "WorkerStatus",
    "WorkerSupervisor",
]


@dataclass(frozen=True, slots=True)
class SupervisorConfig:
    """Tuning for one :class:`WorkerSupervisor`.

    Parameters
    ----------
    poll_interval_s:
        How often the supervision loop wakes to check every worker.
    ping_timeout_s:
        Budget for one heartbeat round trip (connect + ping + pong).
        A worker that cannot answer within it records a miss.
    hang_misses:
        Consecutive heartbeat misses before a live-but-silent worker is
        declared hung and SIGKILL'd.  2 (the default) tolerates one
        unlucky probe landing during a long GC pause or batch.  A
        worker is one thread, so a ping that arrives while a batch is
        being served waits for that batch: ``ping_timeout_s ×
        hang_misses`` (2 s by default) is also the longest one batch
        may run before a healthy worker is taken for hung.  A
        ``net_uniq`` batch takes a few milliseconds at most.
    backoff_initial_s / backoff_max_s:
        Exponential respawn backoff: the first failure in a window
        respawns after ``backoff_initial_s``, each further failure
        doubles it, capped at ``backoff_max_s``.
    crash_loop_window_s / crash_loop_budget:
        A worker that fails ``crash_loop_budget`` times within
        ``crash_loop_window_s`` is flapping — likely a poisoned segment
        or bad config a respawn cannot fix — and is marked permanently
        FAILED instead of respawned forever.
    ready_timeout_s:
        How long a respawned worker gets to answer its first ping
        before the respawn itself is counted as another failure.
    verify_mapping / mapping_private_fraction:
        After each respawn, probe the worker's ``stats`` frame and
        check its segment-mapping report: private bytes must stay under
        ``mapping_private_fraction`` of the mapped segment (the
        zero-copy gate).  Violations are counted, not fatal.
    """

    poll_interval_s: float = 0.25
    ping_timeout_s: float = 1.0
    hang_misses: int = 2
    backoff_initial_s: float = 0.1
    backoff_max_s: float = 2.0
    crash_loop_window_s: float = 30.0
    crash_loop_budget: int = 5
    ready_timeout_s: float = 10.0
    verify_mapping: bool = True
    mapping_private_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.ping_timeout_s <= 0:
            raise ValueError("ping_timeout_s must be positive")
        if self.hang_misses < 1:
            raise ValueError("hang_misses must be >= 1")
        if self.backoff_initial_s <= 0:
            raise ValueError("backoff_initial_s must be positive")
        if self.backoff_max_s < self.backoff_initial_s:
            raise ValueError("backoff_max_s must be >= backoff_initial_s")
        if self.crash_loop_window_s <= 0:
            raise ValueError("crash_loop_window_s must be positive")
        if self.crash_loop_budget < 1:
            raise ValueError("crash_loop_budget must be >= 1")
        if self.ready_timeout_s <= 0:
            raise ValueError("ready_timeout_s must be positive")
        if not 0.0 < self.mapping_private_fraction <= 1.0:
            raise ValueError(
                "mapping_private_fraction must be in (0, 1]"
            )


class RestartBudget:
    """Crash-loop accounting for one worker: pure and clock-free, so
    the flap/backoff arithmetic is unit-testable without processes.

    Each failure inside the sliding window doubles the backoff;
    exhausting ``budget`` failures within ``window_s`` means the worker
    is flapping and :meth:`note_failure` returns ``None`` — give up.
    A worker that stays healthy long enough for its failures to age out
    of the window earns its fast initial backoff back.
    """

    __slots__ = ("budget", "window_s", "initial_s", "max_s", "_failures")

    def __init__(
        self,
        budget: int,
        window_s: float,
        initial_s: float,
        max_s: float,
    ) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.window_s = window_s
        self.initial_s = initial_s
        self.max_s = max_s
        self._failures: deque[float] = deque()

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        while self._failures and self._failures[0] <= cutoff:
            self._failures.popleft()

    def failures_in_window(self, now: float) -> int:
        self._prune(now)
        return len(self._failures)

    def note_failure(self, now: float) -> float | None:
        """Record one failure; the backoff before the next respawn, or
        ``None`` when the budget is exhausted (stop respawning)."""
        self._prune(now)
        self._failures.append(now)
        if len(self._failures) >= self.budget:
            return None
        return min(
            self.initial_s * (2.0 ** (len(self._failures) - 1)),
            self.max_s,
        )


class WorkerStatus(Enum):
    """Where one supervised worker is in its lifecycle."""

    #: Alive and answering heartbeats; traffic flows.
    RUNNING = "running"
    #: Dead or hung; a respawn is scheduled after backoff.
    BACKOFF = "backoff"
    #: Crash-loop budget exhausted; never respawned again, traffic
    #: share rebalanced onto the survivors.
    FAILED = "failed"


class _Supervised:
    """One worker's supervision state."""

    __slots__ = (
        "worker_id",
        "socket_path",
        "proc",
        "status",
        "budget",
        "ping_misses",
        "next_spawn_at",
        "restarts",
        "rolling_restarts",
        "last_exitcode",
        "last_failure",
        "mapping_ok",
    )

    def __init__(
        self,
        worker_id: int,
        socket_path: str,
        proc: BaseProcess,
        budget: RestartBudget,
    ) -> None:
        self.worker_id = worker_id
        self.socket_path = socket_path
        self.proc: BaseProcess | None = proc
        self.status = WorkerStatus.RUNNING
        self.budget = budget
        self.ping_misses = 0
        self.next_spawn_at = 0.0
        self.restarts = 0
        self.rolling_restarts = 0
        self.last_exitcode: int | None = None
        self.last_failure: str | None = None
        self.mapping_ok: bool | None = None


class WorkerSupervisor:
    """The supervision loop (see module docstring).

    ``spawn(worker_id) -> BaseProcess`` is supplied by the cluster: it
    forks a fresh worker for that id (same :class:`WorkerConfig`, same
    segment) and keeps the cluster's own process table in sync.  The
    supervisor owns *when* to call it, never *how* a worker is built.
    """

    def __init__(
        self,
        spawn: Callable[[int], BaseProcess],
        config: SupervisorConfig | None = None,
        obs: MetricsRegistry | None = None,
        on_worker_ready: Callable[[int], None] | None = None,
        on_worker_failed: Callable[[int], None] | None = None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.config = config if config is not None else SupervisorConfig()
        self.obs = obs if obs is not None else MetricsRegistry()
        self._spawn = spawn
        self._on_worker_ready = on_worker_ready
        self._on_worker_failed = on_worker_failed
        self._max_frame_bytes = max_frame_bytes
        self._entries: list[_Supervised] = []
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        for name, help_text in (
            ("supervisor.deaths_detected", "Workers found exited"),
            ("supervisor.hangs_detected", "Workers alive but not answering"),
            ("supervisor.respawns", "Successful crash-recovery respawns"),
            ("supervisor.rolling_restarts", "Planned one-at-a-time restarts"),
            ("supervisor.crash_loops", "Workers retired for flapping"),
            ("supervisor.respawn_failures", "Respawns that never got ready"),
            ("supervisor.mapping_violations", "Respawns that lost zero-copy"),
        ):
            self.obs.counter(name, help=help_text)
        self.obs.gauge(
            "supervisor.workers_alive", help="Workers currently RUNNING"
        )

    # ---------------------------------------------------------- #
    # Lifecycle

    def watch(
        self, worker_id: int, socket_path: str, proc: BaseProcess
    ) -> None:
        """Register one already-running worker for supervision."""
        config = self.config
        with self._lock:
            self._entries.append(
                _Supervised(
                    worker_id,
                    socket_path,
                    proc,
                    RestartBudget(
                        config.crash_loop_budget,
                        config.crash_loop_window_s,
                        config.backoff_initial_s,
                        config.backoff_max_s,
                    ),
                )
            )

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="netserve-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop supervising.  Must run before cluster teardown, or the
        loop would faithfully resurrect every worker being stopped."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.config.ready_timeout_s + 5.0)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.config.poll_interval_s):
            self._tick()

    # ---------------------------------------------------------- #
    # The supervision tick

    def _tick(self) -> None:
        with self._lock:
            if self._stop.is_set():
                return
            now = monotonic()
            for entry in self._entries:
                if entry.status is WorkerStatus.FAILED:
                    continue
                if entry.status is WorkerStatus.BACKOFF:
                    if now >= entry.next_spawn_at:
                        self._respawn(entry)
                    continue
                proc = entry.proc
                if proc is None or not proc.is_alive():
                    entry.last_exitcode = (
                        proc.exitcode if proc is not None else None
                    )
                    self.obs.counter("supervisor.deaths_detected").inc()
                    self._note_failure(entry, "exit")
                    continue
                if self._ping(entry.socket_path, self.config.ping_timeout_s):
                    entry.ping_misses = 0
                    continue
                entry.ping_misses += 1
                if entry.ping_misses >= self.config.hang_misses:
                    # Alive but silent: SIGSTOP'd, deadlocked, or
                    # spinning.  SIGKILL is the only signal a stopped
                    # process cannot ignore or defer.
                    self.obs.counter("supervisor.hangs_detected").inc()
                    self._kill(entry)
                    self._note_failure(entry, "hang")
            self.obs.gauge("supervisor.workers_alive").set(
                float(
                    sum(
                        1
                        for entry in self._entries
                        if entry.status is WorkerStatus.RUNNING
                    )
                )
            )

    def _ping(self, path: str, timeout_s: float) -> bool:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                probe.settimeout(timeout_s)
                probe.connect(path)
                send_frame(probe, {"type": "ping"}, self._max_frame_bytes)
                reply = recv_frame(probe, self._max_frame_bytes)
            return reply is not None and reply.get("type") == "pong"
        except (OSError, WireError):
            return False

    def _kill(self, entry: _Supervised) -> None:
        proc = entry.proc
        if proc is None:
            return
        with contextlib.suppress(OSError, ValueError):
            proc.kill()
        proc.join(timeout=5.0)
        entry.last_exitcode = proc.exitcode

    def _note_failure(self, entry: _Supervised, reason: str) -> None:
        entry.last_failure = reason
        entry.ping_misses = 0
        delay = entry.budget.note_failure(monotonic())
        if delay is None:
            entry.status = WorkerStatus.FAILED
            self.obs.counter("supervisor.crash_loops").inc()
            self._notify(self._on_worker_failed, entry.worker_id)
            return
        entry.status = WorkerStatus.BACKOFF
        entry.next_spawn_at = monotonic() + delay

    def _respawn(self, entry: _Supervised) -> None:
        # The dead incarnation's socket file would make the fresh bind
        # fail (and meanwhile routes frontend connects into ECONNREFUSED
        # against a corpse) — unlink it before the rebind.
        with contextlib.suppress(OSError):
            os.unlink(entry.socket_path)
        try:
            proc = self._spawn(entry.worker_id)
        except OSError:
            self.obs.counter("supervisor.respawn_failures").inc()
            self._note_failure(entry, "spawn")
            return
        entry.proc = proc
        if not self._await_ready(entry):
            self.obs.counter("supervisor.respawn_failures").inc()
            self._kill(entry)
            self._note_failure(entry, "boot")
            return
        entry.status = WorkerStatus.RUNNING
        entry.ping_misses = 0
        entry.restarts += 1
        self.obs.counter("supervisor.respawns").inc()
        self._verify_mapping(entry)
        self._notify(self._on_worker_ready, entry.worker_id)

    def _await_ready(self, entry: _Supervised) -> bool:
        deadline = monotonic() + self.config.ready_timeout_s
        while monotonic() < deadline and not self._stop.is_set():
            proc = entry.proc
            if proc is None or not proc.is_alive():
                # Died before ever answering: no point waiting out the
                # whole ready window against a corpse.
                if proc is not None:
                    entry.last_exitcode = proc.exitcode
                return False
            if self._ping(entry.socket_path, self.config.ping_timeout_s):
                return True
            sleep(0.05)
        return False

    def _verify_mapping(self, entry: _Supervised) -> None:
        """Re-assert the zero-copy claim on the respawned worker."""
        if not self.config.verify_mapping:
            return
        stats = self._probe_stats(entry.socket_path)
        if stats is None:
            return
        mapping = stats.get("segment_mapping")
        segment_bytes = stats.get("segment_bytes")
        if not isinstance(mapping, dict) or not isinstance(
            segment_bytes, (int, float)
        ):
            entry.mapping_ok = None  # smaps unavailable on this platform
            return
        private = mapping.get("private", 0)
        budget = self.config.mapping_private_fraction * float(segment_bytes)
        entry.mapping_ok = bool(private <= budget)
        if not entry.mapping_ok:
            self.obs.counter("supervisor.mapping_violations").inc()

    def _probe_stats(self, path: str) -> dict[str, Any] | None:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                probe.settimeout(self.config.ping_timeout_s)
                probe.connect(path)
                send_frame(probe, {"type": "stats"}, self._max_frame_bytes)
                return recv_frame(probe, self._max_frame_bytes)
        except (OSError, WireError):
            return None

    def _notify(
        self, callback: Callable[[int], None] | None, worker_id: int
    ) -> None:
        if callback is None:
            return
        try:
            callback(worker_id)
        except Exception:  # noqa: BLE001 — a frontend that cannot be
            # told is degraded, not fatal: its breaker recovers on its
            # own after reset_after_ms.
            pass

    # ---------------------------------------------------------- #
    # Planned restarts

    def restart_worker(self, worker_id: int, graceful: bool = True) -> int:
        """Restart one worker deliberately; returns the new pid.

        A planned restart does **not** count against the crash-loop
        budget: restarting every worker to pick up a new manifest
        generation must not retire the fleet.
        """
        with self._lock:
            entry = self._entry(worker_id)
            if entry.status is WorkerStatus.FAILED:
                raise RuntimeError(
                    f"worker {worker_id} is permanently failed"
                )
            proc = entry.proc
            if graceful and proc is not None and proc.is_alive():
                with contextlib.suppress(OSError, WireError):
                    with socket.socket(
                        socket.AF_UNIX, socket.SOCK_STREAM
                    ) as sock:
                        sock.settimeout(self.config.ping_timeout_s)
                        sock.connect(entry.socket_path)
                        send_frame(
                            sock, {"type": "shutdown"}, self._max_frame_bytes
                        )
                        recv_frame(sock, self._max_frame_bytes)
            if proc is not None:
                proc.join(timeout=self.config.ready_timeout_s)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover — escalation
                    proc.kill()
                    proc.join(timeout=5.0)
            with contextlib.suppress(OSError):
                os.unlink(entry.socket_path)
            entry.proc = self._spawn(worker_id)
            if not self._await_ready(entry):
                self._kill(entry)
                self._note_failure(entry, "boot")
                raise RuntimeError(
                    f"worker {worker_id} did not come back after a "
                    "planned restart"
                )
            entry.status = WorkerStatus.RUNNING
            entry.ping_misses = 0
            entry.rolling_restarts += 1
            self.obs.counter("supervisor.rolling_restarts").inc()
            self._verify_mapping(entry)
            self._notify(self._on_worker_ready, worker_id)
            proc = entry.proc
            assert proc is not None and proc.pid is not None
            return proc.pid

    def rolling_restart(self) -> list[int]:
        """Restart every non-failed worker one at a time; new pids.

        At most one worker is down at any moment, so capacity never
        drops by more than one worker's share — the primitive a
        zero-gap manifest or binary rollout builds on.
        """
        pids = []
        for worker_id in [e.worker_id for e in self._entries]:
            with self._lock:
                if self._entry(worker_id).status is WorkerStatus.FAILED:
                    continue
            pids.append(self.restart_worker(worker_id, graceful=True))
        return pids

    # ---------------------------------------------------------- #
    # Introspection

    def _entry(self, worker_id: int) -> _Supervised:
        for entry in self._entries:
            if entry.worker_id == worker_id:
                return entry
        raise KeyError(f"no supervised worker {worker_id}")

    def running_workers(self) -> list[tuple[int, int]]:
        """``(worker_id, pid)`` for every RUNNING worker (chaos targets)."""
        with self._lock:
            return [
                (entry.worker_id, entry.proc.pid)
                for entry in self._entries
                if entry.status is WorkerStatus.RUNNING
                and entry.proc is not None
                and entry.proc.pid is not None
                and entry.proc.is_alive()
            ]

    def all_running(self) -> bool:
        """True when every supervised worker is RUNNING (none failed,
        none waiting out a backoff)."""
        with self._lock:
            return bool(self._entries) and all(
                entry.status is WorkerStatus.RUNNING
                and entry.proc is not None
                and entry.proc.is_alive()
                for entry in self._entries
            )

    def stats(self) -> dict[str, Any]:
        """Supervision counters + per-worker state, for reports."""
        with self._lock:
            counters = {
                metric.name: metric.value
                for metric in self.obs.collect()
                if metric.name.startswith("supervisor.")
            }
            workers = [
                {
                    "worker_id": entry.worker_id,
                    "status": entry.status.value,
                    "pid": entry.proc.pid if entry.proc is not None else None,
                    "restarts": entry.restarts,
                    "rolling_restarts": entry.rolling_restarts,
                    "last_exitcode": entry.last_exitcode,
                    "last_failure": entry.last_failure,
                    "mapping_ok": entry.mapping_ok,
                }
                for entry in self._entries
            ]
        return {"counters": counters, "workers": workers}
