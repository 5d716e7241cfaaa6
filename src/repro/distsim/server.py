"""A multi-core FCFS server for the discrete-event simulation.

Models one machine of the paper's testbed (the experiments ran on a 4-CPU
Xeon): ``cores`` parallel executors fed from a single FCFS queue.  Tracks
cumulative busy time so CPU utilization — one of the headline metrics of
Section VII-B (98% → 42%) — can be reported.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.distsim.events import EventQueue


class Server:
    """FCFS multi-core server attached to an :class:`EventQueue`."""

    def __init__(
        self,
        events: EventQueue,
        cores: int = 4,
        name: str = "",
    ) -> None:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.events = events
        self.cores = cores
        self.name = name
        self._queue: deque[tuple[float, Callable[[], None]]] = deque()
        self._busy_cores = 0
        self.busy_core_time_ms = 0.0
        self._last_change = 0.0
        self.jobs_done = 0

    def submit(self, service_ms: float, on_done: Callable[[], None]) -> None:
        """Enqueue a job needing ``service_ms`` of CPU; ``on_done`` fires
        when it completes."""
        if service_ms < 0:
            raise ValueError("service time must be non-negative")
        self._queue.append((service_ms, on_done))
        self._try_start()

    def _try_start(self) -> None:
        while self._queue and self._busy_cores < self.cores:
            service_ms, on_done = self._queue.popleft()
            self._account()
            self._busy_cores += 1

            def finish(done: Callable[[], None] = on_done) -> None:
                self._account()
                self._busy_cores -= 1
                self.jobs_done += 1
                done()
                self._try_start()

            self.events.schedule(service_ms, finish)

    def _account(self) -> None:
        now = self.events.now
        self.busy_core_time_ms += self._busy_cores * (now - self._last_change)
        self._last_change = now

    def utilization(self, total_time_ms: float) -> float:
        """Mean fraction of cores busy over ``total_time_ms``."""
        if total_time_ms <= 0:
            return 0.0
        self._account()
        return min(1.0, self.busy_core_time_ms / (self.cores * total_time_ms))

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def load(self) -> int:
        """Jobs in the system: queued plus in service (what a
        join-shortest-queue router must compare, not queue length alone)."""
        return len(self._queue) + self._busy_cores
