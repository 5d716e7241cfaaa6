"""Per-worker circuit breakers: closed → open → half-open.

A fan-out with retries *amplifies* an overloaded backend: every query
that times out against it is retried against it, which is exactly the
metastable-failure pattern the tail-at-scale literature describes.  The
breaker is the standard antidote — measure the recent error/timeout rate
per backend over a sliding window, and once it crosses the threshold stop
sending work there at all.  After a cooling-off period a half-open probe
tests whether the backend recovered; one success closes the breaker, one
failure re-opens it.

The netserve frontend holds one breaker per worker process.  The clock
is injectable, so tests step a breaker through its states on a
:class:`~repro.resilience.deadline.ManualClock` instead of sleeping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum

from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.deadline import ClockMs, monotonic_ms

__all__ = ["BreakerConfig", "BreakerState", "CircuitBreaker"]


class BreakerState(Enum):
    """Where a :class:`CircuitBreaker` is in its recovery cycle."""

    #: Traffic flows; outcomes feed the sliding window.
    CLOSED = "closed"
    #: Failure rate crossed the threshold; all traffic short-circuits.
    OPEN = "open"
    #: Cooling-off elapsed; a bounded number of probes test recovery.
    HALF_OPEN = "half_open"


@dataclass(frozen=True, slots=True)
class BreakerConfig:
    """Tuning for one :class:`CircuitBreaker`.

    Parameters
    ----------
    window:
        Sliding window length, in recorded outcomes.
    failure_threshold:
        Open when ``failures / outcomes`` in the window reaches this.
    min_samples:
        Never open on fewer than this many recorded outcomes (a single
        failure out of one sample is not a trend).
    reset_after_ms:
        Cooling-off before an open breaker admits half-open probes.
    half_open_probes:
        Probe legs allowed through while half-open; the first recorded
        success closes the breaker, the first failure re-opens it.
    """

    window: int = 20
    failure_threshold: float = 0.5
    min_samples: int = 5
    reset_after_ms: float = 1_000.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.reset_after_ms <= 0:
            raise ValueError("reset_after_ms must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


class CircuitBreaker:
    """One backend's breaker: sliding-window failure rate with a
    half-open recovery probe.

    ``allow()`` is the admission gate callers check before dispatching a
    leg; ``record_success()`` / ``record_failure()`` feed the outcome of
    every *attempted* leg back (a short-circuited leg was never
    attempted and must not be recorded).  State transitions increment
    the shared ``resilience.breaker_opened`` / ``_closed`` /
    ``_half_open`` counters when a registry is attached.
    """

    __slots__ = (
        "config",
        "name",
        "_clock",
        "_obs",
        "_state",
        "_outcomes",
        "_failures",
        "_opened_at_ms",
        "_half_open_issued",
        "short_circuits",
        "opened_count",
    )

    def __init__(
        self,
        config: BreakerConfig | None = None,
        clock: ClockMs | None = None,
        obs: MetricsRegistry | None = None,
        name: str = "",
    ) -> None:
        self.config = config if config is not None else BreakerConfig()
        self.name = name
        self._clock: ClockMs = clock if clock is not None else monotonic_ms
        self._obs = active_or_none(obs)
        self._state = BreakerState.CLOSED
        self._outcomes: deque[bool] = deque(maxlen=self.config.window)
        self._failures = 0
        self._opened_at_ms = 0.0
        self._half_open_issued = 0
        #: Legs rejected while open (this breaker's own tally; the shared
        #: counter aggregates across backends).
        self.short_circuits = 0
        #: Times this breaker transitioned closed/half-open -> open.
        self.opened_count = 0

    # -------------------------------------------------------------- #

    @property
    def state(self) -> BreakerState:
        return self._state

    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return self._failures / len(self._outcomes)

    def allow(self) -> bool:
        """May a leg be dispatched to this backend right now?"""
        if self._state is BreakerState.CLOSED:
            return True
        if self._state is BreakerState.OPEN:
            elapsed = self._clock() - self._opened_at_ms
            if elapsed < self.config.reset_after_ms:
                self.short_circuits += 1
                self._count("resilience.breaker_short_circuits")
                return False
            self._transition(BreakerState.HALF_OPEN)
            self._half_open_issued = 0
        # HALF_OPEN: admit a bounded number of probes.
        if self._half_open_issued < self.config.half_open_probes:
            self._half_open_issued += 1
            return True
        self.short_circuits += 1
        self._count("resilience.breaker_short_circuits")
        return False

    def record_success(self) -> None:
        """An attempted leg completed."""
        if self._state is BreakerState.HALF_OPEN:
            self._close()
            return
        self._push(True)

    def record_failure(self) -> None:
        """An attempted leg failed or timed out."""
        if self._state is BreakerState.HALF_OPEN:
            self._open()
            return
        self._push(False)
        if (
            self._state is BreakerState.CLOSED
            and len(self._outcomes) >= self.config.min_samples
            and self.failure_rate() >= self.config.failure_threshold
        ):
            self._open()

    def reset_half_open(self) -> None:
        """External recovery signal: the guarded resource was replaced
        (e.g. a supervised worker respawned), so the recorded window
        describes a process that no longer exists.  Forget it and admit
        half-open probes immediately — the first success closes the
        breaker — instead of waiting out ``reset_after_ms`` against a
        healthy replacement.
        """
        self._outcomes.clear()
        self._failures = 0
        self._half_open_issued = 0
        self._opened_at_ms = self._clock()
        self._transition(BreakerState.HALF_OPEN)

    # -------------------------------------------------------------- #

    def _push(self, success: bool) -> None:
        outcomes = self._outcomes
        if len(outcomes) == outcomes.maxlen:
            if not outcomes[0]:
                self._failures -= 1
        outcomes.append(success)
        if not success:
            self._failures += 1

    def _open(self) -> None:
        self._opened_at_ms = self._clock()
        self.opened_count += 1
        self._transition(BreakerState.OPEN)
        self._count("resilience.breaker_opened")

    def _close(self) -> None:
        self._outcomes.clear()
        self._failures = 0
        self._transition(BreakerState.CLOSED)
        self._count("resilience.breaker_closed")

    def _transition(self, state: BreakerState) -> None:
        self._state = state
        if state is BreakerState.HALF_OPEN:
            self._count("resilience.breaker_half_open")

    def _count(self, counter: str) -> None:
        if self._obs is not None:
            self._obs.counter(counter).inc()

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name or 'unnamed'}, "
            f"{self._state.value}, rate={self.failure_rate():.2f})"
        )
