"""Admission control: token bucket with priority classes and
queue-depth load shedding.

Under overload the worst thing a server can do is accept every request
and let them all time out together.  The controller bounds accepted work
two ways:

* a **token bucket** (``rate_per_s`` sustained, ``burst`` peak) — the
  capacity the operator believes the serving path can actually sustain;
* a **queue-depth limit** — the in-flight backlog beyond which even
  rate-compliant work would just wait out its deadline in line.

Both shed the *lowest priority first*: each priority class sees a
reserve carved out of the bucket and a fraction of the depth limit, so
LOW traffic sheds while NORMAL still flows and HIGH is the last to go.
A shed request always gets an explicit
:class:`~repro.resilience.deadline.DegradedReason` — callers turn it
into a flagged empty response, never a dropped connection.

The clock is injectable (wall time in :class:`~repro.serving.server
.AdServer` and the netserve frontend, a
:class:`~repro.resilience.deadline.ManualClock` in tests), so shed
behaviour is deterministic under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.deadline import ClockMs, DegradedReason, monotonic_ms

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "Priority",
]


class Priority(IntEnum):
    """Request priority class; higher survives overload longer."""

    LOW = 0
    NORMAL = 1
    HIGH = 2

    @classmethod
    def from_name(cls, name: str) -> Priority:
        """Parse ``low``/``normal``/``high`` (the CLI flag values)."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown priority {name!r}") from None


#: Fraction of ``burst`` a request's priority must leave untouched in
#: the bucket: LOW only draws from a mostly-full bucket, HIGH drains it
#: to the last token.
_TOKEN_RESERVE: dict[Priority, float] = {
    Priority.LOW: 0.30,
    Priority.NORMAL: 0.10,
    Priority.HIGH: 0.0,
}

#: Fraction of ``max_queue_depth`` at which each priority sheds.
_QUEUE_FRACTION: dict[Priority, float] = {
    Priority.LOW: 0.50,
    Priority.NORMAL: 0.80,
    Priority.HIGH: 1.0,
}


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Tuning for one :class:`AdmissionController`.

    Parameters
    ----------
    rate_per_s:
        Sustained admissions per second refilled into the bucket;
        ``None`` disables rate limiting (depth-only shedding).
    burst:
        Bucket capacity — admissions allowed back-to-back from a full
        bucket.
    max_queue_depth:
        In-flight admissions (admitted, not yet released) beyond which
        requests shed; ``None`` disables depth shedding.
    """

    rate_per_s: float | None = None
    burst: float = 32.0
    max_queue_depth: int | None = None

    def __post_init__(self) -> None:
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """What the controller decided for one request."""

    admitted: bool
    #: :attr:`DegradedReason.NONE` when admitted, else the shed cause.
    reason: DegradedReason


_ADMITTED = AdmissionDecision(admitted=True, reason=DegradedReason.NONE)


class AdmissionController:
    """Priority-aware token bucket + queue-depth shedder.

    ``try_admit`` is the only hot-path call: one clock read, one refill,
    two comparisons.  ``release`` returns the in-flight slot an admitted
    request took, so the depth limit sees the live backlog.
    """

    __slots__ = ("config", "_clock", "_obs", "_tokens", "_refilled_at_ms", "_inflight")

    def __init__(
        self,
        config: AdmissionConfig | None = None,
        clock: ClockMs | None = None,
        obs: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else AdmissionConfig()
        self._clock: ClockMs = clock if clock is not None else monotonic_ms
        self._obs = active_or_none(obs)
        self._tokens = self.config.burst
        self._refilled_at_ms = self._clock()
        self._inflight = 0
        if self._obs is not None:
            self._obs.counter(
                "resilience.admitted", help="Requests admitted to serving"
            )
            self._obs.counter(
                "resilience.shed", help="Requests shed by admission control"
            )
            self._obs.counter(
                "resilience.shed_capacity",
                help="Requests shed because the token bucket ran dry",
            )
            self._obs.counter(
                "resilience.shed_queue",
                help="Requests shed because the queue was too deep",
            )

    # -------------------------------------------------------------- #

    def try_admit(self, priority: Priority = Priority.NORMAL) -> AdmissionDecision:
        """Admit or shed one request of ``priority``.

        The depth limit counts the controller's own in-flight admissions,
        so callers pair each admit with :meth:`release`.
        """
        config = self.config
        if config.max_queue_depth is not None:
            limit = config.max_queue_depth * _QUEUE_FRACTION[priority]
            if self._inflight > limit:
                return self._shed(DegradedReason.SHED_QUEUE)
        if config.rate_per_s is not None:
            self._refill()
            needed = 1.0 + config.burst * _TOKEN_RESERVE[priority]
            if self._tokens < needed:
                return self._shed(DegradedReason.SHED_CAPACITY)
            self._tokens -= 1.0
        self._inflight += 1
        if self._obs is not None:
            self._obs.counter("resilience.admitted").inc()
        return _ADMITTED

    def release(self) -> None:
        """Return one in-flight slot (pairs with an admitted request)."""
        if self._inflight > 0:
            self._inflight -= 1

    # -------------------------------------------------------------- #

    @property
    def inflight(self) -> int:
        return self._inflight

    def tokens(self) -> float:
        """Current bucket level (after refill) — for tests and gauges."""
        self._refill()
        return self._tokens

    def _refill(self) -> None:
        rate = self.config.rate_per_s
        if rate is None:
            return
        now = self._clock()
        elapsed_ms = now - self._refilled_at_ms
        if elapsed_ms > 0:
            self._tokens = min(
                self.config.burst,
                self._tokens + (elapsed_ms / 1000.0) * rate,
            )
            self._refilled_at_ms = now

    def _shed(self, reason: DegradedReason) -> AdmissionDecision:
        if self._obs is not None:
            self._obs.counter("resilience.shed").inc()
            if reason is DegradedReason.SHED_QUEUE:
                self._obs.counter("resilience.shed_queue").inc()
            else:
                self._obs.counter("resilience.shed_capacity").inc()
        return AdmissionDecision(admitted=False, reason=reason)
