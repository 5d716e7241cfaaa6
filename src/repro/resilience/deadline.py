"""Per-request deadline budgets and the shared degraded-reason taxonomy.

A :class:`Deadline` is created once per request at the serving edge and
threaded through every layer the request touches: the ad server, the
batch engine, the tiered index's segment legs, and the index probe loops
themselves.  It carries two things:

1. **the time budget** — ``expired()`` / ``remaining_ms()`` against an
   injectable millisecond clock (wall time in production,
   :class:`ManualClock` in tests);
2. **the partiality record** — any layer that returns early calls
   :meth:`mark_partial` with a :class:`DegradedReason`, so the caller
   always knows *that* and *why* a result is incomplete.  A partial
   result is never silent.

A deadline never changes what a query plans: the paper's one bound on a
query's work is the Section IV truncation fixed in the index
configuration (``max_words`` / ``max_query_words``).  The clock is read
lazily: an unlimited deadline never touches the clock.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from enum import Enum

__all__ = ["Deadline", "DegradedReason", "ManualClock", "monotonic_ms"]

#: Millisecond clock signature shared by deadlines, breakers, and
#: admission controllers.
ClockMs = Callable[[], float]


def monotonic_ms() -> float:
    """The default production clock: ``time.monotonic()`` in ms."""
    return time.monotonic() * 1000.0


class ManualClock:
    """A hand-advanced millisecond clock for deterministic tests.

    Call the instance to read the time; :meth:`advance` moves it.  The
    deadline, admission and breaker tests drive every budget decision
    through one of these, so expiry is exact and repeatable.
    """

    __slots__ = ("now_ms",)

    def __init__(self, now_ms: float = 0.0) -> None:
        self.now_ms = now_ms

    def advance(self, delta_ms: float) -> None:
        if delta_ms < 0:
            raise ValueError("clocks only move forward")
        self.now_ms += delta_ms

    def __call__(self) -> float:
        return self.now_ms


class DegradedReason(Enum):
    """Why a response is not the full-fidelity answer.

    Shared by every degradation path — the frontend's load shedding and
    its empty slate for a failed retrieval, and deadline expiry — so a
    :class:`~repro.serving.server.ServeResult` always carries one
    machine-readable cause instead of an inexplicable empty list.
    """

    #: The full-fidelity answer; nothing was degraded.
    NONE = "none"
    #: Retrieval raised and the frontend answered with an empty slate.
    RETRIEVAL_ERROR = "retrieval_error"
    #: Admission control shed the request: token bucket empty.
    SHED_CAPACITY = "shed_capacity"
    #: Admission control shed the request: queue too deep.
    SHED_QUEUE = "shed_queue"
    #: The deadline expired mid-query; the result covers only the probes
    #: executed before expiry.
    DEADLINE = "deadline"


class Deadline:
    """One request's time budget and partiality record.

    Parameters
    ----------
    expires_at_ms:
        Absolute expiry on ``clock``'s axis; ``None`` means unlimited.
    clock:
        Millisecond clock (default :func:`monotonic_ms`).
    """

    __slots__ = ("_expires_at_ms", "_clock", "_partial_reasons")

    def __init__(
        self,
        expires_at_ms: float | None = None,
        clock: ClockMs | None = None,
    ) -> None:
        self._expires_at_ms = expires_at_ms
        self._clock: ClockMs = clock if clock is not None else monotonic_ms
        self._partial_reasons: list[DegradedReason] = []

    # -------------------------------------------------------------- #
    # Construction

    @classmethod
    def after_ms(
        cls, budget_ms: float, clock: ClockMs | None = None
    ) -> Deadline:
        """A deadline ``budget_ms`` from now on ``clock``'s axis."""
        if budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        clock = clock if clock is not None else monotonic_ms
        return cls(expires_at_ms=clock() + budget_ms, clock=clock)

    @classmethod
    def unlimited(cls, clock: ClockMs | None = None) -> Deadline:
        """No time limit — a pure carrier for the partiality record."""
        return cls(clock=clock)

    # -------------------------------------------------------------- #
    # Budget

    def expired(self) -> bool:
        """True once the budget is spent.  Checked before each node scan
        and between segment legs; never raises — callers return what they
        have, flagged."""
        expires = self._expires_at_ms
        return expires is not None and self._clock() >= expires

    def remaining_ms(self) -> float:
        """Budget left; ``inf`` when unlimited, floored at 0."""
        expires = self._expires_at_ms
        if expires is None:
            return float("inf")
        return max(0.0, expires - self._clock())

    # -------------------------------------------------------------- #
    # Partiality record

    def mark_partial(self, reason: DegradedReason) -> None:
        """Record that some layer returned early and why."""
        self._partial_reasons.append(reason)

    @property
    def partial(self) -> bool:
        """True when any layer returned less than the full answer."""
        return bool(self._partial_reasons)

    @property
    def partial_reasons(self) -> tuple[DegradedReason, ...]:
        """Every recorded reason, in the order layers reported them."""
        return tuple(self._partial_reasons)

    def primary_reason(self) -> DegradedReason:
        """The first recorded reason (the outermost early return), or
        :attr:`DegradedReason.NONE` for a complete result."""
        if self._partial_reasons:
            return self._partial_reasons[0]
        return DegradedReason.NONE

    def __repr__(self) -> str:
        if self._expires_at_ms is None:
            budget = "unlimited"
        else:
            budget = f"{self.remaining_ms():.1f}ms left"
        return f"Deadline({budget}, partial={self.partial})"
