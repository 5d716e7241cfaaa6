"""The fault injector: named crashpoints.

Instrumented code declares *where* a crash could happen::

    faults.crashpoint("compact.snapshot_written")

Tests declare *which* crash happens::

    injector = FaultInjector()
    with injector.arm("compact.snapshot_written"):
        with pytest.raises(InjectedCrash):
            durable.compact()

Arming is deterministic: a plan fires on its ``hits``-th visit (default
the first) and at most ``times`` times, so a test can crash the third
append of a long run and nothing else.

``on(point, hook)`` registers an arbitrary callable to run whenever a
crashpoint is visited (armed or not) — useful for mutating files at the
exact moment of a simulated power loss or for recording visit order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.registry import MetricsRegistry, active_or_none

__all__ = [
    "NULL_INJECTOR",
    "FaultInjector",
    "InjectedCrash",
    "NullFaultInjector",
    "active_injector",
]


class InjectedCrash(RuntimeError):
    """Raised at an armed crashpoint — the simulated process death.

    Instrumented code must **not** catch this (cleanup handlers that
    would not run under real power loss must not run under injection
    either); tests catch it at the call boundary and then re-open the
    persisted state to exercise recovery.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        self.point = point


@dataclass
class _Plan:
    """One armed fault: fire on the ``hits``-th visit, ``times`` times."""

    hits: int = 1
    times: int = 1
    visits: int = 0
    fired: int = 0

    def trigger(self) -> bool:
        self.visits += 1
        if self.fired >= self.times:
            return False
        if self.visits < self.hits:
            return False
        self.fired += 1
        return True


@dataclass
class FaultInjector:
    """Deterministic fault scheduling against named points.

    Parameters
    ----------
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; every
        fault that actually fires increments the ``faults_injected``
        counter, so a fault-drill run is visible in the same snapshot
        as the recoveries it causes.
    """

    obs: MetricsRegistry | None = None
    _plans: dict[str, _Plan] = field(default_factory=dict)
    _hooks: dict[str, list[Callable[[str], None]]] = field(default_factory=dict)
    #: Every point that fired, in order — tests assert against this.
    fired: list[str] = field(default_factory=list)
    #: Every point visited (armed or not), in order.
    visited: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.obs = active_or_none(self.obs)
        if self.obs is not None:
            self.obs.counter(
                "faults_injected", help="Faults the injector actually fired"
            )

    # -------------------------------------------------------------- #
    # Arming

    @contextmanager
    def arm(self, point: str, hits: int = 1, times: int = 1) -> Iterator[None]:
        """Arm ``point`` for the duration of a ``with`` block.

        ``hits``: fire on the n-th visit (1-based).  ``times``: fire at
        most this many times.  The plan is removed on exit even if it
        never fired.
        """
        self.arm_forever(point, hits=hits, times=times)
        try:
            yield
        finally:
            self._plans.pop(point, None)

    def arm_forever(self, point: str, hits: int = 1, times: int = 1) -> None:
        """Arm ``point`` until :meth:`reset` (the non-scoped form)."""
        if hits < 1 or times < 1:
            raise ValueError("hits and times must be >= 1")
        self._plans[point] = _Plan(hits=hits, times=times)

    def on(self, point: str, hook: Callable[[str], None]) -> None:
        """Run ``hook(point)`` on every visit to ``point``."""
        self._hooks.setdefault(point, []).append(hook)

    def reset(self) -> None:
        """Drop every plan, hook, and recorded visit."""
        self._plans.clear()
        self._hooks.clear()
        self.fired.clear()
        self.visited.clear()

    # -------------------------------------------------------------- #
    # Instrumentation sites

    def is_armed(self, point: str) -> bool:
        """True when a visit to ``point`` *would* fire right now."""
        plan = self._plans.get(point)
        if plan is None:
            return False
        return plan.fired < plan.times and plan.visits + 1 >= plan.hits

    def crashpoint(self, point: str) -> None:
        """Visit ``point``; raise :class:`InjectedCrash` if armed."""
        self.visited.append(point)
        for hook in self._hooks.get(point, ()):
            hook(point)
        plan = self._plans.get(point)
        if plan is None or not plan.trigger():
            return
        self.fired.append(point)
        if self.obs is not None:
            self.obs.counter("faults_injected").inc()
        raise InjectedCrash(point)


class NullFaultInjector(FaultInjector):
    """The disabled injector: visits cost one no-op call, nothing fires."""

    def __init__(self) -> None:
        super().__init__()

    def crashpoint(self, point: str) -> None:
        pass

    def is_armed(self, point: str) -> bool:
        return False

    def arm_forever(self, point: str, hits: int = 1, times: int = 1) -> None:
        raise ValueError("cannot arm the shared NULL_INJECTOR")


#: The process-wide disabled injector; the default for every component.
NULL_INJECTOR = NullFaultInjector()


def active_injector(faults: FaultInjector | None) -> FaultInjector:
    """Normalise an injector argument: ``None`` becomes the shared
    no-op :data:`NULL_INJECTOR`, anything else passes through.
    Components call this once at construction so crashpoints are plain
    method calls with no per-site ``is not None`` guard."""
    return NULL_INJECTOR if faults is None else faults
