"""Adaptive degradation: step the paper's truncation knob under pressure.

Section IV of the paper bounds a broad-match query's work to
``sum C(|Q|, i)`` hash probes by truncating long queries to their
``max_words`` rarest words — an explicit recall-for-work trade.  This
module turns that static knob into a feedback loop: when measured
pressure (p95 retrieval latency from the :mod:`repro.obs` histograms)
crosses the high-water mark, the policy steps *down* a ladder of
progressively cheaper serving configurations; when pressure clears the
low-water mark, it steps back up.  Hysteresis (two thresholds) plus a
cooldown (minimum queries between steps) keep it from flapping.

Each ladder level tightens per-request constraints on the
:class:`~repro.resilience.deadline.Deadline` budget object —
``max_query_words`` (harder truncation) and ``max_probes`` (a cap the
probe planner applies via :meth:`~repro.perf.prefilter.ProbePlan.capped`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.obs.registry import Histogram, MetricsRegistry, active_or_none
from repro.resilience.deadline import Deadline

__all__ = ["DEFAULT_LADDER", "DegradationLevel", "DegradationPolicy"]


@dataclass(frozen=True, slots=True)
class DegradationLevel:
    """One rung of the degradation ladder.

    ``None`` knobs leave the index's own configuration untouched.
    """

    #: Tighten the query-truncation cutoff to this many words.
    max_query_words: int | None = None
    #: Cap each query's probe plan at this many hash probes.
    max_probes: int | None = None

    def __post_init__(self) -> None:
        if self.max_query_words is not None and self.max_query_words < 1:
            raise ValueError("max_query_words must be >= 1")
        if self.max_probes is not None and self.max_probes < 1:
            raise ValueError("max_probes must be >= 1")

    def tighten(self, deadline: Deadline) -> None:
        """Apply this level's constraints to a request budget."""
        deadline.tighten(
            max_probes=self.max_probes,
            max_query_words=self.max_query_words,
        )


#: The default ladder: level 0 is full fidelity; each step roughly
#: quarters the probe budget, and the deep levels truncate harder.
DEFAULT_LADDER: tuple[DegradationLevel, ...] = (
    DegradationLevel(),
    DegradationLevel(max_probes=4_096),
    DegradationLevel(max_query_words=8, max_probes=1_024),
    DegradationLevel(max_query_words=5, max_probes=256),
)


class DegradationPolicy:
    """Pressure-driven ladder walker.

    Parameters
    ----------
    obs:
        Registry whose ``span.<signal>`` histogram supplies the pressure
        reading (and receives the ``resilience.degrade_level`` gauge).
    signal:
        Span name to watch; ``"retrieve"`` is the
        :class:`~repro.serving.server.AdServer` retrieval stage.
    high_ms / low_ms:
        Hysteresis thresholds on the p95 of the signal: step down the
        ladder above ``high_ms``, step back up below ``low_ms``.
    ladder:
        The degradation levels, mildest first; index 0 must be the
        no-degradation level.
    min_samples:
        Ignore the signal until the histogram has this many samples.
    cooldown_queries:
        Minimum :meth:`on_query` calls between pressure evaluations
        (and therefore between steps).
    pressure_fn:
        Override the pressure source entirely (tests, external
        controllers); returns the current pressure in milliseconds.
    """

    def __init__(
        self,
        obs: MetricsRegistry | None = None,
        signal: str = "retrieve",
        high_ms: float = 50.0,
        low_ms: float = 10.0,
        ladder: Sequence[DegradationLevel] = DEFAULT_LADDER,
        min_samples: int = 32,
        cooldown_queries: int = 64,
        pressure_fn: Callable[[], float] | None = None,
    ) -> None:
        if not ladder:
            raise ValueError("ladder needs at least one level")
        if high_ms <= low_ms:
            raise ValueError("high_ms must exceed low_ms (hysteresis)")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if cooldown_queries < 1:
            raise ValueError("cooldown_queries must be >= 1")
        self._obs = active_or_none(obs)
        self._signal = "span." + signal
        self.high_ms = high_ms
        self.low_ms = low_ms
        self.ladder = tuple(ladder)
        self.min_samples = min_samples
        self.cooldown_queries = cooldown_queries
        self._pressure_fn = pressure_fn
        self._level = 0
        self._since_step = 0
        self.steps_down = 0
        self.steps_up = 0
        if self._obs is not None:
            self._obs.gauge(
                "resilience.degrade_level",
                help="Current degradation-ladder level (0 = full fidelity)",
            )
            self._obs.counter(
                "resilience.degrade_steps",
                help="Ladder steps taken in either direction",
            )

    # -------------------------------------------------------------- #

    @property
    def level(self) -> int:
        return self._level

    @property
    def current(self) -> DegradationLevel:
        return self.ladder[self._level]

    @property
    def degraded(self) -> bool:
        return self._level > 0

    def tighten(self, deadline: Deadline) -> None:
        """Apply the current level's constraints to a request budget."""
        self.current.tighten(deadline)

    # -------------------------------------------------------------- #

    def on_query(self) -> None:
        """Per-query tick: every ``cooldown_queries`` calls, read the
        pressure signal and step the ladder."""
        self._since_step += 1
        if self._since_step < self.cooldown_queries:
            return
        self._since_step = 0
        pressure = self._read_pressure()
        if pressure is None:
            return
        if pressure > self.high_ms and self._level < len(self.ladder) - 1:
            self._level += 1
            self.steps_down += 1
            self._record_step()
        elif pressure < self.low_ms and self._level > 0:
            self._level -= 1
            self.steps_up += 1
            self._record_step()

    def _read_pressure(self) -> float | None:
        if self._pressure_fn is not None:
            return self._pressure_fn()
        if self._obs is None:
            return None
        metric = self._obs.get(self._signal)
        if not isinstance(metric, Histogram):
            return None
        if metric.count < self.min_samples:
            return None
        return metric.p95

    def _record_step(self) -> None:
        if self._obs is not None:
            self._obs.gauge("resilience.degrade_level").set(float(self._level))
            self._obs.counter("resilience.degrade_steps").inc()
