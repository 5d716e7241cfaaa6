"""Circuit breakers: the closed → open → half-open state machine on a
deterministic clock."""

import pytest

from repro.obs import MetricsRegistry
from repro.resilience import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
    ManualClock,
)


def make(clock=None, obs=None, **kwargs):
    defaults = dict(
        window=10,
        failure_threshold=0.5,
        min_samples=4,
        reset_after_ms=100.0,
        half_open_probes=1,
    )
    defaults.update(kwargs)
    return CircuitBreaker(
        BreakerConfig(**defaults),
        clock=clock if clock is not None else ManualClock(),
        obs=obs,
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"failure_threshold": 0.0},
            {"failure_threshold": 1.5},
            {"min_samples": 0},
            {"reset_after_ms": 0.0},
            {"half_open_probes": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            BreakerConfig(**kwargs)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = make()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_at_threshold(self):
        breaker = make()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 1
        assert not breaker.allow()
        assert breaker.short_circuits == 1

    def test_needs_min_samples(self):
        breaker = make(min_samples=4)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_mixed_outcomes_below_threshold_stay_closed(self):
        breaker = make()
        for _ in range(6):
            breaker.record_success()
        for _ in range(4):
            breaker.record_failure()
        # 4/10 < 0.5
        assert breaker.state is BreakerState.CLOSED

    def test_window_evicts_old_outcomes(self):
        breaker = make(window=4, min_samples=4)
        breaker.record_failure()
        breaker.record_failure()
        for _ in range(4):
            breaker.record_success()
        # The two failures rolled out of the window.
        assert breaker.failure_rate() == 0.0
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooloff(self):
        clock = ManualClock()
        breaker = make(clock=clock)
        for _ in range(4):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(100.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_bounds_probes(self):
        clock = ManualClock()
        breaker = make(clock=clock, half_open_probes=2)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(100.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()

    def test_half_open_success_closes(self):
        clock = ManualClock()
        breaker = make(clock=clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(100.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.failure_rate() == 0.0  # window reset on close
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = ManualClock()
        breaker = make(clock=clock)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(100.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opened_count == 2
        # The cool-off restarts from the re-open.
        clock.advance(99.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()

    def test_permits_answers_allow_without_spending(self):
        """``permits`` says what ``allow`` would, and moves nothing: an
        open breaker stays open past its cool-off until ``allow``, and a
        half-open one keeps its probe."""
        clock = ManualClock()
        obs = MetricsRegistry()
        breaker = make(clock=clock, obs=obs)
        assert breaker.permits()
        for _ in range(4):
            breaker.record_failure()
        assert not breaker.permits()
        clock.advance(100.0)
        for _ in range(3):
            assert breaker.permits()
        assert breaker.state is BreakerState.OPEN
        assert breaker.short_circuits == 0
        assert breaker.allow()  # the one half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.permits()
        assert breaker.short_circuits == 0
        assert obs.value("resilience.breaker_short_circuits") == 0


class TestCounters:
    def test_transition_counters(self):
        registry = MetricsRegistry()
        clock = ManualClock()
        breaker = make(clock=clock, obs=registry)
        for _ in range(4):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(100.0)
        assert breaker.allow()
        breaker.record_success()
        assert registry.value("resilience.breaker_opened") == 1
        assert registry.value("resilience.breaker_half_open") == 1
        assert registry.value("resilience.breaker_closed") == 1
        assert registry.value("resilience.breaker_short_circuits") == 1
