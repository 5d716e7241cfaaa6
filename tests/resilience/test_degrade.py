"""Adaptive degradation: the pressure-driven ladder walker and the
constraints it applies to request budgets."""

import pytest

from repro.obs import MetricsRegistry
from repro.resilience import (
    Deadline,
    DegradationLevel,
    DegradationPolicy,
)
from repro.resilience.degrade import DEFAULT_LADDER


LADDER = (
    DegradationLevel(),
    DegradationLevel(max_probes=64),
    DegradationLevel(max_query_words=4, max_probes=16),
)


def make(pressure, **kwargs):
    defaults = dict(
        high_ms=50.0,
        low_ms=10.0,
        ladder=LADDER,
        cooldown_queries=4,
        pressure_fn=pressure,
    )
    defaults.update(kwargs)
    return DegradationPolicy(**defaults)


def tick(policy, times):
    for _ in range(times):
        policy.on_query()


class TestValidation:
    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError):
            DegradationPolicy(ladder=())

    def test_rejects_inverted_hysteresis(self):
        with pytest.raises(ValueError):
            DegradationPolicy(high_ms=10.0, low_ms=10.0)

    def test_rejects_bad_cooldown(self):
        with pytest.raises(ValueError):
            DegradationPolicy(cooldown_queries=0)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            DegradationLevel(max_probes=0)
        with pytest.raises(ValueError):
            DegradationLevel(max_query_words=0)


class TestLadderStepping:
    def test_starts_at_full_fidelity(self):
        policy = make(lambda: 0.0)
        assert policy.level == 0
        assert not policy.degraded
        assert policy.current is LADDER[0]

    def test_high_pressure_steps_down(self):
        policy = make(lambda: 100.0)
        tick(policy, 4)
        assert policy.level == 1
        assert policy.degraded
        assert policy.steps_down == 1

    def test_cooldown_gates_steps(self):
        policy = make(lambda: 100.0)
        tick(policy, 3)
        assert policy.level == 0  # cooldown not yet elapsed
        tick(policy, 1)
        assert policy.level == 1
        tick(policy, 3)
        assert policy.level == 1  # next step needs a full cooldown again
        tick(policy, 1)
        assert policy.level == 2

    def test_clamps_at_ladder_bottom(self):
        policy = make(lambda: 100.0)
        tick(policy, 40)
        assert policy.level == len(LADDER) - 1

    def test_low_pressure_steps_back_up(self):
        readings = [100.0, 100.0, 0.0, 0.0, 0.0]
        policy = make(lambda: readings.pop(0))
        tick(policy, 8)
        assert policy.level == 2
        tick(policy, 8)
        assert policy.level == 0
        assert policy.steps_up == 2

    def test_mid_band_pressure_holds_level(self):
        policy = make(lambda: 30.0)  # between low and high water marks
        tick(policy, 20)
        assert policy.level == 0


class TestConstraints:
    def test_tighten_applies_current_level(self):
        policy = make(lambda: 100.0)
        tick(policy, 8)
        assert policy.level == 2
        deadline = Deadline.unlimited()
        policy.tighten(deadline)
        assert deadline.max_probes == 16
        assert deadline.max_query_words == 4

    def test_level_zero_tightens_nothing(self):
        policy = make(lambda: 0.0)
        deadline = Deadline.unlimited()
        policy.tighten(deadline)
        assert deadline.max_probes is None
        assert deadline.max_query_words is None

    def test_default_ladder_rungs(self):
        assert [
            (level.max_query_words, level.max_probes)
            for level in DEFAULT_LADDER
        ] == [(None, None), (None, 4_096), (8, 1_024), (5, 256)]

    def test_default_ladder_monotone(self):
        assert DEFAULT_LADDER[0] == DegradationLevel()
        probes = [
            level.max_probes
            for level in DEFAULT_LADDER
            if level.max_probes is not None
        ]
        assert probes == sorted(probes, reverse=True)


class TestHistogramSignal:
    def test_reads_span_p95_from_registry(self):
        registry = MetricsRegistry()
        policy = DegradationPolicy(
            obs=registry,
            signal="retrieve",
            high_ms=50.0,
            low_ms=10.0,
            ladder=LADDER,
            min_samples=8,
            cooldown_queries=1,
        )
        histogram = registry.histogram("span.retrieve")
        for _ in range(7):
            histogram.observe(500.0)
        policy.on_query()
        assert policy.level == 0  # below min_samples: signal ignored
        histogram.observe(500.0)
        policy.on_query()
        assert policy.level == 1
        assert registry.value("resilience.degrade_steps") == 1

    def test_no_signal_no_steps(self):
        policy = DegradationPolicy(
            ladder=LADDER, cooldown_queries=1, high_ms=50.0, low_ms=10.0
        )
        tick(policy, 10)
        assert policy.level == 0
