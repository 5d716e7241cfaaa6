"""Admission control: token-bucket rate limiting, queue-depth shedding,
and the lowest-priority-first shed order."""

import pytest

from repro.obs import MetricsRegistry
from repro.resilience import (
    AdmissionConfig,
    AdmissionController,
    DegradedReason,
    ManualClock,
    Priority,
)


class TestConfigValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AdmissionConfig(rate_per_s=0.0)

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            AdmissionConfig(burst=0.5)

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=0)


class TestPriority:
    def test_from_name(self):
        assert Priority.from_name("low") is Priority.LOW
        assert Priority.from_name("NORMAL") is Priority.NORMAL
        assert Priority.from_name("high") is Priority.HIGH

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            Priority.from_name("urgent")

    def test_ordering(self):
        assert Priority.LOW < Priority.NORMAL < Priority.HIGH


class TestTokenBucket:
    def make(self, **kwargs):
        clock = ManualClock()
        controller = AdmissionController(AdmissionConfig(**kwargs), clock=clock)
        return controller, clock

    def test_burst_then_shed(self):
        controller, _ = self.make(rate_per_s=10.0, burst=4.0)
        admitted = [
            controller.try_admit(Priority.HIGH).admitted for _ in range(6)
        ]
        assert admitted == [True, True, True, True, False, False]

    def test_shed_reason_is_capacity(self):
        controller, _ = self.make(rate_per_s=10.0, burst=1.0)
        assert controller.try_admit(Priority.HIGH).admitted
        decision = controller.try_admit(Priority.HIGH)
        assert not decision.admitted
        assert decision.reason is DegradedReason.SHED_CAPACITY

    def test_refill_restores_admission(self):
        controller, clock = self.make(rate_per_s=100.0, burst=1.0)
        assert controller.try_admit(Priority.HIGH).admitted
        assert not controller.try_admit(Priority.HIGH).admitted
        clock.advance(10.0)  # 100/s * 10ms = 1 token
        assert controller.try_admit(Priority.HIGH).admitted

    def test_refill_caps_at_burst(self):
        controller, clock = self.make(rate_per_s=1_000.0, burst=2.0)
        clock.advance(60_000.0)
        assert controller.tokens() == 2.0

    def test_low_priority_sheds_first(self):
        # burst=10: LOW needs 1 + 3.0 tokens, NORMAL 1 + 1.0, HIGH 1.0.
        controller, _ = self.make(rate_per_s=10.0, burst=10.0)
        # Drain to just under LOW's reserve line.
        for _ in range(7):
            assert controller.try_admit(Priority.HIGH).admitted
        assert controller.tokens() == 3.0
        assert not controller.try_admit(Priority.LOW).admitted
        assert controller.try_admit(Priority.NORMAL).admitted  # tokens -> 2
        assert controller.try_admit(Priority.NORMAL).admitted  # tokens -> 1
        assert not controller.try_admit(Priority.NORMAL).admitted
        assert controller.try_admit(Priority.HIGH).admitted  # tokens -> 0
        assert not controller.try_admit(Priority.HIGH).admitted

    def test_disabled_rate_always_admits(self):
        controller, _ = self.make()
        assert all(
            controller.try_admit(Priority.LOW).admitted for _ in range(1000)
        )


def admit_without_release(controller, count):
    """Raise the controller's in-flight depth to ``count``."""
    for _ in range(count):
        assert controller.try_admit(Priority.HIGH).admitted
    assert controller.inflight == count


class TestQueueDepth:
    def test_explicit_depth_sheds(self):
        controller = AdmissionController(
            AdmissionConfig(max_queue_depth=10), clock=ManualClock()
        )
        admit_without_release(controller, 10)
        assert controller.try_admit(Priority.HIGH).admitted  # depth 10
        decision = controller.try_admit(Priority.HIGH)  # depth 11
        assert not decision.admitted
        assert decision.reason is DegradedReason.SHED_QUEUE

    def test_priority_fractions(self):
        # depth limit 20: LOW sheds above 10, NORMAL above 16, HIGH above 20.
        controller = AdmissionController(
            AdmissionConfig(max_queue_depth=20), clock=ManualClock()
        )
        admit_without_release(controller, 11)
        assert not controller.try_admit(Priority.LOW).admitted
        assert controller.try_admit(Priority.NORMAL).admitted  # depth 11
        for _ in range(5):
            assert controller.try_admit(Priority.HIGH).admitted
        assert controller.inflight == 17
        assert not controller.try_admit(Priority.NORMAL).admitted
        assert controller.try_admit(Priority.HIGH).admitted  # depth 17

    def test_internal_inflight_tracking(self):
        controller = AdmissionController(
            AdmissionConfig(max_queue_depth=2), clock=ManualClock()
        )
        assert controller.try_admit(Priority.HIGH).admitted
        assert controller.try_admit(Priority.HIGH).admitted
        assert controller.try_admit(Priority.HIGH).admitted  # depth 2 == limit
        assert not controller.try_admit(Priority.HIGH).admitted
        controller.release()
        assert controller.try_admit(Priority.HIGH).admitted
        assert controller.inflight == 3

    def test_release_never_goes_negative(self):
        controller = AdmissionController(clock=ManualClock())
        controller.release()
        assert controller.inflight == 0


class TestCounters:
    def test_admitted_and_shed_counters(self):
        registry = MetricsRegistry()
        clock = ManualClock()
        controller = AdmissionController(
            AdmissionConfig(rate_per_s=10.0, burst=2.0, max_queue_depth=5),
            clock=clock,
            obs=registry,
        )
        assert controller.try_admit(Priority.HIGH).admitted
        assert controller.try_admit(Priority.HIGH).admitted
        assert not controller.try_admit(Priority.HIGH).admitted  # bucket dry
        # Refill two tokens at a time until six requests are in flight.
        for _ in range(2):
            clock.advance(200.0)
            assert controller.try_admit(Priority.HIGH).admitted
            assert controller.try_admit(Priority.HIGH).admitted
        clock.advance(200.0)
        assert not controller.try_admit(Priority.HIGH).admitted  # depth 6 > 5
        assert registry.value("resilience.admitted") == 6
        assert registry.value("resilience.shed") == 2
        assert registry.value("resilience.shed_capacity") == 1
        assert registry.value("resilience.shed_queue") == 1
