"""Normalisation arithmetic on a fake clock."""

import pytest

from harness import SetupStages
from hostspeed import HostSpeed, quartile_spread


class FakeClock:
    """Nanoseconds that move only when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_sample_is_the_median_of_three_so_one_preemption_is_ignored():
    clock = FakeClock()
    costs = iter([1_000, 9_000, 1_100])

    def work() -> None:
        clock.now += next(costs)

    assert HostSpeed(clock=clock, work=work).sample() == 1_100


def test_a_host_at_half_speed_doubles_reference_time_and_halves_the_factor():
    host = HostSpeed(clock=FakeClock(), work=lambda: None, reference_ns=4_000)
    # Reference read 8 000 ns before and after: the host runs at half
    # the calibrated speed, so a raw second is half a reference second.
    assert host.factor(8_000, 8_000) == pytest.approx(0.5)
    # Speed changed across the unit: the mean of the neighbours counts.
    assert host.factor(4_000, 12_000) == pytest.approx(0.5)
    assert host.factor(4_000, 4_000) == pytest.approx(1.0)
    assert host.factors == pytest.approx([0.5, 0.5, 1.0])
    assert host.factor_p50() == pytest.approx(0.5)


def test_quartile_spread_is_iqr_over_median():
    values = [float(v) for v in range(90, 111)]  # median 100
    assert quartile_spread(values) == pytest.approx(11.0 / 100.0)
    assert quartile_spread([5.0]) == 0.0


def test_setup_stage_reports_normalised_cpu_not_wall(monkeypatch):
    clock = FakeClock()

    def work() -> None:
        clock.now += 2_000  # the host runs at half of reference_ns=1000

    host = HostSpeed(clock=clock, work=work, reference_ns=1_000)
    # Stage start, stage end, then the one reference sample a stage
    # shorter than the sampling period takes afterwards (500 ns of CPU).
    cpu = iter([10_000_000_000, 13_000_000_000, 20_000_000_000, 20_000_000_500])
    monkeypatch.setattr("time.process_time_ns", lambda: next(cpu))
    stages = SetupStages(host)
    with stages.stage("pack"):
        pass
    # 3 s of CPU, less the sampling's own, on a half-speed host.
    assert stages.cpu_s["pack"] == pytest.approx((3e9 - 500) * 0.5 / 1e9)
    assert stages.total_cpu_s() == stages.cpu_s["pack"]
