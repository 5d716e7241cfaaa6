"""The measurement loop every workload runs under.

One run is: several full set-ups (the last one is kept), one untimed
warm-up pass, then a fixed number of fixed-size *units*.  The reference
loop of :mod:`hostspeed` runs before and after every unit, every timing
is normalised by it, and every timing metric is the median over units -
never a total divided by elapsed time - so a stall, a neighbour or a GC
pause moves one unit and not the result.

The number of units follows from ``--seconds`` alone (it is how many
fit on the undisturbed host), not from how fast the host happens to be:
a run on a seed does exactly the same work every time, which is what
lets counts, resident memory and bytes on disk repeat.
"""

from __future__ import annotations

import contextlib
import gc
import os
import statistics
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import proc
from hostspeed import DISTURBED_IQR, HostSpeed, quartile_spread
from inputs import Inputs
from spans import Tracer

__all__ = [
    "RunContext",
    "RunResult",
    "SetupStages",
    "UnitSample",
    "Workload",
    "mean_us",
    "measure",
]

#: Full set-ups per run; ``setup_s`` is their median.  Two, because a
#: set-up costs 2-4 s and all runs of all workloads share 3 420 s.
SETUP_REPEATS = 2
#: A unit-correctness check longer than this is followed by a fresh
#: reference sample (the host may have changed speed meanwhile).
RESAMPLE_AFTER_NS = 5_000_000


@dataclass(slots=True)
class RunContext:
    """What a workload is built from."""

    inputs: Inputs
    seed: int
    units: int
    #: Directory for everything the run writes; relative to the working
    #: directory so that AF_UNIX socket paths stay short.
    scratch: Path
    #: Set in the traced run only.
    tracer: Tracer | None


@dataclass(slots=True)
class UnitSample:
    """What one timed unit reports."""

    ops: int
    elapsed_ns: int
    #: One latency per request, batch or op, as the workload defines it.
    latencies_ns: list[int]


class SetupStages:
    """Times the stages of one set-up in normalised CPU seconds.

    CPU, not wall: ``fsync`` and the boot ping-gate's sleeps must not
    move ``setup_s``.  A stage's CPU is the benchmark process's plus
    that of the children alive when the stage ends, scaled by the
    reference timings taken while the stage ran (see
    :meth:`hostspeed.HostSpeed.sampling`).
    """

    def __init__(self, host: HostSpeed) -> None:
        self._host = host
        self.cpu_s: dict[str, float] = {}
        self.wall_s: dict[str, float] = {}

    @contextlib.contextmanager
    def stage(
        self, name: str, children: Callable[[], list[int]] | None = None
    ) -> Iterator[None]:
        wall0 = time.perf_counter_ns()
        cpu0 = time.process_time_ns()
        with self._host.sampling() as timings:
            yield
            cpu = time.process_time_ns() - cpu0
            if children is not None:
                # Children were born inside the stage: all their CPU is its.
                cpu += sum(proc.cpu_ns(pid) for pid in children())
            wall = time.perf_counter_ns() - wall0
        cpu -= timings.pop()
        median = statistics.median(timings)
        factor = self._host.factor(median, median)
        self.cpu_s[name] = cpu * factor / 1e9
        self.wall_s[name] = wall / 1e9

    def total_cpu_s(self) -> float:
        return sum(self.cpu_s.values())

    def total_wall_s(self) -> float:
        return sum(self.wall_s.values())


class Workload(Protocol):
    """One of the four workloads."""

    ops_per_unit: int

    def setup(self, stages: SetupStages) -> None:
        """One full set-up, each stage inside ``stages.stage(...)``."""

    def discard(self) -> None:
        """Undo :meth:`setup` (idempotent): stop processes, close files."""

    def server_pids(self) -> dict[str, list[int]]:
        """Serving processes by layer; empty for in-process workloads."""

    def warm_up(self) -> None:
        """The untimed pass that fills caches and finishes lazy set-up."""

    def run_unit(self, index: int, traced: bool) -> UnitSample:
        """Execute unit ``index`` and time it."""

    def check_unit(self, index: int) -> int:
        """Compare unit ``index``'s outputs with the oracle (untimed);
        returns how many of its ops failed."""

    def finish(self, unit_factor: float) -> dict[str, float]:
        """After the last unit: end-of-run checks and measurements.
        Returns at least ``server_rss_mb``, ``bytes_per_ad`` and
        ``extra_attempted`` / ``extra_failed``; in the traced run also
        the workload's per-layer metrics, with times taken from spans
        of the timed units multiplied by ``unit_factor``."""


@dataclass(slots=True)
class RunResult:
    attempted: int = 0
    failed: int = 0
    disturbed: bool = False
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def measure(workload: Workload, ctx: RunContext, host: HostSpeed) -> RunResult:
    """Run ``workload`` under the protocol; see the module docstring."""
    result = RunResult()
    load_start = os.getloadavg()[0]

    setups: list[SetupStages] = []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.discard()
            stages = SetupStages(host)
            workload.setup(stages)
            setups.append(stages)
        workload.warm_up()
        gc.collect()
        setup_factors = len(host.factors)

        pids = workload.server_pids()
        ops_per_s: list[float] = []
        raw_ops_per_s: list[float] = []
        p50_ms: list[float] = []
        all_latency_ms: list[float] = []
        cpu_ms: dict[str, list[float]] = {
            layer: [] for layer in ("client", *pids)
        }
        traced_rate: list[float] = []
        untraced_rate: list[float] = []

        before = host.sample()
        for index in range(ctx.units):
            # In the traced run every second unit records spans, so the
            # tracing overhead is a paired comparison on one host state.
            traced = ctx.tracer is not None and index % 2 == 0
            server0 = {
                layer: sum(proc.cpu_ns(pid) for pid in layer_pids)
                for layer, layer_pids in pids.items()
            }
            client0 = time.process_time_ns()
            sample = workload.run_unit(index, traced)
            client_cpu = time.process_time_ns() - client0
            server_cpu = {
                layer: sum(proc.cpu_ns(pid) for pid in layer_pids)
                - server0[layer]
                for layer, layer_pids in pids.items()
            }
            after = host.sample()
            factor = host.factor(before, after)

            seconds = sample.elapsed_ns * factor / 1e9
            rate = sample.ops / seconds
            ops_per_s.append(rate)
            raw_ops_per_s.append(sample.ops / (sample.elapsed_ns / 1e9))
            (traced_rate if traced else untraced_rate).append(rate)
            latencies = [ns * factor / 1e6 for ns in sample.latencies_ns]
            p50_ms.append(statistics.median(latencies))
            all_latency_ms.extend(latencies)
            cpu_ms["client"].append(client_cpu * factor / 1e6 / sample.ops)
            for layer, cpu in server_cpu.items():
                cpu_ms[layer].append(cpu * factor / 1e6 / sample.ops)

            check0 = time.perf_counter_ns()
            result.failed += workload.check_unit(index)
            result.attempted += sample.ops
            if time.perf_counter_ns() - check0 > RESAMPLE_AFTER_NS:
                before = host.sample()
            else:
                before = after

        unit_factors = host.factors[setup_factors:]
        final = workload.finish(statistics.median(unit_factors))
    finally:
        workload.discard()

    result.attempted += int(final.pop("extra_attempted", 0))
    result.failed += int(final.pop("extra_failed", 0))
    factor_iqr = quartile_spread(unit_factors)
    result.disturbed = factor_iqr > DISTURBED_IQR

    result.end_to_end = {
        "ops_per_s": statistics.median(ops_per_s),
        "latency_p50_ms": statistics.median(p50_ms),
        "cpu_ms_per_op": sum(statistics.median(values) for values in cpu_ms.values()),
        "server_rss_mb": final.pop("server_rss_mb"),
        "bytes_per_ad": final.pop("bytes_per_ad"),
        "setup_s": statistics.median([s.total_cpu_s() for s in setups]),
    }

    ordered = sorted(all_latency_ms)
    layers = result.layers
    layers.update(final)
    layers["client.latency_p50_ms"] = statistics.median(
        p50_ms[1::2] if ctx.tracer is not None else p50_ms
    )
    layers["client.latency_p99_ms"] = ordered[int(0.99 * (len(ordered) - 1))]
    layers["client.latency_max_ms"] = ordered[-1]
    for layer, values in cpu_ms.items():
        layers[f"{layer}.cpu_ms_per_op"] = statistics.median(values)
    for name in ("build_index", "pack", "open"):
        layers[f"setup.{name}_s"] = statistics.median([s.cpu_s.get(name, 0.0) for s in setups])
    layers["setup.boot_cpu_s"] = statistics.median([s.cpu_s.get("boot", 0.0) for s in setups])
    layers["setup.boot_wall_s"] = statistics.median([s.wall_s.get("boot", 0.0) for s in setups])
    layers["setup.wall_s"] = statistics.median([s.total_wall_s() for s in setups])
    layers["host.speed_factor_p50"] = statistics.median(unit_factors)
    layers["host.speed_factor_iqr"] = factor_iqr
    layers["host.raw_ops_per_s"] = statistics.median(raw_ops_per_s)
    layers["host.loadavg_start"] = load_start
    if "budget.client_ms" in layers:
        # What the in-process layer times leave unexplained of the
        # client's median: socket hops, wake-ups, the batching wait.
        layers["net.hop_residual_ms"] = layers["client.latency_p50_ms"] - sum(
            layers[f"budget.{part}_ms"]
            for part in ("client", "wire", "frontend", "serving")
        )
    if traced_rate and untraced_rate:
        layers["trace.overhead_share"] = 1.0 - statistics.median(traced_rate) / statistics.median(
            untraced_rate
        )
    return result


def mean_us(values_ns: list[int]) -> float:
    """Mean of ``values_ns`` in microseconds; 0 for none."""
    if not values_ns:
        return 0.0
    return sum(values_ns) / len(values_ns) / 1e3
