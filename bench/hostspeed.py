"""Host-speed reference loop and the normalisation built on it.

This shared 2-core host changes speed by tens of percent within minutes,
so a raw time says as much about the neighbours as about the program.
The benchmark therefore times a fixed piece of standard-library work
(:func:`reference_work`) before and after every unit and multiplies the
unit's time by ``REFERENCE_NS / mean(adjacent reference timings)``.
Normalised times are in *reference seconds*: on the undisturbed host a
reference second is a second.

The reference work is subset enumeration into a ``set`` plus a ``json``
round trip - the two things the serving stack spends its time on - so a
new interpreter or a different cache pressure ages it the way it ages
the program.  It imports nothing from ``repro``.

Run ``python3 bench/hostspeed.py`` for the self-test: it times only the
reference loop and a second fixed stdlib probe for 30 s and prints the
raw and the normalised spread of the probe's 5-second window medians,
so a reviewer can tell a noisy host from a noisy benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import statistics
import time
from collections.abc import Callable, Iterator
from itertools import combinations

__all__ = [
    "DISTURBED_IQR",
    "REFERENCE_NS",
    "HostSpeed",
    "quartile_spread",
    "reference_work",
]

#: What one :meth:`HostSpeed.sample` reads on this host when nothing
#: else runs (median of 2 000 samples, Python 3.11).  A constant, so
#: that normalised numbers from different runs share one scale.
REFERENCE_NS = 4_400_000

#: How often :meth:`HostSpeed.sampling` times the reference work.
SAMPLING_PERIOD_S = 0.04

#: Above this quartile spread of the per-unit speed factor a run is
#: reported as ``disturbed``.
DISTURBED_IQR = 0.15

_WORDS = tuple(f"kw{i:05d}" for i in range(13))
_FRAME = {
    "type": "result",
    "request_id": "r000123",
    "generation": 0,
    "result": {
        "query": list(_WORDS[:5]),
        "degraded_reason": "none",
        "outcome": {
            "reserve_micros": 1,
            "candidates": 768,
            "awards": [
                {
                    "slot": slot,
                    "bid_micros": 442_413 + slot,
                    "quality": 1.0,
                    "price_micros": 400_000 + slot,
                    "ad": {
                        "phrase": list(_WORDS[slot : slot + 3]),
                        "listing_id": 1_000 + slot,
                        "campaign_id": slot,
                        "bid_price_micros": 442_413,
                    },
                }
                for slot in range(4)
            ],
        },
    },
}


def reference_work() -> int:
    """The fixed work: 2 379 subsets into a set, 120 JSON round trips."""
    seen: set[frozenset[str]] = set()
    add = seen.add
    for size in (1, 2, 3, 4, 5):
        for subset in combinations(_WORDS, size):
            add(frozenset(subset))
    total = len(seen)
    for _ in range(120):
        total += len(json.loads(json.dumps(_FRAME, separators=(",", ":"))))
    return total


def quartile_spread(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


class HostSpeed:
    """Reference timings and the factors derived from them.

    ``clock`` returns nanoseconds and ``work`` is what gets timed; both
    are injectable so that the arithmetic is testable on a fake clock.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        work: Callable[[], object] = reference_work,
        reference_ns: int = REFERENCE_NS,
    ) -> None:
        self._clock = clock
        self._work = work
        self.reference_ns = reference_ns
        self.factors: list[float] = []

    def sample(self) -> int:
        """One reference timing: the median of three back-to-back runs,
        so that a single preemption cannot move it."""
        timings = []
        for _ in range(3):
            started = self._clock()
            self._work()
            timings.append(self._clock() - started)
        return sorted(timings)[1]

    def factor(self, before_ns: int, after_ns: int) -> float:
        """The multiplier that turns a raw time measured between two
        reference samples into reference time; recorded for the
        ``host.*`` layer metrics."""
        factor = self.reference_ns / ((before_ns + after_ns) / 2)
        self.factors.append(factor)
        return factor

    @contextlib.contextmanager
    def sampling(self) -> Iterator[list[int]]:
        """Time the reference work every 40 ms *while* the body
        runs, on an interval timer in this (the main) thread; yields the
        list the timings (one work run each) are appended to.

        For work that cannot be cut into units, such as a 1 s index
        build: this host changes speed within tenths of a second, so
        samples taken only before and after say little about the speed
        the work itself met.  Measured on ten builds: quartile spread of
        CPU seconds 8 % raw, 12-16 % scaled by the two end samples, 3 %
        scaled by the median of the samples taken meanwhile.  The list's
        last entry is the CPU nanoseconds the sampling itself used, for
        the caller to subtract.
        """
        timings: list[int] = []
        used = [0]

        def on_timer(signum: int, frame: object) -> None:
            cpu0 = time.process_time_ns()
            started = self._clock()
            self._work()
            timings.append(self._clock() - started)
            used[0] += time.process_time_ns() - cpu0

        previous = signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLING_PERIOD_S, SAMPLING_PERIOD_S)
        try:
            yield timings
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            if not timings:
                # Shorter than one period: one sample right after.
                on_timer(signal.SIGALRM, None)
            timings.append(used[0])

    def factor_p50(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0

    def factor_iqr(self) -> float:
        return quartile_spread(self.factors)


# ------------------------------------------------------------------ #
# Self-test


def _probe_work() -> int:
    """A second fixed stdlib workload (~100 ms), unlike the reference in
    its mix: sorting, string building and dict churn."""
    table: dict[str, int] = {}
    for i in range(60_000):
        table[f"k{i % 4_093}:{i}"] = i
    ordered = sorted(table, key=lambda key: (len(key), key))
    return len("".join(ordered[::7]))


def self_test(seconds: float, window_s: float = 5.0) -> dict[str, float]:
    """Run only reference and probe for ``seconds``; report how far the
    probe's window medians move raw and after normalisation."""
    host = HostSpeed()
    windows_raw: list[float] = []
    windows_norm: list[float] = []
    raw: list[float] = []
    norm: list[float] = []
    started = window_started = time.perf_counter()
    before = host.sample()
    while time.perf_counter() - started < seconds:
        t0 = time.perf_counter_ns()
        _probe_work()
        elapsed = time.perf_counter_ns() - t0
        after = host.sample()
        raw.append(float(elapsed))
        norm.append(elapsed * host.factor(before, after))
        before = after
        if time.perf_counter() - window_started >= window_s:
            windows_raw.append(statistics.median(raw))
            windows_norm.append(statistics.median(norm))
            raw, norm = [], []
            window_started = time.perf_counter()
    if raw:
        windows_raw.append(statistics.median(raw))
        windows_norm.append(statistics.median(norm))

    def moved(values: list[float]) -> float:
        return (max(values) - min(values)) / statistics.median(values)

    return {
        "windows": len(windows_raw),
        "reference_ms_p50": host.reference_ns / host.factor_p50() / 1e6,
        "speed_factor_p50": host.factor_p50(),
        "speed_factor_iqr": host.factor_iqr(),
        "raw_window_spread": moved(windows_raw),
        "normalised_window_spread": moved(windows_norm),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    report = self_test(args.seconds)
    for name, value in report.items():
        print(f"{name:28s} {value:.4f}")
    noisy = report["speed_factor_iqr"] > DISTURBED_IQR
    print("host:", "disturbed" if noisy else "steady")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
