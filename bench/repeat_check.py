"""Does the benchmark agree with itself?

Takes two sets of N untraced runs per workload from the same checkout,
workloads alternating, run *i* of either set on seed ``base + i`` - the
way the driver compares a commit with its parent, only with the same
code on both sides - and prints, for every end-to-end metric of every
workload, both medians, their relative difference, each set's quartile
spread and the bound ``BENCHMARK.json`` fixes.

Exit code 0: every pair agrees within its bound (``setup_s`` included).
Exit code 1: some pair does not.  Exit code 3: the pairs agree, but a
run printed ``disturbed: true``, so the host moved under the benchmark
and the agreement says less than it should.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from hostspeed import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(
    spec: dict[str, Any], workload: str, seed: int
) -> tuple[dict[str, float], bool]:
    """One untraced run, started the way the driver starts it; its
    end-to-end metrics and whether it was disturbed."""
    done = subprocess.run(
        [
            *spec["command"],
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    document = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in document["metrics"].items()}
    return metrics, "disturbed: true" in lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[set][workload][metric] -> one value per run
    values = [
        {w: {m["name"]: [] for m in metrics} for w in workloads} for _ in range(2)
    ]
    disturbed = 0
    for side in range(2):
        for i in range(args.runs):
            for workload in workloads:
                started = time.perf_counter()
                result, noisy = run_once(spec, workload, args.base_seed + i)
                disturbed += noisy
                for name, value in result.items():
                    values[side][workload][name].append(value)
                print(
                    f"set {side + 1} run {i + 1}/{args.runs} {workload} "
                    f"{time.perf_counter() - started:.1f} s"
                    + (" (disturbed)" if noisy else ""),
                    file=sys.stderr,
                    flush=True,
                )

    print(
        f"{'workload':13s} {'metric':15s} {'median 1':>12s} {'median 2':>12s} "
        f"{'worse by':>9s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}"
    )
    exceeded = 0
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = values[0][workload][name]
            second = values[1][workload][name]
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            spreads = [quartile_spread(first), quartile_spread(second)]
            # A spread of setup_s is reported but, as with the driver,
            # only its medians are held to the bound.
            bad = worse > bound or (
                name != "setup_s" and max(spreads) > bound
            )
            exceeded += bad
            print(
                f"{workload:13s} {name:15s} {m1:12.4f} {m2:12.4f} "
                f"{worse:+9.4f} {spreads[0]:9.4f} {spreads[1]:9.4f} {bound:6.2f}"
                + ("  EXCEEDED" if bad else "")
            )
    print(f"disturbed runs: {disturbed} of {2 * args.runs * len(workloads)}")
    if exceeded:
        return 1
    return 3 if disturbed else 0


if __name__ == "__main__":
    raise SystemExit(main())
