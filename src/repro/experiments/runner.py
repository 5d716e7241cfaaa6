"""CLI driver: regenerate every paper table and figure.

Usage::

    python -m repro.experiments.runner                # all, small scale
    python -m repro.experiments.runner fig8 fig10     # a subset
    python -m repro.experiments.runner --scale medium # bigger inputs
    python -m repro.experiments.runner fig9 --metrics-out runs.prom

``--metrics-out`` records one ``span.experiment.<id>`` wall-clock sample
per experiment into a shared :class:`repro.obs.MetricsRegistry` and writes
it on exit (``.json`` -> JSON snapshot, else Prometheus exposition).

Run as a module, the runner re-executes itself under
``PYTHONHASHSEED=0`` unless the variable is already ``0``: the query
generator orders a query's tokens by iterating a set, so phrase-match
counts (``ext-matchtypes``) follow the interpreter's hash seed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.experiments import (
    ext_drift,
    ext_hwcompare,
    ext_impact,
    ext_matchtypes,
    ext_sharding,
    ext_structures,
    fig1_bid_lengths,
    fig2_wordset_zipf,
    fig3_mt_lengths,
    fig7_keyword_vs_combo,
    fig8_bytes_ratio,
    fig9_latency_dist,
    fig10_remapping,
    tab_compression,
    tab_hardware_counters,
    tab_inverted_throughput,
    tab_multiserver,
)
from repro.experiments.common import SCALES, SMALL
from repro.obs import MetricsRegistry
from repro.obs.export import write_metrics

#: Paper artifacts first, then extension studies (`ext-*`) that go beyond
#: the paper's evaluation.
EXPERIMENTS = {
    "fig1": fig1_bid_lengths,
    "fig2": fig2_wordset_zipf,
    "fig3": fig3_mt_lengths,
    "fig7": fig7_keyword_vs_combo,
    "fig8": fig8_bytes_ratio,
    "fig9": fig9_latency_dist,
    "fig10": fig10_remapping,
    "tab-inverted": tab_inverted_throughput,
    "tab-multiserver": tab_multiserver,
    "tab-counters": tab_hardware_counters,
    "tab-compression": tab_compression,
    "ext-structures": ext_structures,
    "ext-drift": ext_drift,
    "ext-sharding": ext_sharding,
    "ext-matchtypes": ext_matchtypes,
    "ext-hwcompare": ext_hwcompare,
    "ext-impact": ext_impact,
}


def run_experiment(name: str, scale, seed: int = 0) -> str:
    """Run one experiment by id; returns its formatted report."""
    module = EXPERIMENTS[name]
    result = module.run(scale=scale, seed=seed)
    return module.format_report(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*EXPERIMENTS, "all"],
        default="all",
        help="experiment ids (default: all)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=SMALL.name,
        help="input sizes (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write per-experiment wall-clock spans to this file "
        "(.json -> JSON snapshot, else Prometheus exposition)",
    )
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if args.experiments in ("all", ["all"], []) else (
        args.experiments if isinstance(args.experiments, list) else [args.experiments]
    )
    scale = SCALES[args.scale]
    registry = MetricsRegistry() if args.metrics_out else None
    for name in names:
        started = time.perf_counter()
        if registry is not None:
            with registry.span(f"experiment.{name}"):
                report = run_experiment(name, scale, seed=args.seed)
            registry.counter(
                "experiments.completed", "Experiments run to completion"
            ).inc()
        else:
            report = run_experiment(name, scale, seed=args.seed)
        elapsed = time.perf_counter() - started
        print(f"==== {name} (scale={scale.name}, {elapsed:.1f}s) " + "=" * 20)
        print(report)
    if registry is not None:
        write_metrics(registry, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    return 0


def pin_hash_seed() -> None:
    """Re-exec this module under ``PYTHONHASHSEED=0`` unless it already
    runs under it, so that every table is a function of ``--seed``."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(
            sys.executable,
            [sys.executable, "-m", "repro.experiments.runner", *sys.argv[1:]],
        )


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
