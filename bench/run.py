"""The one benchmark command of the serving stack.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one of four workloads (``net_uniq``, ``net_zipf``, ``inproc_long``,
``tiered_churn``) under the protocol of :mod:`harness`, checks every
output against the ``WordSetIndex`` oracle, prints every metric by name
with its unit and ends with one JSON object.  ``--trace 0`` prints the
six end-to-end metrics, ``--trace 1`` the per-layer metrics of a run
that records spans.  ``--quick`` is a smoke over all four workloads on
a small corpus.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

#: Where the benchmark writes: cached inputs, per-run files, traces.
#: Relative, and the process works from ROOT, so AF_UNIX socket paths
#: stay far below their 108-byte limit wherever the checkout lives.
SCRATCH = Path(".bench_scratch")

WORKLOADS = ("net_uniq", "net_zipf", "inproc_long", "tiered_churn")

#: Units that fit one second on the undisturbed host (a unit is ~100 ms
#: of work plus a reference sample and the correctness check); fixed, so
#: the work of a run follows from ``--seconds`` and not from the host's
#: mood.
UNITS_PER_SECOND = 7
MIN_UNITS = 10


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, in print order.  They
    are listed in ``BENCHMARK.json`` and nowhere else."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _re_exec() -> None:
    script = str(Path(__file__).resolve())
    os.execv(sys.executable, [sys.executable, script, *sys.argv[1:]])


def pin_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0``: set iteration order decides
    the generated corpus and the order of probe plans."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        _re_exec()


def cache_inputs(quick: bool) -> None:
    """Generate the inputs if this checkout has none yet, then start
    over: a process that generated them has another heap than one that
    loaded them, and resident memory must not depend on which it was."""
    from inputs import FULL, QUICK, ensure_cached

    os.chdir(ROOT)
    if ensure_cached(SCRATCH, QUICK if quick else FULL):
        _re_exec()


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
) -> tuple[dict[str, Any], list[str]]:
    """Run one workload; returns the result object of the last output
    line and the human-readable lines before it."""
    # Imported here: everything below needs ``repro`` on the path and
    # must not be imported by a bare ``--help``.
    import inproc
    import net
    from harness import RunContext, measure
    from hostspeed import HostSpeed
    from inputs import FULL, QUICK, load_inputs
    from spans import Tracer

    # name -> (workload factory, most units the pools can feed)
    table = {
        "net_uniq": (lambda ctx: net.NetWorkload(ctx, zipf=False), net.uniq_capacity),
        "net_zipf": (lambda ctx: net.NetWorkload(ctx, zipf=True), None),
        "inproc_long": (inproc.InprocLongWorkload, inproc.long_capacity),
        "tiered_churn": (inproc.TieredChurnWorkload, inproc.tiered_capacity),
    }
    factory, capacity = table[name]

    os.chdir(ROOT)
    run_dir = SCRATCH / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(run_dir.resolve())
    try:
        inputs = load_inputs(SCRATCH, QUICK if quick else FULL)
        # The inputs live as long as the process: keep the collector
        # from rescanning them, and forked workers from touching them.
        gc.collect()
        gc.freeze()
        units = MIN_UNITS if quick else max(MIN_UNITS, int(seconds * UNITS_PER_SECOND))
        if capacity is not None:
            units = min(units, capacity(inputs))
        tracer = Tracer() if trace else None
        ctx = RunContext(
            inputs=inputs, seed=seed, units=units, scratch=run_dir, tracer=tracer
        )
        result = measure(factory(ctx), ctx, HostSpeed())
        if tracer is not None:
            traces = SCRATCH / "traces"
            traces.mkdir(exist_ok=True)
            tracer.dump(str(traces / f"{name}-seed{seed}.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units_of = metric_units(trace)
    if trace:
        unlisted = set(result.layers) - set(units_of)
        if unlisted:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
        # A layer a workload does not touch reads 0.
        values = {n: result.layers.get(n, 0.0) for n in units_of}
    else:
        values = result.end_to_end
    lines = [
        f"workload: {name}  seed: {seed}  units: {units}  "
        f"ops/unit: {result.attempted // units}  "
        f"affinity: {sorted(os.sched_getaffinity(0))}",
        f"disturbed: {'true' if result.disturbed else 'false'}",
    ]
    lines += [f"{n:36s} {values[n]:16.6f} {units_of[n]}" for n in units_of]
    document = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            n: {"value": float(values[n]), "unit": units_of[n]} for n in units_of
        },
    }
    return document, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke: small corpus, 10 units; all four workloads unless "
        "--workload names one",
    )
    args = parser.parse_args(argv)
    if args.workload is None and not args.quick:
        parser.error("--workload is required (or --quick for the smoke)")
    pin_hash_seed()
    cache_inputs(args.quick)

    names = [args.workload] if args.workload else list(WORKLOADS)
    failed = False
    for name in names:
        document, lines = execute(
            name, args.seed, args.seconds, bool(args.trace), quick=args.quick
        )
        print("\n".join(lines))
        print(json.dumps(document, separators=(", ", ": ")), flush=True)
        failed = failed or not document["correct"]
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
