"""Kill-driven chaos drill for the supervised serving cluster.

The smoke gate proves the tier works when nothing goes wrong; this
module proves the *resilience* claims hold when things do.  It boots a
supervised cluster (frontend in its own process, workers over one
shared segment), drives it with the closed-loop generator, and — while
traffic is in flight — injects the failures PR 10 is about:

* **SIGKILL** random running workers (crash: the supervisor must see
  the death and respawn);
* **SIGSTOP** one worker (hang: alive but silent — the heartbeat must
  catch it, SIGKILL the frozen process, and respawn);
* **tear client connections** mid-frame (a half-written request then an
  abrupt close must not wedge the frontend).

Gates, evaluated after a post-recovery quiet phase:

1. **Zero hangs** — every request issued during chaos got a reply or a
   typed error inside the client budget (``timeouts == 0`` in both
   phases).  Errors during a kill are acceptable; silence never is.
2. **Recovery** — the supervisor reports every worker RUNNING within
   ``recovery_window_s`` of the last injection, and its ``respawns``
   counter covers every injected failure.
3. **No retirements** — nothing tripped the crash-loop budget; the
   frontend reports no permanently failed workers and its breakers
   came back (reset to half-open on respawn, closed by real traffic).
4. **SLO outside the kill window** — quiet-phase p99 within
   ``p99_slo_ms`` and zero quiet-phase errors.

The report (persisted with ``--out``) records the injection schedule,
both loadgen reports, the supervision counters, and the frontend's
failover/breaker counters — the chaos run's SLO statement.  Run it as
CI does::

    PYTHONPATH=src python -m repro.netserve.chaos --out chaos-report.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import signal
import socket
import struct
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, sleep
from typing import Any

from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.datagen.querygen import QueryConfig, generate_workload
from repro.netserve.client import ServeClient
from repro.netserve.cluster import ClusterConfig, ServingCluster
from repro.netserve.loadgen import LoadGenConfig, run_loadgen
from repro.netserve.supervisor import SupervisorConfig
from repro.netserve.wire import HEADER
from repro.perf.bench import make_long_queries
from repro.segment.builder import SegmentBuilder

__all__ = ["ChaosConfig", "run_chaos"]


@dataclass(frozen=True, slots=True)
class ChaosConfig:
    """One chaos drill.

    The defaults are sized for CI: a few seconds of traffic, two
    SIGKILLs and one SIGSTOP, a recovery window generous enough for a
    loaded runner but tight enough that a supervisor that *isn't*
    respawning fails the gate rather than timing out the job.
    """

    num_ads: int = 3_000
    num_workers: int = 3
    concurrency: int = 8
    chaos_duration_s: float = 6.0
    quiet_duration_s: float = 2.0
    deadline_ms: float = 500.0
    kills: int = 2
    sigstops: int = 1
    conn_teardowns: int = 3
    recovery_window_s: float = 15.0
    p99_slo_ms: float = 250.0
    client_timeout_s: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 2:
            raise ValueError(
                "chaos needs >= 2 workers (failover requires a survivor)"
            )
        if self.kills < 0 or self.sigstops < 0 or self.conn_teardowns < 0:
            raise ValueError("injection counts must be >= 0")
        if self.chaos_duration_s <= 0 or self.quiet_duration_s <= 0:
            raise ValueError("phase durations must be positive")
        if self.recovery_window_s <= 0:
            raise ValueError("recovery_window_s must be positive")


def _injection_schedule(config: ChaosConfig) -> list[tuple[float, str]]:
    """``(at_fraction, kind)`` events, spread across the chaos window.

    The schedule is deterministic (only *victim selection* uses the
    seeded RNG): injections sit between 15% and 70% of the window so
    the last respawn has in-window traffic to prove itself against.
    """
    events = [("kill",)] * config.kills + [("sigstop",)] * config.sigstops
    events += [("teardown",)] * config.conn_teardowns
    if not events:
        return []
    span = 0.70 - 0.15
    step = span / len(events)
    return [
        (0.15 + i * step, kind)
        for i, (kind,) in enumerate(events)
    ]


def _tear_connection(host: str, port: int) -> None:
    """Write half a frame, then vanish — the rudest client possible."""
    with contextlib.suppress(OSError):
        with socket.create_connection((host, port), timeout=2.0) as sock:
            # A header promising 64 bytes, then only 8 of them.
            sock.sendall(HEADER.pack(64) + b'{"type":"')
            # linger on, timeout 0 → close sends RST instead of FIN.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )


def run_chaos(config: ChaosConfig | None = None) -> tuple[dict, list[str]]:
    """One chaos drill; returns ``(report, failures)``."""
    config = config if config is not None else ChaosConfig()
    rng = random.Random(config.seed)
    generated = generate_corpus(
        CorpusConfig(num_ads=config.num_ads, seed=config.seed)
    )
    workload = generate_workload(
        generated,
        QueryConfig(
            num_distinct=200, total_frequency=2_000, seed=config.seed + 1
        ),
    )
    queries = make_long_queries(
        generated, workload, 32, 10, seed=config.seed + 2
    )
    index = WordSetIndex.from_corpus(generated.corpus)
    events: list[dict[str, Any]] = []
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="netserve-chaos-") as tmp:
        segment_path = Path(tmp) / "chaos.seg"
        SegmentBuilder(index).write(segment_path)
        cluster_config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=config.num_workers,
            frontend_process=True,
            default_deadline_ms=config.deadline_ms,
            # Fail fast past a frozen worker: the frontend's per-attempt
            # budget must be well under the client's, so even a request
            # that burns one attempt on a SIGSTOP'd worker and fails
            # over still answers inside client_timeout_s.
            worker_timeout_s=1.0,
            supervise=True,
            supervisor=SupervisorConfig(
                poll_interval_s=0.1,
                ping_timeout_s=0.5,
                hang_misses=2,
                backoff_initial_s=0.05,
                backoff_max_s=0.5,
            ),
        )
        with ServingCluster(cluster_config) as cluster:
            host, port = cluster.address
            supervisor = cluster.supervisor
            assert supervisor is not None  # supervise=True above

            loadgen_config = LoadGenConfig(
                host=host,
                port=port,
                duration_s=config.chaos_duration_s,
                concurrency=config.concurrency,
                deadline_ms=config.deadline_ms,
                timeout_s=config.client_timeout_s,
            )
            chaos_report: dict[str, Any] = {}

            def _drive() -> None:
                try:
                    chaos_report.update(run_loadgen(loadgen_config, queries))
                except Exception as exc:  # noqa: BLE001 — gate below
                    chaos_report["driver_error"] = repr(exc)

            stopped_pids: list[int] = []
            driver = threading.Thread(target=_drive, name="chaos-loadgen")
            phase_started = monotonic()
            driver.start()
            for fraction, kind in _injection_schedule(config):
                at = phase_started + fraction * config.chaos_duration_s
                delay = at - monotonic()
                if delay > 0:
                    sleep(delay)
                now = monotonic() - phase_started
                if kind == "teardown":
                    _tear_connection(host, port)
                    events.append({"t_s": now, "kind": "teardown"})
                    continue
                victims = supervisor.running_workers()
                if not victims:
                    events.append(
                        {"t_s": now, "kind": kind, "skipped": "no victims"}
                    )
                    failures.append(
                        f"{kind} injection found no running worker to target"
                    )
                    continue
                worker_id, pid = rng.choice(victims)
                sig = (
                    signal.SIGKILL if kind == "kill" else signal.SIGSTOP
                )
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, sig)
                if kind == "sigstop":
                    stopped_pids.append(pid)
                events.append(
                    {"t_s": now, "kind": kind, "worker_id": worker_id,
                     "pid": pid}
                )
            driver.join(timeout=config.chaos_duration_s + 30.0)
            if driver.is_alive():  # pragma: no cover — harness bug
                failures.append("chaos loadgen never finished")

            # The supervisor SIGKILLs frozen workers itself; SIGCONT is
            # belt-and-braces for a pid it already replaced.
            for pid in stopped_pids:
                with contextlib.suppress(ProcessLookupError, OSError):
                    os.kill(pid, signal.SIGCONT)

            # ---- recovery gate -------------------------------------
            # "Recovered" needs both halves: every worker RUNNING *and*
            # the respawn counters covering every injected failure —
            # all_running() alone is vacuously true in the race window
            # before the supervisor's next tick notices a fresh corpse.
            injected_failures = config.kills + config.sigstops
            recovery_started = monotonic()
            recovered_in_s: float | None = None
            while monotonic() - recovery_started < config.recovery_window_s:
                counters_now = supervisor.stats()["counters"]
                handled = counters_now.get(
                    "supervisor.respawns", 0
                ) + counters_now.get("supervisor.crash_loops", 0)
                if handled >= injected_failures and supervisor.all_running():
                    recovered_in_s = monotonic() - recovery_started
                    break
                sleep(0.1)
            if recovered_in_s is None:
                failures.append(
                    "cluster did not recover to full worker count within "
                    f"{config.recovery_window_s}s"
                )

            # ---- quiet phase ---------------------------------------
            quiet_report = run_loadgen(
                LoadGenConfig(
                    host=host,
                    port=port,
                    duration_s=config.quiet_duration_s,
                    concurrency=config.concurrency,
                    deadline_ms=config.deadline_ms,
                    timeout_s=config.client_timeout_s,
                ),
                queries,
            )
            supervision = supervisor.stats()
            with ServeClient(
                host, port, config.client_timeout_s
            ) as probe:
                frontend_stats = probe.stats().get("frontend")

    # ---- gates (evaluated off live state, after teardown) ----------
    injected = config.kills + config.sigstops
    if "sent" not in chaos_report:
        # An empty report must not pass the timeout gate vacuously.
        failures.append(
            "chaos loadgen produced no report"
            + (
                f" ({chaos_report['driver_error']})"
                if "driver_error" in chaos_report
                else ""
            )
        )
    for phase, report in (("chaos", chaos_report), ("quiet", quiet_report)):
        timeouts = report.get("timeouts", 0)
        if timeouts:
            failures.append(
                f"{phase} phase: {timeouts} client timeouts — a request "
                "was left hanging instead of answered or errored"
            )
    counters = supervision["counters"]
    if counters.get("supervisor.respawns", 0) < injected:
        failures.append(
            f"supervisor respawned {counters.get('supervisor.respawns', 0)} "
            f"workers but {injected} failures were injected"
        )
    if config.sigstops and not counters.get("supervisor.hangs_detected", 0):
        failures.append(
            "a worker was SIGSTOP'd but no hang was ever detected"
        )
    if counters.get("supervisor.crash_loops", 0):
        failures.append(
            f"{counters['supervisor.crash_loops']} workers were retired "
            "as crash loops during a survivable drill"
        )
    for worker in supervision["workers"]:
        if worker["status"] != "running":
            failures.append(
                f"worker {worker['worker_id']} ended the drill "
                f"{worker['status']} (last failure: {worker['last_failure']})"
            )
        if worker["mapping_ok"] is False:
            failures.append(
                f"worker {worker['worker_id']} lost zero-copy after respawn"
            )
    frontend_counters = (frontend_stats or {}).get("counters", {})
    failed_workers = (frontend_stats or {}).get("failed_workers", [])
    if failed_workers:
        failures.append(
            f"frontend still routes around workers {failed_workers} "
            "after recovery"
        )
    if config.kills and not frontend_counters.get(
        "frontend.breaker_resets", 0
    ):
        failures.append(
            "workers respawned but no breaker was ever reset to half-open"
        )
    if quiet_report.get("errors", 0):
        failures.append(
            f"quiet phase saw {quiet_report['errors']} errors after "
            "recovery was declared"
        )
    quiet_p99 = quiet_report.get("latency_ms", {}).get("p99")
    if quiet_p99 is not None and quiet_p99 > config.p99_slo_ms:
        failures.append(
            f"quiet-phase p99 {quiet_p99:.1f}ms exceeds the "
            f"{config.p99_slo_ms}ms SLO"
        )
    if quiet_report.get("degenerate"):
        failures.append(
            "quiet-phase run is degenerate: "
            + ", ".join(quiet_report.get("degenerate_reasons", []))
        )

    report = {
        "config": {
            "num_ads": config.num_ads,
            "num_workers": config.num_workers,
            "concurrency": config.concurrency,
            "chaos_duration_s": config.chaos_duration_s,
            "quiet_duration_s": config.quiet_duration_s,
            "kills": config.kills,
            "sigstops": config.sigstops,
            "conn_teardowns": config.conn_teardowns,
            "recovery_window_s": config.recovery_window_s,
            "p99_slo_ms": config.p99_slo_ms,
            "seed": config.seed,
        },
        "events": events,
        "recovered_in_s": recovered_in_s,
        "chaos": chaos_report,
        "quiet": quiet_report,
        "supervision": supervision,
        "frontend": frontend_stats,
        "failures": failures,
        "passed": not failures,
    }
    return report, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--num-ads", type=int, default=3_000)
    parser.add_argument("--workers", type=int, default=3)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--chaos-duration-s", type=float, default=6.0)
    parser.add_argument("--quiet-duration-s", type=float, default=2.0)
    parser.add_argument("--kills", type=int, default=2)
    parser.add_argument("--sigstops", type=int, default=1)
    parser.add_argument("--conn-teardowns", type=int, default=3)
    parser.add_argument("--recovery-window-s", type=float, default=15.0)
    parser.add_argument("--p99-slo-ms", type=float, default=250.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", type=str, default=None,
        help="persist the drill report as JSON (like BENCH_*.json)",
    )
    args = parser.parse_args(argv)
    report, failures = run_chaos(
        ChaosConfig(
            num_ads=args.num_ads,
            num_workers=args.workers,
            concurrency=args.concurrency,
            chaos_duration_s=args.chaos_duration_s,
            quiet_duration_s=args.quiet_duration_s,
            kills=args.kills,
            sigstops=args.sigstops,
            conn_teardowns=args.conn_teardowns,
            recovery_window_s=args.recovery_window_s,
            p99_slo_ms=args.p99_slo_ms,
            seed=args.seed,
        )
    )
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    if failures:
        print("chaos drill FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("chaos drill passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
