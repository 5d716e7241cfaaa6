"""Continuous-ingest churn drill for the tiered index.

The drill is the tiered tier's end-to-end correctness gate: a seeded
stream of inserts, deletes, duplicate inserts, and re-inserts of
previously deleted ads runs against a :class:`TieredSegmentedIndex`
with a live :class:`BackgroundMerger`, while an incrementally-mirrored
:class:`~repro.core.wordset_index.WordSetIndex` oracle receives the
same ops.  Every ``probe_every`` ops the two are queried with the same
query and the slates compared as multisets — any divergence is a
recorded mismatch and fails the drill.  Optionally every ``tiered.*``
and ``segment.*`` crashpoint is armed round-robin so seals and merges
keep crashing mid-flight; an injected crash is retried exactly like a
restarted maintenance daemon, and the drill still requires zero
mismatches.

At the end the overlay is sealed (the durability point), the live-ad
multiset compared against the oracle, the directory closed and
**reopened**, and compared again — the zero-lost-acknowledged-writes
gate.  ``python -m repro.segment.churn`` runs it standalone and exits
non-zero on any violation; CI's ``tiered-ingest-smoke`` job and
``benchmarks/test_bench_tiered.py`` both drive this module.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.ads import Advertisement, AdInfo
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.faults.injector import FaultInjector, InjectedCrash
from repro.obs.registry import MetricsRegistry
from repro.segment.format import TIERED_CRASHPOINTS
from repro.segment.tiered import (
    BackgroundMerger,
    TieredConfig,
    TieredSegmentedIndex,
)

__all__ = ["ChurnConfig", "ChurnResult", "run_churn_drill"]

#: Crashpoints the chaos mode cycles through: the tiered lifecycle's own
#: plus the segment writer's (seal and merge both go through
#: ``SegmentBuilder.write``).
CHAOS_POINTS: tuple[str, ...] = TIERED_CRASHPOINTS + (
    "segment.tmp_written",
    "segment.tmp_synced",
    "segment.renamed",
)


@dataclass(frozen=True, slots=True)
class ChurnConfig:
    """Shape of one churn drill run."""

    ops: int = 100_000
    seed: int = 7
    #: Fraction of ops that delete a live ad (when any exist).
    delete_fraction: float = 0.3
    #: Of the inserts, fraction that re-insert a previously deleted ad
    #: (the resurrect path) or duplicate a live one.
    reinsert_fraction: float = 0.1
    duplicate_fraction: float = 0.05
    #: Keyword / category vocabulary sizes (smaller -> more shared words).
    keywords: int = 60
    categories: int = 12
    #: Compare slates against the oracle every this many ops.
    probe_every: int = 200
    #: Arm the next chaos crashpoint every this many ops (0 = off).
    crash_every: int = 0
    seal_threshold: int = 256
    fan_in: int = 4

    def tiered_config(self) -> TieredConfig:
        return TieredConfig(
            seal_threshold=self.seal_threshold,
            fan_in=self.fan_in,
            auto_merge=False,
        )


@dataclass(slots=True)
class ChurnResult:
    """Outcome of a drill; ``ok`` is the gate CI checks."""

    ops_applied: int = 0
    inserts: int = 0
    deletes: int = 0
    resurrections: int = 0
    probes: int = 0
    mismatches: list[str] = field(default_factory=list)
    failed_queries: int = 0
    injected_crashes: int = 0
    merger_crashes: int = 0
    merger_errors: list[str] = field(default_factory=list)
    merges: int = 0
    seals: int = 0
    lost_writes: int = 0
    phantom_ads: int = 0
    reopen_consistent: bool = False
    elapsed_s: float = 0.0
    final_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.ops_applied / self.elapsed_s

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and not self.merger_errors
            and self.failed_queries == 0
            and self.lost_writes == 0
            and self.phantom_ads == 0
            and self.reopen_consistent
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "ops_applied": self.ops_applied,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "resurrections": self.resurrections,
            "probes": self.probes,
            "mismatches": self.mismatches[:5],
            "failed_queries": self.failed_queries,
            "injected_crashes": self.injected_crashes,
            "merger_crashes": self.merger_crashes,
            "merger_errors": self.merger_errors[:5],
            "merges": self.merges,
            "seals": self.seals,
            "lost_writes": self.lost_writes,
            "phantom_ads": self.phantom_ads,
            "reopen_consistent": self.reopen_consistent,
            "elapsed_s": round(self.elapsed_s, 3),
            "ops_per_s": round(self.ops_per_s, 1),
            "ok": self.ok,
            "final_stats": self.final_stats,
        }


def _slate_key(ads: list[Advertisement]) -> list[tuple[Any, ...]]:
    """Canonical multiset form of a result slate: the full ad identity,
    sorted — bit-identical content regardless of tier traversal order."""
    return sorted(
        (
            ad.phrase,
            ad.info.listing_id,
            ad.info.campaign_id,
            ad.info.bid_price_micros,
        )
        for ad in ads
    )


def _live_multiset(index: TieredSegmentedIndex) -> Counter[Advertisement]:
    return Counter(index.live_ads())


def _oracle_multiset(oracle: WordSetIndex) -> Counter[Advertisement]:
    counts: Counter[Advertisement] = Counter()
    for node in oracle.nodes.values():
        for entry in node.entries:
            counts[entry.ad] += 1
    return counts


def run_churn_drill(
    directory: str | Path,
    config: ChurnConfig | None = None,
    obs: MetricsRegistry | None = None,
) -> ChurnResult:
    """Run the drill in ``directory`` (created if needed)."""
    config = config if config is not None else ChurnConfig()
    rng = random.Random(config.seed)
    registry = obs if obs is not None else MetricsRegistry()
    faults = FaultInjector() if config.crash_every else None
    result = ChurnResult()

    index = TieredSegmentedIndex(
        Path(directory),
        config=config.tiered_config(),
        obs=registry,
        faults=faults,
    )
    oracle = WordSetIndex()
    live: list[Advertisement] = []
    dead: list[Advertisement] = []
    chaos_cursor = 0

    def make_ad(n: int) -> Advertisement:
        text = (
            f"kw{rng.randrange(config.keywords)} "
            f"cat{rng.randrange(config.categories)} item{n}"
        )
        return Advertisement.from_text(
            text,
            AdInfo(
                listing_id=n,
                campaign_id=n % 97,
                bid_price_micros=100 + rng.randrange(5000),
            ),
        )

    def probe() -> None:
        result.probes += 1
        tokens = (
            f"kw{rng.randrange(config.keywords)}",
            f"cat{rng.randrange(config.categories)}",
        )
        query = Query(tokens=tokens)
        try:
            got = _slate_key(index.query(query))
        except Exception as exc:  # noqa: BLE001 — the drill's whole point
            result.failed_queries += 1
            result.mismatches.append(
                f"query {tokens} raised {type(exc).__name__}: {exc}"
            )
            return
        want = _slate_key(oracle.query(query))
        if got != want:
            result.mismatches.append(
                f"query {tokens}: tiered returned {len(got)} ads, "
                f"oracle {len(want)} (first diff at "
                f"{next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))})"
            )

    merger = BackgroundMerger(index, interval_s=0.001)
    started = time.perf_counter()
    try:
        merger.start()
        for op in range(config.ops):
            if (
                config.crash_every
                and faults is not None
                and op % config.crash_every == 0
            ):
                point = CHAOS_POINTS[chaos_cursor % len(CHAOS_POINTS)]
                chaos_cursor += 1
                faults.arm_forever(point)
            roll = rng.random()
            if roll < config.delete_fraction and live:
                victim = live.pop(rng.randrange(len(live)))
                if not index.delete(victim):
                    result.mismatches.append(
                        f"delete of live ad {victim.phrase} refused"
                    )
                assert oracle.delete(victim)
                dead.append(victim)
                result.deletes += 1
            else:
                reroll = rng.random()
                if dead and reroll < config.reinsert_fraction:
                    ad = dead.pop(rng.randrange(len(dead)))
                    result.resurrections += 1
                elif live and reroll < (
                    config.reinsert_fraction + config.duplicate_fraction
                ):
                    ad = live[rng.randrange(len(live))]
                else:
                    ad = make_ad(op)
                try:
                    index.insert(ad)
                except InjectedCrash:
                    # The overlay mutation lands *before* the auto-seal
                    # that crashed, and the manifest still holds the
                    # last committed generation — the op is applied,
                    # the seal just retries at the next threshold
                    # crossing.  Mirror the oracle accordingly.
                    result.injected_crashes += 1
                oracle.insert(ad)
                live.append(ad)
                result.inserts += 1
            result.ops_applied += 1
            if op % config.probe_every == 0:
                probe()
        merger.drain()
        result.injected_crashes += merger.crashes
        result.merger_crashes = merger.crashes
        result.merger_errors = list(merger.errors)
        if faults is not None:
            faults.reset()
        # Durability point: seal everything, then gate content.
        index.seal()
        expected = _oracle_multiset(oracle)
        sealed = _live_multiset(index)
        result.lost_writes = sum((expected - sealed).values())
        result.phantom_ads = sum((sealed - expected).values())
        result.merges = int(registry.value("tiered.merges"))
        result.seals = int(registry.value("tiered.seals"))
        result.final_stats = index.stats()
    finally:
        merger.stop()
        index.close()

    reopened = TieredSegmentedIndex(
        Path(directory), config=config.tiered_config()
    )
    try:
        after = _live_multiset(reopened)
        result.reopen_consistent = after == _oracle_multiset(oracle)
        if not result.reopen_consistent:
            result.lost_writes = max(
                result.lost_writes,
                sum((_oracle_multiset(oracle) - after).values()),
            )
    finally:
        reopened.close()
    result.elapsed_s = time.perf_counter() - started
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Tiered-segment churn drill (continuous ingest + "
        "background merge vs an exact oracle)"
    )
    parser.add_argument("directory", help="scratch directory for the index")
    parser.add_argument("--ops", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--probe-every", type=int, default=200)
    parser.add_argument(
        "--crash-every",
        type=int,
        default=0,
        help="arm the next tiered/segment crashpoint every N ops",
    )
    parser.add_argument("--seal-threshold", type=int, default=256)
    parser.add_argument("--fan-in", type=int, default=4)
    parser.add_argument("--json", action="store_true", help="emit JSON")
    args = parser.parse_args(argv)
    config = ChurnConfig(
        ops=args.ops,
        seed=args.seed,
        probe_every=args.probe_every,
        crash_every=args.crash_every,
        seal_threshold=args.seal_threshold,
        fan_in=args.fan_in,
    )
    result = run_churn_drill(args.directory, config)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        summary = result.to_json()
        summary.pop("final_stats")
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
