"""Counting what a structure actually does.

The library never times CPython to compare structures (interpreter overhead
would swamp the memory behaviour the paper measures); instead every index
reports its work to an ``AccessTracker`` — random accesses, bytes scanned,
hash probes, candidates examined — and the ``CostModel`` converts the counts
to modeled nanoseconds.  Wall-clock timing lives in ``benchmarks/`` only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cost.model import CostModel


@dataclass(slots=True)
class AccessStats:
    """A snapshot of counted work."""

    random_accesses: int = 0
    bytes_scanned: int = 0
    hash_probes: int = 0
    candidates_examined: int = 0
    postings_traversed: int = 0
    queries: int = 0

    def modeled_ns(self, model: CostModel) -> float:
        """Convert counts to modeled time under ``model``."""
        return (
            self.random_accesses * model.cost_random()
            + model.cost_scan(self.bytes_scanned)
        )

    def __add__(self, other: AccessStats) -> AccessStats:
        return AccessStats(
            random_accesses=self.random_accesses + other.random_accesses,
            bytes_scanned=self.bytes_scanned + other.bytes_scanned,
            hash_probes=self.hash_probes + other.hash_probes,
            candidates_examined=self.candidates_examined
            + other.candidates_examined,
            postings_traversed=self.postings_traversed + other.postings_traversed,
            queries=self.queries + other.queries,
        )


@dataclass(slots=True)
class AccessTracker:
    """Mutable accumulator indexes report their memory operations to."""

    stats: AccessStats = field(default_factory=AccessStats)

    def random_access(self, nbytes: int = 0) -> None:
        """One random positioning, optionally followed by reading bytes."""
        self.stats.random_accesses += 1
        self.stats.bytes_scanned += nbytes

    def sequential(self, nbytes: int) -> None:
        """Sequential read continuing from the current position."""
        self.stats.bytes_scanned += nbytes

    def hash_probe(self, nbytes: int, count: int = 1) -> None:
        """``count`` hash-table probes, each a random access reading one
        ``nbytes`` bucket entry."""
        stats = self.stats
        stats.hash_probes += count
        stats.random_accesses += count
        stats.bytes_scanned += nbytes * count

    def candidate(self, count: int = 1) -> None:
        self.stats.candidates_examined += count

    def posting(self, count: int = 1) -> None:
        self.stats.postings_traversed += count

    def query_done(self) -> None:
        self.stats.queries += 1

    def reset(self) -> AccessStats:
        """Return current stats and start a fresh accumulation."""
        finished = self.stats
        self.stats = AccessStats()
        return finished

    def modeled_ns(self, model: CostModel) -> float:
        return self.stats.modeled_ns(model)
