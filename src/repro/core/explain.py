"""Query profiling: a per-query breakdown of what the index did and why.

``explain_broad_match`` replays one query against a
:class:`~repro.core.wordset_index.WordSetIndex` and reports every hash
probe and node visit with its cost contribution — the operational
visibility a production serving team needs when a query is slow (too many
probed subsets? one giant data node? a colliding bucket?).

The execution path mirrors ``WordSetIndex.query`` exactly; a test pins the
two together by asserting identical results and identical modeled cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.queries import Query
from repro.core.wordset_index import HASH_BUCKET_BYTES, WordSetIndex
from repro.cost.model import CostModel
from repro.kernels.pipeline import probe_keys


@dataclass(frozen=True, slots=True)
class NodeVisit:
    """One data-node access during query processing."""

    locator: frozenset[str]
    entries_total: int
    entries_scanned: int
    bytes_scanned: int
    matched_listing_ids: tuple[int, ...]

    @property
    def early_terminated(self) -> bool:
        return self.entries_scanned < self.entries_total


@dataclass(frozen=True, slots=True)
class QueryExplanation:
    """The full profile of one broad-match execution."""

    query_words: frozenset[str]
    truncated: bool
    hash_probes: int
    empty_probes: int
    node_visits: tuple[NodeVisit, ...]
    #: Words that survived the fast path's indexed-vocabulary prefilter
    #: (every query word when the index runs unpruned).
    candidate_words: tuple[str, ...] = ()
    #: True when the index's probe-pruning fast path produced the plan.
    pruned: bool = False
    model: CostModel = field(default_factory=CostModel)

    @property
    def matches(self) -> list[int]:
        ids: list[int] = []
        for visit in self.node_visits:
            ids.extend(visit.matched_listing_ids)
        return ids

    @property
    def candidates_examined(self) -> int:
        return sum(v.entries_scanned for v in self.node_visits)

    def probe_cost_ns(self) -> float:
        return self.hash_probes * (
            self.model.cost_random() + self.model.cost_scan(HASH_BUCKET_BYTES)
        )

    def node_cost_ns(self) -> float:
        return sum(
            self.model.cost_random() + self.model.cost_scan(v.bytes_scanned)
            for v in self.node_visits
        )

    def total_cost_ns(self) -> float:
        return self.probe_cost_ns() + self.node_cost_ns()

    def summary(self) -> str:
        """Human-readable profile."""
        lines = [
            f"query: {sorted(self.query_words)}"
            + (" (truncated)" if self.truncated else ""),
        ]
        if self.pruned:
            lines.append(
                f"prefilter: {len(self.candidate_words)}/"
                f"{len(self.query_words)} words indexed"
            )
        lines += [
            f"hash probes: {self.hash_probes} "
            f"({self.empty_probes} empty) -> {self.probe_cost_ns():.0f} ns",
            f"node visits: {len(self.node_visits)} -> "
            f"{self.node_cost_ns():.0f} ns",
        ]
        for visit in self.node_visits:
            suffix = " [early-term]" if visit.early_terminated else ""
            lines.append(
                f"  node {sorted(visit.locator)}: scanned "
                f"{visit.entries_scanned}/{visit.entries_total} entries, "
                f"{visit.bytes_scanned} B, matched "
                f"{list(visit.matched_listing_ids)}{suffix}"
            )
        lines.append(
            f"matches: {len(self.matches)}  total: "
            f"{self.total_cost_ns():.0f} ns"
        )
        return "\n".join(lines)


def explain_broad_match(
    index: WordSetIndex, query: Query, model: CostModel | None = None
) -> QueryExplanation:
    """Profile one broad-match execution against ``index``."""
    model = model or CostModel()
    plan = index.probe_plan(query.words)
    words = plan.words

    probes = 0
    empty = 0
    visits: list[NodeVisit] = []
    visited: set[int] = set()
    for key in probe_keys(plan):
        probes += 1
        if key in visited:
            continue
        visited.add(key)
        node = index.nodes.get(key)
        if node is None:
            empty += 1
            continue
        matched, scanned = node.scan(words)
        entries_scanned = sum(
            1 for e in node.entries if e.word_count <= len(words)
        )
        visits.append(
            NodeVisit(
                locator=node.locator,
                entries_total=len(node.entries),
                entries_scanned=entries_scanned,
                bytes_scanned=scanned,
                matched_listing_ids=tuple(
                    a.info.listing_id for a in matched
                ),
            )
        )
    return QueryExplanation(
        query_words=words,
        truncated=plan.truncated,
        hash_probes=probes,
        empty_probes=empty,
        node_visits=tuple(visits),
        candidate_words=plan.candidates,
        pruned=plan.pruned,
        model=model,
    )
