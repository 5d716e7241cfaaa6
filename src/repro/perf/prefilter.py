"""Probe planning: decide which subsets a broad-match query must probe.

A probed subset can only hit a data node if (a) every one of its words
appears in at least one node locator, and (b) some node locator actually
has that subset's size.  ``plan_probes`` therefore intersects the query
with the index's locator vocabulary and restricts enumeration to the
locator sizes present in the index's size histogram — the two structural
facts :class:`~repro.core.wordset_index.WordSetIndex` maintains online.

The resulting :class:`ProbePlan` is the single source of truth for probe
enumeration: every hash-shaped index builds it with
:func:`repro.kernels.pipeline.plan_query` and executes it there,
:func:`repro.core.explain.explain_broad_match` replays it, and
:func:`repro.cost.workload_cost.cost_hash_index` prices it analytically —
which is how tracker accounting and the cost model stay reconciled.

Skipping subsets cannot change results: a subset containing an unindexed
word, or of a size no locator has, can never *equal* a node locator.  Its
probe could still land on an occupied bucket through a 64-bit hash
collision with some other locator, but such a collision scan can only
surface ads the locator's own probe surfaces too (every entry's word-set
contains the locator, and matches additionally require containment in the
query), so dropping the probe drops no matches.
"""

from __future__ import annotations

from collections.abc import Container, Mapping
from dataclasses import dataclass

from repro.core.subset_enum import subset_count


@dataclass(frozen=True, slots=True)
class ProbePlan:
    """The subsets one broad-match query will probe, in canonical order."""

    #: Query words after the long-query heuristic cutoff.
    words: frozenset[str]
    #: True if the cutoff dropped words.
    truncated: bool
    #: Sorted words eligible for subset enumeration (all of ``words`` on
    #: the naive path; only locator-vocabulary words on the fast path).
    candidates: tuple[str, ...]
    #: Ascending subset sizes to enumerate (the fast path skips sizes with
    #: no locators).
    sizes: tuple[int, ...]
    #: True when built by the pruning fast path.
    pruned: bool

    def probe_count(self) -> int:
        """Exact number of hash probes executing this plan performs."""
        return subset_count(len(self.candidates), self.sizes)


def plan_probes(
    words: frozenset[str],
    vocabulary: Container[str],
    size_histogram: Mapping[int, int],
    max_words: int | None,
    truncated: bool = False,
) -> ProbePlan:
    """Build the pruned probe plan for ``words`` against an index's
    locator vocabulary and locator-size histogram."""
    candidates = tuple(w for w in sorted(words) if w in vocabulary)
    bound = min(len(candidates), max(size_histogram, default=0))
    if max_words is not None:
        bound = min(bound, max_words)
    sizes = tuple(
        size
        for size in range(1, bound + 1)
        if size_histogram.get(size, 0) > 0
    )
    return ProbePlan(
        words=words,
        truncated=truncated,
        candidates=candidates,
        sizes=sizes,
        pruned=True,
    )


def naive_plan(
    words: frozenset[str],
    max_words: int | None,
    truncated: bool = False,
) -> ProbePlan:
    """The paper's unpruned plan: every subset of ``words`` up to
    ``max_words`` (Section IV-B), with no structural pruning."""
    candidates = tuple(sorted(words))
    bound = len(candidates)
    if max_words is not None:
        bound = min(bound, max_words)
    return ProbePlan(
        words=words,
        truncated=truncated,
        candidates=candidates,
        sizes=tuple(range(1, bound + 1)),
        pruned=False,
    )
