"""Batched query serving: dedup shared work, fan out across shards.

Production sponsored-search frontends aggregate concurrent requests into
micro-batches.  Within one batch two structural savings apply:

* **word-set dedup** — broad match only sees the query's word-set, and
  power-law traffic repeats the head queries constantly, so a batch
  usually contains far fewer distinct word-sets than queries.  Each
  distinct set is probed once and the result fanned back to every
  position that asked for it.
* **shard-parallel scatter** — against a
  :class:`~repro.core.sharded.ShardedWordSetIndex`, each shard's probe
  pass over the deduplicated batch runs on a worker-pool thread.  Results
  are gathered in shard order, so the per-query union is identical to the
  sequential scatter-gather.

The engine works with any :class:`~repro.core.protocols.RetrievalIndex`
(hash index, trie, cached, compressed); shard fan-out engages when the
structure has a ``shards`` attribute and no ``guard`` (a guarded index
gathers through its own breakers).  Both savings need two distinct
word-sets: a lone one is one plain ``index.query``.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.ads import Advertisement
from repro.core.matching import MatchType, RankedMatches
from repro.core.protocols import RetrievalIndex
from repro.core.queries import Query
from repro.obs.registry import MetricsRegistry, Span, active_or_none
from repro.resilience.deadline import Deadline, DegradedReason


#: What retrieval hands the serving pipeline for one query: the full
#: match list, or a ranked read.
Candidates = list[Advertisement] | RankedMatches


@dataclass(slots=True)
class BatchStats:
    """Aggregate counters over every batch the engine processed."""

    batches: int = 0
    queries: int = 0
    distinct_wordsets: int = 0

    def dedup_rate(self) -> float:
        """Fraction of queries answered from another query's probe pass."""
        if not self.queries:
            return 0.0
        return 1.0 - self.distinct_wordsets / self.queries


class BatchQueryEngine:
    """Deduplicating, shard-parallel batch frontend over a retrieval
    structure.

    Parameters
    ----------
    index:
        Any :class:`~repro.core.protocols.RetrievalIndex`.  A ``shards``
        attribute (list of per-shard indexes) without a ``guard``
        enables worker-pool fan-out.
    max_workers:
        Worker-pool width for shard fan-out; defaults to
        ``min(num_shards, cpu_count)``.  ``1`` forces sequential scatter.
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry` recording
        batch counters (``batch.batches``, ``batch.queries``,
        ``batch.distinct_wordsets``) and the ``span.batch`` histogram.
    """

    def __init__(
        self,
        index: RetrievalIndex,
        max_workers: int | None = None,
        obs: MetricsRegistry | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.index = index
        self.max_workers = max_workers
        self.stats = BatchStats()
        self._last_distinct = 0
        self._obs: MetricsRegistry | None = None
        self.bind_obs(obs)

    def bind_obs(self, obs: MetricsRegistry | None) -> None:
        """Attach (or detach, with ``None``) a metrics registry."""
        obs = active_or_none(obs)
        self._obs = obs
        if obs is not None:
            # Bound once: every serve is a batch, so the per-batch
            # bookkeeping must not pay four registry lookups.
            self._instruments = (
                obs.histogram("span.batch"),
                obs.counter("batch.batches", help="Micro-batches processed"),
                obs.counter("batch.queries", help="Queries across all batches"),
                obs.counter(
                    "batch.distinct_wordsets",
                    help="Distinct retrieval keys actually probed",
                ),
            )

    # ------------------------------------------------------------------ #

    def query_broad_batch(
        self,
        queries: Sequence[Query],
        deadline: Deadline | None = None,
        top: int | None = None,
    ) -> list[Candidates]:
        """Broad-match every query; one independent result per input
        position, in input order."""
        return self.query_batch(queries, MatchType.BROAD, deadline, top)

    def query_batch(
        self,
        queries: Sequence[Query],
        match_type: MatchType,
        deadline: Deadline | None = None,
        top: int | None = None,
    ) -> list[Candidates]:
        """Process a batch under any match semantics.

        Broad match dedups on the word-set; phrase and exact match verify
        token order, so they dedup on the exact token sequence instead.
        A ``deadline`` covers the whole batch: an index that
        ``supports_deadline`` stops its scans before their next node,
        any other index stops between representatives; once it expires
        the remaining positions get empty result lists, with the budget
        flagged partial — never a silent half-answer.

        With ``top`` each position gets the index's ranked read
        (:class:`~repro.core.matching.RankedMatches`) instead of a list;
        only an index with ``query_kernel_batch`` and a ranked read may
        be handed one (:func:`repro.serving.server.ranked_read`).  A
        duplicate position shares its representative's (immutable)
        ranked read.
        """
        if self._obs is None:
            return self._run_batch(queries, match_type, deadline, top)
        span, batches, queried, distinct = self._instruments
        with Span(span):
            results = self._run_batch(queries, match_type, deadline, top)
        batches.inc()
        queried.inc(len(results))
        distinct.inc(self._last_distinct)
        return results

    def _run_batch(
        self,
        queries: Sequence[Query],
        match_type: MatchType,
        deadline: Deadline | None = None,
        top: int | None = None,
    ) -> list[Candidates]:
        if len(queries) == 1:
            # A batch of one is one plain query: no grouping, no sort,
            # no copies.
            results = self._probe(queries, match_type, deadline, top)
            distinct = 1
        else:
            if match_type is MatchType.BROAD:
                key_of = _wordset_key
            else:
                key_of = _token_key
            groups: dict[object, list[int]] = {}
            for position, query in enumerate(queries):
                groups.setdefault(key_of(query), []).append(position)
            # Deterministic processing order: sorted keys keep similar
            # word-sets adjacent (shared memoized hash contributions stay
            # hot) and make traces reproducible across runs regardless of
            # set iteration order.
            ordered_keys = sorted(groups, key=sorted)
            representatives = [queries[groups[key][0]] for key in ordered_keys]
            per_rep = self._probe(representatives, match_type, deadline, top)
            results: list[Candidates] = [[] for _ in queries]
            for key, matched in zip(ordered_keys, per_rep):
                positions = groups[key]
                # The representative's slate is a fresh list owned by this
                # batch — hand it to the first asker and copy only for
                # duplicate positions, so a dedup hit costs no allocation.
                results[positions[0]] = matched
                for position in positions[1:]:
                    results[position] = matched if top is not None else list(matched)
            distinct = len(representatives)
        self.stats.batches += 1
        self.stats.queries += len(queries)
        self.stats.distinct_wordsets += distinct
        self._last_distinct = distinct
        return results

    # ------------------------------------------------------------------ #

    def _probe(
        self,
        representatives: Sequence[Query],
        match_type: MatchType,
        deadline: Deadline | None,
        top: int | None = None,
    ) -> list[Candidates]:
        """One representative is one plain :func:`query_one` (no kernel
        batch, no thread pool).  The engine scatters across ``shards``
        itself only when the index has no ``guard``: a guarded index is
        queried through its own ``query``, so its breakers see the call.
        A ranked read (``top``) goes to the index's own ``query`` or
        ``query_kernel_batch``, the same split."""
        index = self.index
        if top is not None:
            if len(representatives) == 1:
                return [
                    index.query(  # type: ignore[call-arg]
                        representatives[0], match_type, deadline, top=top
                    )
                ]
            return index.query_kernel_batch(  # type: ignore[attr-defined]
                representatives, match_type, deadline, top=top
            )
        if len(representatives) == 1:
            return [query_one(index, representatives[0], match_type, deadline)]
        shards = getattr(index, "shards", None)
        if shards and getattr(index, "guard", None) is None:
            return self._scatter_shards(
                shards, representatives, match_type, deadline
            )
        return self._probe_representatives(
            index, representatives, match_type, deadline
        )

    def _probe_representatives(
        self,
        index: RetrievalIndex,
        representatives: Sequence[Query],
        match_type: MatchType,
        deadline: Deadline | None = None,
    ) -> list[list[Advertisement]]:
        """Probe every deduplicated representative against one index:
        the whole batch in one ``query_kernel_batch`` call when the
        index's class has one, else :func:`query_one` each, checking the
        deadline between representatives (an index without
        ``supports_deadline`` never sees the budget itself).

        The method is resolved on the class, not the instance, so only a
        class that implements the batch method itself takes that path;
        attributes forwarded through ``__getattr__`` do not count.
        """
        if getattr(type(index), "query_kernel_batch", None) is not None:
            return index.query_kernel_batch(  # type: ignore[attr-defined]
                representatives, match_type, deadline
            )
        out: list[list[Advertisement]] = []
        for query in representatives:
            if deadline is not None and deadline.expired():
                deadline.mark_partial(DegradedReason.DEADLINE)
                out.append([])
                continue
            out.append(query_one(index, query, match_type, deadline))
        return out

    def _scatter_shards(
        self,
        shards: Sequence,
        representatives: Sequence[Query],
        match_type: MatchType,
        deadline: Deadline | None = None,
    ) -> list[list[Advertisement]]:
        """Run every shard over the whole deduplicated batch, one shard per
        worker, and gather per-query unions in shard order.  Each worker
        receives the same columnar probe batch; shards on the kernel
        fast path answer it in bulk."""

        def run_shard(shard) -> list[list[Advertisement]]:
            return self._probe_representatives(
                shard, representatives, match_type, deadline
            )

        workers = self.max_workers
        if workers is None:
            workers = min(len(shards), os.cpu_count() or 1)
        if workers <= 1 or len(shards) == 1:
            per_shard = [run_shard(shard) for shard in shards]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                per_shard = list(pool.map(run_shard, shards))
        return [
            [
                ad
                for shard_results in per_shard
                for ad in shard_results[i]
            ]
            for i in range(len(representatives))
        ]

def query_one(
    index: RetrievalIndex,
    query: Query,
    match_type: MatchType = MatchType.BROAD,
    deadline: Deadline | None = None,
) -> list[Advertisement]:
    """One query against ``index``, the budget threaded through when the
    index advertises ``supports_deadline``.  Broad match, every index's
    default, is left implicit."""
    if deadline is not None and getattr(index, "supports_deadline", False):
        return index.query(query, match_type, deadline)
    if match_type is MatchType.BROAD:
        return index.query(query)
    return index.query(query, match_type)


def _wordset_key(query: Query) -> frozenset[str]:
    return query.words


def _token_key(query: Query) -> tuple[str, ...]:
    return query.tokens
