"""Batched query serving: dedup shared work, then one dispatch.

Production sponsored-search frontends aggregate concurrent requests into
micro-batches.  Broad match only sees the query's word-set, and
power-law traffic repeats the head queries constantly, so a batch
usually contains far fewer distinct word-sets than queries.  Each
distinct set is probed once and the result fanned back to every
position that asked for it.

The engine works with any :class:`~repro.core.protocols.RetrievalIndex`
(hash index, trie, packed or tiered segments, compressed).  A lone
distinct word-set is one plain ``index.query``; more go to the index's
``query_kernel_batch`` in one bulk call when its class has one, else to
``query`` one representative at a time.  Scale-out is by worker
processes (:mod:`repro.netserve`), never by threads inside one batch.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.ads import Advertisement
from repro.core.matching import MatchType, RankedMatches
from repro.core.protocols import RetrievalIndex
from repro.core.queries import Query
from repro.obs.registry import MetricsRegistry, Span, active_or_none
from repro.resilience.deadline import Deadline, DegradedReason


#: What retrieval hands the serving pipeline for one query: the full
#: match list, or a ranked read.
Candidates = list[Advertisement] | RankedMatches


class BatchQueryEngine:
    """Deduplicating batch frontend over a retrieval structure.

    Parameters
    ----------
    index:
        Any :class:`~repro.core.protocols.RetrievalIndex`.
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry` recording
        batch counters (``batch.batches``, ``batch.queries``,
        ``batch.distinct_wordsets``) and the ``span.batch`` histogram.
    """

    def __init__(
        self, index: RetrievalIndex, obs: MetricsRegistry | None = None
    ) -> None:
        self.index = index
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
            return self._run_batch(queries, match_type, deadline, top)[0]
        span, batches, queried, distinct = self._instruments
        with Span(span):
            results, probed = self._run_batch(queries, match_type, deadline, top)
        batches.inc()
        queried.inc(len(results))
        distinct.inc(probed)
        return results

    def _run_batch(
        self,
        queries: Sequence[Query],
        match_type: MatchType,
        deadline: Deadline | None,
        top: int | None,
    ) -> tuple[list[Candidates], int]:
        """The per-position results and the number of distinct keys
        probed."""
        if len(queries) == 1:
            # A batch of one is one plain query: no grouping, no sort,
            # no copies.
            return self._probe(queries, match_type, deadline, top), 1
        key_of = _wordset_key if match_type is MatchType.BROAD else _token_key
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
        return results, len(representatives)

    def _probe(
        self,
        representatives: Sequence[Query],
        match_type: MatchType,
        deadline: Deadline | None,
        top: int | None,
    ) -> list[Candidates]:
        """One result per representative, from one dispatch:

        * a lone representative is one plain ``index.query`` (ranked
          with ``top``, else through :func:`query_one`);
        * a ranked read (``top``) is one ``query_kernel_batch`` call;
        * an index whose *class* has ``query_kernel_batch`` answers the
          whole batch in one call (an attribute forwarded through
          ``__getattr__`` does not count);
        * any other index is queried once per representative, the
          deadline checked between them (an index without
          ``supports_deadline`` never sees the budget itself).
        """
        index = self.index
        if len(representatives) == 1:
            if top is not None:
                return [
                    index.query(  # type: ignore[call-arg]
                        representatives[0], match_type, deadline, top=top
                    )
                ]
            return [query_one(index, representatives[0], match_type, deadline)]
        if top is not None:
            return index.query_kernel_batch(  # type: ignore[attr-defined]
                representatives, match_type, deadline, top=top
            )
        if getattr(type(index), "query_kernel_batch", None) is not None:
            return index.query_kernel_batch(  # type: ignore[attr-defined]
                representatives, match_type, deadline
            )
        out: list[Candidates] = []
        for query in representatives:
            if deadline is not None and deadline.expired():
                deadline.mark_partial(DegradedReason.DEADLINE)
                out.append([])
                continue
            out.append(query_one(index, query, match_type, deadline))
        return out


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
