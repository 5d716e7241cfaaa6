"""The batch engine against the engine it replaced, position by position.

The reference below is the previous ``repro.perf.batch`` engine verbatim
(only the class is renamed): word-set dedup plus its shard scatter,
thread pool and ``BatchStats``.  Over every kind of index it can meet
without shards, both engines must hand back equal results at every
position, with the same duplicate positions sharing or copying, leave
the same partial reasons on the budget, make the same index calls and
move the ``batch.*`` counters alike.

The clock moves one millisecond per read, so a budget runs out at the
same check on both sides, and often mid-batch.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType, RankedMatches
from repro.core.protocols import RetrievalIndex
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import Counter, MetricsRegistry, Span, active_or_none
from repro.perf.batch import BatchQueryEngine
from repro.resilience.deadline import Deadline, DegradedReason, ManualClock
from repro.segment import (
    PackedSegmentIndex,
    SegmentBuilder,
    TieredConfig,
    TieredSegmentedIndex,
)

# ---------------------------------------------------------------------- #
# The reference: the replaced engine, verbatim.

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


class ParentBatchQueryEngine:
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


# ---------------------------------------------------------------------- #
# Indexes: one fresh copy per side.


class TickingClock(ManualClock):
    """A manual clock that moves one millisecond every time it is read."""

    __slots__ = ()

    def __call__(self) -> float:
        self.now_ms += 1.0
        return self.now_ms


class TickingIndex:
    """A plain index without ``supports_deadline`` or
    ``query_kernel_batch``: each query advances ``clock`` by 1 ms."""

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.calls = []

    def query(self, query, match_type=MatchType.BROAD):
        self.calls.append((query.tokens, match_type))
        self.clock.advance(1.0)
        return self.inner.query(query, match_type)


#: Index kinds; ``ranked`` is the packed segment read with ``top``.
KINDS = ("wordset", "packed", "ranked", "tiered", "ticking")


def build_index(kind, ads, segment, workdir, clock):
    if kind == "wordset":
        return WordSetIndex.from_corpus(ads)
    if kind in ("packed", "ranked"):
        return PackedSegmentIndex(segment)
    if kind == "ticking":
        return TickingIndex(WordSetIndex.from_corpus(ads), clock)
    # Two sealed segments, tombstones over them, and a live overlay.
    index = TieredSegmentedIndex(
        Path(tempfile.mkdtemp(dir=workdir)),
        config=TieredConfig(seal_threshold=1_000, auto_merge=False),
    )
    for chunk in (ads[:3], ads[3:6]):
        for ad in chunk:
            index.insert(ad)
        index.seal()
    for ad in (ads[0], ads[4]):
        index.delete(ad)
    # An insert equal to a deleted ad cancels its tombstone instead of
    # landing in the overlay; a listing id no drawn ad has always lands.
    for ad in [*ads[6:], Advertisement.from_text("a b", AdInfo(listing_id=99))]:
        index.insert(ad)
    assert len(index.segments) == 2 and len(index.overlay) >= 1
    return index


def close(index):
    if isinstance(index, (PackedSegmentIndex, TieredSegmentedIndex)):
        index.close()


# ---------------------------------------------------------------------- #
# Scenarios.  Four words, so batches repeat word-sets (broad dedup) and
# reorder tokens (phrase and exact dedup on token order instead).

WORDS = ("a", "b", "c", "d")
phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3)

ads = st.builds(
    lambda phrase, listing_id, bid, exclusions: Advertisement(
        phrase=tuple(phrase),
        info=AdInfo(
            listing_id=listing_id,
            bid_price_micros=bid,
            exclusion_phrases=tuple(" ".join(e) for e in exclusions),
        ),
    ),
    phrases,
    st.integers(0, 9),
    st.integers(0, 6).map(lambda step: 20 * step),
    st.lists(phrases, max_size=1),
)

queries = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(
    lambda tokens: Query(tokens=tuple(tokens))
)
batches = st.lists(queries, max_size=8)
match_types = st.sampled_from((MatchType.BROAD, MatchType.PHRASE, MatchType.EXACT))
#: ``None`` or a budget in clock reads: small ones expire mid-batch.
budgets = st.sampled_from((None, None, 1.0, 3.0, 6.0, 12.0, 40.0))


def batch_counters(registry):
    counts = {
        metric.name: metric.value
        for metric in registry
        if isinstance(metric, Counter) and metric.name.startswith("batch.")
    }
    counts["span.batch"] = registry.histogram("span.batch").count
    return counts


def sharing(results):
    """Which positions hand back the very same object."""
    return [
        [second is first for second in results] for first in results
    ]


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    corpus=st.lists(ads, min_size=7, max_size=14),
    kind=st.sampled_from(KINDS),
    script=st.lists(
        st.tuples(batches, match_types, budgets, st.sampled_from((1, 2, 5))),
        min_size=1,
        max_size=4,
    ),
)
def test_engine_matches_the_engine_it_replaced(tmp_path, corpus, kind, script):
    segment = Path(tempfile.mkdtemp(dir=tmp_path)) / "diff.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(segment)
    sides = []
    for engine_class in (ParentBatchQueryEngine, BatchQueryEngine):
        clock = TickingClock()
        index = build_index(kind, corpus, segment, tmp_path, clock)
        registry = MetricsRegistry()
        sides.append((engine_class(index, obs=registry), clock, index, registry))
    try:
        for batch, match_type, budget, top in script:
            if kind == "ranked":
                # The ranked read is broad match only.
                match_type = MatchType.BROAD
            else:
                top = None
            outcomes = []
            for engine, clock, index, _ in sides:
                deadline = (
                    None if budget is None else Deadline.after_ms(budget, clock=clock)
                )
                results = engine.query_batch(batch, match_type, deadline, top)
                outcomes.append(
                    (
                        results,
                        sharing(results),
                        None if deadline is None else deadline.partial_reasons,
                        clock.now_ms,
                    )
                )
            assert outcomes[0] == outcomes[1]
        parent, change = sides
        if kind == "ticking":
            assert parent[2].calls == change[2].calls
        assert batch_counters(parent[3]) == batch_counters(change[3])
    finally:
        for _, _, index, _ in sides:
            close(index)


@pytest.mark.parametrize("kind", KINDS)
def test_a_budget_spent_before_the_batch_flags_it_on_both(tmp_path, kind):
    """An expired budget: both engines answer every position empty (or
    stop the index at once) and flag the same reasons."""
    corpus = [
        Advertisement.from_text(text, AdInfo(listing_id=i, bid_price_micros=100 + i))
        for i, text in enumerate(["a b", "b a", "c", "a", "d c", "b", "a b c", "d"])
    ]
    segment = tmp_path / "spent.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(segment)
    batch = [Query.from_text(t) for t in ("a b", "b a", "c d", "a", "a b")]
    top = 2 if kind == "ranked" else None
    outcomes = []
    for engine_class in (ParentBatchQueryEngine, BatchQueryEngine):
        clock = TickingClock()
        index = build_index(kind, corpus, segment, tmp_path, clock)
        try:
            deadline = Deadline.after_ms(0.5, clock=clock)
            results = engine_class(index).query_batch(
                batch, MatchType.BROAD, deadline, top
            )
            outcomes.append((results, deadline.partial_reasons))
        finally:
            close(index)
    assert outcomes[0] == outcomes[1]
    assert DegradedReason.DEADLINE in outcomes[0][1]
