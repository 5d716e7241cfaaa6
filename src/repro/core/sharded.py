"""Sharded broad-match serving (the Section VII-B setting, generalized).

When the corpus outgrows one machine, the paper splits data across
servers.  Broad match admits no query-side routing — a match can live in
any shard, because a query cannot know which subsets other shards index —
so the standard deployment is **scatter-gather**: ads are partitioned by
the hash of their word-set (re-mapped groups stay whole, since the mapping
is applied within the owning shard), every query fans out to all shards,
and results are unioned.

``ShardedWordSetIndex`` wraps N independent :class:`WordSetIndex` shards
behind the usual interface; per-shard trackers let the distsim experiments
price each shard's work separately.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.ads import AdCorpus, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordhash import wordhash
from repro.core.wordset_index import IndexStats, WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.deadline import Deadline, DegradedReason
from repro.resilience.fanout import FanoutGuard


class ShardedWordSetIndex:
    """Scatter-gather over hash-partitioned WordSetIndex shards."""

    #: Capability marker: ``query`` accepts a ``deadline`` budget.
    supports_deadline = True

    def __init__(
        self,
        num_shards: int,
        max_words: int | None = None,
        max_query_words: int = 16,
        trackers: list[AccessTracker] | None = None,
        fast_path: bool = True,
        obs: MetricsRegistry | None = None,
        guard: FanoutGuard | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if trackers is not None and len(trackers) != num_shards:
            raise ValueError("need one tracker per shard")
        if guard is not None and len(guard.breakers) != num_shards:
            raise ValueError(
                "guard shard count does not match index shard count"
            )
        #: Optional breaker-guarded fan-out policy (see
        #: :class:`~repro.resilience.fanout.FanoutGuard`).  ``None``
        #: keeps the original fail-on-first-error gather.
        self.guard = guard
        self.num_shards = num_shards
        # All shards share one registry: per-query totals aggregate across
        # the scatter exactly as a single-shard index would report them.
        obs = active_or_none(obs)
        self.shards = [
            WordSetIndex(
                max_words=max_words,
                max_query_words=max_query_words,
                tracker=trackers[i] if trackers else None,
                fast_path=fast_path,
                obs=obs,
            )
            for i in range(num_shards)
        ]

    def bind_obs(self, obs: MetricsRegistry | None) -> None:
        """Attach one shared metrics registry to every shard."""
        obs = active_or_none(obs)
        for shard in self.shards:
            shard.bind_obs(obs)

    @classmethod
    def from_corpus(
        cls,
        corpus: AdCorpus | Iterable[Advertisement],
        num_shards: int,
        mapping: Mapping[frozenset[str], frozenset[str]] | None = None,
        max_words: int | None = None,
        trackers: list[AccessTracker] | None = None,
        fast_path: bool = True,
        obs: MetricsRegistry | None = None,
    ) -> ShardedWordSetIndex:
        sharded = cls(
            num_shards,
            max_words=max_words,
            trackers=trackers,
            fast_path=fast_path,
            obs=obs,
        )
        for ad in corpus:
            locator = mapping.get(ad.words) if mapping is not None else None
            sharded.insert(ad, locator=locator)
        return sharded

    def shard_of(self, words: frozenset[str]) -> int:
        """Owning shard: hash of the ad's *word-set* (not its locator), so
        re-mapping never moves ads between shards."""
        return wordhash(words) % self.num_shards

    def insert(
        self, ad: Advertisement, locator: frozenset[str] | None = None
    ) -> None:
        self.shards[self.shard_of(ad.words)].insert(ad, locator=locator)

    def delete(self, ad: Advertisement) -> bool:
        return self.shards[self.shard_of(ad.words)].delete(ad)

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Scatter to every shard, gather the union (disjoint by
        construction — each ad lives in exactly one shard).

        With a ``guard`` the gather runs under per-shard circuit
        breakers and partial-result policy; otherwise an expired
        ``deadline`` simply stops the fan-out with whatever shards
        answered, flagged partial on the budget object.
        """
        if self.guard is not None:
            return self.guard.gather(
                self.shards,
                lambda shard: shard.query(query, match_type, deadline),
                deadline,
            )
        results: list[Advertisement] = []
        for shard in self.shards:
            if deadline is not None and deadline.expired():
                deadline.mark_partial(DegradedReason.DEADLINE)
                break
            results.extend(shard.query(query, match_type, deadline))
        return results

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def shard_sizes(self) -> list[int]:
        return [len(shard) for shard in self.shards]

    def stats(self) -> list[IndexStats]:
        return [shard.stats() for shard in self.shards]

    def check_invariants(self) -> None:
        for i, shard in enumerate(self.shards):
            shard.check_invariants()
            for words in shard.placement():
                assert self.shard_of(words) == i, (
                    "ad stored in the wrong shard"
                )

    def balance_factor(self) -> float:
        """max/mean shard size; 1.0 is perfectly balanced."""
        sizes = self.shard_sizes()
        mean = sum(sizes) / len(sizes)
        if mean == 0:
            return 1.0
        return max(sizes) / mean
