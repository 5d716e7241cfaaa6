"""Impact-ordered retrieval: testing the paper's §I-B *negative* claim.

Traditional IR pushes ranking signals into the index (impact ordering,
max-score, WAND) so top-k queries can skip low-scoring postings.  The
paper argues this is **not worth doing for broad match**: word-set result
sets are already small (the Fig 2 long tail), and real ranking depends on
query-independent factors the index cannot know.

To make that claim falsifiable rather than rhetorical, this module
implements the optimization anyway: each data node carries the maximum bid
price of its entries, and ``query_top_k`` processes candidate nodes in
descending max-bid order, stopping when the next node's ceiling cannot
displace the current k-th bid (the max-score pruning rule).  The
``ext-impact`` experiment then measures how much scanning this actually
saves on calibrated corpora — reproducing the paper's "less likely to
result in noticeable performance improvement" as a number.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping

from repro.core.ads import AdCorpus, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordhash import wordhash
from repro.core.wordset_index import (
    HASH_BUCKET_BYTES,
    IndexStats,
    WordSetIndex,
)
from repro.cost.accounting import AccessTracker
from repro.kernels.pipeline import probe_keys


class ImpactOrderedIndex:
    """WordSetIndex plus per-node bid ceilings and top-k pruning."""

    def __init__(
        self,
        max_words: int | None = None,
        max_query_words: int = 16,
        tracker: AccessTracker | None = None,
    ) -> None:
        self._inner = WordSetIndex(
            max_words=max_words,
            max_query_words=max_query_words,
            tracker=None,
        )
        self.tracker = tracker
        #: hash key -> max bid over the node's entries.
        self._max_bid: dict[int, int] = {}

    @classmethod
    def from_corpus(
        cls,
        corpus: AdCorpus | Iterable[Advertisement],
        mapping: Mapping[frozenset[str], frozenset[str]] | None = None,
        max_words: int | None = None,
        tracker: AccessTracker | None = None,
    ) -> ImpactOrderedIndex:
        index = cls(max_words=max_words, tracker=tracker)
        for ad in corpus:
            locator = mapping.get(ad.words) if mapping is not None else None
            index.insert(ad, locator=locator)
        return index

    def insert(
        self, ad: Advertisement, locator: frozenset[str] | None = None
    ) -> None:
        self._inner.insert(ad, locator=locator)
        placed = self._inner.placement()[ad.words]
        key = wordhash(placed)
        self._max_bid[key] = max(
            self._max_bid.get(key, 0), ad.info.bid_price_micros
        )

    # ------------------------------------------------------------------ #

    def query(
        self, query: Query, match_type: MatchType = MatchType.BROAD
    ) -> list[Advertisement]:
        """Plain match without top-k pruning — the baseline."""
        saved = self._inner.tracker
        self._inner.tracker = self.tracker
        try:
            return self._inner.query(query, match_type)
        finally:
            self._inner.tracker = saved

    def stats(self) -> IndexStats:
        """Structural statistics of the underlying hash index."""
        return self._inner.stats()

    def query_top_k(self, query: Query, k: int) -> list[Advertisement]:
        """Top-k broad matches by bid price with max-score node pruning.

        Probes every subset of the inner index's probe plan (that cost is
        unavoidable — pruning cannot know a node's ceiling without finding
        the node — and using the same plan as the plain baseline keeps the
        comparison about *scanning* only), then scans hit nodes in
        descending bid ceiling, stopping once ``k`` results are held and
        the next ceiling cannot beat the k-th bid.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        plan = self._inner.probe_plan(query.words)
        words = plan.words
        tracker = self.tracker

        candidates: list[tuple[int, int]] = []  # (-max_bid, key)
        visited: set[int] = set()
        for key in probe_keys(plan):
            if tracker is not None:
                tracker.hash_probe(HASH_BUCKET_BYTES)
            if key in visited:
                continue
            visited.add(key)
            node = self._inner.nodes.get(key)
            if node is not None:
                # Collision-bucket nodes are kept: ``node.scan`` verifies
                # stored phrases, exactly as the plain probe path does.
                candidates.append((-self._max_bid.get(key, 0), key))
        candidates.sort()

        top: list[tuple[int, int, Advertisement]] = []  # min-heap by bid
        counter = 0
        for negative_ceiling, key in candidates:
            ceiling = -negative_ceiling
            if len(top) >= k and ceiling <= top[0][0]:
                break  # no node after this one can displace the k-th bid
            node = self._inner.nodes[key]
            matched, scanned = node.scan(words)
            if tracker is not None:
                tracker.random_access(scanned)
                tracker.candidate(
                    sum(1 for e in node.entries if e.word_count <= len(words))
                )
            for ad in matched:
                counter += 1
                entry = (ad.info.bid_price_micros, counter, ad)
                if len(top) < k:
                    heapq.heappush(top, entry)
                elif entry[0] > top[0][0]:
                    heapq.heapreplace(top, entry)
        if tracker is not None:
            tracker.query_done()
        return [ad for _, _, ad in sorted(top, key=lambda t: -t[0])]

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._inner)

    @property
    def inner(self) -> WordSetIndex:
        return self._inner

    def delete(self, ad: Advertisement) -> bool:
        placed = self._inner.placement().get(ad.words)
        removed = self._inner.delete(ad)
        if removed and placed is not None:
            key = wordhash(placed)
            node = self._inner.nodes.get(key)
            if node is None:
                self._max_bid.pop(key, None)
            else:
                self._max_bid[key] = max(
                    (e.ad.info.bid_price_micros for e in node.entries),
                    default=0,
                )
        return removed
