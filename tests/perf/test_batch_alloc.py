"""Steady-state allocation regression tests for the batch hot path.

Two guarantees pinned here:

* **repeatable decode** — with the decoded-node cache closed
  (``cache_bytes=0``) every probe re-decodes its node into fresh
  ``Advertisement`` objects that are *equal*, in the same order, to the
  last decode's; identity across decodes is not promised, because the
  node cache is the only owner of decoded ads;
* **allocation-flat batches** — replaying an identical batch through
  :class:`~repro.perf.batch.BatchQueryEngine` in steady state (node
  cache and plan memos warm) does not grow traced memory: the engine
  hands slate ownership to the first asker instead of re-copying for
  every position, and a bulk plan's key array is built afresh and
  dropped with its batch, never retained.
"""

import gc
import tracemalloc

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.perf.batch import BatchQueryEngine
from repro.segment import (
    PackedSegmentIndex,
    SegmentBuilder,
    Tombstones,
)

ADS = [
    Advertisement(
        ("red", "shoes"), AdInfo(listing_id=1, bid_price_micros=500)
    ),
    Advertisement(
        ("red", "shoes"), AdInfo(listing_id=2, bid_price_micros=700)
    ),
    Advertisement(("running", "shoes"), AdInfo(listing_id=3)),
    Advertisement(("shoes",), AdInfo(listing_id=4)),
    Advertisement(("red", "wine"), AdInfo(listing_id=5)),
]

BATCH = [
    Query(tokens=("red", "shoes")),
    Query(tokens=("shoes", "red")),  # same word-set: dedup fan-out
    Query(tokens=("running", "shoes")),
    Query(tokens=("red", "wine", "shoes")),
]


@pytest.fixture()
def segment_path(tmp_path):
    path = tmp_path / "alloc.seg"
    SegmentBuilder(WordSetIndex.from_corpus(AdCorpus(ADS))).write(path)
    return path


def test_uncached_decodes_return_equal_ads_in_order(segment_path):
    with PackedSegmentIndex(segment_path, cache_bytes=0) as segment:
        query = Query(tokens=("red", "wine", "shoes"))
        first = segment.query(query)
        second = segment.query(query)
        assert len(first) == 4
        assert first == second  # equal ads, in the same order
        assert [ad.info for ad in first] == [ad.info for ad in second]
        assert [ad.words for ad in first] == [ad.words for ad in second]


def test_dedup_hands_ownership_without_copy():
    engine = BatchQueryEngine(WordSetIndex.from_corpus(AdCorpus(ADS)))
    results = engine.query_broad_batch(BATCH)
    # Positions 0 and 1 share one probe pass but must stay independent
    # lists (callers mutate their slates during ranking).
    assert results[0] == results[1]
    assert results[0] is not results[1]
    results[0].clear()
    assert results[1]


@pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
def test_steady_state_batches_do_not_grow_memory(segment_path, cache_bytes):
    """Repeated identical batches must be allocation-flat once every
    cache (plan memo, node cache) is warm — the tracemalloc regression
    gate for the bounded steady state: with the node cache closed every
    batch decodes afresh and retains nothing."""
    with PackedSegmentIndex(segment_path, cache_bytes=cache_bytes) as segment:
        engine = BatchQueryEngine(segment)
        for _ in range(5):  # fill every cache before measuring
            engine.query_broad_batch(BATCH)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(50):
                engine.query_broad_batch(BATCH)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Transient slates come and go; retained growth stays below a
        # small slack (interpreter bookkeeping), not O(batches).
        assert after - before < 16 * 1024, (
            f"steady-state batches retained {after - before} bytes"
        )


class TestFilterTombstonesAllocation:
    """``Tombstones.filter`` defers every allocation until the first
    actual hit: the no-hit serving case returns the input list itself
    (identity, not an equal copy) and never clones the tombstone map."""

    def test_no_hit_returns_the_input_list_identity(self):
        results = list(ADS[:3])
        tombstones = Tombstones([(ADS[4], 1)])  # dead ad not in results
        filtered = tombstones.filter(results)
        assert filtered is results

    def test_empty_tombstones_is_identity(self):
        results = list(ADS)
        assert Tombstones().filter(results) is results

    def test_hit_rebuilds_without_mutating_inputs(self):
        results = list(ADS)
        tombstones = Tombstones([(ADS[0], 1)])
        filtered = tombstones.filter(results)
        assert filtered is not results
        assert filtered == ADS[1:]
        # The tombstones are tallied against, not consumed.
        assert tombstones.counts == {ADS[0]: 1}
        assert tombstones.dead_ids == {1: 1} and tombstones.total == 1
        assert results == ADS

    def test_no_hit_filtering_is_allocation_flat(self):
        results = list(ADS)
        tombstones = Tombstones([(ADS[4], 2)])
        del results[4]  # ensure zero hits
        for _ in range(5):
            tombstones.filter(results)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(1000):
                tombstones.filter(results)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 4 * 1024, (
            f"no-hit tombstone filtering retained {after - before} bytes"
        )
