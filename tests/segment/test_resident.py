"""What decoding retains is bounded by ``cache_bytes``.

The decoded-node cache is the one owner of decoded ads: a query that
decodes a node the cache did not admit keeps nothing of it.  Serving
every stored word-set once from a segment of a few thousand ads, with a
budget far below the decoded corpus, must therefore grow both
``resident_bytes()`` and the heap that ``tracemalloc`` sees by at most
the budget plus a small slack.  An instance-level table of decoded ads,
phrases or word-sets (bounded only by ``close()``) grows with every ad
served, far past that.
"""

import gc
import tracemalloc

import pytest

from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.segment import PackedSegmentIndex, SegmentBuilder

CACHE_BYTES = 64 << 10
#: Growth beside the charged cache: the node cache's own dict, and
#: allocator and interpreter bookkeeping.  A fully decoded ad costs
#: ~500 bytes, so the slack is worth well under a hundred ads.
SLACK_BYTES = 32 << 10


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A segment of 4 000 generated ads and one query per stored
    word-set (sorted, so the order is the same on every run)."""
    corpus = generate_corpus(CorpusConfig(num_ads=4_000, seed=11)).corpus
    path = tmp_path_factory.mktemp("resident") / "resident.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(path)
    queries = [
        Query(tokens=tuple(sorted(words)))
        for words in sorted(corpus.distinct_wordsets(), key=sorted)
    ]
    return path, queries


def serve_each(packed, queries):
    served = 0
    for query in queries:
        served += len(packed.query(query))
    return served


def test_resident_bytes_grow_by_at_most_the_budget(stored):
    path, queries = stored
    with PackedSegmentIndex(path, cache_bytes=CACHE_BYTES) as packed:
        cold = packed.resident_bytes()
        assert serve_each(packed, queries) >= len(queries)
        growth = packed.resident_bytes() - cold
        # The budget was spent and closed: the bound is not vacuous.
        assert 0 < packed.cache_bytes_used() <= CACHE_BYTES
        assert packed.stats()["cached_nodes"] < packed.num_nodes()
    assert growth <= CACHE_BYTES + SLACK_BYTES, (
        f"resident_bytes grew {growth} bytes on a {CACHE_BYTES}-byte budget"
    )


def test_retained_heap_grows_by_at_most_the_budget(stored):
    path, queries = stored
    with PackedSegmentIndex(path, cache_bytes=CACHE_BYTES) as packed:
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            serve_each(packed, queries)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert after - before <= CACHE_BYTES + SLACK_BYTES, (
        f"serving retained {after - before} bytes on a "
        f"{CACHE_BYTES}-byte budget"
    )
