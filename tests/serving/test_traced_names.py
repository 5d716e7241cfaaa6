"""The names the traced benchmark reaches into ``serve_batch`` by.

``bench/layers.py`` times a batched serve by replacing
``BatchQueryEngine.query_broad_batch`` and
``PackedSegmentIndex.query_kernel_batch`` on their classes with
recording wrappers, and reads the dedup rate off the ``batch.queries``
and ``batch.distinct_wordsets`` counters.  A refactor that stops
``serve_batch`` from going through those names fails here rather than in
the traced benchmark.
"""

import functools

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs import MetricsRegistry
from repro.perf.batch import BatchQueryEngine
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.serving.server import AdServer, ranked_read


def patch_counting(monkeypatch, owner, attr, calls):
    """Replace ``owner.attr`` as the benchmark's tracer does: fetched
    with ``getattr``, wrapped, and set back on the class."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_a_batched_serve_reaches_each_patched_name_once(tmp_path, monkeypatch):
    ads = [
        Advertisement.from_text(text, AdInfo(listing_id=i, bid_price_micros=100 + i))
        for i, text in enumerate(["used books", "cheap used books", "rare maps"])
    ]
    path = tmp_path / "names.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads)).write(path)
    registry = MetricsRegistry()
    with PackedSegmentIndex(path) as index:
        server = AdServer(index, obs=registry)
        assert ranked_read(server)
        calls = []
        patch_counting(monkeypatch, BatchQueryEngine, "query_broad_batch", calls)
        patch_counting(monkeypatch, PackedSegmentIndex, "query_kernel_batch", calls)
        queries = [
            Query.from_text("cheap used books"),
            Query.from_text("books used cheap"),  # same word-set
            Query.from_text("rare maps"),
        ]
        results = server.serve_batch(queries)
    assert calls == ["query_broad_batch", "query_kernel_batch"]
    assert registry.counter("batch.queries").value == 3
    assert registry.counter("batch.distinct_wordsets").value == 2
    assert [len(r.ads) for r in results] == [2, 2, 1]
