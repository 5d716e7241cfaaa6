"""Property suite: every kernel backend is bit-identical to the parent's
per-probe loop.

The equivalence guarantee (see :mod:`repro.kernels`): for any corpus and
any batch of queries, the ``python`` and ``numpy`` backends return
exactly the slates — same ads, same order — the per-probe loop the
size rule replaced returns (kept verbatim in
:mod:`tests.kernels.test_probe_path`), and record identical
observability counters, including against a forced-collision segment
(``suffix_bits=1`` maps every node onto one or two ``B^sig`` bits).  A
deadline that runs out mid-batch cuts every backend's slates at the same
node.
"""

import string
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordhash import word_contrib
from repro.core.wordset_index import WordSetIndex
import repro.kernels.pipeline as pipeline
from repro.kernels import numpy_available, set_backend
from repro.kernels.flat import clear_caches, flat_probe_keys
from repro.obs.registry import MetricsRegistry
from repro.perf.memohash import hashed_index_subsets
from repro.resilience.deadline import Deadline
from repro.segment import PackedSegmentIndex, SegmentBuilder
from tests.kernels.test_probe_path import (
    ParentPackedSegmentIndex,
    ParentWordSetIndex,
)

WORDS = [c1 + c2 for c1 in string.ascii_lowercase[:8] for c2 in "xy"]

BACKENDS = ("python",) + (("numpy",) if numpy_available() else ())


def phrase_strategy():
    return st.lists(
        st.sampled_from(WORDS), min_size=1, max_size=4, unique=True
    ).map(tuple)


def ad_strategy():
    return st.builds(
        lambda phrase, listing: Advertisement(
            phrase, AdInfo(listing_id=listing)
        ),
        phrase_strategy(),
        st.integers(min_value=0, max_value=50),
    )


def query_strategy():
    return st.lists(
        st.sampled_from(WORDS), min_size=1, max_size=6, unique=True
    ).map(lambda words: Query(tokens=tuple(words)))


corpus_and_queries = st.tuples(
    st.lists(ad_strategy(), min_size=1, max_size=25),
    st.lists(query_strategy(), min_size=1, max_size=8),
)


def slate_ids(results):
    """Order-preserving identity of each slate — bit-identical means the
    same ads in the same order, not merely the same set."""
    return [
        [(ad.phrase, ad.info.listing_id) for ad in ads] for ads in results
    ]


def run_backend(make_index, queries, backend, deadline_factory=None):
    """``make_index(parent, obs)`` answering ``queries`` as one batch;
    ``backend=None`` builds the parent's index, whose loop answers per
    probe (its ``off``)."""
    obs = MetricsRegistry()
    index = make_index(backend is None, obs)
    set_backend(backend)
    try:
        deadline = deadline_factory() if deadline_factory else None
        results = index.query_kernel_batch(queries, deadline=deadline)
    finally:
        set_backend(None)
        if hasattr(index, "close"):
            index.close()
    reasons = deadline.partial_reasons if deadline is not None else ()
    return slate_ids(results), obs.snapshot()["counters"], reasons


def assert_backends_agree(make_index, queries, deadline_factory=None):
    baseline = run_backend(make_index, queries, None, deadline_factory)
    for backend in BACKENDS:
        observed = run_backend(make_index, queries, backend, deadline_factory)
        assert observed == baseline, backend


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(corpus_and_queries)
def test_wordset_index_backends_bit_identical(data):
    ads, queries = data
    assert_backends_agree(
        lambda parent, obs: (
            ParentWordSetIndex if parent else WordSetIndex
        ).from_corpus(AdCorpus(ads), obs=obs),
        queries,
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(corpus_and_queries, st.sampled_from([None, 1]))
def test_packed_segment_backends_bit_identical(tmp_path_factory, data, bits):
    """Packed serving equivalence, including ``suffix_bits=1`` segments
    where every node collides onto at most two ``B^sig`` bits — the
    bulk bit-test then surfaces the same node for unrelated probes and
    the scan-side verification must still agree everywhere."""
    ads, queries = data
    path = tmp_path_factory.mktemp("kernel-seg") / "seg.bin"
    SegmentBuilder(
        WordSetIndex.from_corpus(AdCorpus(ads)), suffix_bits=bits
    ).write(path)
    assert_backends_agree(
        lambda parent, obs: (
            ParentPackedSegmentIndex if parent else PackedSegmentIndex
        )(path, obs=obs, cache_bytes=512),
        queries,
    )


class Ticks:
    """A clock that advances one millisecond per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def run_ticking(ads, queries, backend, all_bulk, spend_at):
    """One batch under a deadline spent at clock read ``spend_at``: the
    slates, the counters, the partiality reasons and how many times the
    clock was read."""
    obs = MetricsRegistry()
    index = WordSetIndex.from_corpus(AdCorpus(ads), obs=obs)
    clock = Ticks()
    deadline = Deadline(spend_at, clock=clock)
    set_backend(backend)
    try:
        with mock.patch.object(
            pipeline, "BULK_MIN_KEYS", 0 if all_bulk else pipeline.BULK_MIN_KEYS
        ):
            results = index.query_kernel_batch(queries, deadline=deadline)
    finally:
        set_backend(None)
    return (
        slate_ids(results),
        obs.snapshot()["counters"],
        deadline.partial_reasons,
        clock.now,
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(corpus_and_queries, st.integers(min_value=1, max_value=12))
def test_ticking_deadline_partials_bit_identical(data, spend_at):
    """A deadline on a clock that ticks once per read runs out part way
    through a batch.  Every way a plan's keys reach the scan reads the
    clock at the same checks (before a query's first key and before each
    node scan), so streamed plans (``python``), the size rule and every
    plan in bulk (``numpy``) cut at the same node: the partial slates,
    the counters and the partiality reasons must be identical."""
    ads, queries = data
    streamed = run_ticking(ads, queries, "python", False, spend_at)
    if numpy_available():
        for all_bulk in (False, True):
            assert run_ticking(ads, queries, "numpy", all_bulk, spend_at) == streamed
    unbudgeted = run_backend(
        lambda parent, obs: WordSetIndex.from_corpus(AdCorpus(ads), obs=obs),
        queries,
        "python",
    )[0]
    for cut, full in zip(streamed[0], unbudgeted):
        assert set(cut) <= set(full)


@pytest.mark.skipif(not numpy_available(), reason="flat keys need numpy")
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8, unique=True),
    st.sets(st.integers(min_value=1, max_value=8), min_size=1),
)
def test_flat_probe_keys_match_generator(candidates, sizes):
    """The flat key array equals the streamed generator's output,
    element for element, in canonical enumeration order, whether its
    level indexes are built cold or served from the cache."""
    candidates = tuple(candidates)
    sizes = tuple(sorted(sizes))
    contribs = [word_contrib(word) for word in candidates]
    expected = [key for key, _ in hashed_index_subsets(contribs, sizes)]
    clear_caches()
    assert list(flat_probe_keys(candidates, sizes)) == expected
    assert list(flat_probe_keys(candidates, sizes)) == expected


def test_mutation_invalidates_kernel_state():
    """Insert/delete between kernel batches must be visible immediately:
    the plan memo is generation-checked."""
    extra = Advertisement(("zq", "zr"), AdInfo(listing_id=99))
    index = WordSetIndex.from_corpus(
        AdCorpus([Advertisement(("ax",), AdInfo(listing_id=1))])
    )
    query = Query(tokens=("zq", "zr"))
    for backend in BACKENDS:
        set_backend(backend)
        try:
            assert index.query_kernel_batch([query]) == [[]]
            index.insert(extra)
            [after_insert] = index.query_kernel_batch([query])
            assert [ad.info.listing_id for ad in after_insert] == [99]
            assert index.delete(extra)
            assert index.query_kernel_batch([query]) == [[]]
        finally:
            set_backend(None)
