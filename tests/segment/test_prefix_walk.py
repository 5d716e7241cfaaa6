"""The locator-trie walk against the power set it replaced.

Format version 4 stores a filter over every locator's proper prefixes,
and ``PackedSegmentIndex._walk`` extends a subset only when its key
passes it.  The packed probe path it replaced (the parent's ``_probe``,
``_bulk_hits`` and ``_scan``, numpy bulk pass and all) is kept verbatim
in :mod:`tests.segment.parent_probe` as the reference.

The walk tests a subsequence of the power set's keys that holds every
key equal to a locator, so a node it reads the reference reads too.
What it drops are *collision reads*: a key that equals no locator but
whose ``B^sig`` suffix and fingerprint byte match some node's.  The
reference reads that node there; the walk reads it later, at its own
locator's key.  No match is lost, but a node read earlier lists its ads
earlier, so a full match list can change order.  The differential
therefore checks, on Hypothesis corpora (re-mapped placements,
duplicate ads, nodes shared under ``suffix_bits`` of 1 to 3):

* every call visits a subset of the reference's nodes, and when it
  visits the same nodes in the same order its full lists and ranked
  reads are the reference's, exactly, with equal node reads;
* otherwise its full lists hold the same ads, and its ranked reads the
  same counts and the same auction keys;
* an ``AdServer`` over each serves the same awards with equal
  ``ServingStats``.

:func:`test_a_dropped_collision_read_moves_a_full_list` forces one such
collision and shows the full list it moves; the served slate does not
move.  The properties: every power-set key equal to a locator is among
the walk's ``B^sig`` hits, in the power set's order, and no locator
prefix of a built, sealed, merged or compacted segment fails the filter.
"""

from __future__ import annotations

import hashlib
from collections import Counter as Multiset

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.subset_enum import sized_subsets
from repro.core.wordhash import wordhash
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import MetricsRegistry
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.segment.format import SHARED_FINGERPRINT, encode_file, read_header
from repro.segment.packed import DEFAULT_CACHE_BYTES
from repro.serving.server import AdServer
from tests.segment.parent_probe import ParentPackedSegmentIndex
from tests.segment.test_runs import corpora, queries, segment
from tests.segment.walk_reference import filter_holds, walk

SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class Visits(dict):
    """A node cache that logs the node ordinal of every scan: ``_scan``
    asks its cache once per node it visits."""

    def __init__(self) -> None:
        super().__init__()
        self.log: list[int] = []

    def get(self, key, default=None):
        self.log.append(key)
        return super().get(key, default)


def opened(cls, path, cache_bytes, obs):
    index = cls(path, cache_bytes=cache_bytes, obs=obs)
    index._node_cache = Visits()
    return index


def listed(ads):
    return [(ad.phrase, ad.info.listing_id, ad.info.bid_price_micros) for ad in ads]


def auction_keys(ads):
    return [(ad.info.bid_price_micros, ad.info.listing_id) for ad in ads]


def compare(got, want, same_visits):
    """One answer of the walk against the reference's."""
    if isinstance(want, list):
        if same_visits:
            assert listed(got) == listed(want)
        else:
            assert Multiset(listed(got)) == Multiset(listed(want))
        return
    assert (got.count, got.excluded) == (want.count, want.excluded)
    if same_visits:
        assert listed(got.ads) == listed(want.ads)
    else:
        assert auction_keys(got.ads) == auction_keys(want.ads)


@SETTINGS
@given(
    corpus=corpora(),
    suffix_bits=st.sampled_from([1, 2, 3, None]),
    cache_bytes=st.sampled_from([0, DEFAULT_CACHE_BYTES]),
    script=st.lists(
        st.tuples(
            st.sampled_from(["query", "batch"]),
            st.lists(queries, min_size=1, max_size=4),
            st.sampled_from(list(MatchType)),
            st.sampled_from([None, 1, 3]),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_the_walk_answers_as_the_power_set(corpus, suffix_bits, cache_bytes, script):
    ads, mapping = corpus
    with segment(ads, mapping, suffix_bits) as path:
        registry, reference_registry = MetricsRegistry(), MetricsRegistry()
        packed = opened(PackedSegmentIndex, path, cache_bytes, registry)
        reference = opened(
            ParentPackedSegmentIndex, path, cache_bytes, reference_registry
        )
        keys_tested = power_set_keys = 0
        try:
            for op, batch, match_type, top in script:
                if top is not None:
                    match_type = MatchType.BROAD
                for query in batch:
                    plan = packed.probe_plan(query.words)
                    keys_tested += len(walk(packed, plan)[0])
                    power_set_keys += plan.probe_count()
                for index in (packed, reference):
                    index._node_cache.log.clear()
                if op == "query":
                    got = [packed.query(q, match_type, top=top) for q in batch]
                    want = [reference.query(q, match_type, top=top) for q in batch]
                else:
                    got = packed.query_kernel_batch(batch, match_type, top=top)
                    want = reference.query_kernel_batch(batch, match_type, top=top)
                visits = packed._node_cache.log
                reference_visits = reference._node_cache.log
                assert set(visits) <= set(reference_visits)
                for one, other in zip(got, want):
                    compare(one, other, visits == reference_visits)
            counters = registry.snapshot()["counters"]
            reference_counters = reference_registry.snapshot()["counters"]
            assert counters["segment.probes"] == keys_tested
            assert reference_counters["segment.probes"] == power_set_keys
            for name in ("segment.queries", "segment.results"):
                assert counters[name] == reference_counters[name]
            if counters["segment.node_scans"] == reference_counters["segment.node_scans"]:
                assert counters["segment.nodes_read"] == (
                    reference_counters["segment.nodes_read"]
                )
            else:
                assert counters["segment.node_scans"] < (
                    reference_counters["segment.node_scans"]
                )
        finally:
            packed.close()
            reference.close()


@SETTINGS
@given(
    corpus=corpora(),
    suffix_bits=st.sampled_from([1, 2, 3, None]),
    batch=st.lists(queries, min_size=1, max_size=6),
)
def test_servers_over_the_walk_and_the_power_set_agree(corpus, suffix_bits, batch):
    """The ranked read serves: the same awards and ``ServingStats``."""
    ads, mapping = corpus
    with segment(ads, mapping, suffix_bits) as path, PackedSegmentIndex(
        path
    ) as packed, ParentPackedSegmentIndex(path) as reference:
        servers = [
            AdServer(index, slots=3, reserve_micros=1) for index in (packed, reference)
        ]
        pages = [server.serve_batch(batch) for server in servers]
        awards = [
            [
                [(a.ad.info.listing_id, a.ad.info.bid_price_micros, a.price_micros)
                 for a in page.outcome.awards]
                for page in served
            ]
            for served in pages
        ]
        assert awards[0] == awards[1]
        assert servers[0].stats == servers[1].stats


# ---------------------------------------------------------------------- #
# A forced collision

#: ``{"c", COLLIDER}`` has the key bits of ``{"a", "b", "c"}`` that a
#: segment at ``suffix_bits=8`` tests: its suffix and its fingerprint.
COLLIDER = "f97895"


def test_a_dropped_collision_read_moves_a_full_list(tmp_path):
    """Locators ``{a, b, c}``, ``{d, e}`` and ``{COLLIDER, g}`` (which
    puts ``COLLIDER`` in the plans); the query holds the first two and
    ``COLLIDER``.  The power set tests ``{c, COLLIDER}`` among its pairs,
    before ``{d, e}``, and that key reads ``{a, b, c}``'s node.  The walk
    never tests it (``{c}`` is no locator's prefix), so it reads
    ``{d, e}``'s node first and the other at ``{a, b, c}``: the full list
    changes order, the served slate does not."""
    collision = wordhash(frozenset({"c", COLLIDER}))
    locator = wordhash(frozenset({"a", "b", "c"}))
    assert collision & 0xFFFF == locator & 0xFFFF
    first = Advertisement(("a", "b", "c"), AdInfo(listing_id=1, bid_price_micros=5))
    second = Advertisement(("d", "e"), AdInfo(listing_id=2, bid_price_micros=9))
    third = Advertisement((COLLIDER, "g"), AdInfo(listing_id=3, bid_price_micros=7))
    path = tmp_path / "collide.seg"
    SegmentBuilder(
        WordSetIndex.from_corpus([first, second, third]), suffix_bits=8
    ).write(path)
    query = Query(("a", "b", "c", "d", "e", COLLIDER))
    with PackedSegmentIndex(path) as packed, ParentPackedSegmentIndex(path) as reference:
        assert not filter_holds(packed._prefix_filter, wordhash(frozenset({"c"})))
        assert SHARED_FINGERPRINT not in bytes(packed._fingerprints)
        assert reference.query(query) == [first, second]
        assert packed.query(query) == [second, first]
        for index in (packed, reference):
            page = AdServer(index, slots=2, reserve_micros=1).serve(query)
            assert [ad.info.listing_id for ad in page.ads] == [2, 1]


# ---------------------------------------------------------------------- #
# Properties


def locators(index: WordSetIndex) -> set[frozenset[str]]:
    return {node.locator for node in index.nodes.values()}


@SETTINGS
@given(
    corpus=corpora(),
    suffix_bits=st.sampled_from([1, 3, None]),
    query=queries,
)
def test_every_locator_key_is_walked_in_order(corpus, suffix_bits, query):
    """The walk's ``B^sig`` hits are a subsequence of the power set's
    keys that holds every key equal to a locator."""
    ads, mapping = corpus
    index = WordSetIndex.from_corpus(ads, mapping=mapping)
    with segment(ads, mapping, suffix_bits) as path, PackedSegmentIndex(path) as packed:
        plan = packed.probe_plan(query.words)
        power_set = [
            wordhash(subset) for subset in sized_subsets(plan.candidates, plan.sizes)
        ]
        hits, tested, _ = packed._walk(plan)
    locator_keys = {wordhash(locator) for locator in locators(index)}
    positions = iter(range(len(power_set)))
    # Each hit is found after the last one's position: in order.
    assert all(
        any(power_set[at] == hit for at in positions) for hit in hits
    )
    assert [k for k in power_set if k in locator_keys] == [
        k for k in hits if k in locator_keys
    ]
    assert tested <= len(power_set)


def proper_prefixes(locator):
    words = sorted(locator)
    return [frozenset(words[:end]) for end in range(1, len(words))]


def assert_no_false_negative(packed, locator_set):
    for locator in locator_set:
        for prefix in proper_prefixes(locator):
            assert filter_holds(packed._prefix_filter, wordhash(prefix)), prefix


@SETTINGS
@given(corpus=corpora(), suffix_bits=st.sampled_from([1, 2, None]))
def test_the_filter_holds_every_locator_prefix(corpus, suffix_bits):
    ads, mapping = corpus
    index = WordSetIndex.from_corpus(ads, mapping=mapping)
    with segment(ads, mapping, suffix_bits) as path, PackedSegmentIndex(path) as packed:
        assert_no_false_negative(packed, locators(index))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus=corpora(), deletes=st.integers(0, 4))
def test_sealed_and_merged_segments_hold_every_locator_prefix(
    tmp_path_factory, corpus, deletes
):
    """A tiered index's seals, merges and final compaction each write a
    filter over the locators of the segment they write."""
    ads, mapping = corpus
    directory = tmp_path_factory.mktemp("tiered")
    config = TieredConfig(seal_threshold=3, fan_in=2)
    with TieredSegmentedIndex.pack_corpus(
        ads, directory, config=config, mapping=mapping
    ) as index:
        for at, ad in enumerate(ads):
            index.insert(Advertisement(ad.phrase + ("extra",), ad.info))
            if at < deletes:
                index.delete(ad)
        for stage in ("merged", "compacted"):
            assert index.segments
            for leg in index.segments:
                placement = leg.placements()
                held = {placement.get(ad.words, ad.words) for ad in leg.iter_ads()}
                assert_no_false_negative(leg, held)
            index.compact()


def refiltered(path, fill):
    """The segment at ``path`` with every prefix-filter byte ``fill``
    and the checksum re-taken."""
    data = path.read_bytes()
    header, start = read_header(data)
    offset, length = header["sections"]["prefixes"]
    payload = bytearray(data[start:])
    payload[offset : offset + length] = bytes([fill]) * length
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(encode_file(header, bytes(payload)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(corpus=corpora(), batch=st.lists(queries, min_size=1, max_size=4))
def test_a_rewritten_filter_costs_matches_never_an_error(tmp_path_factory, corpus, batch):
    """A filter rewritten under a re-taken checksum: all ones walks the
    power set and lists every match, all zeros stops the walk at level
    one; neither raises, and neither lists an ad that is no match."""
    ads, mapping = corpus
    path = tmp_path_factory.mktemp("refilter") / "seg.bin"
    SegmentBuilder(WordSetIndex.from_corpus(ads, mapping=mapping)).write(path)
    with PackedSegmentIndex(path) as packed:
        want = [Multiset(packed.query(q)) for q in batch]
    for fill in (0xFF, 0x00):
        refiltered(path, fill)
        with PackedSegmentIndex(path) as packed:
            got = [Multiset(packed.query(q)) for q in batch]
        if fill == 0xFF:
            assert got == want
        else:
            assert all(one <= full for one, full in zip(got, want))


@pytest.mark.parametrize("suffix_bits", [8, None])
def test_a_single_word_query_walks_one_level(tmp_path, suffix_bits):
    ads = [
        Advertisement(("cheap", "books"), AdInfo(listing_id=1)),
        Advertisement(("books",), AdInfo(listing_id=2)),
    ]
    path = tmp_path / "one.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads), suffix_bits=suffix_bits).write(path)
    obs = MetricsRegistry()
    with PackedSegmentIndex(path, obs=obs) as packed:
        assert packed.query(Query(("books",))) == [ads[1]]
        assert packed.query(Query(("cheap", "books"))) == ads[::-1]
    counters = obs.snapshot()["counters"]
    # One key, then {books} and {cheap} and (through {books}) nothing
    # more: "books" sorts first, so {books, cheap} extends {books}.
    assert counters["segment.probes"] == 1 + 3
    assert counters["segment.prefix_tests"] == 1
