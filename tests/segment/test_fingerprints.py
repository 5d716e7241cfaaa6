"""Format version 3's node fingerprints.

Each node ordinal has one fingerprint byte: the bits just above the
``B^sig`` suffix of its one locator's ``wordhash`` (moved off the
reserved value), or :data:`SHARED_FINGERPRINT` when several locators
share the node's suffix.  A probe key whose suffix hits ``B^sig`` but
whose fingerprint differs is turned away unread, counted in
``segment.fingerprint_rejects``, and leaves the suffix unvisited, since a
later key may be the node's own locator.

The properties run over every node of built segments: Hypothesis
corpora (re-mapped placements, nodes shared under narrow suffixes) and
the seeded 8 000-ad corpus, each at several suffix widths.  The scan
tests hand ``_scan`` its keys in a chosen order.
"""

from __future__ import annotations

import tempfile
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType, RankedMatches
from repro.core.queries import Query
from repro.core.wordhash import wordhash
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.obs.registry import MetricsRegistry
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.segment.format import SHARED_FINGERPRINT
from tests.segment.test_runs import corpora


def expected_fingerprint(key: int, suffix_bits: int) -> int:
    """The byte above the suffix; 0 is reserved, so it reads as 1."""
    return (key >> suffix_bits) & 0xFF or 1


def check_every_node(ads, mapping, suffix_bits: int | None) -> None:
    """Every node of the segment of ``ads`` placed by ``mapping`` carries
    the fingerprint of its one locator, or the shared mark; every stored
    locator reaches its node through the point lookup's test."""
    index = WordSetIndex.from_corpus(ads, mapping=mapping)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fp.seg"
        builder = SegmentBuilder(index, suffix_bits=suffix_bits)
        builder.write(path)
        s = builder.suffix_bits
        placement = index.placement()
        locators = {placement.get(ad.words, ad.words) for ad in ads}
        by_suffix: dict[int, set[int]] = defaultdict(set)
        for locator in locators:
            key = wordhash(locator)
            by_suffix[key & ((1 << s) - 1)].add(key)
        ordinal = {suffix: at for at, suffix in enumerate(sorted(by_suffix))}
        with PackedSegmentIndex(path, cache_bytes=0) as packed:
            assert packed.num_nodes() == len(by_suffix)
            for suffix, keys in by_suffix.items():
                mark = packed._fingerprints[ordinal[suffix]]
                if len(keys) == 1:
                    (key,) = keys
                    assert mark == expected_fingerprint(key, s) != SHARED_FINGERPRINT
                else:
                    assert mark == SHARED_FINGERPRINT
            for locator in locators:
                key = wordhash(locator)
                assert packed._node_index_for(locator) == ordinal[key & ((1 << s) - 1)]


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), suffix_bits=st.sampled_from([1, 2, 3, 8, None]))
def test_every_node_of_a_hypothesis_corpus(corpus, suffix_bits):
    ads, mapping = corpus
    check_every_node(ads, mapping, suffix_bits)


@pytest.fixture(scope="module")
def seeded_ads():
    return list(generate_corpus(CorpusConfig(num_ads=8_000, seed=1)).corpus)


@pytest.mark.parametrize("suffix_bits", [8, 11, None, 21])
def test_every_node_of_the_seeded_corpus(seeded_ads, suffix_bits):
    check_every_node(seeded_ads, None, suffix_bits)


# ---------------------------------------------------------------------- #
# The scan's test, keys in a chosen order

SUFFIX_BITS = 8


def ad(word: str, listing_id: int) -> Advertisement:
    return Advertisement(
        phrase=(word,), info=AdInfo(listing_id=listing_id, bid_price_micros=10)
    )


def key(word: str) -> int:
    return wordhash(frozenset({word}))


def colliding(word: str) -> str:
    """A word whose key shares ``word``'s suffix, not its fingerprint."""
    mask = (1 << SUFFIX_BITS) - 1
    target = key(word)
    for i in range(100_000):
        other = f"w{i}"
        if (
            key(other) & mask == target & mask
            and expected_fingerprint(key(other), SUFFIX_BITS)
            != expected_fingerprint(target, SUFFIX_BITS)
        ):
            return other
    raise AssertionError("no colliding word")


class Segment:
    """A segment of one-word ads at ``SUFFIX_BITS``, with a registry."""

    def __init__(self, tmp_path: Path, words: list[str]) -> None:
        self.ads = [ad(word, at) for at, word in enumerate(words)]
        path = tmp_path / "scan.seg"
        SegmentBuilder(
            WordSetIndex.from_corpus(self.ads), suffix_bits=SUFFIX_BITS
        ).write(path)
        self.obs = MetricsRegistry()
        self.packed = PackedSegmentIndex(path, obs=self.obs, cache_bytes=0)

    def scan(self, words: list[str], keys: list[int], top: int | None = None):
        query = Query(tokens=tuple(words))
        plan = self.packed.probe_plan(query.words)
        if top is None:
            return self.packed._scan(query, plan, keys, MatchType.BROAD)
        return self.packed._scan(query, plan, keys, MatchType.BROAD, top=top)

    def counters(self) -> tuple[float, float]:
        return (
            self.obs.value("segment.fingerprint_rejects"),
            self.obs.value("segment.nodes_read"),
        )


def test_a_colliding_key_is_turned_away_unread(tmp_path):
    other = colliding("shoes")
    segment = Segment(tmp_path, ["shoes"])
    assert segment.packed._fingerprints[0] != SHARED_FINGERPRINT
    assert segment.scan([other, "shoes"], [key(other)]) == []
    assert segment.counters() == (1, 0)
    assert segment.packed._node_index_for(frozenset({other})) is None


@pytest.mark.parametrize("top", [None, 3])
def test_a_rejected_key_leaves_the_suffix_to_the_nodes_own(tmp_path, top):
    """The collision comes first; the node's own key, after it, must
    still read the node, once.  Once the node is read its suffix is
    visited, so the collision's second key is not tested again."""
    other = colliding("shoes")
    segment = Segment(tmp_path, ["shoes"])
    keys = [key(other), key("shoes"), key(other), key("shoes")]
    found = segment.scan([other, "shoes"], keys, top)
    if top is None:
        assert found == segment.ads
    else:
        assert isinstance(found, RankedMatches)
        assert (found.count, found.ads) == (1, tuple(segment.ads))
    assert segment.counters() == (1, 1)


def test_a_shared_node_passes_every_locator(tmp_path):
    """Two locators on one suffix: the node carries the shared mark, and
    each one's key alone reads it and finds its own ad."""
    first = "shoes"
    second = colliding(first)
    segment = Segment(tmp_path, [first, second])
    assert segment.packed.num_nodes() == 1
    assert segment.packed._fingerprints[0] == SHARED_FINGERPRINT
    for at, word in enumerate([first, second]):
        assert segment.scan([word], [key(word)]) == [segment.ads[at]]
        assert segment.packed.lookup_count(segment.ads[at]) == 1
    assert segment.counters() == (0, 4)
