"""Fuzzing the node record parsers: the full decode and the ranked
read.

A node record is untrusted input: ``B^off`` gives its boundaries, and
whoever wrote the file can recompute ``payload_sha256``.  Both readers
of a record — ``_decode_entries`` (queries, cache admission, point
lookups, iteration) and ``_rank_record`` with ``_materialise`` (the
ranked read) — must answer a damaged record with
:class:`SegmentFormatError` or with a well-formed answer, never with
``IndexError``, ``UnicodeDecodeError``, ``OverflowError`` or a hang.

Records come from Hypothesis (encoded nodes with every field a byte can
land in: multi-byte counts, ids and bids, non-ASCII and long tokens,
repeated words, several phrase orders, exclusion phrases) and are then
truncated, bit-flipped, spliced with random bytes or replaced by random
bytes outright.  The readers run on them directly and through
``query`` with and without ``top`` (cache on and off), the damaged
record standing in for every node the probes reach through the loaded
segment's ``B^sig`` and fingerprint tests, which must reach at least
one.  The intact record must decode to its ads, and its ranked read
must agree with the full decode.
"""

from __future__ import annotations

import random
from collections import Counter
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.data_node import NodeEntry
from repro.core.matching import RankedMatches
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.segment import PackedSegmentIndex, SegmentBuilder, SegmentFormatError
from repro.segment.builder import encode_node
from repro.segment.packed import DEFAULT_CACHE_BYTES, _Ranking

LONG = "é" * 70  # 140 UTF-8 bytes: a two-byte length varint
WORDS = ("a", "b", "café", "日本語", LONG)

#: Seconds one read of one record may take: every loop of both readers
#: consumes a byte or stops, so a record of a few KiB is read in
#: milliseconds; far past that is a hang.
HANG_S = 5.0

ads_strategy = st.lists(
    st.builds(
        lambda words, listing, campaign, bid, exclusions: Advertisement(
            phrase=tuple(words),
            info=AdInfo(
                listing_id=listing,
                campaign_id=campaign,
                bid_price_micros=bid,
                exclusion_phrases=tuple(exclusions),
            ),
        ),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
        st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40)),
        st.integers(-3, 3),
        st.one_of(st.sampled_from([0, 5, 5, 700]), st.integers(-(2**34), 2**34)),
        st.one_of(st.just([]), st.lists(st.sampled_from(["free", LONG, "ü"]), max_size=2)),
    ),
    min_size=1,
    max_size=20,
)


@st.composite
def damaged(draw):
    """An encoded node, then one kind of damage."""
    ads = draw(ads_strategy)
    if draw(st.booleans()):
        # Past 128 entries the counts take two bytes.
        ads = [ads[i % len(ads)] for i in range(draw(st.integers(128, 160)))]
    record = encode_node([NodeEntry(ad) for ad in ads])
    kind = draw(st.sampled_from(["intact", "truncate", "flip", "splice", "random"]))
    data = bytearray(record)
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)) :]
    elif kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data) * 8 - 1))
            data[at // 8] ^= 1 << (at % 8)
    elif kind == "splice":
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        data[start:end] = draw(st.binary(max_size=8))
    elif kind == "random":
        data = bytearray(draw(st.binary(max_size=64)))
    return ads, kind, bytes(data)


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    """An index to read records with: every word of ``WORDS`` in its
    token table, no node cache."""
    ads = [Advertisement(phrase=(word,), info=AdInfo(listing_id=0)) for word in WORDS]
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads)).write(path)
    with PackedSegmentIndex(path, cache_bytes=0) as index:
        yield index


def timed(read, *args):
    """``read(*args)``, which must raise ``SegmentFormatError`` or
    return, in under ``HANG_S``; returns the answer or ``None``."""
    started = perf_counter()
    try:
        return read(*args)
    except SegmentFormatError:
        return None
    finally:
        assert perf_counter() - started < HANG_S


def full(packed, chunk, limit):
    runs, consumed = packed._decode_entries(chunk, limit)
    assert 0 <= consumed <= len(chunk)
    for words, run in runs:
        assert isinstance(words, frozenset)
        assert all(type(ad) is Advertisement and ad.words is words for ad in run)
    return runs


def ranked(packed, chunk, words, top):
    ranking = _Ranking(top)
    walked, consumed = packed._rank_record(chunk, words, ranking)
    assert 0 <= consumed <= len(chunk) and walked >= 0
    kept = ranking.carriers + [(-position, item) for _, _, position, item in ranking.heap]
    assert len({position for position, _ in kept}) == len(kept)
    ads = [packed._materialise(item) for _, item in sorted(kept, key=lambda pair: pair[0])]
    assert all(type(ad) is Advertisement and ad.words <= words for ad in ads)
    assert len(ranking.heap) <= top
    return ranking.matched, ads


QUERY_WORDS = frozenset(WORDS) | {"zz"}


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=damaged(), top=st.integers(1, 5))
def test_a_damaged_record_is_refused_or_read(packed, case, top):
    ads, kind, chunk = case
    runs = timed(full, packed, chunk, None)
    for limit in (1, 2, 4):
        timed(full, packed, chunk, limit)
    answer = timed(ranked, packed, chunk, QUERY_WORDS, top)
    if kind == "intact":
        assert runs is not None and answer is not None
        decoded = [ad for _, run in runs for ad in run]
        assert Counter(decoded) == Counter(ads)
        count, kept = answer
        assert count == len(decoded)
        rest = iter(decoded)
        assert all(any(ad == other for other in rest) for ad in kept)
        assert Counter(ad for ad in decoded if ad.info.exclusion_phrases) <= Counter(kept)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=damaged(), top=st.integers(1, 5))
def test_a_damaged_record_surfaces_through_query_typed(tmp_path, case, top):
    """The damaged record answers every node a query reaches, on an
    index with the node cache off and one with it on.  The query holds
    every word, so each locator's own key reaches its node."""
    ads, kind, chunk = case
    path = tmp_path / "through.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads)).write(path)
    query = Query(tokens=tuple(sorted(QUERY_WORDS)))
    for cache_bytes in (0, DEFAULT_CACHE_BYTES):
        with PackedSegmentIndex(path, cache_bytes=cache_bytes) as index:
            reads: list[int] = []
            index._node_chunk = lambda node_index: reads.append(node_index) or chunk
            listed = timed(index.query, query)
            answer = timed(lambda: index.query(query, top=top))
            assert reads
            if answer is not None:
                assert isinstance(answer, RankedMatches)
                assert len(answer.ads) <= answer.count
            if kind == "intact":
                assert listed is not None and answer is not None
                assert answer.count == len(listed)
                assert not Counter(answer.ads) - Counter(listed)
                carriers = Counter(ad for ad in listed if ad.info.exclusion_phrases)
                assert not carriers - Counter(answer.ads)


def test_byte_level_damage_to_real_records(packed):
    """Exhaustive small damage to a few real records: every truncation
    and every single-bit flip, plus seeded random records."""
    rng = random.Random(20261017)

    def ad(phrase, listing, bid, exclusions=()):
        info = AdInfo(listing_id=listing, bid_price_micros=bid, exclusion_phrases=exclusions)
        return Advertisement(phrase=phrase, info=info)

    mixed = [
        ad(("café", LONG, "a"), -(2**40), 2**33, ("free", LONG)),
        ad(("a", "café", LONG), 2**21, 5),
        ad(("b",), 3, 700, ("ü",)),
        ad(("b", "b"), 4, 700),
    ]
    # 130 entries in one row: two-byte counts.
    long_row = [ad(("日本語", "a"), i, 1000 - i) for i in range(130)]
    records = [encode_node([NodeEntry(one) for one in ads]) for ads in (mixed, long_row)]
    for record in records:
        damages = [record[:cut] for cut in range(len(record))]
        for at in range(len(record)):
            for bit in range(8):
                flipped = bytearray(record)
                flipped[at] ^= 1 << bit
                damages.append(bytes(flipped))
        for chunk in damages:
            timed(full, packed, chunk, None)
            timed(full, packed, chunk, 2)
            timed(ranked, packed, chunk, QUERY_WORDS, 3)
    for _ in range(3000):
        chunk = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 48)))
        timed(full, packed, chunk, None)
        timed(ranked, packed, chunk, QUERY_WORDS, 2)
