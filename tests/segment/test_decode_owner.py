"""One owner for decoded ads: the decoder against the interning one it
replaced.

``PackedSegmentIndex._decode_entries`` builds every ``Advertisement``
afresh and shares phrases and word-sets only within one node record;
the decoded-node cache is the one thing that keeps decoded ads.  The
decoder it replaced interned tokens, phrases, word-sets and whole ads in
three instance tables that only ``close()`` cleared; it is kept here
*verbatim* as ``ParentPackedSegmentIndex._decode_entries``, with its
tables on the reference object.  Scan, admission, point lookup and full
iteration did not change, so the two indexes differ in the decoder
alone.  Admission is kept verbatim as well, charging by the generic
deep walk: the interning decoder can hand one ad object to a record
twice, which the walk charges once and the shape-aware charge of the
index under test (sized for a decoder that shares no ad) would not.

The reference decoder reads version-1 node records, so each Hypothesis
segment of ``test_runs`` (mixed nodes under small ``suffix_bits``,
non-identity placements, one word-set in several phrase orders,
duplicate ads) is written once per format and each index reads its own
file.  Both must give the same word-sets in the same order, each with
the same ads (as multisets: version 2 orders a word-set's ads carriers
first, then by ``(-bid, listing_id)``) — on a first decode and on every
re-decode, which the reference answers from its tables.  The same
script of ``query`` / ``query_kernel_batch`` calls, run twice, must give
equal results, ``segment.*`` counters and ``AccessTracker`` stats (bytes
read and ``segment.ads_materialised`` aside, see ``test_runs``) at
``cache_bytes`` 0 (every scan decodes), 512 (the first admission is
refused and closes the cache, then every scan decodes) and the default
(every node admitted, the second pass all cache hits).
"""

from __future__ import annotations

from collections import Counter as Multiset

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType
from repro.cost.accounting import AccessTracker
from repro.obs.registry import MetricsRegistry
from repro.segment import PackedSegmentIndex
from repro.segment.format import SegmentFormatError, read_varint
from repro.segment.packed import DEFAULT_CACHE_BYTES
from repro.segment.sizing import deep_sizeof
from tests.segment.test_runs import (
    corpora,
    counted_work,
    multisets,
    queries,
    segment,
    segment_counters,
    suffix_widths,
    v1_segment,
)

# ---------------------------------------------------------------------- #
# The reference: the replaced decoder, verbatim.

_NEW_AD = object.__new__
_SET = object.__setattr__

#: A decoded node: ``(word_set, ads)`` runs in entry order.
_Runs = list[tuple[frozenset[str], list[Advertisement]]]


class ParentPackedSegmentIndex(PackedSegmentIndex):
    """``PackedSegmentIndex`` with the interning decoder and its tables."""

    def __init__(self, *args, **kwargs) -> None:
        self._phrase_cache: dict[
            tuple[str, ...], tuple[tuple[str, ...], frozenset[str]]
        ] = {}
        self._word_set_intern: dict[frozenset[str], frozenset[str]] = {}
        self._ad_intern: dict[tuple[object, ...], Advertisement] = {}
        super().__init__(*args, **kwargs)

    def _decode_entries(
        self, chunk: bytes, max_word_count: int | None
    ) -> tuple[_Runs, int]:
        """Decode one node record into runs of materialized ads.

        A run is a maximal stretch of consecutive entries that share one
        interned word-set object, returned as a ``(word_set, ads)`` pair;
        runs come in entry order.  ``max_word_count`` stops the decode at
        the first entry longer than the query (entries are stored
        word-count-ordered); ``None`` decodes every entry (cache
        admission, :meth:`iter_ads`, compaction).  Returns the runs and
        the bytes consumed.

        Zigzag doubles the bid delta, the listing id and the campaign id,
        so those three are multi-byte on nearly every entry: their
        continuation bytes are decoded inline.  Counts and lengths (entry
        and word counts, shared and suffix token counts, token and
        exclusion lengths) almost always fit one byte, which is inlined,
        with :func:`read_varint` for the rest.  Ads are built by direct
        slot assignment (what the frozen dataclass ``__init__`` does
        anyway) and **interned**: tokens, phrase tuples, and whole
        Advertisement objects are shared across decodes, so re-decoding
        a node the bounded cache did not admit allocates no new
        persistent objects — the zero-allocation steady state the kernel
        hot path relies on.  One token scratch list is reused across the
        node's entries.

        The record is untrusted input: one that is truncated, indexes
        past its end, holds invalid UTF-8, or (fully decoded) does not
        end exactly at its last byte raises :class:`SegmentFormatError`.
        """
        intern = self._token_intern
        phrase_cache = self._phrase_cache
        ad_intern = self._ad_intern
        word_sets = self._word_set_intern
        tokens: list[str] = []
        runs: _Runs = []
        run_words: frozenset[str] | None = None
        run: list[Advertisement] = []
        pos = price_pos = prices_end = 0
        try:
            num_entries = chunk[pos]
            pos += 1
            if num_entries >= 128:
                num_entries, pos = read_varint(chunk, pos - 1)
            prices_len = chunk[pos]
            pos += 1
            if prices_len >= 128:
                prices_len, pos = read_varint(chunk, pos - 1)
            price_pos = pos
            pos += prices_len
            prices_end = pos
            price = 0
            for _ in range(num_entries):
                word_count = chunk[pos]
                pos += 1
                if word_count >= 128:
                    word_count, pos = read_varint(chunk, pos - 1)
                if max_word_count is not None and word_count > max_word_count:
                    break
                raw = chunk[price_pos]
                price_pos += 1
                if raw >= 128:
                    raw &= 127
                    shift = 7
                    while True:
                        byte = chunk[price_pos]
                        price_pos += 1
                        raw |= (byte & 127) << shift
                        if byte < 128:
                            break
                        shift += 7
                # The first delta is coded against 0.
                price += (raw >> 1) ^ -(raw & 1)
                shared = chunk[pos]
                pos += 1
                if shared >= 128:
                    shared, pos = read_varint(chunk, pos - 1)
                num_suffix = chunk[pos]
                pos += 1
                if num_suffix >= 128:
                    num_suffix, pos = read_varint(chunk, pos - 1)
                del tokens[shared:]
                for _ in range(num_suffix):
                    token_len = chunk[pos]
                    pos += 1
                    if token_len >= 128:
                        token_len, pos = read_varint(chunk, pos - 1)
                    end = pos + token_len
                    token = chunk[pos:end].decode("utf-8")
                    pos = end
                    tokens.append(intern.setdefault(token, token))
                phrase = tuple(tokens)
                shared_phrase = phrase_cache.get(phrase)
                if shared_phrase is None:
                    value = frozenset(phrase)
                    shared_phrase = (phrase, word_sets.setdefault(value, value))
                    phrase_cache[phrase] = shared_phrase
                phrase, word_set = shared_phrase
                raw_listing = chunk[pos]
                pos += 1
                if raw_listing >= 128:
                    raw_listing &= 127
                    shift = 7
                    while True:
                        byte = chunk[pos]
                        pos += 1
                        raw_listing |= (byte & 127) << shift
                        if byte < 128:
                            break
                        shift += 7
                raw_campaign = chunk[pos]
                pos += 1
                if raw_campaign >= 128:
                    raw_campaign &= 127
                    shift = 7
                    while True:
                        byte = chunk[pos]
                        pos += 1
                        raw_campaign |= (byte & 127) << shift
                        if byte < 128:
                            break
                        shift += 7
                num_exclusions = chunk[pos]
                pos += 1
                if num_exclusions >= 128:
                    num_exclusions, pos = read_varint(chunk, pos - 1)
                exclusions: tuple[str, ...] = ()
                if num_exclusions:
                    decoded: list[str] = []
                    for _ in range(num_exclusions):
                        text_len = chunk[pos]
                        pos += 1
                        if text_len >= 128:
                            text_len, pos = read_varint(chunk, pos - 1)
                        end = pos + text_len
                        decoded.append(chunk[pos:end].decode("utf-8"))
                        pos = end
                    exclusions = tuple(decoded)
                listing_id = (raw_listing >> 1) ^ -(raw_listing & 1)
                campaign_id = (raw_campaign >> 1) ^ -(raw_campaign & 1)
                # Intern the finished ad: the key's phrase tuple is already
                # the interned instance, so identical entries re-decoded
                # later hash straight to the shared object.
                ident = (phrase, listing_id, campaign_id, price, exclusions)
                ad = ad_intern.get(ident)
                if ad is None:
                    ad = _NEW_AD(Advertisement)
                    _SET(ad, "phrase", phrase)
                    _SET(
                        ad,
                        "info",
                        AdInfo(
                            listing_id=listing_id,
                            campaign_id=campaign_id,
                            bid_price_micros=price,
                            exclusion_phrases=exclusions,
                        ),
                    )
                    _SET(ad, "words", word_set)
                    ad_intern[ident] = ad
                if word_set is not run_words:
                    run_words = word_set
                    run = []
                    runs.append((word_set, run))
                run.append(ad)
        except (IndexError, UnicodeDecodeError) as exc:
            raise SegmentFormatError(f"malformed node record: {exc}") from exc
        # A slice running past the end shortens a string instead of
        # raising, so the cursors are checked once, here.
        size = len(chunk)
        if (
            pos > size
            or price_pos > prices_end
            or (max_word_count is None and (pos, price_pos) != (size, prices_end))
        ):
            raise SegmentFormatError(
                "malformed node record: fields run past its end or stop short"
            )
        return runs, pos

    def _admit(self, node_index: int) -> _Runs | None:
        """Decode a node fully and cache it if the budget allows.

        Admission is first-come until ``cache_bytes`` is spent, then
        stops for good — no eviction churn, a strict bound, and (unlike
        LRU) no pathological thrash under cyclic workloads.  Returns the
        decoded runs either way, or ``None`` when admission has stopped so
        the caller uses the early-terminating direct scan instead.
        """
        if not self._cache_open:
            return None
        runs, _ = self._decode_entries(self._node_chunk(node_index), None)
        # Conservative charge: a per-node deep walk counts each of the
        # node's ads once and double-counts the tokens shared across
        # nodes, so the bound errs toward over-charging.
        charge = deep_sizeof(runs)
        if self._cache_used + charge <= self._cache_budget:
            self._node_cache[node_index] = runs
            self._cache_used += charge
        else:
            self._cache_open = False
        return runs


# ---------------------------------------------------------------------- #
# Differential


def shape(runs):
    """A decode as comparable values: each run's word-set and its ads as
    a multiset."""
    return [(words, Multiset(run)) for words, run in runs]


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), suffix_bits=suffix_widths)
def test_decode_matches_the_interning_decoder(corpus, suffix_bits):
    """Every node at every ``max_word_count``, twice: the reference's
    second decode is served from its tables, the decoder under test
    builds afresh both times."""
    ads, mapping = corpus
    longest = max(len(ad.words) for ad in ads)
    with segment(ads, mapping, suffix_bits) as path, v1_segment(
        ads, mapping, suffix_bits
    ) as v1_path, PackedSegmentIndex(
        path, cache_bytes=0
    ) as packed, ParentPackedSegmentIndex(v1_path, cache_bytes=0) as reference:
        for _ in range(2):
            for node_index in range(packed.num_nodes()):
                chunk = packed._node_chunk(node_index)
                v1_chunk = reference._node_chunk(node_index)
                for limit in (None, *range(longest + 2)):
                    runs, _ = packed._decode_entries(chunk, limit)
                    want, _ = reference._decode_entries(v1_chunk, limit)
                    assert shape(runs) == shape(want)
                    for words, run in runs:
                        assert all(ad.words is words for ad in run)
        assert reference._ad_intern  # the reference did intern


@settings(max_examples=150, deadline=None)
@given(
    corpus=corpora(),
    suffix_bits=suffix_widths,
    cache_bytes=st.sampled_from([0, 512, DEFAULT_CACHE_BYTES]),
    script=st.lists(
        st.tuples(
            st.sampled_from(["query", "batch"]),
            st.lists(queries, min_size=1, max_size=4),
            st.sampled_from(list(MatchType)),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_serving_matches_the_interning_decoder(
    corpus, suffix_bits, cache_bytes, script
):
    """The script twice on four indexes over one file: each decoder with
    a registry (``query`` or ``query_kernel_batch``) and with a tracker
    (``query``)."""
    ads, mapping = corpus
    with segment(ads, mapping, suffix_bits) as path, v1_segment(
        ads, mapping, suffix_bits
    ) as v1_path:
        registry, reference_registry = MetricsRegistry(), MetricsRegistry()
        tracker, reference_tracker = AccessTracker(), AccessTracker()
        indexes = [
            PackedSegmentIndex(path, obs=registry, cache_bytes=cache_bytes),
            ParentPackedSegmentIndex(
                v1_path, obs=reference_registry, cache_bytes=cache_bytes
            ),
            PackedSegmentIndex(path, tracker=tracker, cache_bytes=cache_bytes),
            ParentPackedSegmentIndex(
                v1_path, tracker=reference_tracker, cache_bytes=cache_bytes
            ),
        ]
        packed, reference, tracked, reference_tracked = indexes
        try:
            for round_ in range(2):
                misses = segment_counters(registry).get("segment.cache_misses", 0)
                for op, batch, match_type in script:
                    if op == "query":
                        got = [packed.query(q, match_type) for q in batch]
                        want = [reference.query(q, match_type) for q in batch]
                    else:
                        got = packed.query_kernel_batch(batch, match_type)
                        want = reference.query_kernel_batch(batch, match_type)
                    assert multisets(got) == multisets(want)
                    assert segment_counters(registry) == segment_counters(
                        reference_registry
                    )
                    assert multisets(
                        tracked.query(q, match_type) for q in batch
                    ) == multisets(
                        reference_tracked.query(q, match_type) for q in batch
                    )
                    assert counted_work(tracker.stats) == counted_work(
                        reference_tracker.stats
                    )
                counters = segment_counters(registry)
                if cache_bytes == DEFAULT_CACHE_BYTES and round_ == 1:
                    # Admitted on the first pass, hit on the second.
                    assert counters["segment.cache_misses"] == misses
                elif cache_bytes != DEFAULT_CACHE_BYTES:
                    assert counters.get("segment.cache_hits", 0) == 0
            if cache_bytes == 512:
                # Refused on both sides, so admission cannot diverge.
                assert packed.cache_bytes_used() == 0
                assert reference.cache_bytes_used() == 0
            for ad in ads[:4]:
                rebid = Advertisement(
                    phrase=ad.phrase,
                    info=AdInfo(
                        listing_id=ad.info.listing_id,
                        bid_price_micros=ad.info.bid_price_micros + 1,
                    ),
                )
                for probe in (ad, rebid):
                    assert packed.lookup_count(probe) == reference.lookup_count(
                        probe
                    )
            assert Multiset(packed.iter_ads()) == Multiset(reference.iter_ads())
        finally:
            for index in indexes:
                index.close()
