"""Runs, not ads: the packed node decode and scan against the code they
replaced.

``PackedSegmentIndex._decode_entries`` returns a node as runs (one per
word-set row of a version-2 record, its ads sharing one word-set object)
and ``_scan`` makes one length cut, one subset test and one
``list.extend`` per run.  The decoder, scan, cache admission, point
lookup and full iteration they replaced are kept here *verbatim* as
``ReferencePackedSegmentIndex``, which owns the phrase and ad intern
tables its decoder reads (the index under test no longer has them).
That decoder reads version-1 node records, so each Hypothesis corpus is
written twice, once per format (:mod:`tests.segment.format_v1`), and
each index reads its own file.  The reference's scan is fed every key
the trie walk tests, streamed, where the index under test's scan gets
only the walk's ``B^sig`` hits and their count.
On Hypothesis-built segments (mixed nodes under small ``suffix_bits``,
non-identity placements, one word-set in several phrase orders,
duplicate ads) both must give the same ads — as multisets, since
version 2 orders a word-set's ads carriers first, then by
``(-bid, listing_id)`` — and equal ``query`` / ``query_kernel_batch``
results, ``segment.*`` counters and tracker stats (bytes read aside:
the records differ).  ``segment.ads_materialised`` is bumped inside the
decoder, which the reference replaces, so it is left out.

Cache budgets are 0 (no cache), 512 bytes (the first admission attempt
decodes a whole node, is refused and closes the cache) and the default
(every node admitted).  A budget that admits some nodes and then closes
is left out on purpose: a node's runs add a tuple and a list to its
charge, so such a budget can close earlier than the reference's.
"""

from __future__ import annotations

import dataclasses
import tempfile
from collections import Counter as Multiset
from collections.abc import Iterable, Iterator
from pathlib import Path
from time import perf_counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType, apply_match_type
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.obs.registry import Counter, MetricsRegistry
from repro.perf.prefilter import ProbePlan
from repro.resilience.deadline import Deadline, DegradedReason
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.segment.format import SHARED_FINGERPRINT, fingerprint, read_varint
from repro.segment.packed import DEFAULT_CACHE_BYTES
from repro.segment.sizing import deep_sizeof
from tests.segment.format_v1 import write_v1_segment
from tests.segment.walk_reference import walked_keys

# ---------------------------------------------------------------------- #
# The reference: the replaced code, verbatim.

_NEW_AD = object.__new__
_SET = object.__setattr__


class ReferencePackedSegmentIndex(PackedSegmentIndex):
    """``PackedSegmentIndex`` with the per-ad decoder and scan."""

    def __init__(self, *args, **kwargs) -> None:
        self._phrase_cache: dict[
            tuple[str, ...], tuple[tuple[str, ...], frozenset[str]]
        ] = {}
        self._ad_intern: dict[tuple[object, ...], Advertisement] = {}
        super().__init__(*args, **kwargs)

    def _probe(self, query, plan, match_type, deadline, top=None):
        """Not the replaced code: streams every key the trie walk tests
        (:func:`~tests.segment.walk_reference.walked_keys`) through the
        scan below, as the replaced probe streamed its plan's keys."""
        assert top is None
        return self._scan(query, plan, walked_keys(self, plan), match_type, deadline)

    def _scan(
        self,
        query: Query,
        plan: ProbePlan,
        keys: Iterable[int],
        match_type: MatchType,
        deadline: Deadline | None = None,
        num_probes: int | None = None,
    ) -> list[Advertisement]:
        """Test ``keys`` against ``B^sig`` in probe-enumeration order
        and scan the hit nodes — the one loop behind :meth:`query`
        (``keys`` is the plan's whole key stream) and
        :meth:`query_kernel_batch` (``keys`` holds only the hit
        suffixes, misses were eliminated in bulk, and ``num_probes``
        says how many keys were probed; masking and re-testing a hit
        suffix is idempotent)."""
        obs = self._obs
        started = perf_counter() if obs is not None else 0.0
        words = plan.words
        query_len = len(words)
        tracker = self.tracker
        suffix_mask = (1 << self.suffix_bits) - 1
        sig_words = self.bsig.words
        rank1 = self.bsig.rank1
        cache = self._node_cache
        results: list[Advertisement] = []
        append = results.append
        visited: set[int] = set()
        probes = 0
        node_scans = 0
        entries_scanned = 0
        cache_hits = 0
        rejects = 0
        for key in keys:
            if deadline is not None and deadline.expired():
                deadline.mark_partial(DegradedReason.DEADLINE)
                if obs is not None:
                    obs.counter("resilience.deadline_partials").inc()
                break
            probes += 1
            if tracker is not None:
                # Every probed subset is one random ``B^sig`` word read,
                # hit or miss (Section IV's ``Cost_Random`` per lookup).
                tracker.hash_probe(8)
            suffix = key & suffix_mask
            if suffix in visited:
                continue
            # Inlined B^sig bit test: the overwhelmingly common miss costs
            # one word load, no call.
            if not (sig_words[suffix >> 6] >> (suffix & 63)) & 1:
                continue
            node_index = rank1(suffix + 1) - 1
            # Format version 3's fingerprint test, added to the
            # reference: a rejected key leaves the suffix unvisited.
            mark = self._fingerprints[node_index]
            if mark != SHARED_FINGERPRINT and mark != fingerprint(
                key, self.suffix_bits
            ):
                rejects += 1
                continue
            visited.add(suffix)
            node_scans += 1
            ads = cache.get(node_index)
            if ads is not None:
                cache_hits += 1
                scanned = 0
                for ad in ads:
                    ad_words = ad.words
                    if len(ad_words) > query_len:
                        break
                    scanned += 1
                    if ad_words <= words:
                        append(ad)
                entries_scanned += scanned
                if tracker is not None:
                    tracker.candidate(scanned)
            else:
                ads = self._admit(node_index)
                if ads is None:
                    chunk = self._node_chunk(node_index)
                    ads, consumed = self._decode_entries(chunk, query_len)
                    if tracker is not None:
                        tracker.random_access(consumed)
                entries_scanned += len(ads)
                for ad in ads:
                    ad_words = ad.words
                    if len(ad_words) > query_len:
                        break
                    if ad_words <= words:
                        append(ad)
                if tracker is not None:
                    tracker.candidate(len(ads))
        if tracker is not None:
            tracker.query_done()
        if obs is not None:
            obs.counter("segment.queries").inc()
            obs.counter("segment.probes").inc(
                probes if num_probes is None else num_probes
            )
            obs.counter("segment.node_scans").inc(node_scans)
            obs.counter("segment.entries_scanned").inc(entries_scanned)
            obs.counter("segment.results").inc(len(results))
            obs.counter("segment.cache_hits").inc(cache_hits)
            obs.counter("segment.cache_misses").inc(node_scans - cache_hits)
            obs.counter("segment.fingerprint_rejects").inc(rejects)
            obs.gauge("segment.cache_bytes").set(float(self._cache_used))
            obs.histogram("span.segment_query").observe(
                (perf_counter() - started) * 1e3
            )
        return apply_match_type(results, query, match_type)

    def _decode_entries(
        self, chunk: bytes, max_word_count: int | None
    ) -> tuple[list[Advertisement], int]:
        """Decode one node record into materialized ads (entry order).

        ``max_word_count`` stops the scan at the first entry longer than
        the query (entries are stored word-count-ordered); ``None``
        decodes every entry (cache admission, :meth:`iter_ads`,
        compaction).  Returns the ads and the bytes consumed.

        The hot loop inlines the one-byte varint case — the overwhelming
        majority — and falls back to :func:`read_varint` for multi-byte
        values.  Ads are built by direct slot assignment (what the frozen
        dataclass ``__init__`` does anyway) and **interned**: tokens,
        phrase tuples, and whole Advertisement objects are shared across
        decodes, so re-decoding a node the bounded cache did not admit
        allocates no new persistent objects — the zero-allocation
        steady state the kernel hot path relies on.  One token scratch
        list is reused across the node's entries.
        """
        intern = self._token_intern
        phrase_cache = self._phrase_cache
        ad_intern = self._ad_intern
        tokens: list[str] = []
        pos = 0
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
        price = 0
        ads: list[Advertisement] = []
        for index in range(num_entries):
            word_count = chunk[pos]
            pos += 1
            if word_count >= 128:
                word_count, pos = read_varint(chunk, pos - 1)
            if max_word_count is not None and word_count > max_word_count:
                break
            raw = chunk[price_pos]
            price_pos += 1
            if raw >= 128:
                raw, price_pos = read_varint(chunk, price_pos - 1)
            delta = (raw >> 1) ^ -(raw & 1)
            price = delta if index == 0 else price + delta
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
                shared_phrase = (phrase, frozenset(phrase))
                phrase_cache[phrase] = shared_phrase
            phrase, word_set = shared_phrase
            raw_listing = chunk[pos]
            pos += 1
            if raw_listing >= 128:
                raw_listing, pos = read_varint(chunk, pos - 1)
            raw_campaign = chunk[pos]
            pos += 1
            if raw_campaign >= 128:
                raw_campaign, pos = read_varint(chunk, pos - 1)
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
            ads.append(ad)
        return ads, pos

    def _admit(self, node_index: int) -> list[Advertisement] | None:
        """Decode a node fully and cache it if the budget allows.

        Admission is first-come until ``cache_bytes`` is spent, then
        stops for good — no eviction churn, a strict bound, and (unlike
        LRU) no pathological thrash under cyclic workloads.  Returns the
        decoded ads either way, or ``None`` when admission has stopped so
        the caller uses the early-terminating direct scan instead.
        """
        if not self._cache_open:
            return None
        ads, _ = self._decode_entries(self._node_chunk(node_index), None)
        # Conservative charge: a per-node deep walk double-counts objects
        # shared across nodes, so the bound errs toward over-charging.
        charge = deep_sizeof(ads)
        if self._cache_used + charge <= self._cache_budget:
            self._node_cache[node_index] = ads
            self._cache_used += charge
        else:
            self._cache_open = False
        return ads

    def lookup_count(self, ad: Advertisement) -> int:
        """Occurrences of exactly ``ad`` stored in the segment.

        A point lookup, not a query: the header's persisted placements
        route the ad's word-set to the one node that could hold it.  A
        locator with a word outside the header vocabulary addresses no
        stored ad and is answered without hashing; candidates are
        compared by ``listing_id`` before full ``Advertisement`` equality.
        """
        locator = self._placements.get(ad.words, ad.words)
        if not self._vocab.keys() >= locator:
            return 0
        node_index = self._node_index_for(locator)
        if node_index is None:
            return 0
        candidates = self._node_cache.get(node_index)
        if candidates is None:
            candidates, _ = self._decode_entries(
                self._node_chunk(node_index), len(ad.words)
            )
        listing_id = ad.info.listing_id
        return sum(
            1
            for candidate in candidates
            if candidate.info.listing_id == listing_id and candidate == ad
        )

    def iter_ads(self) -> Iterator[Advertisement]:
        """Every stored ad, in node order (full sequential decode)."""
        for node_index in range(self._num_nodes):
            ads = self._node_cache.get(node_index)
            if ads is None:
                ads, _ = self._decode_entries(
                    self._node_chunk(node_index), None
                )
            yield from ads


# ---------------------------------------------------------------------- #
# Segments: few words, so that nodes mix word-sets of equal length under
# small ``suffix_bits``, placements re-home word-sets, one word-set comes
# in several phrase orders, and ads repeat exactly.

WORDS = ("a", "b", "c", "d", "é", "kw")

ids = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
bids = st.one_of(st.integers(0, 300), st.integers(0, 2**30))
exclusions = st.lists(st.sampled_from(["a", "b c", "free"]), max_size=2)


@st.composite
def corpora(draw):
    word_sets = draw(
        st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=8,
        )
    )
    ads = []
    mapping = {}
    for words in word_sets:
        for _ in range(draw(st.integers(1, 3))):
            ad = Advertisement(
                phrase=tuple(draw(st.permutations(words))),
                info=AdInfo(
                    listing_id=draw(ids),
                    campaign_id=draw(ids),
                    bid_price_micros=draw(bids),
                    exclusion_phrases=tuple(draw(exclusions)),
                ),
            )
            ads += [ad] * draw(st.integers(1, 2))
        key = frozenset(words)
        if len(words) > 1 and key not in mapping and draw(st.booleans()):
            mapping[key] = frozenset(
                draw(
                    st.lists(
                        st.sampled_from(words),
                        min_size=1,
                        max_size=len(words) - 1,
                        unique=True,
                    )
                )
            )
    return draw(st.permutations(ads)), mapping


suffix_widths = st.sampled_from([1, 2, 3, None])
queries = st.lists(st.sampled_from((*WORDS, "zz")), min_size=1, max_size=6).map(
    lambda tokens: Query(tokens=tuple(tokens))
)


class segment:
    """A temporary segment file built from ``ads`` under ``mapping``."""

    def __init__(self, ads, mapping, suffix_bits):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "runs.seg"
        index = WordSetIndex.from_corpus(ads, mapping=mapping)
        SegmentBuilder(index, suffix_bits=suffix_bits).write(self.path)

    def __enter__(self):
        return self.path

    def __exit__(self, *exc):
        self.tmp.cleanup()


class v1_segment(segment):
    """The same corpus as ``segment`` writes, in version-1 node records
    (under the current preamble, which the references' loader checks)."""

    def __init__(self, ads, mapping, suffix_bits):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "runs-v1.seg"
        index = WordSetIndex.from_corpus(ads, mapping=mapping)
        write_v1_segment(index, self.path, suffix_bits=suffix_bits)


#: Bumped by the decoder under test, which the references replace.
DECODER_COUNTERS = frozenset({"segment.ads_materialised"})


def segment_counters(registry):
    return {
        metric.name: metric.value
        for metric in registry
        if isinstance(metric, Counter)
        and metric.name.startswith("segment.")
        and metric.name not in DECODER_COUNTERS
    }


def multisets(results):
    """Per query, its ads as a multiset."""
    return [Multiset(ads) for ads in results]


def counted_work(stats):
    """Tracker stats with the bytes read left out (the records differ)."""
    return dataclasses.replace(stats, bytes_scanned=0)


def row_order(ad):
    """A version-2 row's entry order: carriers first, then by rank."""
    info = ad.info
    return (not info.exclusion_phrases, -info.bid_price_micros, info.listing_id)


# ---------------------------------------------------------------------- #
# Differential


@settings(max_examples=150, deadline=None)
@given(corpus=corpora(), suffix_bits=suffix_widths)
def test_runs_decode_the_replaced_decoders_ads(corpus, suffix_bits):
    """Each decoder reads its own format's record of every node: at every
    length cut the runs must hold the ads the reference returns, one run
    per word-set in word-count order, each run's ads sharing its word-set
    object and standing in row order."""
    ads, mapping = corpus
    longest = max(len(ad.words) for ad in ads)
    with segment(ads, mapping, suffix_bits) as path, v1_segment(
        ads, mapping, suffix_bits
    ) as v1_path, PackedSegmentIndex(
        path, cache_bytes=0
    ) as packed, ReferencePackedSegmentIndex(v1_path, cache_bytes=0) as reference:
        assert packed.num_nodes() == reference.num_nodes()
        for node_index in range(packed.num_nodes()):
            chunk = packed._node_chunk(node_index)
            v1_chunk = reference._node_chunk(node_index)
            for limit in (None, *range(longest + 2)):
                runs, consumed = packed._decode_entries(chunk, limit)
                want, _ = reference._decode_entries(v1_chunk, limit)
                got = [ad for _, run in runs for ad in run]
                assert Multiset(got) == Multiset(want)
                assert limit is not None or consumed == len(chunk)
                word_sets = [words for words, _ in runs]
                assert len(set(word_sets)) == len(word_sets)
                assert [len(words) for words in word_sets] == sorted(
                    len(words) for words in word_sets
                )
                for words, run in runs:
                    assert run and all(ad.words is words for ad in run)
                    assert [row_order(ad) for ad in run] == sorted(
                        row_order(ad) for ad in run
                    )


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
def test_scans_match_the_replaced_scan(corpus, suffix_bits, cache_bytes, script):
    """The same script on four indexes: the run scan over the version-2
    file and the reference over the version-1 file, each once with a
    registry (``query`` or ``query_kernel_batch``) and once with a
    tracker (``query``)."""
    ads, mapping = corpus
    with segment(ads, mapping, suffix_bits) as path, v1_segment(
        ads, mapping, suffix_bits
    ) as v1_path:
        registry, reference_registry = MetricsRegistry(), MetricsRegistry()
        tracker, reference_tracker = AccessTracker(), AccessTracker()
        indexes = [
            PackedSegmentIndex(path, obs=registry, cache_bytes=cache_bytes),
            ReferencePackedSegmentIndex(
                v1_path, obs=reference_registry, cache_bytes=cache_bytes
            ),
            PackedSegmentIndex(path, tracker=tracker, cache_bytes=cache_bytes),
            ReferencePackedSegmentIndex(
                v1_path, tracker=reference_tracker, cache_bytes=cache_bytes
            ),
        ]
        packed, reference, tracked, reference_tracked = indexes
        try:
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
                assert multisets(tracked.query(q, match_type) for q in batch) == (
                    multisets(reference_tracked.query(q, match_type) for q in batch)
                )
                assert counted_work(tracker.stats) == counted_work(
                    reference_tracker.stats
                )
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


def test_phrase_orders_of_one_word_set_form_one_run():
    ads = [
        Advertisement(phrase=phrase, info=AdInfo(listing_id=i))
        for i, phrase in enumerate([("a", "b"), ("b", "a"), ("a", "b"), ("c",)])
    ]
    with segment(ads, {}, 1) as path, PackedSegmentIndex(path) as packed:
        runs = [
            (sorted(words), len(run))
            for node_index in range(packed.num_nodes())
            for words, run in packed._decode_entries(
                packed._node_chunk(node_index), None
            )[0]
        ]
    assert sorted(runs) == [(["a", "b"], 3), (["c"], 1)]
