"""First touch pays only for its decode: the shape-aware charge and the
``B^sig`` rank directory against the code they replaced.

``PackedSegmentIndex._admit`` charges an admitted node with
:func:`repro.segment.sizing.runs_sizeof` instead of the generic
:func:`~repro.segment.sizing.deep_sizeof` graph walk, and a ``B^sig``
hit becomes a node ordinal through a per-word rank directory instead of
``BitVector.rank1``.  Neither may move a charge, an admission or an
answer:

* **Charge.** ``runs_sizeof(runs) == deep_sizeof(runs)`` for every fully
  decoded node: of the Hypothesis segments of ``test_runs``, of segments
  drawn with corner values (ids and bids in ``-5..256`` repeated within
  a node, bid 0, empty and one-character exclusions, an exclusion equal
  to a token) and of a generated 16 k-ad segment.  The equality is
  asserted at run time, so it holds on whichever Python runs the suite.
* **Admission.** ``DeepWalkAdmission`` keeps the replaced ``_admit``
  verbatim.  One query script at budgets 0, 512, 64 KiB and the default
  must admit the same nodes in the same order, with the same charge,
  results and ``segment.*`` counters.
* **Directory.** For every set bit ``s`` the directory's ordinal equals
  ``rank1(s + 1) - 1``, with ``B^sig`` shorter than one word, exactly one
  word, two words and at the default width.  ``RankLookup`` keeps the
  replaced ``rank1`` point lookup and resident count verbatim: point
  lookups and full iteration answer alike, every own-phrase query
  matches the oracle, and ``resident_bytes()`` grows by exactly the
  directory.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType, naive_broad_match
from repro.core.queries import Query
from repro.core.wordhash import hash_suffix, wordhash
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.obs.registry import MetricsRegistry
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.segment.packed import DEFAULT_CACHE_BYTES
from repro.segment.sizing import deep_sizeof, runs_sizeof
from tests.segment.test_runs import (
    WORDS,
    corpora,
    segment,
    segment_counters,
    suffix_widths,
)

#: A decoded node: ``(word_set, ads)`` runs in entry order.
_Runs = list[tuple[frozenset[str], list[Advertisement]]]

# ---------------------------------------------------------------------- #
# The references: the replaced methods, verbatim.


class DeepWalkAdmission(PackedSegmentIndex):
    """``PackedSegmentIndex`` charging admissions by the deep walk."""

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


class RankLookup(PackedSegmentIndex):
    """``PackedSegmentIndex`` locating nodes with ``rank1`` and counting
    resident bytes without the rank directory."""

    def _node_index_for(self, locator: frozenset[str]) -> int | None:
        """Index of the node a locator addresses, or ``None``."""
        suffix = hash_suffix(wordhash(locator), self.suffix_bits)
        if not self.bsig[suffix]:
            return None
        return self.bsig.rank1(suffix + 1) - 1

    def resident_bytes(self) -> int:
        """Honest resident footprint: the mapped file plus every
        Python-side auxiliary object — header dicts, rank directories,
        the node-offset array, the token table, the plan memo and the
        decoded-node cache — deep-counted with identity dedup."""
        return len(self._mmap) + deep_sizeof(
            self._vocab,
            self._size_histogram,
            self._placements,
            self._token_intern,
            self._plan_memo.cache,
            self._node_cache,
            self._node_offsets,
            self.bsig,
            self.boff,
            exclude=(self._mmap, *self._views),
        )


# ---------------------------------------------------------------------- #
# Charge


def decoded_nodes(path) -> list[_Runs]:
    """Every node of the segment at ``path``, fully decoded."""
    with PackedSegmentIndex(path, cache_bytes=0) as packed:
        return [
            packed._decode_entries(packed._node_chunk(index), None)[0]
            for index in range(packed.num_nodes())
        ]


#: Small ints are CPython singletons; the rest are built per entry.
corner_numbers = st.one_of(
    st.integers(-5, 256), st.sampled_from([-6, 257, 2**40])
)
#: Empty and one-character strings are singletons (below U+0100), and
#: "a", "é" and "kw" are also tokens of ``WORDS``.
corner_exclusions = st.lists(
    st.sampled_from(["", "a", "é", "€", "kw", "b c", "free"]), max_size=3
)


@st.composite
def corner_corpora(draw):
    """Ads whose ids and bids come from a pool of two or three values, so
    they repeat within a node; ``test_runs``' ``(ads, mapping)`` shape."""
    pool = draw(st.lists(corner_numbers, min_size=1, max_size=3))
    bids = [0, *(number for number in pool if number >= 0)]
    ads = []
    for words in draw(
        st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=6,
        )
    ):
        for _ in range(draw(st.integers(1, 3))):
            ads.append(
                Advertisement(
                    phrase=tuple(draw(st.permutations(words))),
                    info=AdInfo(
                        listing_id=draw(st.sampled_from(pool)),
                        campaign_id=draw(st.sampled_from(pool)),
                        bid_price_micros=draw(st.sampled_from(bids)),
                        exclusion_phrases=tuple(draw(corner_exclusions)),
                    ),
                )
            )
    return ads, {}


@settings(max_examples=200, deadline=None)
@given(
    corpus=st.one_of(corpora(), corner_corpora()), suffix_bits=suffix_widths
)
def test_charge_equals_the_deep_walk(corpus, suffix_bits):
    ads, mapping = corpus
    with segment(ads, mapping, suffix_bits) as path:
        for runs in decoded_nodes(path):
            assert runs_sizeof(runs) == deep_sizeof(runs)


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A generated 16 000-ad segment and its ads."""
    ads = list(generate_corpus(CorpusConfig(num_ads=16_000, seed=5)).corpus)
    path = tmp_path_factory.mktemp("first_touch") / "generated.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads)).write(path)
    return path, ads


def test_charge_equals_the_deep_walk_on_a_generated_segment(generated):
    path, _ = generated
    nodes = decoded_nodes(path)
    assert len(nodes) > 2_000
    for runs in nodes:
        assert runs_sizeof(runs) == deep_sizeof(runs)


# ---------------------------------------------------------------------- #
# Admission


def script(ads):
    """Own-phrase queries of every 16th ad, one padded by a word no ad
    holds, half of them served one by one and half as kernel batches."""
    queries = [
        Query(tokens=(*ad.phrase, "zzfirst")) if i % 3 else Query(ad.phrase)
        for i, ad in enumerate(ads[::16])
    ]
    return [queries[i : i + 8] for i in range(0, len(queries), 8)]


@pytest.mark.parametrize(
    "cache_bytes", [0, 512, 64 << 10, DEFAULT_CACHE_BYTES]
)
def test_admission_matches_the_deep_walk(generated, cache_bytes):
    path, ads = generated
    registry, reference_registry = MetricsRegistry(), MetricsRegistry()
    with PackedSegmentIndex(
        path, obs=registry, cache_bytes=cache_bytes
    ) as packed, DeepWalkAdmission(
        path, obs=reference_registry, cache_bytes=cache_bytes
    ) as reference:
        for step, batch in enumerate(script(ads)):
            if step % 2:
                got = packed.query_kernel_batch(batch, MatchType.BROAD)
                want = reference.query_kernel_batch(batch, MatchType.BROAD)
            else:
                got = [packed.query(query) for query in batch]
                want = [reference.query(query) for query in batch]
            assert got == want
        assert list(packed._node_cache) == list(reference._node_cache)
        assert packed.cache_bytes_used() == reference.cache_bytes_used()
        assert segment_counters(registry) == segment_counters(
            reference_registry
        )
        cached = len(packed._node_cache)
        if cache_bytes == 64 << 10:
            # Admitted some nodes, then closed: the order matters here.
            assert 0 < cached and not packed._cache_open
        elif cache_bytes == DEFAULT_CACHE_BYTES:
            assert cached == registry.value("segment.cache_misses")
        else:
            assert cached == 0


# ---------------------------------------------------------------------- #
# Directory


def directory_ordinal(packed, suffix):
    """The node ordinal of set bit ``suffix`` off the rank directory."""
    word = packed.bsig.words[suffix >> 6]
    below = word & ((1 << (suffix & 63)) - 1)
    return packed._sig_ranks[suffix >> 6] + below.bit_count()


@pytest.fixture(scope="module")
def small_corpus():
    return list(generate_corpus(CorpusConfig(num_ads=600, seed=9)).corpus)


# 1..5: B^sig shorter than one word; 6: exactly one; 7: two; None: default.
@pytest.mark.parametrize("suffix_bits", [1, 2, 3, 4, 5, 6, 7, None])
def test_directory_ranks_like_rank1(small_corpus, tmp_path, suffix_bits):
    path = tmp_path / "directory.seg"
    index = WordSetIndex.from_corpus(small_corpus)
    SegmentBuilder(index, suffix_bits=suffix_bits).write(path)
    with PackedSegmentIndex(path) as packed, RankLookup(path) as reference:
        bsig = packed.bsig
        hits = [s for s in range(len(bsig)) if bsig[s]]
        assert len(hits) == packed.num_nodes()
        assert [directory_ordinal(packed, s) for s in hits] == [
            bsig.rank1(s + 1) - 1 for s in hits
        ]
        assert len(packed._sig_ranks) == len(bsig.words)

        for words in {ad.words for ad in small_corpus} | {frozenset({"zz"})}:
            assert packed._node_index_for(words) == reference._node_index_for(
                words
            )
        for ad in small_corpus[::7]:
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
        assert list(packed.iter_ads()) == list(reference.iter_ads())
        assert packed.resident_bytes() - reference.resident_bytes() == (
            deep_sizeof(packed._sig_ranks)
        )

        queries = [Query(ad.phrase) for ad in small_corpus[::5]]
        for query, got in zip(
            queries, packed.query_kernel_batch(queries, MatchType.BROAD)
        ):
            want = Counter(naive_broad_match(small_corpus, query))
            assert Counter(got) == want
            assert Counter(packed.query(query)) == want
