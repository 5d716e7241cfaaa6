"""Conformance tests for the :class:`repro.core.RetrievalIndex` protocol.

Every pluggable retrieval structure must expose ``query(query, match_type)``,
``stats()``, and ``__len__``, and agree with the naive broad-match oracle.
The PR 2 migration is finished: the primary structures no longer carry the
``query_broad`` deprecation alias at all (only the inverted-index baselines
keep ``query_broad``, as their documented native surface).
"""

import warnings

import pytest

from repro.core import RetrievalIndex
from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.impact_index import ImpactOrderedIndex
from repro.core.matching import MatchType, naive_broad_match
from repro.core.queries import Query
from repro.core.tree_index import TrieWordSetIndex
from repro.core.wordset_index import WordSetIndex


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


@pytest.fixture(scope="module")
def corpus():
    return AdCorpus(
        [
            ad("cheap used books", 1),
            ad("used books", 2),
            ad("books", 3),
            ad("rare maps", 4),
            ad("cheap flights paris", 5),
            ad("books used cheap", 6),  # same word-set as ad 1
        ]
    )


QUERIES = [
    "cheap used books",
    "books used cheap extra",
    "rare maps of paris",
    "cheap flights paris today",
    "no match at all",
    "books",
]


def build_wordset(corpus):
    return WordSetIndex.from_corpus(corpus)


def build_trie(corpus):
    return TrieWordSetIndex.from_corpus(corpus)


def build_impact(corpus):
    return ImpactOrderedIndex.from_corpus(corpus)


def build_compressed(corpus):
    from repro.compress.compressed_hash import CompressedWordSetIndex

    return CompressedWordSetIndex.from_index(
        WordSetIndex.from_corpus(corpus), suffix_bits=12
    )


def _packed_segment(corpus, directory):
    from repro.segment import PackedSegmentIndex, SegmentBuilder

    path = directory / "conformance.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(path)
    return PackedSegmentIndex(path)


def build_packed_segment(corpus, tmp_path_factory):
    return _packed_segment(corpus, tmp_path_factory.mktemp("packed"))


def build_tiered(corpus, tmp_path_factory):
    from repro.segment import TieredSegmentedIndex

    return TieredSegmentedIndex.pack_corpus(
        corpus, tmp_path_factory.mktemp("tiered")
    )


BUILDERS = {
    "WordSetIndex": build_wordset,
    "TrieWordSetIndex": build_trie,
    "ImpactOrderedIndex": build_impact,
    "CompressedWordSetIndex": build_compressed,
}

# Segment-backed structures need a scratch file; their builders take the
# tmp_path_factory alongside the corpus.
FILE_BUILDERS = {
    "PackedSegmentIndex": build_packed_segment,
    "TieredSegmentedIndex": build_tiered,
}


@pytest.fixture(
    params=sorted(BUILDERS) + sorted(FILE_BUILDERS), scope="module"
)
def structure(request, corpus, tmp_path_factory):
    if request.param in BUILDERS:
        yield BUILDERS[request.param](corpus)
        return
    built = FILE_BUILDERS[request.param](corpus, tmp_path_factory)
    yield built
    built.close()


class TestProtocolConformance:
    def test_satisfies_runtime_checkable_protocol(self, structure):
        assert isinstance(structure, RetrievalIndex)

    def test_len_counts_ads(self, structure, corpus):
        assert len(structure) == len(corpus)

    def test_stats_is_available(self, structure):
        assert structure.stats() is not None

    def test_broad_results_match_the_oracle(self, structure, corpus):
        for text in QUERIES:
            query = Query.from_text(text)
            expected = sorted(
                a.info.listing_id for a in naive_broad_match(corpus, query)
            )
            got = sorted(a.info.listing_id for a in structure.query(query))
            assert got == expected, text

    def test_explicit_broad_match_type_is_the_default(self, structure):
        query = Query.from_text("cheap used books")
        assert sorted(
            a.info.listing_id for a in structure.query(query)
        ) == sorted(
            a.info.listing_id
            for a in structure.query(query, MatchType.BROAD)
        )

    def test_phrase_match_filters_broad_candidates(self, structure):
        query = Query.from_text("cheap used books")
        phrase_ids = {
            a.info.listing_id
            for a in structure.query(query, MatchType.PHRASE)
        }
        broad_ids = {
            a.info.listing_id for a in structure.query(query)
        }
        assert phrase_ids <= broad_ids
        # Ad 6 has the same word-set but a different word order: broad
        # matches it, the phrase filter drops it.
        assert 1 in phrase_ids
        assert 6 in broad_ids and 6 not in phrase_ids

    def test_exact_match_requires_equal_phrase(self, structure):
        exact = structure.query(
            Query.from_text("cheap used books"), MatchType.EXACT
        )
        assert [a.info.listing_id for a in exact] == [1]


class TestRemovedAlias:
    def test_query_broad_alias_is_gone(self, structure):
        """The deprecation cycle is over: primary structures expose only
        ``query``; calling the old alias is an AttributeError."""
        assert not hasattr(structure, "query_broad")
        with pytest.raises(AttributeError):
            structure.query_broad(Query.from_text("cheap used books"))

    def test_query_does_not_warn(self, structure):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            structure.query(Query.from_text("cheap used books"))


class TestNonWarningSurfaces:
    """Baselines and wrappers share the surface without the deprecation."""

    def test_inverted_baselines_conform_without_warning(self, corpus):
        from repro.invindex import (
            CountingInvertedIndex,
            NonRedundantInvertedIndex,
            RedundantInvertedIndex,
        )

        query = Query.from_text("cheap used books")
        expected = sorted(
            a.info.listing_id for a in naive_broad_match(corpus, query)
        )
        for cls in (
            CountingInvertedIndex,
            NonRedundantInvertedIndex,
            RedundantInvertedIndex,
        ):
            index = cls.from_corpus(corpus)
            assert isinstance(index, RetrievalIndex)
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                got = sorted(
                    a.info.listing_id for a in index.query(query)
                )
                index.query_broad(query)  # baseline primary: no warning
            assert got == expected

    def test_compressed_index_conforms(self, corpus):
        from repro.compress.compressed_hash import CompressedWordSetIndex

        index = CompressedWordSetIndex.from_index(
            WordSetIndex.from_corpus(corpus), suffix_bits=12
        )
        assert isinstance(index, RetrievalIndex)
        assert len(index) == len(corpus)
        assert index.stats()["num_nodes"] >= 1
