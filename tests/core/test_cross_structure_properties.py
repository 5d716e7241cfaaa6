"""Cross-structure property tests: every retrieval structure, one oracle.

The library's central guarantee is that all retrieval structures are
interchangeable.  This suite drives randomly generated corpora, mappings,
and queries through the full zoo simultaneously — the hash index (plain
and re-mapped), the trie, the compressed lookup (random suffix size and
encoding), and the impact index — and requires byte-identical result
sets from all of them.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.compressed_hash import CompressedWordSetIndex
from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.impact_index import ImpactOrderedIndex
from repro.core.matching import naive_broad_match
from repro.core.queries import Query
from repro.core.tree_index import TrieWordSetIndex
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.optimize.mapping import corpus_groups
from repro.segment import PackedSegmentIndex, SegmentBuilder
from tests.segment.walk_reference import walk

words_alphabet = [f"w{i}" for i in range(9)]


def phrase_strategy(max_len=4):
    return st.lists(
        st.sampled_from(words_alphabet), min_size=1, max_size=max_len
    ).map(" ".join)


@st.composite
def full_setup(draw):
    phrases = draw(st.lists(phrase_strategy(), min_size=1, max_size=18))
    ads = [
        Advertisement.from_text(
            p, AdInfo(listing_id=i, bid_price_micros=draw(st.integers(1, 999)))
        )
        for i, p in enumerate(phrases)
    ]
    corpus = AdCorpus(ads)
    # A random valid mapping over the corpus's groups.
    assignment = {}
    for group in corpus_groups(corpus):
        if draw(st.booleans()):
            subset = draw(
                st.sets(
                    st.sampled_from(sorted(group.words)),
                    min_size=1,
                    max_size=len(group.words),
                )
            )
            assignment[group.words] = frozenset(subset)
    queries = [
        Query.from_text(q)
        for q in draw(
            st.lists(phrase_strategy(max_len=6), min_size=1, max_size=6)
        )
    ]
    suffix_bits = draw(st.integers(2, 20))
    encoding = draw(st.sampled_from(["plain", "rrr", "eliasfano"]))
    return corpus, assignment, queries, suffix_bits, encoding


class TestEveryStructureAgrees:
    @given(full_setup())
    @settings(max_examples=60, deadline=None)
    def test_broad_match_identical_everywhere(self, setup):
        corpus, assignment, queries, suffix_bits, encoding = setup
        remapped_hash = WordSetIndex.from_corpus(corpus, mapping=assignment)
        structures = [
            WordSetIndex.from_corpus(corpus),
            remapped_hash,
            TrieWordSetIndex.from_corpus(corpus, mapping=assignment),
            CompressedWordSetIndex.from_index(
                remapped_hash,
                suffix_bits=suffix_bits,
                sig_encoding=encoding,
                offsets_encoding="eliasfano" if encoding != "plain" else "plain",
            ),
            ImpactOrderedIndex.from_corpus(corpus, mapping=assignment),
        ]
        for query in queries:
            expected = sorted(
                a.info.listing_id for a in naive_broad_match(corpus, query)
            )
            for structure in structures:
                got = sorted(
                    a.info.listing_id for a in structure.query(query)
                )
                assert got == expected, type(structure).__name__

    @given(full_setup())
    @settings(max_examples=30, deadline=None)
    def test_top_k_consistent_with_oracle_under_mapping(self, setup):
        corpus, assignment, queries, *_ = setup
        impact = ImpactOrderedIndex.from_corpus(corpus, mapping=assignment)
        for query in queries:
            oracle_bids = sorted(
                (a.info.bid_price_micros for a in naive_broad_match(corpus, query)),
                reverse=True,
            )[:3]
            got = [a.info.bid_price_micros for a in impact.query_top_k(query, 3)]
            assert got == oracle_bids


class TestEveryStructureChargesEveryProbe:
    @given(full_setup())
    @settings(max_examples=30, deadline=None)
    def test_hash_probes_equal_the_plans_probe_count(
        self, tmp_path_factory, setup
    ):
        """Section IV prices ``Cost_Random`` per lookup, hit or miss: on
        the dict and compressed structures the tracker sees exactly the
        probes the plans enumerate.  The packed structure walks its
        locator-prefix trie instead of the power set: it is charged the
        keys its walk tests, no more than its plans enumerate."""
        corpus, assignment, queries, suffix_bits, *_ = setup
        source = WordSetIndex.from_corpus(corpus, mapping=assignment)
        path = tmp_path_factory.mktemp("parity") / "seg.bin"
        SegmentBuilder(source).write(path)
        trackers = [AccessTracker(), AccessTracker(), AccessTracker()]
        structures = [
            WordSetIndex.from_corpus(
                corpus, mapping=assignment, tracker=trackers[0]
            ),
            CompressedWordSetIndex.from_index(
                source, suffix_bits=suffix_bits, tracker=trackers[1]
            ),
            PackedSegmentIndex(path, tracker=trackers[2]),
        ]
        try:
            for structure, tracker in zip(structures, trackers):
                expected = 0
                for query in queries:
                    plan = structure.probe_plan(query.words)
                    if structure is structures[2]:
                        walked = len(walk(structure, plan)[0])
                        assert walked <= plan.probe_count()
                        expected += walked
                    else:
                        expected += plan.probe_count()
                    structure.query(query)
                assert tracker.stats.hash_probes == expected, type(
                    structure
                ).__name__
        finally:
            structures[2].close()
