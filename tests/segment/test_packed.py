"""``PackedSegmentIndex``: equivalence with the dict index it froze."""

import warnings

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import MatchType, naive_match
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.datagen.querygen import QueryConfig, generate_workload
from repro.obs import MetricsRegistry
from repro.perf.bench import make_long_queries
from repro.segment import PackedSegmentIndex, SegmentBuilder, deep_sizeof


def ad(text, listing_id=0, campaign_id=0, bid=0, exclusions=()):
    return Advertisement.from_text(
        text,
        AdInfo(
            listing_id=listing_id,
            campaign_id=campaign_id,
            bid_price_micros=bid,
            exclusion_phrases=exclusions,
        ),
    )


def ids(ads):
    return sorted(a.info.listing_id for a in ads)


@pytest.fixture(scope="module")
def corpus():
    return AdCorpus(
        [
            ad("cheap used books", 1, campaign_id=9, bid=500),
            ad("used books", 2, bid=300),
            ad("books", 3, bid=200),
            ad("rare maps", 4),
            ad("cheap flights paris", 5, bid=900),
            ad("books used cheap", 6),  # same word-set as ad 1
            ad("books", 7, bid=200),  # duplicate phrase, distinct listing
            ad("summer sale shoes", 8, exclusions=("winter boots",)),
        ]
    )


@pytest.fixture(scope="module")
def dict_index(corpus):
    return WordSetIndex.from_corpus(corpus)


@pytest.fixture(scope="module", params=["cached", "uncached"])
def packed(request, dict_index, tmp_path_factory):
    path = tmp_path_factory.mktemp("packed") / f"{request.param}.seg"
    SegmentBuilder(dict_index).write(path, generation=3)
    cache = 0 if request.param == "uncached" else 1 << 20
    index = PackedSegmentIndex(path, cache_bytes=cache)
    yield index
    index.close()


QUERIES = [
    "cheap used books",
    "books used cheap extra words here",
    "cheap flights paris today",
    "summer sale shoes",
    "winter boots summer sale shoes",
    "completely unrelated query",
    "books",
]


class TestEquivalence:
    def test_broad_results_match_dict_index(self, packed, dict_index):
        for text in QUERIES:
            query = Query.from_text(text)
            assert ids(packed.query(query)) == ids(dict_index.query(query)), (
                text
            )

    def test_match_types_and_exclusions_apply(self, packed, corpus):
        for text in QUERIES:
            query = Query.from_text(text)
            for match_type in MatchType:
                got = ids(packed.query(query, match_type))
                want = ids(naive_match(corpus, query, match_type))
                assert got == want, (text, match_type)

    def test_decoded_ads_carry_full_info(self, packed):
        results = packed.query(Query.from_text("cheap used books"))
        by_listing = {a.info.listing_id: a for a in results}
        assert by_listing[1].info.bid_price_micros == 500
        assert by_listing[1].info.campaign_id == 9
        assert by_listing[1].phrase == ("cheap", "used", "books")

    def test_iter_ads_is_the_whole_corpus(self, packed, corpus):
        assert ids(packed.iter_ads()) == ids(corpus)

    def test_len_and_generation(self, packed, corpus):
        assert len(packed) == len(corpus)
        assert packed.generation == 3

    def test_lookup_count_counts_duplicates(self, packed):
        assert packed.lookup_count(ad("books", 3, bid=200)) == 1
        assert packed.lookup_count(ad("books", 99)) == 0
        assert packed.lookup_count(ad("never indexed phrase")) == 0


class TestResourceAccounting:
    def test_resident_bytes_excludes_the_mapping_payload(self, packed):
        # The resident figure includes aux state but is far below a full
        # in-memory decode; segment bytes are the file, mapped not heap.
        assert packed.segment_bytes() == packed.path.stat().st_size
        assert packed.resident_bytes() > 0

    def test_tracker_charges_probes_and_candidates(self, dict_index, tmp_path):
        path = tmp_path / "tracked.seg"
        SegmentBuilder(dict_index).write(path)
        tracker = AccessTracker()
        with PackedSegmentIndex(path, tracker=tracker) as packed:
            packed.query(Query.from_text("cheap used books"))
        assert tracker.stats.hash_probes > 0
        assert tracker.stats.candidates_examined > 0

    def test_obs_counters_move(self, dict_index, tmp_path):
        path = tmp_path / "obs.seg"
        SegmentBuilder(dict_index).write(path)
        registry = MetricsRegistry()
        with PackedSegmentIndex(path, obs=registry) as packed:
            packed.query(Query.from_text("cheap used books"))
            expected_bytes = packed.segment_bytes()
        snapshot = {m.name: m for m in registry.collect()}
        assert snapshot["segment.queries"].value == 1
        assert snapshot["segment.probes"].value > 0
        assert snapshot["segment.bytes"].value == expected_bytes

    def test_cache_stays_within_budget(self, dict_index, tmp_path):
        path = tmp_path / "budget.seg"
        SegmentBuilder(dict_index).write(path)
        with PackedSegmentIndex(path, cache_bytes=1 << 20) as packed:
            for text in QUERIES:
                packed.query(Query.from_text(text))
            assert packed.cache_bytes_used() <= 1 << 20
            assert packed.stats()["cached_nodes"] > 0

    def test_zero_cache_budget_disables_caching(self, dict_index, tmp_path):
        path = tmp_path / "nocache.seg"
        SegmentBuilder(dict_index).write(path)
        with PackedSegmentIndex(path, cache_bytes=0) as packed:
            for text in QUERIES:
                packed.query(Query.from_text(text))
            assert packed.cache_bytes_used() == 0
            assert packed.stats()["cached_nodes"] == 0


class TestLifecycle:
    def test_close_is_idempotent(self, dict_index, tmp_path):
        path = tmp_path / "close.seg"
        SegmentBuilder(dict_index).write(path)
        packed = PackedSegmentIndex(path)
        packed.query(Query.from_text("books"))
        packed.close()
        packed.close()

    def test_query_broad_alias_removed(self, packed):
        assert not hasattr(packed, "query_broad")

    def test_query_does_not_warn(self, packed):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            packed.query(Query.from_text("books"))


class TestAtScale:
    """A generated corpus exercises suffix collisions and node merging."""

    def test_equivalence_on_generated_corpus(self, tmp_path):
        generated = generate_corpus(CorpusConfig(num_ads=1_500, seed=5))
        index = WordSetIndex.from_corpus(generated.corpus)
        path = tmp_path / "scale.seg"
        SegmentBuilder(index).write(path)
        with PackedSegmentIndex(path, cache_bytes=1 << 18) as packed:
            assert len(packed) == len(generated.corpus)
            for i, ad_ in enumerate(generated.corpus):
                if i % 37 == 0:
                    query = Query(ad_.phrase + ("extra", "words"))
                    assert ids(packed.query(query)) == ids(
                        index.query(query)
                    )

    def test_same_probes_and_a_quarter_of_the_resident_bytes(self, tmp_path):
        """The packed path's acceptance gates, as counts: on long
        queries it plans exactly the probes the dict index would, and
        after serving them (decoded-node cache warm, 1 MiB budget) its
        resident bytes are at least 4x below the dict index's."""
        generated = generate_corpus(CorpusConfig(num_ads=16_000, seed=3))
        workload = generate_workload(
            generated,
            QueryConfig(num_distinct=200, total_frequency=2_000, seed=4),
        )
        queries = make_long_queries(generated, workload, 60, 12, seed=5)
        index = WordSetIndex.from_corpus(generated.corpus)
        path = tmp_path / "gates.seg"
        SegmentBuilder(index).write(path)
        with PackedSegmentIndex(path, cache_bytes=1 << 20) as packed:
            for query in queries:
                assert packed.probe_plan(query.words) == index.probe_plan(
                    query.words
                )
                assert ids(packed.query(query)) == ids(index.query(query))
            reduction = deep_sizeof(index) / packed.resident_bytes()
        assert reduction >= 4.0, f"resident reduction only {reduction:.2f}x"

    def test_forced_suffix_collisions_stay_correct(self, corpus, tmp_path):
        # 1-bit suffixes: every node shares one of two suffix slots, so
        # every probe scans merged nodes and the word-count early break.
        index = WordSetIndex.from_corpus(corpus)
        path = tmp_path / "collide.seg"
        SegmentBuilder(index, suffix_bits=1).write(path)
        with PackedSegmentIndex(path) as packed:
            assert packed.num_nodes() <= 2
            for text in QUERIES:
                query = Query.from_text(text)
                assert ids(packed.query(query)) == ids(index.query(query))
