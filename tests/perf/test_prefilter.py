"""Tests for probe planning: vocabulary prefilter and size-histogram bound."""

from math import comb

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.datagen.querygen import QueryConfig, generate_workload
from repro.perf.bench import make_long_queries
from repro.perf.prefilter import naive_plan, plan_probes


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


class TestPlanProbes:
    def test_unindexed_words_dropped(self):
        plan = plan_probes(
            frozenset({"a", "b", "zz"}),
            vocabulary={"a", "b"},
            size_histogram={1: 2},
            max_words=None,
        )
        assert plan.candidates == ("a", "b")
        assert plan.pruned

    def test_sizes_restricted_to_histogram(self):
        plan = plan_probes(
            frozenset({"a", "b", "c", "d"}),
            vocabulary={"a", "b", "c", "d"},
            size_histogram={1: 3, 3: 1},
            max_words=None,
        )
        assert plan.sizes == (1, 3)
        assert plan.probe_count() == comb(4, 1) + comb(4, 3)

    def test_bound_caps_at_largest_locator(self):
        plan = plan_probes(
            frozenset(f"w{i}" for i in range(10)),
            vocabulary={f"w{i}" for i in range(10)},
            size_histogram={2: 5},
            max_words=None,
        )
        assert plan.sizes == (2,)
        assert plan.probe_count() == comb(10, 2)

    def test_max_words_still_applies(self):
        plan = plan_probes(
            frozenset({"a", "b", "c"}),
            vocabulary={"a", "b", "c"},
            size_histogram={1: 1, 2: 1, 3: 1},
            max_words=2,
        )
        assert plan.sizes == (1, 2)

    def test_empty_vocabulary_means_no_probes(self):
        plan = plan_probes(
            frozenset({"a", "b"}),
            vocabulary=set(),
            size_histogram={},
            max_words=None,
        )
        assert plan.candidates == ()
        assert plan.sizes == ()
        assert plan.probe_count() == 0

    def test_naive_plan_is_paper_formula(self):
        words = frozenset(f"w{i}" for i in range(8))
        plan = naive_plan(words, max_words=3)
        assert not plan.pruned
        assert plan.probe_count() == sum(comb(8, i) for i in range(1, 4))
        unbounded = naive_plan(words, max_words=None)
        assert unbounded.probe_count() == 2**8 - 1


class TestIndexProbePlan:
    def test_plan_tracks_live_locators(self):
        index = WordSetIndex.from_corpus(
            AdCorpus([ad("used books", 1), ad("maps", 2)])
        )
        assert index.indexed_vocabulary() == frozenset(
            {"used", "books", "maps"}
        )
        assert index.locator_size_histogram() == {1: 1, 2: 1}
        assert index.max_locator_size() == 2

    def test_probe_count_matches_tracker(self):
        tracker = AccessTracker()
        index = WordSetIndex.from_corpus(
            AdCorpus([ad("used books", 1), ad("maps", 2), ad("books", 3)]),
            tracker=tracker,
        )
        for text in ("cheap used books", "maps of spain", "nothing here"):
            query = Query.from_text(text)
            before = tracker.stats.hash_probes
            index.query(query)
            measured = tracker.stats.hash_probes - before
            assert measured == index.probe_count(query)

    def test_delete_shrinks_the_plan(self):
        index = WordSetIndex.from_corpus(
            AdCorpus([ad("used books", 1), ad("maps", 2)])
        )
        query = Query.from_text("old maps")
        assert index.probe_count(query) == 1  # just {maps}
        assert index.delete(ad("maps", 2))
        assert index.probe_count(query) == 0
        assert "maps" not in index.indexed_vocabulary()
        index.check_invariants()

    def test_fast_path_flag_selects_plan(self):
        corpus = AdCorpus([ad("a b", 1)])
        fast = WordSetIndex.from_corpus(corpus)
        naive = WordSetIndex.from_corpus(corpus, fast_path=False)
        query_words = frozenset({"a", "b", "c"})
        assert fast.probe_plan(query_words).pruned
        assert not naive.probe_plan(query_words).pruned
        assert fast.probe_plan(query_words).probe_count() == 1
        assert naive.probe_plan(query_words).probe_count() == 7

    def test_long_queries_issue_at_least_3x_fewer_probes_than_naive(self):
        """The fast path's acceptance gate, as a count: on 12-word
        broad-match queries over a generated corpus the pruned plan
        issues at most a third of the unpruned enumeration's hash
        probes, for identical results."""
        generated = generate_corpus(CorpusConfig(num_ads=2_000, seed=11))
        workload = generate_workload(
            generated,
            QueryConfig(num_distinct=200, total_frequency=2_000, seed=12),
        )
        queries = make_long_queries(generated, workload, 60, 12, seed=13)
        fast_tracker = AccessTracker()
        fast = WordSetIndex.from_corpus(
            generated.corpus, tracker=fast_tracker
        )
        naive_tracker = AccessTracker()
        naive = WordSetIndex.from_corpus(
            generated.corpus, tracker=naive_tracker, fast_path=False
        )
        for query in queries:
            assert sorted(
                a.info.listing_id for a in fast.query(query)
            ) == sorted(a.info.listing_id for a in naive.query(query))
        fast_probes = fast_tracker.stats.hash_probes
        naive_probes = naive_tracker.stats.hash_probes
        assert fast_probes > 0
        assert naive_probes >= 3 * fast_probes, (
            f"probe reduction only {naive_probes / fast_probes:.2f}x"
        )
