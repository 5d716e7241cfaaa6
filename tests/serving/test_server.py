"""Tests for the end-to-end ad server pipeline."""

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.impact_index import ImpactOrderedIndex
from repro.core.queries import Query
from repro.core.tree_index import TrieWordSetIndex
from repro.core.wordset_index import WordSetIndex
from repro.serving import server as server_module
from repro.serving.server import AdServer, serve_trace


def ad(text, listing_id, bid=100, campaign=None, exclusions=()):
    return Advertisement.from_text(
        text,
        AdInfo(
            listing_id=listing_id,
            campaign_id=campaign if campaign is not None else listing_id,
            bid_price_micros=bid,
            exclusion_phrases=tuple(exclusions),
        ),
    )


@pytest.fixture()
def corpus():
    return AdCorpus(
        [
            ad("used books", 1, bid=300),
            ad("books", 2, bid=200),
            ad("cheap used books", 3, bid=500),
            ad("used books", 4, bid=100, exclusions=("free",)),
        ]
    )


@pytest.fixture()
def server(corpus):
    return AdServer(WordSetIndex.from_corpus(corpus), slots=2)


class TestServe:
    def test_returns_top_slots_by_bid(self, server):
        result = server.serve(Query.from_text("cheap used books"))
        assert [a.info.listing_id for a in result.ads] == [3, 1]

    def test_exclusion_filter(self, server):
        result = server.serve(Query.from_text("free used books"))
        assert 4 not in {a.info.listing_id for a in result.ads}
        assert server.stats.filtered_exclusion == 1

    def test_no_candidates(self, server):
        result = server.serve(Query.from_text("red shoes"))
        assert result.ads == []

    def test_stats_accumulate(self, server):
        server.serve(Query.from_text("used books"))
        server.serve(Query.from_text("books"))
        assert server.stats.queries == 2
        assert server.stats.impressions >= 2
        assert server.stats.fill_rate() > 0

    def test_serve_trace(self, server):
        queries = [Query.from_text("used books")] * 5
        stats = serve_trace(server, queries)
        assert stats.queries == 5


class TestBudgets:
    def test_budget_filters_when_exhausted(self, corpus):
        server = AdServer(
            WordSetIndex.from_corpus(corpus),
            slots=2,
            campaign_budgets_micros={3: 600},
        )
        q = Query.from_text("cheap used books")
        first = server.serve(q)
        assert 3 in {a.info.listing_id for a in first.ads}
        server.record_click(first, slot=0)  # charges campaign 3
        # Budget now below the bid: campaign must stop serving.
        assert server.budget_remaining(3) < 500
        second = server.serve(q)
        assert 3 not in {a.info.listing_id for a in second.ads}
        assert server.stats.filtered_budget >= 1

    def test_click_revenue_recorded(self, server):
        result = server.serve(Query.from_text("cheap used books"))
        price = server.record_click(result, slot=0)
        assert price > 0
        assert server.stats.revenue_micros == price
        assert server.stats.clicks == 1

    def test_click_clipped_to_budget(self, corpus):
        server = AdServer(
            WordSetIndex.from_corpus(corpus),
            slots=1,
            campaign_budgets_micros={3: 50},
        )
        # Budget 50 < bid 500: the campaign cannot serve at all.
        result = server.serve(Query.from_text("cheap used books"))
        assert 3 not in {a.info.listing_id for a in result.ads}

    def test_exhausted_campaigns(self, corpus):
        server = AdServer(
            WordSetIndex.from_corpus(corpus),
            slots=1,
            campaign_budgets_micros={1: 0},
        )
        assert server.exhausted_campaigns() == [1]


class TestFrequencyCap:
    def test_cap_limits_repeat_impressions(self, corpus):
        server = AdServer(
            WordSetIndex.from_corpus(corpus), slots=1, frequency_cap=2
        )
        q = Query.from_text("cheap used books")
        shown = [server.serve(q, user_id="u1").ads for _ in range(4)]
        # Listing 3 wins twice, then is capped; listing 1 takes over.
        assert [a[0].info.listing_id for a in shown] == [3, 3, 1, 1]
        assert server.stats.filtered_frequency_cap > 0

    def test_cap_is_per_user(self, corpus):
        server = AdServer(
            WordSetIndex.from_corpus(corpus), slots=1, frequency_cap=1
        )
        q = Query.from_text("cheap used books")
        assert server.serve(q, user_id="a").ads[0].info.listing_id == 3
        assert server.serve(q, user_id="b").ads[0].info.listing_id == 3

    def test_no_user_id_no_cap(self, corpus):
        server = AdServer(
            WordSetIndex.from_corpus(corpus), slots=1, frequency_cap=1
        )
        q = Query.from_text("cheap used books")
        assert server.serve(q).ads[0].info.listing_id == 3
        assert server.serve(q).ads[0].info.listing_id == 3


class TestPluggableRetrieval:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda c: WordSetIndex.from_corpus(c),
            lambda c: TrieWordSetIndex.from_corpus(c),
            lambda c: ImpactOrderedIndex.from_corpus(c),
        ],
    )
    def test_same_slate_any_structure(self, corpus, factory):
        server = AdServer(factory(corpus), slots=2)
        result = server.serve(Query.from_text("cheap used books"))
        assert [a.info.listing_id for a in result.ads] == [3, 1]

    def test_rejects_bad_slots(self, corpus):
        with pytest.raises(ValueError):
            AdServer(WordSetIndex.from_corpus(corpus), slots=0)


class TestServeBatch:
    QUERIES = (
        "cheap used books",
        "books",
        "used books cheap",  # same word-set as the first
        "red shoes",
    )

    def queries(self):
        return [Query.from_text(t) for t in self.QUERIES]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda c: WordSetIndex.from_corpus(c),
            lambda c: TrieWordSetIndex.from_corpus(c),
        ],
    )
    def test_batch_equals_sequential_serving(self, corpus, factory):
        batch_server = AdServer(factory(corpus), slots=2)
        seq_server = AdServer(factory(corpus), slots=2)
        batched = batch_server.serve_batch(self.queries())
        sequential = [seq_server.serve(q) for q in self.queries()]
        assert [
            [a.info.listing_id for a in r.ads] for r in batched
        ] == [[a.info.listing_id for a in r.ads] for r in sequential]
        assert batch_server.stats == seq_server.stats

    def test_batch_respects_budget_filter(self, corpus):
        # A campaign whose budget cannot cover its bid is filtered during
        # batched serving exactly as during sequential serving.
        budgets = {3: 100}  # listing 3 bids 500
        batch_server = AdServer(
            WordSetIndex.from_corpus(corpus),
            slots=1,
            campaign_budgets_micros=dict(budgets),
        )
        seq_server = AdServer(
            WordSetIndex.from_corpus(corpus),
            slots=1,
            campaign_budgets_micros=dict(budgets),
        )
        queries = [Query.from_text("cheap used books")] * 3
        batched = batch_server.serve_batch(queries)
        sequential = [seq_server.serve(q) for q in queries]
        assert [
            [a.info.listing_id for a in r.ads] for r in batched
        ] == [[a.info.listing_id for a in r.ads] for r in sequential]
        assert all(r.ads[0].info.listing_id == 1 for r in batched)
        assert batch_server.stats == seq_server.stats
        assert batch_server.stats.filtered_budget == 3

    def test_batch_respects_frequency_cap(self, corpus):
        server = AdServer(
            WordSetIndex.from_corpus(corpus), slots=1, frequency_cap=2
        )
        queries = [Query.from_text("used books")] * 4
        results = server.serve_batch(queries, user_id="u1")
        shown = [r.ads[0].info.listing_id if r.ads else None for r in results]
        # Listing 1 wins until capped, then the next bidder takes over.
        assert shown[:2] == [1, 1]
        assert all(s != 1 for s in shown[2:])

    def test_engine_rebuilt_when_index_swapped(self, corpus):
        server = AdServer(WordSetIndex.from_corpus(corpus), slots=2)
        server.serve_batch([Query.from_text("books")])
        first_engine = server._batch_engine
        server.index = TrieWordSetIndex.from_corpus(corpus)
        result = server.serve_batch([Query.from_text("cheap used books")])
        assert server._batch_engine is not first_engine
        assert [a.info.listing_id for a in result[0].ads] == [3, 1]

    def test_empty_batch(self, corpus):
        server = AdServer(WordSetIndex.from_corpus(corpus))
        assert server.serve_batch([]) == []
        assert server.stats.queries == 0

    def test_one_auction_per_served_query_via_the_module_global(
        self, corpus, monkeypatch
    ):
        # The traced benchmark times the auction by patching this module
        # global, so serving must look the name up at call time.
        calls = []
        real = server_module.run_gsp_auction

        def counting(candidates, **kwargs):
            calls.append(len(candidates))
            return real(candidates, **kwargs)

        monkeypatch.setattr(server_module, "run_gsp_auction", counting)
        server = AdServer(WordSetIndex.from_corpus(corpus), slots=2)
        server.serve(Query.from_text("cheap used books"))
        assert len(calls) == 1
        server.serve_batch(self.queries())
        assert len(calls) == 1 + len(self.QUERIES)


class _BrokenIndex:
    """A retrieval index whose single-query path always raises."""

    def __init__(self, inner):
        self._inner = inner

    def query(self, query):
        raise RuntimeError("retrieval exploded")

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestRetrievalErrors:
    """A failing retrieval propagates; answering it is the frontend's
    job (an empty slate flagged ``RETRIEVAL_ERROR``)."""

    def test_retrieval_errors_propagate_by_default(self, corpus):
        server = AdServer(
            _BrokenIndex(WordSetIndex.from_corpus(corpus)), slots=2
        )
        with pytest.raises(RuntimeError, match="retrieval exploded"):
            server.serve(Query.from_text("used books"))

    def test_batch_engine_failure_propagates(self, corpus):
        index = WordSetIndex.from_corpus(corpus)
        server = AdServer(index, slots=2)

        # Sabotage only the batch engine; per-query retrieval still works.
        class BrokenEngine:
            def __init__(self, index):
                self.index = index

            def query_broad_batch(self, queries, deadline=None, top=None):
                raise RuntimeError("batch engine down")

        server._batch_engine = BrokenEngine(index)
        queries = [
            Query.from_text("used books"),
            Query.from_text("cheap used books"),
        ]
        with pytest.raises(RuntimeError, match="batch engine down"):
            server.serve_batch(queries)
        assert server.stats.queries == 0
