"""Acceptance tests: one served query yields one correlated snapshot.

The ISSUE's acceptance criterion: a single query through
``AdServer.serve`` with metrics enabled must produce a snapshot containing
the probe count, node-scan count, filter drops, auction outcome, and
per-stage span timings — and the measured probe count must
equal the closed-form ``WordSetIndex.probe_count(query)`` on both the
pruned fast path and the exhaustive path.
"""

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs import SPAN_PREFIX, MetricsRegistry
from repro.perf.batch import BatchQueryEngine
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.serving.server import AdServer


def ad(text, listing_id=0, bid=1000, campaign=0, exclusions=()):
    return Advertisement.from_text(
        text,
        AdInfo(
            listing_id=listing_id,
            campaign_id=campaign,
            bid_price_micros=bid,
            exclusion_phrases=tuple(exclusions),
        ),
    )


@pytest.fixture()
def corpus():
    return AdCorpus(
        [
            ad("cheap used books", 1, bid=2000),
            ad("used books", 2, bid=1500),
            ad("books", 3, bid=1200, exclusions=("cheap",)),
            ad("used books", 4, bid=900, campaign=7),
            ad("rare maps", 5, bid=800),
        ]
    )


class TestServePipelineSnapshot:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_one_query_yields_a_full_snapshot(self, corpus, fast_path):
        obs = MetricsRegistry()
        index = WordSetIndex.from_corpus(corpus, fast_path=fast_path, obs=obs)
        server = AdServer(
            index,
            slots=2,
            campaign_budgets_micros={7: 0},  # campaign 7 is exhausted
            obs=obs,
        )
        query = Query.from_text("cheap used books")

        result = server.serve(query)
        snap = obs.snapshot()
        counters = snap["counters"]

        # Probe accounting: measured == closed-form, on both paths.
        assert counters["index.probes"] == index.probe_count(query)
        assert counters["index.node_scans"] >= 1
        assert counters["index.queries"] == 1

        # Filters: the exclusion-phrase ad and the exhausted-budget ad.
        assert counters["serve.candidates"] == 4
        assert counters["serve.filtered.exclusion"] == 1
        assert counters["serve.filtered.budget"] == 1
        assert counters["serve.filtered.frequency_cap"] == 0

        # Auction outcome: two eligible ads, two slots awarded.
        assert counters["serve.impressions"] == 2
        assert counters["serve.auctions_unfilled"] == 0
        assert len(result.outcome.awards) == 2

        # Per-stage span timings, one sample each.
        for stage in ("probe", "scan", "retrieve", "filter", "auction"):
            hist = snap["histograms"][f"{SPAN_PREFIX}{stage}"]
            assert hist["count"] >= 1, stage

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_probe_counter_tracks_closed_form_across_queries(
        self, corpus, fast_path
    ):
        obs = MetricsRegistry()
        index = WordSetIndex.from_corpus(corpus, fast_path=fast_path, obs=obs)
        queries = [
            Query.from_text("cheap used books"),
            Query.from_text("used books today"),
            Query.from_text("rare maps of iceland"),
            Query.from_text("nothing matches here"),
        ]
        expected = sum(index.probe_count(q) for q in queries)
        for query in queries:
            index.query(query)
        assert obs.snapshot()["counters"]["index.probes"] == expected

    def test_click_moves_revenue_counters(self, corpus):
        obs = MetricsRegistry()
        server = AdServer(WordSetIndex.from_corpus(corpus, obs=obs), obs=obs)
        result = server.serve(Query.from_text("cheap used books"))
        assert obs.value("serve.revenue_micros") == 0  # impressions are free
        price = server.record_click(result, slot=0)
        counters = obs.snapshot()["counters"]
        assert counters["serve.clicks"] == 1
        assert counters["serve.revenue_micros"] == price
        assert server.stats.snapshot()["clicks"] == 1

    def test_batch_engine_records_batch_metrics(self, corpus):
        obs = MetricsRegistry()
        index = WordSetIndex.from_corpus(corpus, obs=obs)
        engine = BatchQueryEngine(index, obs=obs)
        queries = [
            Query.from_text("used books"),
            Query.from_text("books used"),  # same word-set -> deduped
            Query.from_text("rare maps"),
        ]
        engine.query_broad_batch(queries)
        counters = obs.snapshot()["counters"]
        assert counters["batch.batches"] == 1
        assert counters["batch.queries"] == 3
        assert counters["batch.distinct_wordsets"] == 2
        assert obs.snapshot()["histograms"][f"{SPAN_PREFIX}batch"]["count"] == 1


class TestBoundInstruments:
    """``AdServer`` and ``PackedSegmentIndex`` bind their hot-path
    instruments once, as a worker attaches one registry to both: serving
    makes no registry lookup once each stage span has timed something
    (a span's histogram is bound at its first use, so a registry lists
    no timing before anything was timed)."""

    SCRIPT_COUNTERS = {
        "batch.batches": 2,
        "batch.distinct_wordsets": 5,
        "batch.queries": 6,
        "segment.ads_materialised": 9,
        "segment.cache_hits": 0,
        "segment.cache_misses": 7,
        "segment.entries_scanned": 9,
        "segment.fingerprint_rejects": 0,
        "segment.node_scans": 7,
        "segment.nodes_read": 7,
        "segment.probes": 14,
        "segment.queries": 5,
        "segment.results": 9,
        "serve.auctions_unfilled": 1,
        "serve.candidates": 13,
        "serve.clicks": 1,
        "serve.degraded": 0,
        "serve.filtered.budget": 3,
        "serve.filtered.exclusion": 2,
        "serve.filtered.frequency_cap": 0,
        "serve.impressions": 8,
        "serve.queries": 6,
        "serve.revenue_micros": 1501,
    }
    SCRIPT_SPANS = {
        "span.auction": 6,
        "span.batch": 2,
        "span.filter": 6,
        "span.retrieve": 2,
        "span.segment_query": 5,
    }

    @pytest.fixture()
    def served(self, corpus, tmp_path):
        path = tmp_path / "bound.seg"
        SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(path)
        obs = MetricsRegistry()
        # No node cache, so a second run of the script scans alike.
        with PackedSegmentIndex(path, obs=obs, cache_bytes=0) as packed:
            server = AdServer(
                packed, slots=2, campaign_budgets_micros={7: 0}, obs=obs
            )
            yield server, packed, obs

    @staticmethod
    def run_script(server):
        results = server.serve_batch(
            [
                Query.from_text(text)
                for text in (
                    "cheap used books",
                    "used books",
                    "rare maps",
                    "cheap used books",
                    "zz",
                )
            ]
        )
        server.serve(Query.from_text("books"))
        server.record_click(results[0], 0)

    def test_serving_makes_no_registry_lookup(self, served, monkeypatch):
        server, _, obs = served
        queries = [Query.from_text("cheap used books"), Query.from_text("x")]
        server.serve_batch(queries)
        calls = []
        lookup = obs._get_or_create

        def counted(*args):
            calls.append(args[0])
            return lookup(*args)

        monkeypatch.setattr(obs, "_get_or_create", counted)
        server.serve_batch(queries)
        server.serve_batch(queries[:1])
        server.serve(Query.from_text("rare maps"))
        assert calls == []
        assert obs.value("serve.queries") == 6

    def test_script_snapshot_keeps_its_values_across_reset(self, served):
        server, packed, obs = served
        for round_ in range(2):
            self.run_script(server)
            snapshot = obs.snapshot()
            assert snapshot["counters"] == self.SCRIPT_COUNTERS
            if round_ == 0:
                # ``reset`` zeroes ``segment.bytes``, which only bind sets.
                assert snapshot["gauges"] == {
                    "segment.bytes": packed.segment_bytes(),
                    "segment.cache_bytes": 0,
                }
            assert {
                name: histogram["count"]
                for name, histogram in snapshot["histograms"].items()
            } == self.SCRIPT_SPANS
            # Zeroed in place, so the bound instruments stay the live ones.
            obs.reset()


class TestOffByDefault:
    def test_no_registry_means_no_observation_state(self, corpus):
        index = WordSetIndex.from_corpus(corpus)
        assert index._obs is None
        server = AdServer(index)
        result = server.serve(Query.from_text("cheap used books"))
        assert result.outcome.awards
        assert server.stats.queries == 1  # bespoke stats still work

    def test_results_identical_with_and_without_metrics(self, corpus):
        plain = WordSetIndex.from_corpus(corpus)
        observed = WordSetIndex.from_corpus(corpus, obs=MetricsRegistry())
        for text in ("cheap used books", "used books", "rare maps", "x"):
            query = Query.from_text(text)
            assert [a.info.listing_id for a in plain.query(query)] == [
                a.info.listing_id for a in observed.query(query)
            ]

    def test_bind_obs_can_detach(self, corpus):
        obs = MetricsRegistry()
        index = WordSetIndex.from_corpus(corpus, obs=obs)
        index.bind_obs(None)
        index.query(Query.from_text("used books"))
        assert obs.snapshot()["counters"]["index.queries"] == 0


class TestDistsimBridge:
    def test_run_metrics_histogram_delegates_to_shared_histogram(self):
        from repro.distsim.metrics import RunMetrics

        metrics = RunMetrics(
            latencies_ms=(1.0, 2.0, 6.0, 7.0, 12.0),
            duration_ms=100.0,
            cpu_utilization=0.5,
            offered_rps=50.0,
        )
        hist = metrics.to_histogram(bucket_ms=5.0)
        assert hist.count == 5
        assert metrics.latency_histogram(bucket_ms=5.0) == {
            0.0: 0.4,
            5.0: 0.4,
            10.0: 0.2,
        }
