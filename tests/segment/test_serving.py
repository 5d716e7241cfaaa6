"""The packed serving path plugged into the serving layer."""

import pytest

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.serving.server import AdServer


def ad(text, listing_id=0, bid=0, campaign_id=0):
    return Advertisement.from_text(
        text,
        AdInfo(
            listing_id=listing_id,
            bid_price_micros=bid,
            campaign_id=campaign_id,
        ),
    )


ADS = [
    ad("cheap used books", 1, bid=500, campaign_id=1),
    ad("used books", 2, bid=300, campaign_id=1),
    ad("books", 3, bid=200, campaign_id=2),
    ad("rare maps", 4, bid=900, campaign_id=2),
]


@pytest.fixture()
def segmented(tmp_path):
    index = TieredSegmentedIndex.pack_corpus(ADS, tmp_path / "serve")
    yield index
    index.close()


class TestAdServer:
    def test_serve_runs_the_full_pipeline_off_a_segment(self, segmented):
        server = AdServer(segmented, slots=2, reserve_micros=1)
        result = server.serve(Query.from_text("cheap used books today"))
        shown = [a.info.listing_id for a in result.ads]
        # GSP ranking by bid: ad 1 (500) then ad 2 (300).
        assert shown == [1, 2]

    def test_serve_sees_overlay_mutations_immediately(self, segmented):
        server = AdServer(segmented, slots=3, reserve_micros=1)
        query = Query.from_text("cheap used books today")
        segmented.insert(ad("books used", 10, bid=800, campaign_id=3))
        segmented.delete(ADS[0])
        shown = [
            a.info.listing_id for a in server.serve(query).ads
        ]
        assert shown == [10, 2, 3]

    def test_serve_survives_compaction_between_requests(self, segmented):
        server = AdServer(segmented, slots=2, reserve_micros=1)
        query = Query.from_text("cheap used books today")
        segmented.insert(ad("maps of books", 11, bid=50, campaign_id=3))
        before = [
            a.info.listing_id for a in server.serve(query).ads
        ]
        segmented.compact()
        assert len(segmented.segments) == 1
        after = [
            a.info.listing_id for a in server.serve(query).ads
        ]
        assert before == after

    def test_serve_batch_over_a_multi_segment_directory(self, tmp_path):
        generated = generate_corpus(CorpusConfig(num_ads=400, seed=6))
        oracle = WordSetIndex.from_corpus(generated.corpus)
        with TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=64, fan_in=4)
        ) as index:
            for a in generated.corpus:
                index.insert(a)
            assert len(index.segments) > 1 and len(index.overlay) > 0
            server = AdServer(index, slots=4, reserve_micros=1)
            queries = [
                Query(a.phrase + ("extra",))
                for i, a in enumerate(generated.corpus)
                if i % 41 == 0
            ]
            pages = server.serve_batch(queries)
            assert len(pages) == len(queries)
            oracle_server = AdServer(oracle, slots=4, reserve_micros=1)
            for query, page in zip(queries, pages):
                want = [
                    a.info.listing_id
                    for a in oracle_server.serve(query).ads
                ]
                assert [a.info.listing_id for a in page.ads] == want
