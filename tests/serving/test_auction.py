"""Tests for the GSP auction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.serving.auction import run_gsp_auction


def ad(listing_id, bid, campaign=0):
    return Advertisement.from_text(
        f"phrase {listing_id}",
        AdInfo(listing_id=listing_id, campaign_id=campaign,
               bid_price_micros=bid),
    )


class TestRanking:
    def test_ranked_by_bid(self):
        outcome = run_gsp_auction([ad(1, 100), ad(2, 300), ad(3, 200)], slots=3)
        assert [a.info.listing_id for a in outcome.winners()] == [2, 3, 1]

    def test_slots_limit(self):
        outcome = run_gsp_auction([ad(i, 100 + i) for i in range(10)], slots=3)
        assert len(outcome.awards) == 3

    def test_quality_scores_rerank(self):
        quality = {1: 3.0, 2: 1.0}.__getitem__
        outcome = run_gsp_auction(
            [ad(1, 100), ad(2, 200)],
            slots=2,
            quality_fn=lambda a: quality(a.info.listing_id),
        )
        # ad 1: rank 300; ad 2: rank 200.
        assert [a.info.listing_id for a in outcome.winners()] == [1, 2]

    def test_tie_break_by_listing_id(self):
        outcome = run_gsp_auction([ad(9, 100), ad(3, 100)], slots=2)
        assert [a.info.listing_id for a in outcome.winners()] == [3, 9]

    def test_empty_candidates(self):
        outcome = run_gsp_auction([], slots=4)
        assert outcome.awards == ()


class TestPricing:
    def test_second_price(self):
        outcome = run_gsp_auction([ad(1, 300), ad(2, 100)], slots=2)
        first, second = outcome.awards
        assert first.price_micros == 101  # just above the next ad rank
        assert second.price_micros == 1  # reserve

    def test_price_never_exceeds_bid(self):
        outcome = run_gsp_auction([ad(1, 100), ad(2, 100)], slots=2)
        for award in outcome.awards:
            assert award.price_micros <= award.bid_micros

    def test_reserve_floor(self):
        outcome = run_gsp_auction([ad(1, 500)], slots=1, reserve_micros=50)
        assert outcome.awards[0].price_micros == 50

    def test_below_reserve_excluded(self):
        outcome = run_gsp_auction(
            [ad(1, 10), ad(2, 500)], slots=2, reserve_micros=50
        )
        assert [a.info.listing_id for a in outcome.winners()] == [2]

    def test_reserve_compares_the_raw_bid_not_the_ad_rank(self):
        # bid 40 < reserve 50, although ad rank 40 * 2.0 = 80 clears it.
        outcome = run_gsp_auction(
            [ad(1, 40)], slots=1, reserve_micros=50, quality_fn=lambda a: 2.0
        )
        assert outcome.awards == ()
        assert outcome.candidates == 1

    def test_quality_adjusted_price(self):
        # winner quality 2.0, next ad rank 100 -> price = 100/2 + 1 = 51.
        outcome = run_gsp_auction(
            [ad(1, 100), ad(2, 100)],
            slots=2,
            quality_fn=lambda a: 2.0 if a.info.listing_id == 1 else 1.0,
        )
        assert outcome.awards[0].price_micros == 51

    def test_total_price(self):
        outcome = run_gsp_auction([ad(1, 300), ad(2, 100)], slots=2)
        assert outcome.total_price_micros == 102


class TestValidation:
    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            run_gsp_auction([], slots=0)

    def test_rejects_negative_reserve(self):
        with pytest.raises(ValueError):
            run_gsp_auction([], slots=1, reserve_micros=-1)

    def test_rejects_nonpositive_quality(self):
        with pytest.raises(ValueError):
            run_gsp_auction([ad(1, 100)], slots=1, quality_fn=lambda a: 0.0)

    def test_rejects_nonpositive_quality_below_reserve(self):
        # Validation covers every candidate, not only reserve-passing ones.
        with pytest.raises(ValueError):
            run_gsp_auction(
                [ad(1, 500), ad(2, 10)],
                slots=1,
                reserve_micros=50,
                quality_fn=lambda a: -1.0 if a.info.listing_id == 2 else 1.0,
            )

    def test_quality_fn_called_once_per_candidate(self):
        calls = []

        def quality(a):
            calls.append(a.info.listing_id)
            return 1.0

        # Below-reserve (3) and beyond-the-slate (4, 5) ads are scored too.
        ads = [ad(1, 300), ad(2, 200), ad(3, 10), ad(4, 150), ad(5, 100)]
        run_gsp_auction(ads, slots=1, reserve_micros=50, quality_fn=quality)
        assert calls == [1, 2, 3, 4, 5]


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.integers(1, 10_000)),
            min_size=1,
            max_size=20,
            unique_by=lambda t: t[0],
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=80)
    def test_gsp_invariants(self, bidders, slots):
        ads = [ad(lid, bid) for lid, bid in bidders]
        outcome = run_gsp_auction(ads, slots=slots)
        ranks = [award.ad_rank for award in outcome.awards]
        # Slate ordered by ad rank, prices within [reserve, bid], and no
        # winner pays more than their own bid (GSP individual rationality).
        assert ranks == sorted(ranks, reverse=True)
        for award in outcome.awards:
            assert 1 <= award.price_micros <= award.bid_micros
