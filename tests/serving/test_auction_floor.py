"""``run_gsp_auction``: the floor-bounded selection against the
``heapq.nsmallest`` selection it replaced.

The auction keeps at most ``slots + 1`` entries in a heap whose root is
the worst kept one; once the heap is full, a candidate ranked below the
root is dropped after one float compare.  The function it replaced is
kept here *verbatim* as the reference: on pools small enough to force
ties on rank, on listing id and full ties (same bid and id, another
phrase), every outcome must be equal and every slot must hold the same
ad object.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.serving.auction import AuctionOutcome, SlotAward, run_gsp_auction

# ---------------------------------------------------------------------- #
# The reference: the replaced code, verbatim (renamed).


def reference_run_gsp_auction(
    candidates: Sequence[Advertisement],
    slots: int,
    reserve_micros: int = 1,
    quality_fn: Callable[[Advertisement], float] | None = None,
) -> AuctionOutcome:
    """Rank ``candidates`` into at most ``slots`` positions, GSP-priced.

    Ads whose raw bid (``bid_price_micros``, *before* quality adjustment)
    is below the reserve are excluded; a non-positive quality score on
    any candidate, excluded or not, raises ``ValueError``.
    Deterministic: ties on ad rank break by listing id, full ties by
    candidate order.

    Slot ``i`` is priced from the ad ranked ``i + 1``, so only the top
    ``slots + 1`` are selected; the rest are scored once and never sorted.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if reserve_micros < 0:
        raise ValueError("reserve must be non-negative")

    # Entries order by ``(-ad_rank, listing_id)``; the position makes the
    # order total, so a full tie falls to candidate order (what a stable
    # sort on that key gives) and never compares two unorderable ads.
    scored: list[tuple[float, int, int, Advertisement, float]] = []
    for position, ad in enumerate(candidates):
        q = 1.0
        if quality_fn is not None:
            q = quality_fn(ad)
            if q <= 0:
                raise ValueError(f"quality score must be positive, got {q}")
        info = ad.info
        bid = info.bid_price_micros
        if bid >= reserve_micros:
            scored.append((-(bid * q), info.listing_id, position, ad, q))
    top = heapq.nsmallest(slots + 1, scored)

    awards: list[SlotAward] = []
    for i, (_, _, _, ad, q) in enumerate(top[:slots]):
        if i + 1 < len(top):
            next_rank = -top[i + 1][0]
            price = int(next_rank / q) + 1
        else:
            price = reserve_micros
        price = max(reserve_micros, min(price, ad.info.bid_price_micros))
        awards.append(
            SlotAward(
                slot=i,
                ad=ad,
                bid_micros=ad.info.bid_price_micros,
                quality=q,
                price_micros=price,
            )
        )
    return AuctionOutcome(
        awards=tuple(awards),
        reserve_micros=reserve_micros,
        candidates=len(candidates),
    )


# ---------------------------------------------------------------------- #
# Differential

# Bids straddle every reserve drawn below; qualities are exact binary
# fractions, so bid x quality ties across bids (10 x 2.0 == 20 x 1.0).
BIDS = (0, 5, 10, 20, 40)
RESERVES = (0, 1, 10, 30)
QUALITIES = (0.25, 0.5, 1.0, 2.0)

pool_ads = st.builds(
    lambda phrase, listing_id, bid: Advertisement(
        phrase=phrase,
        info=AdInfo(listing_id=listing_id, bid_price_micros=bid),
    ),
    st.sampled_from([("a",), ("b",), ("a", "b")]),
    st.integers(0, 3),
    st.sampled_from(BIDS),
)


def quality_by_phrase_and_listing(ad):
    return QUALITIES[(len(ad.phrase) + ad.info.listing_id) % len(QUALITIES)]


@settings(max_examples=600, deadline=None)
@given(
    pool=st.lists(pool_ads, min_size=1, max_size=8),
    picks=st.lists(st.integers(0, 7), max_size=30),
    slots=st.integers(1, 6),
    reserve=st.sampled_from(RESERVES),
    quality_fn=st.sampled_from([None, quality_by_phrase_and_listing]),
)
def test_floor_selection_matches_the_replaced_selection(
    pool, picks, slots, reserve, quality_fn
):
    # Picks repeat ads of a small pool: the same object twice, equal
    # ads at two positions, and fewer than ``slots + 1`` candidates.
    candidates = [pool[i % len(pool)] for i in picks]
    got = run_gsp_auction(candidates, slots, reserve, quality_fn)
    want = reference_run_gsp_auction(candidates, slots, reserve, quality_fn)
    assert got == want
    assert all(
        mine.ad is theirs.ad for mine, theirs in zip(got.awards, want.awards)
    )


class _Info:
    """``AdInfo`` that counts reads of ``listing_id``."""

    def __init__(self, listing_id, bid, reads):
        self._listing_id = listing_id
        self.bid_price_micros = bid
        self._reads = reads

    @property
    def listing_id(self):
        self._reads.append(self._listing_id)
        return self._listing_id


class _Ad:
    def __init__(self, listing_id, bid, reads):
        self.info = _Info(listing_id, bid, reads)


def test_candidates_below_the_floor_are_dropped_unread():
    """Five fill the heap (slots + 1), five better ones replace them all,
    then fifty ranked below the refreshed floor are dropped before their
    listing id is read: ten reads, not sixty."""
    reads = []
    bids = [1, 2, 3, 4, 5] + [10] * 5 + [6] * 50
    candidates = [_Ad(i, bid, reads) for i, bid in enumerate(bids)]
    outcome = run_gsp_auction(candidates, slots=4)
    assert [award.ad for award in outcome.awards] == candidates[5:9]
    assert reads == list(range(10))


def test_a_tie_with_the_floor_still_competes_on_listing_id():
    """A candidate whose rank equals the worst kept rank enters when its
    listing id is smaller."""
    ads = [
        Advertisement(phrase=("a",), info=AdInfo(listing_id=i, bid_price_micros=b))
        for i, b in [(9, 50), (8, 20), (7, 20), (1, 20)]
    ]
    outcome = run_gsp_auction(ads, slots=2)
    assert [award.ad.info.listing_id for award in outcome.awards] == [9, 1]
    assert outcome == reference_run_gsp_auction(ads, slots=2)
