"""Generalized second-price (GSP) auction with quality scores.

The standard sponsored-search auction: candidates are ranked by
``bid * quality`` (the *ad rank*); the winner of slot ``i`` pays the
minimum bid that would have kept it above slot ``i+1``:

    price_i = ad_rank_{i+1} / quality_i      (+ one micro, floored at the
                                              reserve price)

The last occupied slot pays the reserve.  Quality scores default to 1.0
(pure bid ranking) — note the paper's point that the final ranking may
depend on query-independent factors, which is why these scores enter
*after* retrieval rather than being folded into the index.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.ads import Advertisement


@dataclass(frozen=True, slots=True)
class SlotAward:
    """One ad slot: who won it and what a click costs."""

    slot: int
    ad: Advertisement
    bid_micros: int
    quality: float
    price_micros: int

    @property
    def ad_rank(self) -> float:
        return self.bid_micros * self.quality


@dataclass(frozen=True, slots=True)
class AuctionOutcome:
    """The ranked slate plus auction-level accounting."""

    awards: tuple[SlotAward, ...]
    reserve_micros: int
    candidates: int

    @property
    def total_price_micros(self) -> int:
        return sum(award.price_micros for award in self.awards)

    def winners(self) -> list[Advertisement]:
        return [award.ad for award in self.awards]


def run_gsp_auction(
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
    ``slots + 1`` are kept.  Once that many are held, the worst kept
    rank is a floor: a candidate ranked below it is dropped after one
    float compare, and only the rest are compared in full.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if reserve_micros < 0:
        raise ValueError("reserve must be non-negative")

    # Best first is ``(-ad_rank, listing_id, position)``; the position
    # makes the order total, so a full tie falls to candidate order (what
    # a stable sort on that key gives) and never compares two unorderable
    # ads.  The heap holds that key negated, so its root is the worst
    # kept entry.
    keep = slots + 1
    heap: list[tuple[float, int, int, Advertisement, float]] = []
    floor = -math.inf
    for position, ad in enumerate(candidates):
        q = 1.0
        if quality_fn is not None:
            q = quality_fn(ad)
            if q <= 0:
                raise ValueError(f"quality score must be positive, got {q}")
        info = ad.info
        bid = info.bid_price_micros
        if bid < reserve_micros:
            continue
        rank = bid * q
        if rank < floor:
            continue
        entry = (rank, -info.listing_id, -position, ad, q)
        if len(heap) < keep:
            heapq.heappush(heap, entry)
            if len(heap) < keep:
                continue
        else:
            heapq.heappushpop(heap, entry)
        floor = heap[0][0]
    top = sorted(heap, reverse=True)

    awards: list[SlotAward] = []
    for i, (_, _, _, ad, q) in enumerate(top[:slots]):
        if i + 1 < len(top):
            next_rank = top[i + 1][0]
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
