"""Differential test: the ranked read against the full-list pipeline.

With no budget, no frequency cap and no ``quality_fn``, ``AdServer``
retrieves from a ``PackedSegmentIndex`` with its ranked read: per query
the exact match count, the exact count of matches an exclusion phrase
drops (tested as the walk reads them) and the best ``slots + 1`` of the
rest (``RankedMatches``), and ``_finish`` filters and auctions only
those.  The pipeline it replaced — full match lists
into the parent's ``_finish`` and ``run_gsp_auction`` — is kept here
*verbatim* as ``ParentAdServer``, but for its batch body: the hook it
overrode went with ``AdServer``'s admission, so it overrides
``serve_batch`` over the bare queries this file serves, without the
default budget and the error fallback no server here uses.  On random corpora both serve the
same batches from their own ``PackedSegmentIndex`` over one segment
file, and every observable must be bit-identical: each result's wire
form (slate, prices, ``outcome.candidates``, degraded reason), the
``ServingStats`` and the ``serve.*`` counters.

The corpora carry exclusion phrases that fold into the queries and
phrases that never do, at a drawn share of the ads, reserves above some
bids, bid ties and duplicate listing ids (full ties fall to candidate
order, so the ranked read must hand ``_finish`` its ads in the full
list's order), and carriers that tie a non-carrier on bid and listing
id.  Batches repeat word-sets in other token orders and with repeated
tokens.  Every fallback trigger of
:func:`repro.serving.server.ranked_read` is drawn too, and the test
checks which path the predicate chose.  Deadlines are either absent or
spent at a counted clock tick, so a scan can stop mid-way, at the same
node on both sides; some indexes cut every probe plan to one to three
words (their ``max_query_words``), so an exclusion phrase can lie in the
query's dropped words, where it still excludes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType, RankedMatches, passes_exclusions
from repro.core.queries import Query
from repro.core.tokens import word_set
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import Counter, MetricsRegistry, Span
from repro.perf.batch import BatchQueryEngine
from repro.resilience.deadline import Deadline, DegradedReason
from repro.segment import PackedSegmentIndex, SegmentBuilder, TieredConfig, TieredSegmentedIndex
from repro.segment.packed import DEFAULT_CACHE_BYTES
from repro.serving.auction import AuctionOutcome, SlotAward
from repro.serving.request import ad_to_dict
from repro.serving.server import AdServer, ServeResult, ranked_read

# ---------------------------------------------------------------------- #
# The reference: the replaced code, verbatim.


def parent_run_gsp_auction(candidates, slots, reserve_micros=1, quality_fn=None):
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
    import heapq
    import math

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
    heap = []
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

    awards = []
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


class ParentAdServer(AdServer):
    """``AdServer`` with the full-list retrieval and ``_finish`` it had
    before the ranked read."""

    def serve_batch(self, requests, user_id=None, deadline=None):
        plan = [(query, user_id, None) for query in requests]
        if not plan:
            return []
        queries = [query for query, _, _ in plan]
        engine = self._batch_engine
        if engine is None or engine.index is not self.index:
            engine = self._batch_engine = BatchQueryEngine(self.index, obs=self._obs)
        obs = self._obs
        if obs is None:
            candidate_lists = engine.query_broad_batch(queries, deadline)
        else:
            with Span(self._span("retrieve")):
                candidate_lists = engine.query_broad_batch(
                    queries, deadline
                )
        reason = (
            deadline.primary_reason()
            if deadline is not None
            else DegradedReason.NONE
        )
        if deadline is not None and deadline.partial:
            if DegradedReason.DEADLINE in deadline.partial_reasons:
                self.stats.deadline_partials += len(queries)
        return [
            self._finish(query, candidates, uid, reason)
            for (query, uid, _), candidates in zip(plan, candidate_lists)
        ]

    def _finish(self, query, candidates, user_id, reason=DegradedReason.NONE):
        """Filters -> auction -> stats for one query's candidate set."""
        obs = self._obs
        self.stats.queries += 1
        self.stats.candidates += len(candidates)

        filter_started = perf_counter() if obs is not None else 0.0
        dropped_exclusion = 0
        dropped_budget = 0
        dropped_frequency = 0
        # Per-request invariants, so a candidate no filter applies to
        # (no exclusion phrases, no budgets, no cap for this user) costs
        # three truth tests.  Order stays exclusion -> budget -> frequency.
        any_budget = bool(self._budgets)
        capped = self.frequency_cap is not None and user_id is not None
        eligible: list[Advertisement] = []
        for ad in candidates:
            if ad.info.exclusion_phrases and not passes_exclusions(ad, query):
                dropped_exclusion += 1
            elif any_budget and not self._passes_budget(ad):
                dropped_budget += 1
            elif capped and not self._passes_frequency_cap(ad, user_id):
                dropped_frequency += 1
            else:
                eligible.append(ad)
        self.stats.filtered_exclusion += dropped_exclusion
        self.stats.filtered_budget += dropped_budget
        self.stats.filtered_frequency_cap += dropped_frequency
        if obs is not None:
            self._span("filter").observe(
                (perf_counter() - filter_started) * 1e3
            )

        if obs is None:
            outcome = parent_run_gsp_auction(
                eligible,
                slots=self.slots,
                reserve_micros=self.reserve_micros,
                quality_fn=self.quality_fn,
            )
        else:
            with Span(self._span("auction")):
                outcome = parent_run_gsp_auction(
                    eligible,
                    slots=self.slots,
                    reserve_micros=self.reserve_micros,
                    quality_fn=self.quality_fn,
                )
        self.stats.impressions += len(outcome.awards)
        if user_id is not None and self.frequency_cap is not None:
            for award in outcome.awards:
                key = (user_id, award.ad.info.listing_id)
                self._seen[key] = self._seen.get(key, 0) + 1
        if reason is not DegradedReason.NONE:
            self.stats.degraded += 1
            self.stats.record_reason(reason)
        if obs is not None:
            amounts = (
                1,
                len(candidates),
                dropped_exclusion,
                dropped_budget,
                dropped_frequency,
                len(outcome.awards),
                int(not outcome.awards),
                int(reason is not DegradedReason.NONE),
            )
            for counter, amount in zip(self._counters, amounts):
                counter.inc(amount)
        return ServeResult(
            query=query, outcome=outcome, degraded_reason=reason
        )


# ---------------------------------------------------------------------- #
# Corpora, configurations and scripts

WORDS = ("a", "b", "c", "d", "e", "f")
#: Exclusion phrases: some are contained in the queries below, some not.
EXCLUSIONS = ("a", "b c", "f", "zz")
#: An exclusion phrase no query below holds.
NEVER = "never"


@st.composite
def corpora(draw):
    """Ads over few words, so nodes mix word-sets and queries match
    many ads: bids from a small set (ties) or anywhere, listing ids that
    repeat, and one ad in one, two or four carrying exclusion phrases.
    Some ads without any get a twin carrier: the same word-set, bid and
    listing id and a phrase no query holds, so a carrier that passes
    ties a non-carrier wherever the floor falls."""
    carrier_odds = draw(st.sampled_from([1, 2, 4]))
    ads = []
    for _ in range(draw(st.integers(1, 40))):
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True))
        carries = draw(st.integers(1, carrier_odds)) == 1
        ads.append(
            Advertisement(
                phrase=tuple(draw(st.permutations(words))),
                info=AdInfo(
                    listing_id=draw(st.integers(0, 12)),
                    campaign_id=draw(st.integers(0, 3)),
                    bid_price_micros=draw(
                        st.one_of(st.sampled_from([5, 50, 500]), st.integers(0, 1000))
                    ),
                    exclusion_phrases=tuple(
                        draw(st.lists(st.sampled_from(EXCLUSIONS), min_size=1, max_size=2))
                    )
                    if carries
                    else (),
                ),
            )
        )
    twins = [
        Advertisement(
            phrase=ad.phrase,
            info=AdInfo(
                listing_id=ad.info.listing_id,
                campaign_id=ad.info.campaign_id,
                bid_price_micros=ad.info.bid_price_micros,
                exclusion_phrases=(NEVER,),
            ),
        )
        for ad in ads
        if not ad.info.exclusion_phrases and draw(st.integers(0, 3)) == 0
    ]
    return ads + twins


@st.composite
def batches(draw):
    """A batch: queries plus other token orders of some of them, some
    with a token repeated (the batch engine serves a repeated word-set
    once, and every position shares its exclusion verdicts)."""
    queries = [
        tuple(draw(st.lists(st.sampled_from((*WORDS, "zz")), min_size=1, max_size=5)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    repeats = [
        tuple(draw(st.permutations(tokens))) + tokens[: draw(st.integers(0, 1))]
        for tokens in queries
        if draw(st.booleans())
    ]
    return [Query(tokens=tokens) for tokens in queries + repeats]


#: Configurations the ranked read serves, and every fallback trigger.
RANKED = "ranked"
FALLBACKS = ("budgets", "frequency_cap", "quality_fn", "wordset", "tiered")


def make_index(kind, path, ads, cache_bytes, tmp, max_query_words):
    if kind == "wordset":
        return WordSetIndex.from_corpus(ads, max_query_words=max_query_words)
    if kind == "tiered":
        index = TieredSegmentedIndex(
            Path(tempfile.mkdtemp(dir=tmp)),
            config=TieredConfig(max_query_words=max_query_words),
        )
        for ad in ads:
            index.insert(ad)
        index.compact()
        return index
    return PackedSegmentIndex(path, cache_bytes=cache_bytes)


def make_server(cls, kind, index, slots, reserve, obs):
    options: dict = {}
    if kind == "budgets":
        options["campaign_budgets_micros"] = {0: 600, 1: 40, 2: 0}
    elif kind == "frequency_cap":
        options["frequency_cap"] = 1
    elif kind == "quality_fn":
        options["quality_fn"] = lambda ad: 1.0 + (ad.info.listing_id % 3) / 2
    return cls(index, slots=slots, reserve_micros=reserve, obs=obs, **options)


class Ticks:
    """A clock that advances one millisecond per read, so a budget spent
    at tick ``n`` runs out at the same check on both pipelines."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def serve_counters(registry):
    return {
        metric.name: metric.value
        for metric in registry
        if isinstance(metric, Counter) and metric.name.startswith("serve.")
    }


# ---------------------------------------------------------------------- #
# Differential


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    ads=corpora(),
    kind=st.sampled_from((RANKED, RANKED, RANKED, *FALLBACKS)),
    cache_bytes=st.sampled_from([0, 512, DEFAULT_CACHE_BYTES]),
    slots=st.integers(1, 4),
    reserve=st.sampled_from([1, 1, 50, 400]),
    with_obs=st.booleans(),
    warm=st.booleans(),
    max_query_words=st.sampled_from([16, 16, 1, 2, 3]),
    script=st.lists(
        st.tuples(
            batches(),
            st.sampled_from([None, None, 1, 3, 6, 12]),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_ranked_read_matches_the_full_list_pipeline(
    tmp_path, ads, kind, cache_bytes, slots, reserve, with_obs, warm, max_query_words, script
):
    path = tmp_path / "ranked.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads, max_query_words=max_query_words)).write(path)
    registries = (MetricsRegistry(), MetricsRegistry()) if with_obs else (None, None)
    indexes = [
        make_index(kind, path, ads, cache_bytes, tmp_path, max_query_words) for _ in range(2)
    ]
    try:
        server, parent = (
            make_server(cls, kind, index, slots, reserve, obs)
            for cls, index, obs in zip((AdServer, ParentAdServer), indexes, registries)
        )
        assert ranked_read(server) is (kind == RANKED)
        if warm and kind == RANKED:
            # A ranked read never admits a node; full-list reads do, so
            # the ranked reads below walk cached runs as well as records.
            for queries, *_ in script:
                for query in queries:
                    indexes[0].query(query)
        for queries, spend_at, with_user in script:
            deadlines = [
                None if spend_at is None else Deadline(spend_at, clock=Ticks())
                for _ in range(2)
            ]
            user = "u1" if with_user else None
            got = server.serve_batch(queries, user_id=user, deadline=deadlines[0])
            want = parent.serve_batch(queries, user_id=user, deadline=deadlines[1])
            assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
            for result, twin in zip(got, want):
                if result.outcome.awards:
                    assert server.record_click(result, 0) == parent.record_click(twin, 0)
            assert server.stats == parent.stats
            if with_obs:
                assert serve_counters(registries[0]) == serve_counters(registries[1])
    finally:
        for index in indexes:
            close = getattr(index, "close", None)
            if close is not None:
                close()


def corpus_with_every_feature():
    """Eight ads on one word-set and two on a subset: bids tie, two
    listings repeat, three ads carry exclusion phrases."""
    def ad(phrase, listing, bid, exclusions=()):
        return Advertisement(
            phrase=phrase,
            info=AdInfo(listing_id=listing, bid_price_micros=bid, exclusion_phrases=exclusions),
        )

    return [
        ad(("a", "b"), 1, 900, ("c",)),
        ad(("b", "a"), 2, 700),
        ad(("a", "b"), 3, 700),
        ad(("a", "b"), 3, 700),
        ad(("a", "b"), 4, 650, ("zz",)),
        ad(("a", "b"), 5, 500),
        ad(("a", "b"), 6, 400),
        ad(("a", "b"), 7, 300, ("a b",)),
        ad(("a",), 8, 600),
        ad(("a",), 9, 100),
    ]


@pytest.mark.parametrize("cache_bytes", [0, DEFAULT_CACHE_BYTES])
def test_a_budget_spent_on_entry_gives_flagged_empty_slates(tmp_path, cache_bytes):
    path = tmp_path / "spent.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus_with_every_feature())).write(path)
    queries = [Query.from_text("a b c"), Query.from_text("c b a"), Query.from_text("a")]
    results = []
    for cls in (AdServer, ParentAdServer):
        with PackedSegmentIndex(path, cache_bytes=cache_bytes) as index:
            server = cls(index, slots=2)
            spent = Deadline(0.0, clock=lambda: 1.0)
            results.append([r.to_dict() for r in server.serve_batch(queries, deadline=spent)])
            assert server.stats.deadline_partials == len(queries)
    got, want = results
    assert got == want
    for result in got:
        assert result["degraded_reason"] == DegradedReason.DEADLINE.value
        assert result["outcome"]["awards"] == []
        assert result["outcome"]["candidates"] == 0


def oracle_excluded(matches, query):
    """How many of ``matches`` an exclusion phrase drops from ``query``."""
    return sum(
        any(word_set(phrase) <= query.words for phrase in ad.info.exclusion_phrases)
        for ad in matches
    )


@pytest.mark.parametrize("cache_bytes", [0, DEFAULT_CACHE_BYTES])
def test_the_ranked_read_counts_exclusions_and_keeps_the_top(tmp_path, cache_bytes):
    """``query(top=k)`` on the fixture: the exact count, the exact count
    of carriers an exclusion drops, and the best ``k`` of the rest, in
    the full list's order, off the bytes and off cached runs."""
    path = tmp_path / "top.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus_with_every_feature())).write(path)
    with PackedSegmentIndex(path, cache_bytes=cache_bytes) as index:
        query = Query.from_text("a b c")
        full = index.query(query)
        ranked = index.query(query, top=3)
        assert isinstance(ranked, RankedMatches)
        assert ranked.count == len(full) == 10
        # Carriers 1 ("c") and 7 ("a b") are excluded; 4 ("zz") is not.
        assert ranked.excluded == oracle_excluded(full, query) == 2
        # The best three of the rest: listing 2 and both copies of
        # listing 3, all at 700; carrier 4 (650) is the first left out.
        assert sorted(ad.info.listing_id for ad in ranked.ads) == [2, 3, 3]
        assert list(ranked.ads) == [ad for ad in full if ad in ranked.ads]
        # One more slot takes carrier 4, a carrier that passes.
        more = index.query(query, top=4)
        assert (more.count, more.excluded) == (10, 2)
        assert sorted(ad.info.listing_id for ad in more.ads) == [2, 3, 3, 4]
        assert list(more.ads) == [ad for ad in full if ad in more.ads]
        with pytest.raises(ValueError, match="broad match only"):
            index.query(query, MatchType.PHRASE, top=3)
        with pytest.raises(ValueError, match="broad match only"):
            index.query_kernel_batch([query], MatchType.EXACT, top=3)


@pytest.mark.parametrize("cache_bytes", [0, DEFAULT_CACHE_BYTES])
def test_a_later_tie_with_a_lower_listing_still_wins(tmp_path, cache_bytes):
    """Equal bids on several word-sets, the lowest listing id read last:
    a walk that stopped at a bid equal to its floor would keep an
    earlier, higher listing id."""
    ads = [
        Advertisement(phrase=phrase, info=AdInfo(listing_id=listing, bid_price_micros=500))
        for phrase, listing in ((("a",), 7), (("b",), 5), (("c",), 3), (("a", "b", "c"), 1))
    ]
    path = tmp_path / "ties.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads)).write(path)
    results = []
    for cls in (AdServer, ParentAdServer):
        with PackedSegmentIndex(path, cache_bytes=cache_bytes) as index:
            if cache_bytes:
                # A full-list read admits the node, so the ranked read
                # walks it as cached runs.
                index.query(Query.from_text("a b c"))
            server = cls(index, slots=1)
            results.append(server.serve(Query.from_text("a b c")).to_dict())
    got, want = results
    assert got == want
    assert [award["ad"]["listing_id"] for award in got["outcome"]["awards"]] == [1]


def test_a_ranked_serve_materialises_only_what_it_can_show(tmp_path):
    """``segment.ads_materialised`` on the fixture, node cache off: of
    ten matches a two-slot ranked serve builds only the two winners and
    the ad that prices the last slot.  It tests the three exclusion
    carriers as it reads them and builds none: two are excluded, one of
    them (7) below the floor, and the third ranks below the three kept.
    The full-list path (a budget forces it) builds all ten.  Both read
    the two nodes once (``segment.nodes_read``)."""
    path = tmp_path / "counted.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus_with_every_feature())).write(path)
    query = Query.from_text("a b c")
    counted = {}
    for label, budgets in (("ranked", None), ("full", {99: 1})):
        obs = MetricsRegistry()
        with PackedSegmentIndex(path, obs=obs, cache_bytes=0) as index:
            server = AdServer(index, slots=2, campaign_budgets_micros=budgets, obs=obs)
            assert ranked_read(server) is (label == "ranked")
            result = server.serve(query)
        assert [award.ad.info.listing_id for award in result.outcome.awards] == [2, 3]
        assert [award.price_micros for award in result.outcome.awards] == [700, 700]
        assert result.outcome.candidates == 8
        assert server.stats.candidates == 10
        assert server.stats.filtered_exclusion == 2
        counted[label] = (
            obs.counter("segment.ads_materialised").value,
            obs.counter("segment.nodes_read").value,
            obs.counter("segment.results").value,
        )
    assert counted == {"ranked": (3, 2, 10), "full": (10, 2, 10)}


@pytest.mark.parametrize("cache_bytes", [0, DEFAULT_CACHE_BYTES])
@pytest.mark.parametrize("other_words", [("a", "b"), ("a",)])
def test_a_passing_carrier_tied_at_the_floor_falls_to_list_order(
    tmp_path, cache_bytes, other_words
):
    """A carrier that passes and non-carriers with the same bid and
    listing id, tied for the last kept places: the one earliest in the
    full list wins the second slot, as in the full-list pipeline.  On
    one word-set the carrier leads its row; with the others on "a" it
    comes after them, in a node read later."""
    def ad(phrase, bid, exclusions=()):
        info = AdInfo(listing_id=5, bid_price_micros=bid, exclusion_phrases=exclusions)
        return Advertisement(phrase=phrase, info=info)

    ads = [
        ad(("a",), 900),
        ad(("a", "b"), 500, ("zz",)),
        ad(other_words, 500),
        ad(other_words, 500),
        ad(("b",), 400),
    ]
    path = tmp_path / "tie.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads)).write(path)
    query = Query.from_text("a b")
    results = []
    for cls in (AdServer, ParentAdServer):
        with PackedSegmentIndex(path, cache_bytes=cache_bytes) as index:
            full = index.query(query)
            server = cls(index, slots=2)
            results.append((server.serve(query).to_dict(), server.stats))
    (got, got_stats), (want, want_stats) = results
    assert got == want and got_stats == want_stats
    tied = [ad for ad in full if ad.info.bid_price_micros == 500]
    assert bool(tied[0].info.exclusion_phrases) is (len(other_words) == 2)
    assert got["outcome"]["awards"][1]["ad"] == ad_to_dict(tied[0])
    assert got["outcome"]["candidates"] == 5


@pytest.mark.parametrize("cache_bytes", [0, DEFAULT_CACHE_BYTES])
def test_a_word_the_plan_drops_still_excludes(tmp_path, cache_bytes):
    """An index's ``max_query_words=1`` cuts the plan of "a zz" to "a"; the carrier
    on "a" excluded by "zz" must still be dropped, because exclusions
    are tested against the whole query, not the cut plan.  Kept, it
    would take one of the two places a one-slot read keeps, and the
    winner would lose the ad that prices it."""
    ads = [
        Advertisement(
            phrase=("a",),
            info=AdInfo(listing_id=1, bid_price_micros=900, exclusion_phrases=("zz",)),
        ),
        Advertisement(phrase=("a",), info=AdInfo(listing_id=2, bid_price_micros=100)),
        Advertisement(phrase=("a",), info=AdInfo(listing_id=3, bid_price_micros=50)),
    ]
    path = tmp_path / "cut.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads, max_query_words=1)).write(path)
    query = Query.from_text("a zz")
    results = []
    for cls in (AdServer, ParentAdServer):
        with PackedSegmentIndex(path, cache_bytes=cache_bytes) as index:
            if cache_bytes:
                index.query(query)
            server = cls(index, slots=1)
            results.append((server.serve(query).to_dict(), server.stats))
    (got, got_stats), (want, want_stats) = results
    assert got == want and got_stats == want_stats
    assert [award["ad"]["listing_id"] for award in got["outcome"]["awards"]] == [2]
    assert got["outcome"]["awards"][0]["price_micros"] == 51
    assert got_stats.filtered_exclusion == 1


def test_a_ranked_read_never_admits_and_reads_cached_runs_alike(tmp_path):
    """A ranked read leaves the node cache as it found it, so its cost
    does not change as the cache fills; over nodes a full-list read
    admitted it gives what it gives off the bytes."""
    path = tmp_path / "admit.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus_with_every_feature())).write(path)
    query = Query.from_text("a b c")
    with PackedSegmentIndex(path) as index:
        off_bytes = index.query(query, top=3)
        assert not index._node_cache
        index.query(query)
        cached = len(index._node_cache)
        assert cached == 2
        assert index.query(query, top=3) == off_bytes
        assert index.query_kernel_batch([query, Query.from_text("a")], top=3)[0] == off_bytes
        assert len(index._node_cache) == cached
