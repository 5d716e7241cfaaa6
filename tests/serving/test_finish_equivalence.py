"""Differential test: candidates -> slate against the full-sort reference.

``AdServer._finish`` filters with hoisted per-request invariants and
``run_gsp_auction`` scores once and keeps only ``slots + 1`` (its
selection is pinned against the one it replaced in
``test_auction_floor.py``).  The code they replaced — three filter calls per
candidate, two quality calls, a full sort — is kept here *verbatim* as
the reference, and every observable must stay bit-identical: the wire
form of each result, the stats snapshot, the frequency-cap memory, the
budgets and the ``serve.*`` counters.

The server under test answers batch ops with ``serve_batch`` while the
reference serves the same queries one by one, so the test also pins
``serve`` / ``serve_batch`` equivalence on whichever kernel backend
``REPRO_KERNELS`` selects.
"""

from time import perf_counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import Counter, MetricsRegistry
from repro.resilience.deadline import DegradedReason
from repro.serving.auction import AuctionOutcome, SlotAward
from repro.serving.server import AdServer, ServeResult

# ---------------------------------------------------------------------- #
# The reference: the replaced code, verbatim.


def reference_passes_exclusions(ad, query):
    from repro.core.tokens import word_set

    return all(not word_set(p) <= query.words for p in ad.info.exclusion_phrases)


def reference_run_gsp_auction(candidates, slots, reserve_micros=1, quality_fn=None):
    if slots < 1:
        raise ValueError("slots must be >= 1")
    if reserve_micros < 0:
        raise ValueError("reserve must be non-negative")

    def quality(ad):
        q = quality_fn(ad) if quality_fn is not None else 1.0
        if q <= 0:
            raise ValueError(f"quality score must be positive, got {q}")
        return q

    scored = [
        (ad.info.bid_price_micros * quality(ad), ad, quality(ad))
        for ad in candidates
    ]
    eligible = [
        entry
        for entry in scored
        if entry[1].info.bid_price_micros >= reserve_micros
    ]
    eligible.sort(key=lambda entry: (-entry[0], entry[1].info.listing_id))

    awards = []
    for i, (ad_rank, ad, q) in enumerate(eligible[:slots]):
        if i + 1 < len(eligible):
            next_rank = eligible[i + 1][0]
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


class ReferenceAdServer(AdServer):
    """``AdServer`` with the replaced ``_finish`` and its helpers."""

    def _passes_budget(self, ad):
        budget = self._budgets.get(ad.info.campaign_id)
        return budget is None or budget >= ad.info.bid_price_micros

    def _passes_frequency_cap(self, ad, user_id):
        if self.frequency_cap is None or user_id is None:
            return True
        shown = self._seen.get((user_id, ad.info.listing_id), 0)
        return shown < self.frequency_cap

    def _finish(self, query, candidates, user_id, reason=DegradedReason.NONE):
        obs = self._obs
        self.stats.queries += 1
        self.stats.candidates += len(candidates)

        filter_started = perf_counter() if obs is not None else 0.0
        dropped_exclusion = 0
        dropped_budget = 0
        dropped_frequency = 0
        eligible = []
        for ad in candidates:
            if not reference_passes_exclusions(ad, query):
                dropped_exclusion += 1
                continue
            if not self._passes_budget(ad):
                dropped_budget += 1
                continue
            if not self._passes_frequency_cap(ad, user_id):
                dropped_frequency += 1
                continue
            eligible.append(ad)
        self.stats.filtered_exclusion += dropped_exclusion
        self.stats.filtered_budget += dropped_budget
        self.stats.filtered_frequency_cap += dropped_frequency
        if obs is not None:
            obs.histogram("span.filter").observe(
                (perf_counter() - filter_started) * 1e3
            )

        if obs is None:
            outcome = reference_run_gsp_auction(
                eligible,
                slots=self.slots,
                reserve_micros=self.reserve_micros,
                quality_fn=self.quality_fn,
            )
        else:
            with obs.span("auction"):
                outcome = reference_run_gsp_auction(
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
            obs.counter("serve.queries").inc()
            obs.counter("serve.candidates").inc(len(candidates))
            obs.counter("serve.filtered.exclusion").inc(dropped_exclusion)
            obs.counter("serve.filtered.budget").inc(dropped_budget)
            obs.counter("serve.filtered.frequency_cap").inc(dropped_frequency)
            obs.counter("serve.impressions").inc(len(outcome.awards))
            if not outcome.awards:
                obs.counter("serve.auctions_unfilled").inc()
            if reason is not DegradedReason.NONE:
                obs.counter("serve.degraded").inc()
        return ServeResult(
            query=query, outcome=outcome, degraded_reason=reason
        )


# ---------------------------------------------------------------------- #
# Scenarios: small ranges everywhere, so that duplicate listing ids, tied
# ad ranks, reserves above some bids, slates shorter than ``slots + 1``,
# exhausted budgets, capped listings and exclusion hits all occur often.

WORDS = ("a", "b", "c", "d", "e")
QUALITIES = (0.5, 1.0, 1.5, 2.0)


def quality_by_listing(ad):
    return QUALITIES[ad.info.listing_id % len(QUALITIES)]


phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3, unique=True)

ads = st.builds(
    lambda phrase, listing_id, campaign_id, bid, exclusions: Advertisement(
        phrase=tuple(phrase),
        info=AdInfo(
            listing_id=listing_id,
            campaign_id=campaign_id,
            bid_price_micros=bid,
            exclusion_phrases=tuple(" ".join(e) for e in exclusions),
        ),
    ),
    phrases,
    st.integers(0, 7),
    st.integers(0, 3),
    st.integers(0, 6).map(lambda step: 20 * step),
    st.lists(phrases, max_size=2),
)

queries = st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(
    lambda tokens: Query(tokens=tuple(tokens))
)
users = st.sampled_from((None, "u1", "u2"))

ops = st.one_of(
    st.tuples(st.just("serve"), queries, users),
    st.tuples(st.just("batch"), st.lists(queries, min_size=1, max_size=5), users),
    st.tuples(st.just("click"), st.integers(0, 3)),
)

configs = st.fixed_dictionaries(
    {
        "slots": st.integers(1, 4),
        "reserve_micros": st.sampled_from((0, 1, 30, 70)),
        "quality_fn": st.sampled_from((None, quality_by_listing)),
        "frequency_cap": st.sampled_from((None, 1, 2)),
        "campaign_budgets_micros": st.dictionaries(
            st.integers(0, 3), st.integers(0, 150), max_size=3
        ),
    }
)


def observables(server, registry):
    return {
        "stats": server.stats.snapshot(),
        "seen": dict(server._seen),
        "budgets": dict(server._budgets),
        "counters": {
            metric.name: metric.value
            for metric in registry
            if isinstance(metric, Counter) and metric.name.startswith("serve.")
        },
    }


@given(
    corpus=st.lists(ads, min_size=1, max_size=25),
    config=configs,
    script=st.lists(ops, min_size=1, max_size=8),
    with_obs=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_finish_matches_the_full_sort_reference(corpus, config, script, with_obs):
    index = WordSetIndex.from_corpus(AdCorpus(corpus))
    registry, reference_registry = MetricsRegistry(), MetricsRegistry()
    server = AdServer(index, obs=registry if with_obs else None, **config)
    reference = ReferenceAdServer(
        index, obs=reference_registry if with_obs else None, **config
    )
    last = reference_last = None
    for op in script:
        if op[0] == "serve":
            _, query, user = op
            got = [server.serve(query, user_id=user)]
            want = [reference.serve(query, user_id=user)]
        elif op[0] == "batch":
            _, batch, user = op
            got = server.serve_batch(batch, user_id=user)
            want = [reference.serve(query, user_id=user) for query in batch]
        else:
            # Click the last slate (if it has that slot) on both sides:
            # budgets drain between queries.
            slot = op[1]
            if last is None or slot >= len(last.outcome.awards):
                continue
            assert server.record_click(last, slot) == reference.record_click(
                reference_last, slot
            )
            got = want = []
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        if got:
            last, reference_last = got[-1], want[-1]
        assert observables(server, registry) == observables(
            reference, reference_registry
        )
