"""The end-to-end ad server: retrieval -> filters -> auction -> budgets.

Implements the pipeline the paper's introduction describes around the
index: broad-match retrieval produces candidates; secondary criteria
(exclusion phrases, exhausted campaign budgets, ads already shown to this
user) filter them; the GSP auction ranks and prices the survivors; clicks
charge the winning campaign's budget.

The retrieval structure is pluggable — any
:class:`~repro.core.protocols.RetrievalIndex` works (hash index, trie
index, packed or tiered segments, compressed), which is exactly the
interchangeability the library's structures guarantee.

There is one pipeline: :meth:`AdServer.serve` is a batch of one through
:meth:`AdServer.serve_batch`.  With an :mod:`repro.obs` registry
attached, every retrieval call (one per batch) records ``span.retrieve``,
every query the ``span.filter`` / ``span.auction`` stage timings and the
``serve.*`` counters (candidates, per-reason filter drops, impressions,
clicks, revenue), correlated with whatever the index and cache layers
recorded for the same query.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, fields, replace
from time import perf_counter
from typing import Any

from repro.core.ads import Advertisement
from repro.core.matching import RankedMatches, passes_exclusions
from repro.core.protocols import RetrievalIndex
from repro.core.queries import Query
from repro.obs.registry import (
    SPAN_PREFIX,
    Histogram,
    MetricsRegistry,
    Span,
    active_or_none,
)
from repro.perf.batch import BatchQueryEngine, Candidates
from repro.resilience.deadline import ClockMs, Deadline, DegradedReason
from repro.serving.auction import AuctionOutcome, SlotAward, run_gsp_auction
from repro.serving.request import (
    ServeRequest,
    WireSchemaError,
    ad_from_dict,
    ad_to_dict,
)


@dataclass(slots=True)
class ServingStats:
    """Aggregate serving counters.

    Field semantics (audited — each counter states exactly when it moves):

    * ``queries`` — calls into the pipeline (one per served query).
    * ``candidates`` — ads retrieval returned, *before* any filtering.
    * ``filtered_exclusion`` — candidates dropped because one of the ad's
      exclusion phrases was contained in the query.
    * ``filtered_budget`` — candidates dropped because their campaign's
      remaining budget cannot cover the ad's bid price.
    * ``filtered_frequency_cap`` — candidates dropped because this user
      already saw the listing ``frequency_cap`` times.
    * ``impressions`` — auction slots actually awarded (ads shown).
    * ``clicks`` — calls to :meth:`AdServer.record_click`.
    * ``revenue_micros`` — GSP prices charged **on click** (possibly
      clipped to the campaign's remaining budget).  Impressions alone
      never move revenue: sponsored search bills per click, not per
      impression.
    * ``degraded`` — served queries whose result was flagged degraded
      (a deadline that expired mid-retrieval).
    * ``deadline_partials`` — served queries whose deadline expired
      mid-retrieval.
    * ``degraded_reasons`` — per-:class:`DegradedReason` breakdown of
      every non-``NONE`` outcome; surfaced by :meth:`snapshot` as
      ``degraded_reason.<value>`` keys.
    """

    queries: int = 0
    candidates: int = 0
    filtered_exclusion: int = 0
    filtered_budget: int = 0
    filtered_frequency_cap: int = 0
    impressions: int = 0
    clicks: int = 0
    revenue_micros: int = 0
    degraded: int = 0
    deadline_partials: int = 0
    degraded_reasons: dict[str, int] = field(default_factory=dict)

    def fill_rate(self) -> float:
        """Mean impressions per query (``impressions / queries``)."""
        if not self.queries:
            return 0.0
        return self.impressions / self.queries

    def click_through_rate(self) -> float:
        """Clicks per impression (``clicks / impressions``)."""
        if not self.impressions:
            return 0.0
        return self.clicks / self.impressions

    def snapshot(self) -> dict[str, float]:
        """Every counter plus the derived rates, as one flat dict.

        This is the bridge into the shared metrics registry: the keys
        mirror the ``serve.*`` counter names :class:`AdServer` records
        when an :mod:`repro.obs` registry is attached.
        """
        counters: dict[str, float] = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "degraded_reasons"
        }
        for reason, count in sorted(self.degraded_reasons.items()):
            counters[f"degraded_reason.{reason}"] = count
        counters["fill_rate"] = self.fill_rate()
        counters["click_through_rate"] = self.click_through_rate()
        return counters

    def record_reason(self, reason: DegradedReason) -> None:
        """Count one non-``NONE`` degradation outcome."""
        if reason is not DegradedReason.NONE:
            self.degraded_reasons[reason.value] = (
                self.degraded_reasons.get(reason.value, 0) + 1
            )


@dataclass(frozen=True, slots=True)
class ServeResult:
    """What one query produced."""

    query: Query
    outcome: AuctionOutcome
    #: Why (if at all) this result is less than the full answer:
    #: :attr:`DegradedReason.NONE` for a normal serve, the primary
    #: cause for a partial result, or (in a frontend-built result) the
    #: shed or retrieval-error reason.  Always machine-readable —
    #: degraded results are flagged, never silent.
    degraded_reason: DegradedReason = DegradedReason.NONE

    @property
    def ads(self) -> list[Advertisement]:
        return self.outcome.winners()

    @property
    def degraded(self) -> bool:
        return self.degraded_reason is not DegradedReason.NONE

    # -------------------------------------------------------------- #
    # Wire round-trip (the :mod:`repro.netserve` response payload)

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready form: query, degraded reason, and the full
        auction outcome with every award's ad identity in slot order."""
        outcome = self.outcome
        return {
            "query": list(self.query.tokens),
            "degraded_reason": self.degraded_reason.value,
            "outcome": {
                "reserve_micros": outcome.reserve_micros,
                "candidates": outcome.candidates,
                "awards": [
                    {
                        "slot": award.slot,
                        "bid_micros": award.bid_micros,
                        "quality": award.quality,
                        "price_micros": award.price_micros,
                        "ad": ad_to_dict(award.ad),
                    }
                    for award in outcome.awards
                ],
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> ServeResult:
        """Decode :meth:`to_dict` output into an equal result (award
        order, ad identity, and the degraded reason all preserved)."""
        if not isinstance(payload, dict):
            raise WireSchemaError("result payload must be an object")
        try:
            tokens = tuple(payload["query"])
            reason = DegradedReason(payload.get("degraded_reason", "none"))
            encoded_outcome = payload["outcome"]
            awards = tuple(
                SlotAward(
                    slot=encoded["slot"],
                    ad=ad_from_dict(encoded["ad"]),
                    bid_micros=encoded["bid_micros"],
                    quality=encoded["quality"],
                    price_micros=encoded["price_micros"],
                )
                for encoded in encoded_outcome["awards"]
            )
            outcome = AuctionOutcome(
                awards=awards,
                reserve_micros=encoded_outcome["reserve_micros"],
                candidates=encoded_outcome["candidates"],
            )
        except WireSchemaError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise WireSchemaError(f"bad result payload: {exc}") from exc
        return cls(
            query=Query(tokens=tokens),
            outcome=outcome,
            degraded_reason=reason,
        )

    def to_json(self) -> str:
        """Compact JSON of :meth:`to_dict` (the wire payload text)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> ServeResult:
        """Decode :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WireSchemaError(f"bad result JSON: {exc}") from exc
        return cls.from_dict(payload)


#: ``(name, help)`` of the counters ``_finish`` bumps, in its order.
_FINISH_COUNTERS = (
    ("serve.queries", "Queries served"),
    ("serve.candidates", "Retrieval candidates before filters"),
    ("serve.filtered.exclusion", "Candidates dropped by exclusion phrases"),
    ("serve.filtered.budget", "Candidates dropped by exhausted campaign budgets"),
    ("serve.filtered.frequency_cap", "Candidates dropped by the per-user frequency cap"),
    ("serve.impressions", "Auction slots awarded"),
    ("serve.auctions_unfilled", "Auctions that awarded no slot at all"),
    ("serve.degraded", "Served queries flagged degraded in any way"),
)
#: The other ``serve.*`` counters, looked up where they are bumped.
_COUNTERS = (
    ("serve.clicks", "Clicks recorded"),
    ("serve.revenue_micros", "GSP revenue charged on clicks"),
)


class AdServer:
    """Serving pipeline over any retrieval structure.

    Parameters
    ----------
    index:
        Any :class:`~repro.core.protocols.RetrievalIndex`.
    slots:
        Ad positions per results page.
    reserve_micros:
        Auction reserve price.
    campaign_budgets_micros:
        Optional per-campaign budgets; campaigns at 0 stop serving
        (the "budget constraints" of the paper's introduction).
    quality_fn:
        Optional quality score per ad for the GSP ranking.
    frequency_cap:
        Max times one listing may be shown to the same user id.
    default_deadline_ms:
        Per-request retrieval budget applied when the caller passes no
        explicit deadline; ``None`` (the default) leaves requests
        unbudgeted, preserving the exact baseline behaviour.
    clock:
        Millisecond clock for deadline budgets (defaults to wall time;
        inject a manual clock in tests).
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        enabled, serving records the ``serve.*`` counters and the
        ``retrieve``/``filter``/``auction`` stage spans, and propagates
        the registry to the internal batch engine.
    """

    def __init__(
        self,
        index: RetrievalIndex,
        slots: int = 4,
        reserve_micros: int = 1,
        campaign_budgets_micros: dict[int, int] | None = None,
        quality_fn: Callable[[Advertisement], float] | None = None,
        frequency_cap: int | None = None,
        default_deadline_ms: float | None = None,
        clock: ClockMs | None = None,
        obs: MetricsRegistry | None = None,
    ) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        self.index = index
        self.slots = slots
        self.reserve_micros = reserve_micros
        self.quality_fn = quality_fn
        self.frequency_cap = frequency_cap
        self.default_deadline_ms = default_deadline_ms
        self._clock = clock
        self._budgets = dict(campaign_budgets_micros or {})
        self._seen: dict[tuple[object, int], int] = {}
        self._batch_engine: BatchQueryEngine | None = None
        self.stats = ServingStats()
        self._obs: MetricsRegistry | None = None
        self.bind_obs(obs)

    def bind_obs(self, obs: MetricsRegistry | None) -> None:
        """Attach (or detach, with ``None``) a metrics registry."""
        obs = active_or_none(obs)
        self._obs = obs
        self._spans: dict[str, Histogram] = {}
        if self._batch_engine is not None:
            self._batch_engine.bind_obs(obs)
        if obs is not None:
            for name, text in _COUNTERS:
                obs.counter(name, help=text)
            # Bound once: ``_finish`` runs per query and would otherwise
            # pay a registry lookup per counter.
            self._counters = [
                obs.counter(name, help=text) for name, text in _FINISH_COUNTERS
            ]

    def _span(self, name: str) -> Histogram:
        """``span.<name>``, bound at first use: no empty timing is listed."""
        spans = self._spans
        if name not in spans:
            assert self._obs is not None
            spans[name] = self._obs.histogram(SPAN_PREFIX + name)
        return spans[name]

    # ------------------------------------------------------------------ #

    def budget_remaining(self, campaign_id: int) -> int | None:
        """None means unlimited (campaign has no configured budget)."""
        return self._budgets.get(campaign_id)

    def _passes_budget(self, ad: Advertisement) -> bool:
        budget = self._budgets.get(ad.info.campaign_id)
        return budget is None or budget >= ad.info.bid_price_micros

    def _passes_frequency_cap(self, ad: Advertisement, user_id: object) -> bool:
        if self.frequency_cap is None or user_id is None:
            return True
        shown = self._seen.get((user_id, ad.info.listing_id), 0)
        return shown < self.frequency_cap

    def serve(
        self,
        request: ServeRequest | Query,
        user_id: object = None,
        deadline: Deadline | None = None,
    ) -> ServeResult:
        """Run the full pipeline for one request: a batch of one.

        ``request`` is either a :class:`ServeRequest` — the one-object
        API the network tier speaks, whose own budget is the deadline —
        or a bare :class:`Query` with the per-request fields as keyword
        arguments (the pre-redesign signature).  Mixing both styles is
        an error.  Everything else is :meth:`serve_batch`.
        """
        if deadline is not None and isinstance(request, ServeRequest):
            raise TypeError(
                "pass per-request fields inside the ServeRequest, "
                "not as keyword arguments"
            )
        return self.serve_batch([request], user_id, deadline)[0]

    def serve_batch(
        self,
        requests: Iterable[ServeRequest | Query],
        user_id: object = None,
        deadline: Deadline | None = None,
    ) -> list[ServeResult]:
        """The serving pipeline: one batched retrieval, then the
        sequential filter/auction pipeline per query.

        ``requests`` is a homogeneous sequence of either bare
        :class:`Query` objects (the pre-redesign signature: ``user_id``
        applies to every position) or :class:`ServeRequest` objects,
        each carrying its own user id.  With ``ServeRequest`` items the
        batch budget is the explicit ``deadline`` argument when given,
        otherwise the *tightest* of the items' own budgets (one deadline
        always covers the whole batch).  Absent both, the budget is
        built from ``default_deadline_ms``.

        Retrieval deduplicates identical word-sets
        (:class:`BatchQueryEngine`); filters, budgets, frequency caps,
        and auctions then run in input order, so every stateful outcome
        (budget pacing, caps) is identical to serving the queries one
        by one.  A failing retrieval propagates: admission, shedding
        and the answer to a failed request belong to the netserve
        frontend, and re-serving a failed batch's items one by one to
        the worker.
        """
        items = list(requests)
        as_requests = bool(items) and isinstance(items[0], ServeRequest)
        if len(items) > 1 and any(
            isinstance(item, ServeRequest) is not as_requests for item in items
        ):
            raise TypeError(
                "serve_batch takes all ServeRequests or all Queries, not a mix"
            )
        if as_requests:
            if user_id is not None:
                raise TypeError(
                    "pass per-request fields inside the ServeRequests, "
                    "not as keyword arguments"
                )
            plan = [(item.query, item.user_id) for item in items]
            if deadline is None:
                deadline = self._tightest_deadline(items)
        else:
            plan = [(query, user_id) for query in items]
        if not plan:
            return []
        if deadline is None and self.default_deadline_ms is not None:
            deadline = Deadline.after_ms(
                self.default_deadline_ms, clock=self._clock
            )
        queries = [query for query, _ in plan]
        engine = self._batch_engine
        if engine is None or engine.index is not self.index:
            engine = self._batch_engine = BatchQueryEngine(self.index, obs=self._obs)
        top = self.slots + 1 if ranked_read(self) else None
        if self._obs is None:
            candidate_lists = engine.query_broad_batch(queries, deadline, top)
        else:
            with Span(self._span("retrieve")):
                candidate_lists = engine.query_broad_batch(queries, deadline, top)
        reason = DegradedReason.NONE
        if deadline is not None:
            reason = deadline.primary_reason()
            if DegradedReason.DEADLINE in deadline.partial_reasons:
                self.stats.deadline_partials += len(queries)
        return [
            self._finish(query, candidates, uid, reason)
            for (query, uid), candidates in zip(plan, candidate_lists)
        ]

    def _tightest_deadline(
        self, items: list[ServeRequest]
    ) -> Deadline | None:
        """The batch budget for ServeRequest items: the member deadline
        with the least remaining time (an untimed deadline counts as
        infinite)."""
        tightest = None
        for item in items:
            deadline = item.resolve_deadline(self._clock)
            if deadline is not None and (
                tightest is None
                or deadline.remaining_ms() < tightest.remaining_ms()
            ):
                tightest = deadline
        return tightest

    def _finish(
        self,
        query: Query,
        candidates: Candidates,
        user_id: object,
        reason: DegradedReason = DegradedReason.NONE,
    ) -> ServeResult:
        """Filters -> auction -> stats for one query's candidate set: the
        full match list, or a ranked read's kept ads with its exact match
        and exclusion counts."""
        obs = self._obs
        ads: Sequence[Advertisement]
        if isinstance(candidates, RankedMatches):
            matched, dropped_exclusion, ads = candidates.count, candidates.excluded, candidates.ads
        else:
            matched, dropped_exclusion, ads = len(candidates), 0, candidates
        left_out = matched - dropped_exclusion - len(ads)
        self.stats.queries += 1
        self.stats.candidates += matched

        filter_started = perf_counter() if obs is not None else 0.0
        dropped_budget = 0
        dropped_frequency = 0
        # Per-request invariants, so a candidate no filter applies to
        # (no exclusion phrases, no budgets, no cap for this user) costs
        # three truth tests.  Order stays exclusion -> budget -> frequency.
        any_budget = bool(self._budgets)
        capped = self.frequency_cap is not None and user_id is not None
        eligible: list[Advertisement] = []
        for ad in ads:
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
            outcome = run_gsp_auction(
                eligible,
                slots=self.slots,
                reserve_micros=self.reserve_micros,
                quality_fn=self.quality_fn,
            )
        else:
            with Span(self._span("auction")):
                outcome = run_gsp_auction(
                    eligible,
                    slots=self.slots,
                    reserve_micros=self.reserve_micros,
                    quality_fn=self.quality_fn,
                )
        if left_out:
            # The unexcluded matches a ranked read left out pass every
            # filter and win nothing, but are eligible candidates all the same.
            outcome = replace(outcome, candidates=outcome.candidates + left_out)
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
                matched,
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

    def record_click(self, result: ServeResult, slot: int) -> int:
        """Charge the clicked slot's GSP price to its campaign budget.

        Returns the price charged (possibly clipped to the remaining
        budget).
        """
        award = result.outcome.awards[slot]
        price = award.price_micros
        campaign = award.ad.info.campaign_id
        budget = self._budgets.get(campaign)
        if budget is not None:
            price = min(price, budget)
            self._budgets[campaign] = budget - price
        self.stats.clicks += 1
        self.stats.revenue_micros += price
        if self._obs is not None:
            self._obs.counter("serve.clicks").inc()
            self._obs.counter("serve.revenue_micros").inc(price)
        return price

    def exhausted_campaigns(self) -> list[int]:
        return [c for c, b in self._budgets.items() if b <= 0]


def ranked_read(server: AdServer) -> bool:
    """Whether ``server`` retrieves with the index's ranked read (a
    :class:`~repro.core.matching.RankedMatches` per query, see
    :meth:`repro.segment.packed.PackedSegmentIndex.query`) instead of
    the full match list.

    The ranked read counts the matches an exclusion drops and keeps the
    best ``slots + 1`` of the rest by bid, which is all a pure-bid GSP
    auction can read.  Everything that could drop or re-rank any other
    match takes the full list:

    * campaign budgets (a budget can drop a top bid);
    * a frequency cap (a cap can drop a top listing);
    * a ``quality_fn`` (``bid x quality`` is not the stored order);
    * an index without a ranked read (``WordSetIndex``, tiered): one
      whose class lacks ``supports_ranked_read``.

    PHRASE/EXACT match never gets here: :class:`AdServer` retrieves
    broad match, and the ranked read refuses the other two.
    """
    return (
        not server._budgets
        and server.frequency_cap is None
        and server.quality_fn is None
        and getattr(type(server.index), "supports_ranked_read", False)
    )


def serve_trace(
    server: AdServer, queries: Iterable[Query]
) -> ServingStats:
    """Serve a whole trace; returns the aggregate stats."""
    for query in queries:
        server.serve(query)
    return server.stats
