"""Differential test: ``AdServer`` and ``plan_query`` against the parent's.

The serving process no longer admits, sheds, degrades on error or steps
a degradation ladder: the netserve frontend admits, sheds and answers a
failed request, the worker isolates a failing request, and a
``Deadline`` is only a time budget and the record of what was left
partial.  So a probe plan no longer depends on a request's deadline.

The parent's ``ServingStats``, ``AdServer``, ``ranked_read``,
``plan_query`` and ``plan_for_query`` are kept below *verbatim*, renamed
``Parent*`` / ``parent_*``, with one edit: the import of the deleted
``DegradationPolicy`` is gone (the name survives only in an
annotation, which is never evaluated).  The parent server runs with
admission, the ladder and ``degrade_on_error`` unset, the one
configuration any serving process ran.

Both servers serve the same scripts over their own copy of a
``WordSetIndex``, a packed segment (read ranked, or as full lists when
budgets, a frequency cap or ``quality_fn`` are drawn) and a two-segment
``TieredSegmentedIndex`` with tombstones and an overlay; lone serves and
batches, bare queries and ``ServeRequest`` objects, clicks that charge
campaign budgets, and deadlines on a clock that moves one millisecond
per read, so budgets run out mid-batch.  After every op these must be
equal: every result's ``to_dict()``, the ``ServingStats`` snapshot
(minus the deleted ``shed`` and ``retrieval_errors``), the budgets, every
charge, the frequency-cap memory, the ``serve.*`` counters (minus the
deleted two), every deadline's ``partial_reasons`` and the clock.
Every plan the indexes make equals the parent's ``plan_query`` with and
without a deadline.
"""

from __future__ import annotations

import tempfile
from collections.abc import Callable, Container, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import RankedMatches, passes_exclusions
from repro.core.protocols import RetrievalIndex
from repro.core.queries import Query
from repro.core.subset_enum import truncate_query
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import (
    SPAN_PREFIX,
    Counter,
    Histogram,
    MetricsRegistry,
    Span,
    active_or_none,
)
from repro.perf.batch import BatchQueryEngine, Candidates, query_one
from repro.perf.prefilter import ProbePlan, naive_plan, plan_probes
from repro.resilience.admission import AdmissionController, Priority
from repro.resilience.deadline import ClockMs, Deadline, DegradedReason, ManualClock
from repro.segment import (
    PackedSegmentIndex,
    SegmentBuilder,
    TieredConfig,
    TieredSegmentedIndex,
)
from repro.serving.auction import run_gsp_auction
from repro.serving.request import ServeRequest
from repro.serving.server import AdServer, ServeResult

# ---------------------------------------------------------------------- #
# The reference: the parent's serving pipeline and planner, verbatim.


@dataclass(slots=True)
class ParentServingStats:
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
    * ``retrieval_errors`` — retrieval raised and the server degraded to
      an empty candidate set (only with ``degrade_on_error=True``).
    * ``shed`` — requests refused by admission control *before* the
      pipeline ran (shed requests do **not** count in ``queries``).
    * ``degraded`` — served queries whose result was flagged degraded in
      any way (partial, truncated, capped, ...).
    * ``deadline_partials`` — served queries whose deadline expired
      mid-retrieval.
    * ``degraded_reasons`` — per-:class:`DegradedReason` breakdown of
      every non-``NONE`` outcome (shed and degraded alike); surfaced by
      :meth:`snapshot` as ``degraded_reason.<value>`` keys.
    """

    queries: int = 0
    candidates: int = 0
    filtered_exclusion: int = 0
    filtered_budget: int = 0
    filtered_frequency_cap: int = 0
    impressions: int = 0
    clicks: int = 0
    revenue_micros: int = 0
    retrieval_errors: int = 0
    shed: int = 0
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
    ("serve.retrieval_errors", "Queries degraded to empty results by retrieval errors"),
    ("serve.shed", "Requests refused by admission control"),
)


class ParentAdServer:
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
    degrade_on_error:
        When True, a retrieval failure (an index mid-recovery, a
        corrupted segment) serves an empty candidate set — an unfilled
        auction — instead of propagating, and counts
        ``serve.retrieval_errors``.  Off by default: silent degradation
        must be an explicit operator choice.
    admission:
        Optional :class:`~repro.resilience.admission.AdmissionController`;
        requests it refuses get an immediate empty :class:`ServeResult`
        carrying the shed reason, without touching the pipeline.
    degradation:
        Optional :class:`~repro.resilience.degrade.DegradationPolicy`;
        its current ladder level tightens every request's deadline budget.
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
        degrade_on_error: bool = False,
        admission: AdmissionController | None = None,
        degradation: DegradationPolicy | None = None,
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
        self.degrade_on_error = degrade_on_error
        self.admission = admission
        self.degradation = degradation
        self.default_deadline_ms = default_deadline_ms
        self._clock = clock
        self._budgets = dict(campaign_budgets_micros or {})
        self._seen: dict[tuple[object, int], int] = {}
        self._batch_engine: BatchQueryEngine | None = None
        self.stats = ParentServingStats()
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
        priority: Priority = Priority.NORMAL,
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
        return self.serve_batch([request], user_id, priority, deadline)[0]

    def _request_deadline(self, deadline: Deadline | None) -> Deadline | None:
        """The effective budget: caller's, or one from
        ``default_deadline_ms``; either way tightened by the degradation
        ladder.  ``None`` only when no resilience feature asks for one —
        the baseline path stays budget-free."""
        degradation = self.degradation
        if degradation is not None:
            degradation.on_query()
        if deadline is None:
            if self.default_deadline_ms is not None:
                deadline = Deadline.after_ms(
                    self.default_deadline_ms, clock=self._clock
                )
            elif degradation is not None and degradation.degraded:
                deadline = Deadline.unlimited(clock=self._clock)
        if deadline is not None and degradation is not None:
            degradation.tighten(deadline)
        return deadline

    def _shed(self, query: Query, reason: DegradedReason) -> ServeResult:
        """An explicit refused-at-the-door result: empty auction, the
        shed reason attached, no pipeline work done."""
        self.stats.shed += 1
        self.stats.record_reason(reason)
        if self._obs is not None:
            self._obs.counter("serve.shed").inc()
        outcome = run_gsp_auction(
            [],
            slots=self.slots,
            reserve_micros=self.reserve_micros,
            quality_fn=self.quality_fn,
        )
        return ServeResult(query=query, outcome=outcome, degraded_reason=reason)

    def _degraded(self) -> list[Advertisement]:
        """Count one degraded query; serve the empty candidate set."""
        self.stats.retrieval_errors += 1
        if self._obs is not None:
            self._obs.counter("serve.retrieval_errors").inc()
        return []

    def _retry_alone(
        self,
        queries: list[Query],
        deadline: Deadline | None,
        error: Exception,
    ) -> tuple[list[Candidates], dict[int, DegradedReason]]:
        """The failure rule, applied per position once the batched
        retrieval raised ``error``: each query is retried alone (a lone
        query already was); one that still fails is answered with an
        empty slate flagged ``RETRIEVAL_ERROR`` under
        ``degrade_on_error``, else its error propagates.  Returns the
        candidate lists and the reason of every position that failed."""
        candidate_lists: list[Candidates] = []
        failed: dict[int, DegradedReason] = {}
        for position, query in enumerate(queries):
            if len(queries) > 1:
                try:
                    candidate_lists.append(
                        query_one(self.index, query, deadline=deadline)
                    )
                    continue
                except Exception as exc:
                    error = exc
            if self.degrade_on_error:
                failed[position] = DegradedReason.RETRIEVAL_ERROR
                candidate_lists.append(self._degraded())
            else:
                raise error
        return candidate_lists, failed

    def serve_batch(
        self,
        requests: Iterable[ServeRequest | Query],
        user_id: object = None,
        priority: Priority = Priority.NORMAL,
        deadline: Deadline | None = None,
    ) -> list[ServeResult]:
        """The serving pipeline: admission, one batched retrieval, then
        the sequential filter/auction pipeline per query.

        ``requests`` is a homogeneous sequence of either bare
        :class:`Query` objects (the pre-redesign signature: ``user_id``
        and ``priority`` apply to every position) or
        :class:`ServeRequest` objects, each carrying its own user id and
        admission priority.  With ``ServeRequest`` items the batch
        budget is the explicit ``deadline`` argument when given,
        otherwise the *tightest* of the items' own budgets (one deadline
        always covers the whole batch).  The budget is then built from
        ``default_deadline_ms`` when absent and tightened by the
        degradation ladder.

        Admission control admits each position individually before the
        batched retrieval runs; shed positions get flagged empty results
        without touching retrieval.  Retrieval deduplicates identical
        word-sets (:class:`BatchQueryEngine`); filters, budgets,
        frequency caps, and auctions then run in input order, so every
        stateful outcome (budget pacing, caps) is identical to serving
        the queries one by one.  A failing retrieval follows the
        per-position rule of :meth:`_retry_alone`.
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
            if user_id is not None or priority is not Priority.NORMAL:
                raise TypeError(
                    "pass per-request fields inside the ServeRequests, "
                    "not as keyword arguments"
                )
            plan = [(item.query, item.user_id, item.priority) for item in items]
            if deadline is None:
                deadline = self._tightest_deadline(items)
        else:
            plan = [(query, user_id, priority) for query in items]
        admission = self.admission
        if admission is None:
            return self._serve_batch_admitted(plan, deadline)
        admitted = []
        shed_at: dict[int, DegradedReason] = {}
        for position, (query, uid, prio) in enumerate(plan):
            decision = admission.try_admit(prio)
            if decision.admitted:
                admitted.append((query, uid, prio))
            else:
                shed_at[position] = decision.reason
        try:
            results = self._serve_batch_admitted(admitted, deadline)
        finally:
            for _ in admitted:
                admission.release()
        if not shed_at:
            return results
        merged: list[ServeResult] = []
        served = iter(results)
        for position, (query, _, _) in enumerate(plan):
            reason = shed_at.get(position)
            if reason is not None:
                merged.append(self._shed(query, reason))
            else:
                merged.append(next(served))
        return merged

    def _tightest_deadline(
        self, items: list[ServeRequest]
    ) -> Deadline | None:
        """The batch budget for ServeRequest items: the member deadline
        with the least remaining time (an untimed deadline counts as
        infinite but still carries its degradation constraints)."""
        tightest = None
        for item in items:
            deadline = item.resolve_deadline(self._clock)
            if deadline is not None and (
                tightest is None
                or deadline.remaining_ms() < tightest.remaining_ms()
            ):
                tightest = deadline
        return tightest

    def _serve_batch_admitted(
        self,
        plan: list[tuple[Query, object, Priority]],
        deadline: Deadline | None,
    ) -> list[ServeResult]:
        if not plan:
            return []
        queries = [query for query, _, _ in plan]
        deadline = self._request_deadline(deadline)
        engine = self._batch_engine
        if engine is None or engine.index is not self.index:
            engine = self._batch_engine = BatchQueryEngine(self.index, obs=self._obs)
        obs = self._obs
        top = self.slots + 1 if parent_ranked_read(self) else None
        failed: dict[int, DegradedReason] = {}
        candidate_lists: list[Candidates]
        try:
            if obs is None:
                candidate_lists = engine.query_broad_batch(queries, deadline, top)
            else:
                with Span(self._span("retrieve")):
                    candidate_lists = engine.query_broad_batch(
                        queries, deadline, top
                    )
        except Exception as exc:
            candidate_lists, failed = self._retry_alone(queries, deadline, exc)
        reason = (
            deadline.primary_reason()
            if deadline is not None
            else DegradedReason.NONE
        )
        if deadline is not None and deadline.partial:
            if DegradedReason.DEADLINE in deadline.partial_reasons:
                self.stats.deadline_partials += len(queries) - len(failed)
        return [
            self._finish(query, candidates, uid, failed.get(position, reason))
            for position, ((query, uid, _), candidates) in enumerate(
                zip(plan, candidate_lists)
            )
        ]

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



def parent_ranked_read(server: ParentAdServer) -> bool:
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



def parent_plan_query(
    words: frozenset[str],
    deadline: Deadline | None,
    *,
    fast_path: bool,
    vocabulary: Container[str],
    size_histogram: Mapping[int, int],
    max_words: int | None,
    max_query_words: int,
    selectivity: Callable[[str], int] | None = None,
) -> ProbePlan:
    """The probe plan a broad-match over ``words`` executes.

    On the fast path the plan prunes to locator-vocabulary words and
    locator sizes actually present; with ``fast_path=False`` it is the
    paper's unpruned Section IV-B enumeration.

    A ``deadline`` carrying degradation constraints tightens the plan:
    ``max_query_words`` hardens the Section IV truncation cutoff,
    ``max_probes`` caps the enumeration
    (:meth:`~repro.perf.prefilter.ProbePlan.capped`); either tightening
    marks the budget partial with an explicit reason.
    """
    cutoff = max_query_words
    if deadline is not None and deadline.max_query_words is not None:
        cutoff = min(cutoff, deadline.max_query_words)
    plan = parent_plan_for_query(
        words,
        fast_path=fast_path,
        vocabulary=vocabulary,
        size_histogram=size_histogram,
        max_words=max_words,
        max_query_words=cutoff,
        selectivity=selectivity,
    )
    if deadline is not None:
        # TRUNCATED means the *budget's* tighter cutoff dropped words
        # the index's own configuration would have kept — ordinary
        # long-query truncation is normal operation, not degradation.
        if min(len(words), max_query_words) > cutoff:
            deadline.mark_partial(DegradedReason.TRUNCATED)
        if deadline.max_probes is not None:
            capped = plan.capped(deadline.max_probes)
            if capped is not plan:
                deadline.mark_partial(DegradedReason.PROBES_CAPPED)
                plan = capped
    return plan


def parent_plan_for_query(
    words: frozenset[str],
    *,
    fast_path: bool,
    vocabulary: Container[str],
    size_histogram: Mapping[int, int],
    max_words: int | None,
    max_query_words: int,
    selectivity: Callable[[str], int] | None = None,
) -> ProbePlan:
    """Words to plan, before any request budget.

    Applies the long-query cutoff, then builds either the pruned plan
    (against the index's locator vocabulary and size histogram) or the
    paper's naive enumeration.  Indexes reach it only through
    :func:`repro.kernels.pipeline.plan_query`, which adds the
    deadline's tightening.
    """
    cut = truncate_query(words, max_query_words, selectivity)
    was_cut = cut != words
    if fast_path:
        return plan_probes(
            cut, vocabulary, size_histogram, max_words, truncated=was_cut
        )
    return naive_plan(cut, max_words, truncated=was_cut)


# ---------------------------------------------------------------------- #
# Indexes: one fresh copy per side.


class TickingClock(ManualClock):
    """A manual clock that moves one millisecond every time it is read."""

    __slots__ = ()

    def __call__(self) -> float:
        self.now_ms += 1.0
        return self.now_ms


#: ``ranked`` is a packed segment the server reads ranked, ``packed``
#: one it reads as full lists.
KINDS = ("wordset", "packed", "ranked", "tiered")


def build_index(kind, ads, segment, workdir):
    if kind == "wordset":
        return WordSetIndex.from_corpus(AdCorpus(ads))
    if kind in ("packed", "ranked"):
        return PackedSegmentIndex(segment)
    # Two sealed segments, tombstones over them, and a live overlay.
    index = TieredSegmentedIndex(
        Path(tempfile.mkdtemp(dir=workdir)),
        config=TieredConfig(seal_threshold=1_000, auto_merge=False),
    )
    for chunk in (ads[:3], ads[3:6]):
        for ad in chunk:
            index.insert(ad)
        index.seal()
    for ad in (ads[0], ads[4]):
        index.delete(ad)
    for ad in [*ads[6:], Advertisement.from_text("a b", AdInfo(listing_id=99))]:
        index.insert(ad)
    assert len(index.segments) == 2 and len(index.overlay) >= 1
    return index


# ---------------------------------------------------------------------- #
# Scenarios.  Few words, so batches repeat word-sets, budgets drain and
# capped listings recur.

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
    st.integers(0, 9),
    st.integers(0, 3),
    st.integers(0, 6).map(lambda step: 20 * step),
    st.lists(phrases, max_size=1),
)

queries = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(
    lambda tokens: Query(tokens=tuple(tokens))
)
users = st.sampled_from((None, "u1", "u2"))
#: ``None`` or a budget in clock reads: small ones run out mid-batch.
budgets = st.sampled_from((None, None, 1.0, 3.0, 6.0, 12.0, 40.0))
#: One position: query, user, and (for ``ServeRequest`` items) its own
#: budget, ``None``, relative (``deadline_ms``) or an object.
positions = st.tuples(
    queries,
    users,
    st.one_of(
        st.none(),
        st.tuples(st.just("ms"), st.sampled_from((2.0, 20.0))),
        st.tuples(st.just("obj"), st.sampled_from((2.0, 20.0))),
    ),
)

ops = st.one_of(
    st.tuples(st.just("serve"), positions, budgets, st.booleans()),
    st.tuples(
        st.just("batch"),
        st.lists(positions, min_size=1, max_size=6).map(
            lambda items: items + items[:1] if len(items) % 2 else items
        ),
        users,
        budgets,
        st.booleans(),
    ),
    st.tuples(st.just("click"), st.integers(0, 2)),
)

configs = st.fixed_dictionaries(
    {
        "slots": st.integers(1, 3),
        "reserve_micros": st.sampled_from((0, 1, 30, 70)),
        "quality_fn": st.sampled_from((None, None, quality_by_listing)),
        "frequency_cap": st.sampled_from((None, None, 1, 2)),
        "campaign_budgets_micros": st.one_of(
            st.just({}),
            st.dictionaries(st.integers(0, 3), st.integers(0, 150), max_size=3),
        ),
        "default_deadline_ms": st.sampled_from((None, None, 5.0, 50.0)),
    }
)


class Side:
    """One server with its own index, clock, registry and deadlines."""

    def __init__(self, cls, index, config, with_obs):
        self.clock = TickingClock()
        self.registry = MetricsRegistry()
        self.index = index
        self.server = cls(
            index,
            clock=self.clock,
            obs=self.registry if with_obs else None,
            **config,
        )
        self.deadlines = []
        self.charges = []
        self.last = None

    def deadline(self, budget):
        if budget is None:
            return None
        deadline = Deadline.after_ms(budget, clock=self.clock)
        self.deadlines.append(deadline)
        return deadline

    def request(self, position):
        query, user, spec = position
        if spec is None:
            return ServeRequest(query=query, user_id=user)
        if spec[0] == "ms":
            return ServeRequest(query=query, user_id=user, deadline_ms=spec[1])
        return ServeRequest(query=query, user_id=user, deadline=self.deadline(spec[1]))

    def run(self, op):
        kind = op[0]
        server = self.server
        if kind == "click":
            if self.last is None or op[1] >= len(self.last.outcome.awards):
                return []
            self.charges.append(server.record_click(self.last, op[1]))
            return []
        if kind == "serve":
            _, position, budget, as_request = op
            if as_request:
                results = [server.serve(self.request(position))]
            else:
                query, user, _ = position
                results = [
                    server.serve(query, user_id=user, deadline=self.deadline(budget))
                ]
        else:
            _, items, user, budget, as_request = op
            if as_request:
                requests = [self.request(position) for position in items]
                results = server.serve_batch(requests, deadline=self.deadline(budget))
            else:
                results = server.serve_batch(
                    [query for query, _, _ in items],
                    user_id=user,
                    deadline=self.deadline(budget),
                )
        if results:
            self.last = results[-1]
        return [result.to_dict() for result in results]

    def observables(self):
        server = self.server
        snapshot = server.stats.snapshot()
        for deleted in ("shed", "retrieval_errors"):
            snapshot.pop(deleted, None)
        return {
            "stats": snapshot,
            "budgets": dict(server._budgets),
            "seen": dict(server._seen),
            "charges": list(self.charges),
            "counters": {
                metric.name: metric.value
                for metric in self.registry
                if isinstance(metric, Counter)
                and metric.name.startswith("serve.")
                and metric.name not in ("serve.shed", "serve.retrieval_errors")
            },
            "partial_reasons": [d.partial_reasons for d in self.deadlines],
            "clock": self.clock.now_ms,
        }


def close(index):
    if isinstance(index, (PackedSegmentIndex, TieredSegmentedIndex)):
        index.close()


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    corpus=st.lists(ads, min_size=7, max_size=16),
    kind=st.sampled_from(KINDS),
    config=configs,
    script=st.lists(ops, min_size=1, max_size=8),
    with_obs=st.booleans(),
)
def test_server_matches_the_parent(tmp_path, corpus, kind, config, script, with_obs):
    if kind == "ranked":
        config = {
            **config,
            "campaign_budgets_micros": {},
            "frequency_cap": None,
            "quality_fn": None,
        }
    elif kind == "packed" and not (
        config["campaign_budgets_micros"] or config["frequency_cap"] or config["quality_fn"]
    ):
        config = {**config, "frequency_cap": 2}
    segment = Path(tempfile.mkdtemp(dir=tmp_path)) / "diff.seg"
    SegmentBuilder(WordSetIndex.from_corpus(AdCorpus(corpus))).write(segment)
    parent, change = (
        Side(cls, build_index(kind, corpus, segment, tmp_path), config, with_obs)
        for cls in (ParentAdServer, AdServer)
    )
    try:
        assert parent_ranked_read(parent.server) is (kind == "ranked")
        for op in script:
            assert change.run(op) == parent.run(op)
            assert change.observables() == parent.observables()
    finally:
        close(parent.index)
        close(change.index)


# ---------------------------------------------------------------------- #
# A failing retrieval: both raise, and neither counts anything.


class PoisonIndex:
    """Raises on any query holding ``poison``."""

    supports_deadline = True

    def __init__(self, inner):
        self.inner = inner

    def query(self, query, *args):
        if "poison" in query.words:
            raise RuntimeError("poisoned word-set")
        return self.inner.query(query, *args)


@pytest.mark.parametrize(
    "texts", [["poison"], ["a b", "poison"], ["poison", "a", "poison c"]]
)
def test_a_failing_retrieval_raises_on_both(texts):
    corpus = AdCorpus(
        [
            Advertisement.from_text("a b", AdInfo(listing_id=1, bid_price_micros=50)),
            Advertisement.from_text("a", AdInfo(listing_id=2, bid_price_micros=40)),
        ]
    )
    sides = [
        cls(PoisonIndex(WordSetIndex.from_corpus(corpus)), slots=2)
        for cls in (ParentAdServer, AdServer)
    ]
    for server in sides:
        with pytest.raises(RuntimeError, match="poisoned"):
            server.serve_batch([Query.from_text(text) for text in texts])
    parent, change = sides
    snapshot = parent.stats.snapshot()
    assert snapshot.pop("shed") == snapshot.pop("retrieval_errors") == 0
    assert change.stats.snapshot() == snapshot


# ---------------------------------------------------------------------- #
# Plans.


class ParentDeadline(Deadline):
    """A deadline as the parent built it with no constraints: its
    ``max_probes`` and ``max_query_words`` unset."""

    max_probes = None
    max_query_words = None


def parent_plan(index, words, deadline):
    """The parent's ``plan_query`` over ``index``'s prefilter state."""
    if isinstance(index, WordSetIndex):
        state = dict(
            vocabulary=index._vocab_refcount,
            size_histogram=index._size_histogram,
            selectivity=index._word_freq_fn,
        )
    else:
        state = dict(vocabulary=index._vocab, size_histogram=index._size_histogram)
    return parent_plan_query(
        words,
        deadline,
        fast_path=index.fast_path,
        max_words=index.max_words,
        max_query_words=index.max_query_words,
        **state,
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    corpus=st.lists(ads, min_size=1, max_size=16),
    plans=st.lists(st.lists(st.sampled_from((*WORDS, "zz")), min_size=1, max_size=6)),
    fast_path=st.booleans(),
    max_words=st.sampled_from((None, 1, 2)),
    max_query_words=st.sampled_from((16, 1, 2, 3)),
)
def test_plans_match_the_parent(
    tmp_path, corpus, plans, fast_path, max_words, max_query_words
):
    wordset = WordSetIndex(
        max_words=max_words, max_query_words=max_query_words, fast_path=fast_path
    )
    for ad in corpus:
        if max_words is None or len(ad.words) <= max_words:
            wordset.insert(ad)
    segment = Path(tempfile.mkdtemp(dir=tmp_path)) / "plans.seg"
    SegmentBuilder(wordset).write(segment)
    with PackedSegmentIndex(segment) as packed:
        for index in (wordset, packed):
            for tokens in plans:
                words = frozenset(tokens)
                deadline = ParentDeadline(clock=TickingClock())
                assert index.probe_plan(words) == parent_plan(index, words, None)
                assert index.probe_plan(words) == parent_plan(index, words, deadline)
                assert deadline.partial_reasons == ()
