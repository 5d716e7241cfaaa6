"""The packed index's probe path as it was before the trie walk.

Kept verbatim as the reference for :mod:`tests.segment.test_prefix_walk`:
``query``, ``query_kernel_batch``, ``_probe``, ``_bulk_hits``, ``_scan``
and ``_sig_hits`` of ``PackedSegmentIndex`` (their ``@overload`` stubs
left out), and the batch bookkeeping they called,
:func:`sig_words_array`, :func:`split_by_query` and :func:`split_hits`,
which left ``repro.kernels``.  The probe path enumerates every plan's
power set: a plan with at least ``BULK_MIN_KEYS`` keys is tested in one
numpy ``B^sig`` pass over its flat key array, any other streams its key
generator through the scan.  Only the numpy view of ``B^sig`` the
parent's loader made (``_sig_np``) is set up here, outside the verbatim
code.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate
from operator import itemgetter
from time import perf_counter
from typing import Any

from repro.core.ads import Advertisement
from repro.core.matching import MatchType, RankedMatches, apply_match_type, excluded_by
from repro.core.queries import Query
from repro.kernels import numpy_available, probe
from repro.kernels.flat import flat_probe_keys
from repro.kernels.pipeline import bulk_membership, probe_keys
from repro.perf.prefilter import ProbePlan
from repro.resilience.deadline import Deadline, DegradedReason
from repro.segment.format import SHARED_FINGERPRINT, SegmentFormatError
from repro.segment.packed import PackedSegmentIndex, _Ranking

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None  # type: ignore[assignment]


def sig_words_array(buffer: Any) -> Any:
    """The segment's ``B^sig`` bit-array words as a zero-copy
    little-endian ``uint64`` numpy view over the mapped buffer."""
    return _np.frombuffer(buffer, dtype="<u8")


def split_by_query(
    hit_positions: Any, boundaries: Sequence[int]
) -> Any:
    """Split a batch-wide hit-position array back into per-query spans.

    ``boundaries`` holds each query's end offset in the concatenated
    key array (ascending); returns the index into ``hit_positions``
    where each query's hits end — one ``searchsorted``, no per-hit
    Python work.
    """
    return _np.searchsorted(
        hit_positions, _np.asarray(boundaries, dtype=_np.intp)
    )


def split_hits(
    keys_per: Sequence[Any],
    membership: Callable[[Any], tuple[Any, Any]],
) -> list[list[int]]:
    """One bulk membership pass over a batch's flat key arrays (numpy).

    ``keys_per`` holds one ``uint64`` key array per query;
    ``membership(all_keys)`` is the index's own test over their
    concatenation, returning the per-probe values to report (the keys,
    or their ``B^sig`` suffixes) and the ascending positions that hit.
    Returns each query's hit values in probe order — misses never
    surface into Python.
    """
    boundaries = list(accumulate(len(keys) for keys in keys_per))
    if not boundaries or not boundaries[-1]:
        return [[] for _ in keys_per]
    all_keys = _np.concatenate(keys_per) if len(keys_per) > 1 else keys_per[0]
    values, hits = membership(all_keys)
    # One C-speed conversion for the whole batch's (few) hits.
    hit_values: list[int] = values[hits].tolist()
    ends: list[int] = split_by_query(hits, boundaries).tolist()
    return [
        hit_values[start:end] for start, end in zip([0, *ends], ends)
    ]


class ParentPackedSegmentIndex(PackedSegmentIndex):
    """``PackedSegmentIndex`` probing the power set, as the parent did."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        self._sig_np: Any = None
        super().__init__(*args, **kwargs)
        if numpy_available():
            self._sig_np = sig_words_array(self.bsig.words)

    def close(self) -> None:
        self._sig_np = None  # drop the buffer export before releasing views
        super().close()

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
        top: int | None = None,
    ) -> list[Advertisement] | RankedMatches:
        """Broad match off the mapped file; phrase/exact verify on top.

        With ``top``, the ranked read: a :class:`RankedMatches` holding
        the exact match count, the exact count of matches an exclusion
        phrase drops, and the best ``top`` of the rest, the only ads it
        materialises (broad match only).  An expired ``deadline`` stops
        the scan before its next node; the partial result is flagged on
        the budget object, not returned silently.
        """
        plan = self.probe_plan(query.words)
        return self._probe(query, plan, match_type, deadline, None, top)

    def query_kernel_batch(
        self,
        queries: Iterable[Query],
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
        top: int | None = None,
    ) -> list[Any]:
        """:meth:`query` for every query of a batch (the entry point
        :class:`~repro.perf.batch.BatchQueryEngine` hands a deduplicated
        batch to), with one ``B^sig`` pass for all its bulk plans.  A
        batch's plans are memoized: a lone query's would only grow the
        memo."""
        batch = list(queries)
        plans = self._plan_memo.plans(batch, self.probe_plan)
        hits = self._bulk_hits(plans, deadline)
        return [
            self._probe(query, plan, match_type, deadline, hits.get(at), top)
            for at, (query, plan) in enumerate(zip(batch, plans))
        ]

    def _probe(
        self,
        query: Query,
        plan: ProbePlan,
        match_type: MatchType,
        deadline: Deadline | None,
        hits: tuple[list[int], int] | None = None,
        top: int | None = None,
    ) -> list[Advertisement] | RankedMatches:
        """The one probe body: the plan's keys, then :meth:`_scan`.

        A plan :func:`~repro.kernels.pipeline.bulk_membership` sends to
        bulk hands the scan only its hit suffixes and the number of keys
        tested (``hits``, from the batch's pass, or a pass of its own);
        any other streams its key generator through the scan's inline
        bit test.
        """
        if top is not None and match_type is not MatchType.BROAD:
            raise ValueError("a ranked read is broad match only")
        if hits is None and bulk_membership(plan):
            hits = self._bulk_hits([plan], deadline).get(0)
        keys: Iterable[int] = probe_keys(plan) if hits is None else hits[0]
        num_probes = None if hits is None else hits[1]
        if top is None:
            return self._scan(query, plan, keys, match_type, deadline, num_probes)
        return self._scan(query, plan, keys, match_type, deadline, num_probes, top)

    def _bulk_hits(
        self, plans: list[ProbePlan], deadline: Deadline | None
    ) -> dict[int, tuple[list[int], int]]:
        """One ``B^sig`` pass over the flat keys of every plan
        :func:`~repro.kernels.pipeline.bulk_membership` sends to bulk:
        each one's hit suffixes and key count, by position.  A budget
        spent on entry runs no pass: those plans stream, and their scans
        stop before the first key, probing nothing."""
        if deadline is not None and deadline.expired():
            return {}
        flat = {
            at: flat_probe_keys(plan.candidates, plan.sizes)
            for at, plan in enumerate(plans)
            if bulk_membership(plan)
        }
        if not flat:
            return {}
        per_plan = split_hits(list(flat.values()), self._sig_hits)
        return {
            at: (plan_hits, len(keys))
            for (at, keys), plan_hits in zip(flat.items(), per_plan)
        }

    def _scan(
        self,
        query: Query,
        plan: ProbePlan,
        keys: Iterable[int],
        match_type: MatchType,
        deadline: Deadline | None = None,
        num_probes: int | None = None,
        top: int | None = None,
    ) -> list[Advertisement] | RankedMatches:
        """Test ``keys`` against ``B^sig`` and the node fingerprints in
        probe-enumeration order and scan the hit nodes.  ``keys`` is a
        streamed plan's whole key stream, or a bulk plan's keys that hit
        ``B^sig`` with ``num_probes`` saying how many keys the bulk pass
        tested (masking and re-testing a hit key is idempotent).  A
        ``deadline`` is checked before the first key and before each
        node read.

        Without ``top`` every matching ad is listed.  With it each node
        is walked in rank order (as runs when cached, else by
        :meth:`_rank_record` off the bytes) and only the ads a
        :class:`RankedMatches` keeps are built, at the end."""
        obs = self._obs
        started = perf_counter() if obs is not None else 0.0
        words = plan.words
        query_len = len(words)
        tracker = self.tracker
        suffix_bits = self.suffix_bits
        suffix_mask = (1 << suffix_bits) - 1
        sig_words = self.bsig.words
        sig_ranks = self._sig_ranks
        fingerprints = self._fingerprints
        shared = SHARED_FINGERPRINT
        cache = self._node_cache
        ranking = None if top is None else _Ranking(top, query.words)
        results: list[Advertisement] = []
        extend = results.extend
        visited: set[int] = set()
        probes = 0
        node_scans = 0
        entries_scanned = 0
        cache_hits = 0
        rejects = 0
        # The budget is checked before the first key and before each node
        # read, so a cut lands between nodes.
        cut = deadline is not None and deadline.expired()
        if cut:
            keys = ()
        for probes, key in enumerate(keys, 1):
            suffix = key & suffix_mask
            # Inlined B^sig bit test: the overwhelmingly common miss costs
            # one word load, no call.  A hit ranks off the same word.
            word_index = suffix >> 6
            word = sig_words[word_index]
            bit = suffix & 63
            if not (word >> bit) & 1 or suffix in visited:
                continue
            node_index = (
                sig_ranks[word_index] + (word & ((1 << bit) - 1)).bit_count()
            )
            # The fingerprint test (:func:`~repro.segment.format.fingerprint`,
            # inlined): a key of another locator with the node's suffix
            # is turned away unread.  It does not mark the suffix, since
            # a later key may be the node's own locator.
            mark = fingerprints[node_index]
            if mark != shared and mark != ((key >> suffix_bits) & 0xFF or 1):
                rejects += 1
                continue
            visited.add(suffix)
            if deadline is not None and deadline.expired():
                cut = True
                break
            node_scans += 1
            runs = cache.get(node_index)
            hit = runs is not None
            if hit:
                cache_hits += 1
            else:
                # A ranked read never admits.  Admitting is a full
                # decode, which costs several ranked reads of the node,
                # so a ranked query got cheaper as the cache filled.
                runs = self._admit(node_index) if ranking is None else None
                if runs is None:
                    chunk = self._node_chunk(node_index)
                    if ranking is None:
                        runs, consumed = self._decode_entries(chunk, query_len)
                    else:
                        scanned, consumed = self._rank_record(
                            chunk, words, ranking
                        )
                    if tracker is not None:
                        tracker.random_access(consumed)
            if runs is None:
                pass  # ranked off the bytes above
            elif ranking is not None:
                # The ranked walk over decoded runs: a matching run's
                # carriers (its leading ads with exclusion phrases) are
                # all tested and offered unless excluded, then its other
                # ads in rank order until one falls below the floor.  A
                # rank is the auction's at quality 1, ``bid * 1.0``.
                scanned = 0
                floor = ranking.floor
                position = ranking.matched
                query_words = ranking.query_words
                try:
                    for run_words, run in runs:
                        if len(run_words) > query_len:
                            break
                        if not run_words <= words:
                            continue
                        for at, ad in enumerate(run, position):
                            info = ad.info
                            rank = info.bid_price_micros * 1.0
                            exclusions = info.exclusion_phrases
                            if exclusions and excluded_by(exclusions, query_words):
                                ranking.excluded += 1
                            elif rank >= floor:
                                ranking.keep(rank, info.listing_id, at, ad)
                                floor = ranking.floor
                            elif not exclusions:
                                break
                            scanned += 1
                        position += len(run)
                except OverflowError as exc:
                    raise SegmentFormatError(
                        f"malformed node record: bid out of range: {exc}"
                    ) from exc
                ranking.matched = position
            else:
                # A hit is charged for the entries up to the length cut;
                # a decode for every entry it decoded (a run longer than
                # the query fails the subset test by size).
                scanned = 0
                for run_words, run in runs:
                    if hit and len(run_words) > query_len:
                        break
                    scanned += len(run)
                    if run_words <= words:
                        extend(run)
            entries_scanned += scanned
            if tracker is not None:
                tracker.candidate(scanned)
        if cut and deadline is not None:
            deadline.mark_partial(DegradedReason.DEADLINE)
            if obs is not None:
                obs.counter("resilience.deadline_partials").inc()
        if num_probes is not None:
            probes = num_probes
        if ranking is None:
            matched = len(results)
        else:
            matched = ranking.matched
            # In the full match list's order: ``-position`` descending.
            ranked = tuple(
                item if type(item) is Advertisement else self._materialise(item)
                for *_, item in sorted(ranking.heap, key=itemgetter(2), reverse=True)
            )
            if obs is not None:
                self._ads_materialised.inc(
                    sum(type(item) is not Advertisement for *_, item in ranking.heap)
                )
        if tracker is not None:
            # Every probed subset is one random ``B^sig`` word read, hit
            # or miss (Section IV's ``Cost_Random`` per lookup).
            tracker.hash_probe(8, probes)
            tracker.query_done()
        if obs is not None:
            amounts = (
                1,
                probes,
                node_scans,
                entries_scanned,
                matched,
                cache_hits,
                node_scans - cache_hits,
                rejects,
            )
            for counter, amount in zip(self._counters, amounts):
                counter.inc(amount)
            self._cache_gauge.set(float(self._cache_used))
            span = self._scan_span
            if span is None:
                span = self._scan_span = obs.histogram("span.segment_query")
            span.observe((perf_counter() - started) * 1e3)
        if ranking is not None:
            return RankedMatches(matched, ranking.excluded, ranked)
        return apply_match_type(results, query, match_type)

    def _sig_hits(self, all_keys: Any) -> tuple[Any, Any]:
        """Bulk ``B^sig`` membership: the keys themselves (the scan's
        fingerprint test needs their bits above the suffix) and the
        positions whose bit is set."""
        suffixes = all_keys & all_keys.dtype.type(
            (1 << self.suffix_bits) - 1
        )
        # Looked up on the module at call time: ``bench/`` wraps it.
        return all_keys, probe.sig_hit_positions(suffixes, self._sig_np)
