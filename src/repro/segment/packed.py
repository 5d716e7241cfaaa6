"""``PackedSegmentIndex``: the mmap-backed, zero-copy serving index.

Opens a segment file written by :class:`repro.segment.builder.SegmentBuilder`
and answers queries directly off the mapping: no node objects are
materialized at load, and a probe decodes only the node records it
actually scans (early-terminating on the word-count order, so a short
query never touches long phrases).

The query path is the Fig 6 lookup with the PR 1 probe plan in front:

1. :func:`repro.kernels.pipeline.plan_query` prunes subset enumeration
   using the locator vocabulary and size histogram persisted in the
   segment header — the packed path plans probes *identically* to the
   ``WordSetIndex`` it was built from;
2. each probe key's ``s``-bit suffix tests one bit of ``B^sig``: inlined
   word access with no function call on the miss path for a streamed
   plan, one vectorized pass over a batch's bulk plans (plans with at
   least :data:`~repro.kernels.pipeline.BULK_MIN_KEYS` keys, numpy only);
3. a hit's node ordinal is one entry of a per-word ``B^sig`` rank
   directory plus a popcount of the word just tested; it indexes
   ``B^off``, materialized as a flat ``array('Q')`` at load time (the
   fully sampled select dictionary), and the node record is decoded,
   front-decoding phrases and delta-decoding bids incrementally.

A node stores every ad of one word-set together (condition IV), so
whether its ads match a query is a property of the word-set, not of
each ad.  A decoded node is therefore a list of **runs**: consecutive
entries sharing one word-set object, as ``(word_set, ads)`` pairs in
entry order (within a record word-sets are shared by value, so the
phrase orders of one word-set share a run).  The scan makes one length
cut, one subset test and one ``list.extend`` per run.

Serving reality check: a Python-level entry decode can never race a
pointer chase through live objects, so the index keeps a **bounded
decoded-node cache** (the block-cache every packed serving tier runs).
It is the one owner of decoded ads: nodes are admitted fully decoded
(as runs) until ``cache_bytes`` is spent, after which admission stops —
no eviction churn — and nothing else keeps an ad, phrase or word-set
past the query that decoded it.  The charge counts each cached ad once
and is part of :meth:`resident_bytes`, so what decoding retains is
bounded by ``cache_bytes``.  Hot nodes serve at materialized-object
speed while the corpus stays packed; a node beyond the budget is
decoded afresh on every scan.

Implements the :class:`repro.core.protocols.RetrievalIndex` protocol.
The structure is immutable; inserts/deletes are the job of the overlay
and tombstones in :class:`repro.segment.tiered.TieredSegmentedIndex`.
"""

from __future__ import annotations

import hashlib
import mmap
from array import array
from collections.abc import Iterable, Iterator
from itertools import accumulate
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.compress.bitvector import BitVector
from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType, apply_match_type
from repro.core.queries import Query
from repro.core.wordhash import hash_suffix, wordhash
from repro.cost.accounting import AccessTracker
from repro.kernels import numpy_available, probe
from repro.kernels.flat import flat_probe_keys
from repro.kernels.pipeline import (
    PlanMemo,
    bulk_membership,
    plan_query,
    probe_keys,
    split_hits,
)
from repro.obs.registry import Histogram, MetricsRegistry, active_or_none
from repro.perf.prefilter import ProbePlan
from repro.resilience.deadline import Deadline, DegradedReason
from repro.segment.format import (
    SegmentFormatError,
    read_header,
    read_varint,
    section_bounds,
)
from repro.segment.sizing import deep_sizeof, runs_sizeof

#: Default decoded-node cache budget, per open segment.  Sized from a
#: measured working set: fully decoded, the 100 k-ad benchmark segment
#: charges 37.3 MB; its long-query workload (seed 1) reaches 15 712 of
#: the 17 494 nodes, and 32 MiB admits 15 318 of them.  Over seven seeds
#: that workload's batch p50 was 13.44 ms at 32 MiB, 13.48 ms at 64 MiB
#: and 14.72 ms at 16 MiB (2-core host), so 32 MiB is the smallest power
#: of two as fast as holding the whole segment.  Resident state stays
#: O(traffic) up to this bound, while the dict index is O(corpus).
DEFAULT_CACHE_BYTES = 32 << 20

_NEW_AD = object.__new__
_SET = object.__setattr__

#: A decoded node: ``(word_set, ads)`` runs in entry order.
_Runs = list[tuple[frozenset[str], list[Advertisement]]]


#: ``(name, help)`` of the counters ``_scan`` bumps, in its order.
_SCAN_COUNTERS = (
    ("segment.queries", "Queries served off segments"),
    ("segment.probes", "B^sig probes issued"),
    ("segment.node_scans", "Packed nodes scanned"),
    ("segment.entries_scanned", "Entries examined during node scans"),
    ("segment.results", "Matching ads returned"),
    ("segment.cache_hits", "Node scans served decoded"),
    ("segment.cache_misses", "Node scans that paid a decode"),
)


class PackedSegmentIndex:
    """Read-only broad-match index served from a mapped segment file."""

    #: Capability marker: ``query`` accepts a ``deadline`` budget.
    supports_deadline = True

    def __init__(
        self,
        path: str | Path,
        tracker: AccessTracker | None = None,
        obs: MetricsRegistry | None = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self.path = Path(path)
        self.tracker = tracker
        self._obs: MetricsRegistry | None = None
        self._closed = False
        self._views: list[memoryview] = []
        self._cache_budget = max(0, cache_bytes)
        self._cache_used = 0
        self._cache_open = self._cache_budget > 0
        self._node_cache: dict[int, _Runs] = {}
        #: The segment is immutable, so memoized plans never go stale.
        self._plan_memo = PlanMemo()
        #: ``B^sig`` words as a zero-copy numpy view (numpy backend only).
        self._sig_np: Any = None
        try:
            with self.path.open("rb") as handle:
                try:
                    self._mmap = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except ValueError as exc:
                    raise SegmentFormatError(
                        f"cannot map segment {self.path}: {exc}"
                    ) from exc
        except OSError as exc:
            raise SegmentFormatError(
                f"cannot open segment {self.path}: {exc}"
            ) from exc
        try:
            self._load()
        except BaseException:
            self.close()
            raise
        self.bind_obs(obs)

    def _load(self) -> None:
        view = memoryview(self._mmap)
        self._views.append(view)
        header, payload_start = read_header(view)
        payload = view[payload_start:]
        self._views.append(payload)

        try:
            self.suffix_bits = int(header["suffix_bits"])
            raw_max_words = header["max_words"]
            self.max_words = (
                None if raw_max_words is None else int(raw_max_words)
            )
            self.max_query_words = int(header["max_query_words"])
            self.fast_path = bool(header.get("fast_path", True))
            self.generation = int(header.get("generation", 0))
            self._num_ads = int(header["num_ads"])
            self._num_nodes = int(header["num_nodes"])
            self._vocab = {
                str(word): int(count)
                for word, count in dict(header["vocab"]).items()
            }
            self._size_histogram = {
                int(size): int(count)
                for size, count in dict(header["size_histogram"]).items()
            }
            self._placements = {
                frozenset(str(w) for w in words): frozenset(
                    str(w) for w in locator
                )
                for words, locator in list(header["placements"])
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise SegmentFormatError(
                f"segment header missing or malformed field: {exc}"
            ) from exc
        if not 1 <= self.suffix_bits <= 48:
            raise SegmentFormatError("suffix_bits out of range in header")

        # The one layout SegmentBuilder writes, checked before any view is
        # cast: each section starts where the last one's 64-bit words end.
        bsig_off, bsig_bits = section_bounds(header, "bsig")
        boff_off, boff_bits = section_bounds(header, "boff")
        nodes_off, nodes_len = section_bounds(header, "nodes")
        if (
            (bsig_off, bsig_bits) != (0, 1 << self.suffix_bits)
            or boff_off != (bsig_bits + 63) // 64 * 8
            or boff_bits != max(nodes_len, 1)
            or nodes_off != boff_off + (boff_bits + 63) // 64 * 8
        ):
            raise SegmentFormatError(
                "segment sections disagree with the layout of suffix_bits"
            )
        if len(payload) != nodes_off + nodes_len:
            raise SegmentFormatError(
                "segment payload truncated or oversized"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise SegmentFormatError(
                "segment checksum mismatch: file corrupt"
            )

        bsig_view = payload[bsig_off:boff_off]
        boff_view = payload[boff_off:nodes_off]
        nodes_view = payload[nodes_off:]
        self._views.extend((bsig_view, boff_view, nodes_view))
        self.bsig = BitVector.from_buffer(bsig_view, bsig_bits)
        self.boff = BitVector.from_buffer(boff_view, boff_bits)
        if numpy_available():
            # Zero-copy u64 view for the vectorized bulk bit-test; must
            # be dropped before the mmap views are released on close.
            self._sig_np = probe.sig_words_array(bsig_view)
        self._nodes_buf = nodes_view
        self._nodes_len = nodes_len

        # Per-word rank directory over B^sig: the ones before each 64-bit
        # word (built from a list, so the array is allocated to size).
        counts = map(int.bit_count, self.bsig.words)
        ranks = array("I", list(accumulate(counts, initial=0)))
        ones = ranks.pop()
        self._sig_ranks = ranks

        # Fully materialized select directory over B^off: the j-th set
        # bit's position (the j-th node's byte offset), extracted in one
        # linear pass.  Node lookup becomes a rank plus one index.
        offsets = array("Q")
        boff_words = self.boff.words
        for word_index in range(len(boff_view) // 8):
            word = boff_words[word_index]
            base = word_index * 64
            while word:
                low = word & -word
                offsets.append(base + low.bit_length() - 1)
                word ^= low
        self._node_offsets = offsets

        if ones != self._num_nodes or len(offsets) != self._num_nodes:
            raise SegmentFormatError(
                "bit-array population disagrees with header node count"
            )
        # Token intern table, seeded with the vocabulary strings already
        # resident in the header state: decoded phrases share one string
        # object per distinct token instead of one per occurrence.
        self._token_intern = {word: word for word in self._vocab}

    # ------------------------------------------------------------------ #
    # Lifecycle

    def close(self) -> None:
        """Release every exported view and unmap the file."""
        if self._closed:
            return
        self._closed = True
        self._node_cache.clear()
        self._plan_memo.cache.clear()
        self._sig_np = None  # drop the buffer export before releasing views
        for packed in (getattr(self, "bsig", None), getattr(self, "boff", None)):
            if packed is not None:
                packed.release()
        for view in self._views:
            view.release()
        self._views.clear()
        self._mmap.close()

    def __enter__(self) -> PackedSegmentIndex:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def bind_obs(self, obs: MetricsRegistry | None) -> None:
        """Attach (or detach, with ``None``) a metrics registry."""
        obs = active_or_none(obs)
        self._obs = obs
        self._scan_span: Histogram | None = None
        if obs is not None:
            obs.gauge(
                "segment.bytes", help="Mapped segment file size"
            ).set(float(len(self._mmap)))
            # Bound once, not nine lookups a scan; the span's histogram at
            # the first scan, so no empty timing is listed.
            self._cache_gauge = obs.gauge(
                "segment.cache_bytes", help="Decoded-node cache residency"
            )
            self._cache_gauge.set(float(self._cache_used))
            self._counters = [
                obs.counter(name, help=text) for name, text in _SCAN_COUNTERS
            ]

    # ------------------------------------------------------------------ #
    # Query processing

    def probe_plan(
        self, words: frozenset[str], deadline: Deadline | None = None
    ) -> ProbePlan:
        """:func:`repro.kernels.pipeline.plan_query` over the header's
        persisted prefilter state — probe-for-probe identical to the
        source ``WordSetIndex``, and degraded by a ``deadline`` exactly
        as the mutable index is.
        """
        return plan_query(
            words,
            deadline,
            fast_path=self.fast_path,
            vocabulary=self._vocab,
            size_histogram=self._size_histogram,
            max_words=self.max_words,
            max_query_words=self.max_query_words,
        )

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Broad match off the mapped file; phrase/exact verify on top.

        An expired ``deadline`` stops the scan before its next node; the
        partial result is flagged on the budget object, not returned
        silently.
        """
        plan = self.probe_plan(query.words, deadline)
        return self._probe(query, plan, match_type, deadline)

    def query_kernel_batch(
        self,
        queries: Iterable[Query],
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[list[Advertisement]]:
        """:meth:`query` for every query of a batch (the entry point
        :class:`~repro.perf.batch.BatchQueryEngine` hands a deduplicated
        batch to), with one ``B^sig`` pass for all its bulk plans.  A
        batch's plans are memoized: a lone query's would only grow the
        memo."""
        batch = list(queries)
        plans = self._plan_memo.plans(batch, deadline, self.probe_plan)
        hits = self._bulk_hits(plans, deadline)
        return [
            self._probe(query, plan, match_type, deadline, hits.get(at))
            for at, (query, plan) in enumerate(zip(batch, plans))
        ]

    def _probe(
        self,
        query: Query,
        plan: ProbePlan,
        match_type: MatchType,
        deadline: Deadline | None,
        hits: tuple[list[int], int] | None = None,
    ) -> list[Advertisement]:
        """The one probe body: the plan's keys, then :meth:`_scan`.

        A plan :func:`~repro.kernels.pipeline.bulk_membership` sends to
        bulk hands the scan only its hit suffixes and the number of keys
        tested (``hits``, from the batch's pass, or a pass of its own);
        any other streams its key generator through the scan's inline
        bit test.
        """
        if hits is None and bulk_membership(plan):
            hits = self._bulk_hits([plan], deadline).get(0)
        if hits is None:
            return self._scan(query, plan, probe_keys(plan), match_type, deadline)
        hit_suffixes, num_probes = hits
        return self._scan(
            query, plan, hit_suffixes, match_type, deadline, num_probes
        )

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
    ) -> list[Advertisement]:
        """Test ``keys`` against ``B^sig`` in probe-enumeration order
        and scan the hit nodes.  ``keys`` is a streamed plan's whole key
        stream, or a bulk plan's hit suffixes with ``num_probes`` saying
        how many keys the bulk pass tested (masking and re-testing a hit
        suffix is idempotent).  A ``deadline`` is checked before the
        first key and before each node scan."""
        obs = self._obs
        started = perf_counter() if obs is not None else 0.0
        words = plan.words
        query_len = len(words)
        tracker = self.tracker
        suffix_mask = (1 << self.suffix_bits) - 1
        sig_words = self.bsig.words
        sig_ranks = self._sig_ranks
        cache = self._node_cache
        results: list[Advertisement] = []
        extend = results.extend
        visited: set[int] = set()
        probes = 0
        node_scans = 0
        entries_scanned = 0
        cache_hits = 0
        # The budget is checked before the first key and before each node
        # scan, so a cut lands between nodes.
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
            visited.add(suffix)
            if deadline is not None and deadline.expired():
                cut = True
                break
            node_index = (
                sig_ranks[word_index] + (word & ((1 << bit) - 1)).bit_count()
            )
            node_scans += 1
            runs = cache.get(node_index)
            if runs is not None:
                # A hit is charged for the entries up to the length cut.
                cache_hits += 1
                scanned = 0
                for run_words, run in runs:
                    if len(run_words) > query_len:
                        break
                    scanned += len(run)
                    if run_words <= words:
                        extend(run)
            else:
                # A decode is charged for every entry it decoded; a run
                # longer than the query fails the subset test by size.
                runs = self._admit(node_index)
                if runs is None:
                    chunk = self._node_chunk(node_index)
                    runs, consumed = self._decode_entries(chunk, query_len)
                    if tracker is not None:
                        tracker.random_access(consumed)
                scanned = 0
                for run_words, run in runs:
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
                len(results),
                cache_hits,
                node_scans - cache_hits,
            )
            for counter, amount in zip(self._counters, amounts):
                counter.inc(amount)
            self._cache_gauge.set(float(self._cache_used))
            span = self._scan_span
            if span is None:
                span = self._scan_span = obs.histogram("span.segment_query")
            span.observe((perf_counter() - started) * 1e3)
        return apply_match_type(results, query, match_type)

    def _sig_hits(self, all_keys: Any) -> tuple[Any, Any]:
        """Bulk ``B^sig`` membership: the keys' suffixes and the
        positions whose bit is set."""
        suffixes = all_keys & all_keys.dtype.type(
            (1 << self.suffix_bits) - 1
        )
        # Looked up on the module at call time: ``bench/`` wraps it.
        return suffixes, probe.sig_hit_positions(suffixes, self._sig_np)

    # ------------------------------------------------------------------ #
    # Node decoding

    def _node_chunk(self, node_index: int) -> bytes:
        """The node's exact byte range, copied out of the mapping (a few
        hundred bytes; ``bytes`` indexing is what makes the varint loop
        fast)."""
        offsets = self._node_offsets
        start = offsets[node_index]
        end = (
            offsets[node_index + 1]
            if node_index + 1 < len(offsets)
            else self._nodes_len
        )
        return bytes(self._nodes_buf[start:end])

    def _decode_entries(
        self, chunk: bytes, max_word_count: int | None
    ) -> tuple[_Runs, int]:
        """Decode one node record into runs of materialized ads.

        A run is a maximal stretch of consecutive entries that share one
        word-set object, returned as a ``(word_set, ads)`` pair; runs
        come in entry order.  ``max_word_count`` stops the decode at
        the first entry longer than the query (entries are stored
        word-count-ordered); ``None`` decodes every entry (cache
        admission, :meth:`iter_ads`, compaction).  Returns the runs and
        the bytes consumed.

        Zigzag doubles the bid delta, the listing id and the campaign id,
        so those three are multi-byte on nearly every entry: their
        continuation bytes are decoded inline.  Counts and lengths (entry
        and word counts, shared and suffix token counts, token and
        exclusion lengths) almost always fit one byte, which is inlined,
        with :func:`read_varint` for the rest.  Ads are built fresh by
        direct slot assignment (what the frozen dataclass ``__init__``
        does anyway); only tokens are shared across decodes, through the
        O(vocabulary) token table.  Phrase tuples and word-sets are
        shared *within the record*: condition IV keeps all ads of one
        word-set in one node, so a per-record table by value is enough
        for every phrase order of a word-set to form one run.  Nothing a
        decode builds outlives its caller unless the node cache admits
        it, so what decoding retains is bounded by ``cache_bytes``.  One
        token scratch list is reused across the node's entries.

        The record is untrusted input: one that is truncated, indexes
        past its end, holds invalid UTF-8, or (fully decoded) does not
        end exactly at its last byte raises :class:`SegmentFormatError`.
        """
        intern = self._token_intern
        phrases: dict[
            tuple[str, ...], tuple[tuple[str, ...], frozenset[str]]
        ] = {}
        word_sets: dict[frozenset[str], frozenset[str]] = {}
        tokens: list[str] = []
        runs: _Runs = []
        run_words: frozenset[str] | None = None
        run: list[Advertisement] = []
        pos = price_pos = prices_end = 0
        try:
            num_entries = chunk[pos]
            pos += 1
            if num_entries >= 128:
                num_entries, pos = read_varint(chunk, pos - 1)
            prices_len = chunk[pos]
            pos += 1
            if prices_len >= 128:
                prices_len, pos = read_varint(chunk, pos - 1)
            price_pos = pos
            pos += prices_len
            prices_end = pos
            price = 0
            for _ in range(num_entries):
                word_count = chunk[pos]
                pos += 1
                if word_count >= 128:
                    word_count, pos = read_varint(chunk, pos - 1)
                if max_word_count is not None and word_count > max_word_count:
                    break
                raw = chunk[price_pos]
                price_pos += 1
                if raw >= 128:
                    raw &= 127
                    shift = 7
                    while True:
                        byte = chunk[price_pos]
                        price_pos += 1
                        raw |= (byte & 127) << shift
                        if byte < 128:
                            break
                        shift += 7
                # The first delta is coded against 0.
                price += (raw >> 1) ^ -(raw & 1)
                shared = chunk[pos]
                pos += 1
                if shared >= 128:
                    shared, pos = read_varint(chunk, pos - 1)
                num_suffix = chunk[pos]
                pos += 1
                if num_suffix >= 128:
                    num_suffix, pos = read_varint(chunk, pos - 1)
                del tokens[shared:]
                for _ in range(num_suffix):
                    token_len = chunk[pos]
                    pos += 1
                    if token_len >= 128:
                        token_len, pos = read_varint(chunk, pos - 1)
                    end = pos + token_len
                    token = chunk[pos:end].decode("utf-8")
                    pos = end
                    tokens.append(intern.setdefault(token, token))
                phrase = tuple(tokens)
                shared_phrase = phrases.get(phrase)
                if shared_phrase is None:
                    value = frozenset(phrase)
                    shared_phrase = (phrase, word_sets.setdefault(value, value))
                    phrases[phrase] = shared_phrase
                phrase, word_set = shared_phrase
                raw_listing = chunk[pos]
                pos += 1
                if raw_listing >= 128:
                    raw_listing &= 127
                    shift = 7
                    while True:
                        byte = chunk[pos]
                        pos += 1
                        raw_listing |= (byte & 127) << shift
                        if byte < 128:
                            break
                        shift += 7
                raw_campaign = chunk[pos]
                pos += 1
                if raw_campaign >= 128:
                    raw_campaign &= 127
                    shift = 7
                    while True:
                        byte = chunk[pos]
                        pos += 1
                        raw_campaign |= (byte & 127) << shift
                        if byte < 128:
                            break
                        shift += 7
                num_exclusions = chunk[pos]
                pos += 1
                if num_exclusions >= 128:
                    num_exclusions, pos = read_varint(chunk, pos - 1)
                exclusions: tuple[str, ...] = ()
                if num_exclusions:
                    decoded: list[str] = []
                    for _ in range(num_exclusions):
                        text_len = chunk[pos]
                        pos += 1
                        if text_len >= 128:
                            text_len, pos = read_varint(chunk, pos - 1)
                        end = pos + text_len
                        decoded.append(chunk[pos:end].decode("utf-8"))
                        pos = end
                    exclusions = tuple(decoded)
                ad = _NEW_AD(Advertisement)
                _SET(ad, "phrase", phrase)
                _SET(
                    ad,
                    "info",
                    AdInfo(
                        listing_id=(raw_listing >> 1) ^ -(raw_listing & 1),
                        campaign_id=(raw_campaign >> 1) ^ -(raw_campaign & 1),
                        bid_price_micros=price,
                        exclusion_phrases=exclusions,
                    ),
                )
                _SET(ad, "words", word_set)
                if word_set is not run_words:
                    run_words = word_set
                    run = []
                    runs.append((word_set, run))
                run.append(ad)
        except (IndexError, UnicodeDecodeError) as exc:
            raise SegmentFormatError(f"malformed node record: {exc}") from exc
        # A slice running past the end shortens a string instead of
        # raising, so the cursors are checked once, here.
        size = len(chunk)
        if (
            pos > size
            or price_pos > prices_end
            or (max_word_count is None and (pos, price_pos) != (size, prices_end))
        ):
            raise SegmentFormatError(
                "malformed node record: fields run past its end or stop short"
            )
        return runs, pos

    def _admit(self, node_index: int) -> _Runs | None:
        """Decode a node fully and cache it if the budget allows.

        Admission is first-come until ``cache_bytes`` is spent, then
        stops for good — no eviction churn, a strict bound, and (unlike
        LRU) no pathological thrash under cyclic workloads.  Returns the
        decoded runs either way, or ``None`` when admission has stopped so
        the caller uses the early-terminating direct scan instead.
        """
        if not self._cache_open:
            return None
        runs, _ = self._decode_entries(self._node_chunk(node_index), None)
        # Conservative charge: exactly a per-node deep walk, computed from
        # the runs' known shape; it counts each of the node's ads once and
        # double-counts the tokens shared across nodes, so the bound errs
        # toward over-charging.
        charge = runs_sizeof(runs)
        if self._cache_used + charge <= self._cache_budget:
            self._node_cache[node_index] = runs
            self._cache_used += charge
        else:
            self._cache_open = False
        return runs

    # ------------------------------------------------------------------ #
    # Point access

    def _node_index_for(self, locator: frozenset[str]) -> int | None:
        """Index of the node a locator addresses, or ``None``."""
        suffix = hash_suffix(wordhash(locator), self.suffix_bits)
        word = self.bsig.words[suffix >> 6]
        bit = suffix & 63
        if not (word >> bit) & 1:
            return None
        rank_in_word = (word & ((1 << bit) - 1)).bit_count()
        return self._sig_ranks[suffix >> 6] + rank_in_word

    def lookup_count(self, ad: Advertisement) -> int:
        """Occurrences of exactly ``ad`` stored in the segment.

        A point lookup, not a query: the header's persisted placements
        route the ad's word-set to the one node that could hold it.  A
        locator with a word outside the header vocabulary addresses no
        stored ad and is answered without hashing; candidates are
        compared by ``listing_id`` before full ``Advertisement`` equality.
        """
        locator = self._placements.get(ad.words, ad.words)
        if not self._vocab.keys() >= locator:
            return 0
        node_index = self._node_index_for(locator)
        if node_index is None:
            return 0
        runs = self._node_cache.get(node_index)
        if runs is None:
            runs, _ = self._decode_entries(
                self._node_chunk(node_index), len(ad.words)
            )
        listing_id = ad.info.listing_id
        return sum(
            1
            for _, run in runs
            for candidate in run
            if candidate.info.listing_id == listing_id and candidate == ad
        )

    def iter_ads(self) -> Iterator[Advertisement]:
        """Every stored ad, in node order (full sequential decode)."""
        for node_index in range(self._num_nodes):
            runs = self._node_cache.get(node_index)
            if runs is None:
                runs, _ = self._decode_entries(
                    self._node_chunk(node_index), None
                )
            for _, run in runs:
                yield from run

    def placements(self) -> dict[frozenset[str], frozenset[str]]:
        """The persisted non-identity word-set -> locator placements."""
        return dict(self._placements)

    # ------------------------------------------------------------------ #
    # Introspection

    def __len__(self) -> int:
        return self._num_ads

    def num_nodes(self) -> int:
        return self._num_nodes

    def segment_bytes(self) -> int:
        """Size of the mapped file."""
        return len(self._mmap)

    def cache_bytes_used(self) -> int:
        """Charged residency of the decoded-node cache."""
        return self._cache_used

    def resident_bytes(self) -> int:
        """Honest resident footprint: the mapped file plus every
        Python-side auxiliary object — header dicts, rank directories,
        the node-offset array, the token table, the plan memo and the
        decoded-node cache — deep-counted with identity dedup."""
        return len(self._mmap) + deep_sizeof(
            self._vocab,
            self._size_histogram,
            self._placements,
            self._token_intern,
            self._plan_memo.cache,
            self._node_cache,
            self._node_offsets,
            self._sig_ranks,
            self.bsig,
            self.boff,
            exclude=(self._mmap, *self._views),
        )

    def stats(self) -> dict[str, Any]:
        """Structural statistics (the :class:`RetrievalIndex` surface)."""
        return {
            "num_ads": self._num_ads,
            "num_nodes": self._num_nodes,
            "segment_bytes": len(self._mmap),
            "resident_bytes": self.resident_bytes(),
            "suffix_bits": self.suffix_bits,
            "generation": self.generation,
            "bsig_bits": len(self.bsig),
            "boff_bits": len(self.boff),
            "node_bytes": self._nodes_len,
            "cached_nodes": len(self._node_cache),
            "cache_bytes_used": self._cache_used,
        }
