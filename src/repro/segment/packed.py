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
   directory plus a popcount of the word just tested;
4. the node's fingerprint byte (format version 3) is compared with the
   key's bits above the suffix: a mismatch is a suffix collision with
   another locator, turned away unread.  A node several locators share
   by suffix carries the shared mark and passes every key;
5. the ordinal indexes ``B^off``, materialized as a flat ``array('Q')``
   at load time (the fully sampled select dictionary), and the node
   record is read.

A node record (:func:`repro.segment.builder.encode_node`)
is a table of word-set rows, each followed by its entries: carriers
(ads with exclusion phrases) first, then the rest in the auction's own
order ``(-bid, listing_id)``.  A node stores every ad of one word-set
together (condition IV), so whether its ads match a query is a property
of the row, not of each ad.  A decoded node is therefore a list of
**runs**, one ``(word_set, ads)`` pair per row.  The scan makes one
length cut, one subset test and one ``list.extend`` per run.

The **ranked read** (``query(..., top=k)``) serves an auction that
shows at most ``k - 1`` ads: it counts every match from the rows, tests
every matching carrier's exclusion phrases as it reads it (counting
those excluded) and walks each matching row's other entries only while
their bid can still enter the best ``k``, keeping the running floor
across nodes.  Only the kept
entries become ``Advertisement`` objects, once the scan is over
(:class:`~repro.core.matching.RankedMatches`).  It walks a cached node
as runs and reads any other node off the bytes; it never admits one,
so its cost stays the same while the node cache fills.

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
import heapq
import math
import mmap
from array import array
from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from time import perf_counter
from typing import Any, overload

from repro.compress.bitvector import BitVector
from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import MatchType, RankedMatches, apply_match_type, excluded_by
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
    SHARED_FINGERPRINT,
    SegmentFormatError,
    fingerprint,
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

#: A decoded node: one ``(word_set, ads)`` run per word-set row, in
#: record order, each run's ads in the row's order (carriers first).
_Runs = list[tuple[frozenset[str], list[Advertisement]]]


class _Ranking:
    """One ranked read in progress.

    ``heap`` keeps the best ``top`` matches no exclusion phrase drops,
    keyed ``(rank, -listing_id, -position)`` as
    :func:`~repro.serving.auction.run_gsp_auction` keys its own (the
    root is the worst kept), and ``floor`` is that root's rank once the
    heap is full; ``excluded`` counts the matches whose exclusion
    phrases fold into ``query_words``, the query's whole word-set.
    ``matched`` counts the matches so far, so it is also the next
    match's position in the full match list.  A kept item is an
    ``Advertisement`` when it came from a decoded node, else the fields
    :meth:`PackedSegmentIndex._materialise` builds one from.
    """

    __slots__ = ("top", "query_words", "heap", "floor", "excluded", "matched")

    def __init__(self, top: int, query_words: frozenset[str]) -> None:
        self.top = top
        self.query_words = query_words
        self.heap: list[tuple[float, int, int, Any]] = []
        self.floor = -math.inf
        self.excluded = 0
        self.matched = 0

    def keep(self, rank: float, listing_id: int, position: int, item: Any) -> None:
        """Offer a match no exclusion drops that is not below the floor."""
        heap = self.heap
        entry = (rank, -listing_id, -position, item)
        if len(heap) < self.top:
            heapq.heappush(heap, entry)
            if len(heap) < self.top:
                return
        else:
            heapq.heappushpop(heap, entry)
        self.floor = heap[0][0]


#: ``(name, help)`` of the counters ``_scan`` bumps, in its order.
_SCAN_COUNTERS = (
    ("segment.queries", "Queries served off segments"),
    ("segment.probes", "B^sig probes issued"),
    ("segment.node_scans", "Packed nodes scanned"),
    ("segment.entries_scanned", "Entries examined during node scans"),
    ("segment.results", "Matching ads returned"),
    ("segment.cache_hits", "Node scans served decoded"),
    ("segment.cache_misses", "Node scans that paid a decode"),
    ("segment.fingerprint_rejects", "B^sig hits the fingerprint turned away"),
)
#: ``(name, help)`` of the counters bumped where a record is read and
#: where an ad is built, so every path that reads the mapping counts.
_READ_COUNTERS = (
    ("segment.nodes_read", "Node records read off the mapping"),
    ("segment.ads_materialised", "Advertisements built from node records"),
)


def _read_words(
    chunk: bytes, pos: int, count: int, intern: dict[str, str]
) -> tuple[list[str], int]:
    """A row's ``count`` words, interned; returns them and the next
    offset."""
    words: list[str] = []
    for _ in range(count):
        token_len = chunk[pos]
        pos += 1
        if token_len >= 128:
            token_len, pos = read_varint(chunk, pos - 1)
        end = pos + token_len
        token = chunk[pos:end].decode("utf-8")
        pos = end
        words.append(intern.setdefault(token, token))
    return words, pos


def _read_row(
    chunk: bytes, pos: int, word_count: int, intern: dict[str, str]
) -> tuple[list[str], int, int, int, int, int, int, int]:
    """The rest of a row header after its word count: the words, the
    entry, carrier and phrase counts, where the phrases start and end,
    and where the entry block starts and ends."""
    words, pos = _read_words(chunk, pos, word_count, intern)
    head = chunk[pos : pos + 4]
    if len(head) == 4 and max(head) < 0x80:
        # The four counts, each one byte: the common case.
        num_entries, num_carriers, num_phrases, phrases_len = head
        phrases_at = pos + 4
    else:
        num_entries, pos = read_varint(chunk, pos)
        num_carriers, pos = read_varint(chunk, pos)
        num_phrases, pos = read_varint(chunk, pos)
        phrases_len, phrases_at = read_varint(chunk, pos)
    phrases_end = phrases_at + phrases_len
    block_len = chunk[phrases_end]
    pos = phrases_end + 1
    if block_len >= 128:
        block_len, pos = read_varint(chunk, phrases_end)
    if num_carriers > num_entries or (num_entries and not num_phrases):
        raise SegmentFormatError(
            "malformed node record: a row miscounts its carriers or phrases"
        )
    return (
        words,
        num_entries,
        num_carriers,
        num_phrases,
        phrases_at,
        phrases_end,
        pos,
        pos + block_len,
    )


def _read_phrases(
    chunk: bytes, pos: int, end: int, count: int, words: list[str]
) -> list[tuple[str, ...]]:
    """A row's ``count`` front-coded phrases, which fill ``chunk[pos:end]``
    exactly, as tuples of the row's word objects.  Positions are below
    128 for any word-set under 128 words, so a suffix is read as its
    bytes, with :func:`read_varint` for the rest."""
    phrases: list[tuple[str, ...]] = []
    positions: list[int] = []
    for _ in range(count):
        shared, pos = read_varint(chunk, pos)
        num_suffix, pos = read_varint(chunk, pos)
        del positions[shared:]
        suffix = chunk[pos : pos + num_suffix]
        if max(suffix, default=0) < 0x80:
            positions += suffix
            pos += num_suffix
        else:
            for _ in range(num_suffix):
                at, pos = read_varint(chunk, pos)
                positions.append(at)
        phrases.append(tuple([words[at] for at in positions]))
    if pos != end:
        raise SegmentFormatError(
            "malformed node record: phrases disagree with their length"
        )
    return phrases


def _read_exclusions(chunk: bytes, pos: int) -> tuple[tuple[str, ...], int]:
    """A carrier's exclusion phrases (at least one); returns them and the
    next offset."""
    count = chunk[pos]
    pos += 1
    if count >= 128:
        count, pos = read_varint(chunk, pos - 1)
    if not count:
        raise SegmentFormatError(
            "malformed node record: a carrier without exclusion phrases"
        )
    decoded: list[str] = []
    for _ in range(count):
        text_len = chunk[pos]
        pos += 1
        if text_len >= 128:
            text_len, pos = read_varint(chunk, pos - 1)
        end = pos + text_len
        decoded.append(chunk[pos:end].decode("utf-8"))
        pos = end
    return tuple(decoded), pos


class PackedSegmentIndex:
    """Read-only broad-match index served from a mapped segment file."""

    #: Capability marker: ``query`` accepts a ``deadline`` budget.
    supports_deadline = True
    #: Capability marker: ``query`` and ``query_kernel_batch`` take
    #: ``top`` (see :func:`repro.serving.server.ranked_read`).
    supports_ranked_read = True

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
        fps_off, fps_len = section_bounds(header, "fingerprints")
        nodes_off, nodes_len = section_bounds(header, "nodes")
        if (
            (bsig_off, bsig_bits) != (0, 1 << self.suffix_bits)
            or boff_off != (bsig_bits + 63) // 64 * 8
            or boff_bits != max(nodes_len, 1)
            or fps_off != boff_off + (boff_bits + 63) // 64 * 8
            or nodes_off != fps_off + fps_len
        ):
            raise SegmentFormatError(
                "segment sections disagree with the layout of suffix_bits"
            )
        if fps_len != self._num_nodes:
            raise SegmentFormatError(
                "fingerprint section disagrees with the header node count"
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
        boff_view = payload[boff_off:fps_off]
        fps_view = payload[fps_off:nodes_off]
        nodes_view = payload[nodes_off:]
        self._views.extend((bsig_view, boff_view, fps_view, nodes_view))
        #: One byte per node ordinal, read off the mapping.
        self._fingerprints = fps_view
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
            self._nodes_read, self._ads_materialised = (
                obs.counter(name, help=text) for name, text in _READ_COUNTERS
            )

    # ------------------------------------------------------------------ #
    # Query processing

    def probe_plan(self, words: frozenset[str]) -> ProbePlan:
        """:func:`repro.kernels.pipeline.plan_query` over the header's
        persisted prefilter state — probe-for-probe identical to the
        source ``WordSetIndex``.
        """
        return plan_query(
            words,
            fast_path=self.fast_path,
            vocabulary=self._vocab,
            size_histogram=self._size_histogram,
            max_words=self.max_words,
            max_query_words=self.max_query_words,
        )

    @overload
    def query(
        self,
        query: Query,
        match_type: MatchType = ...,
        deadline: Deadline | None = ...,
        top: None = ...,
    ) -> list[Advertisement]: ...

    @overload
    def query(
        self,
        query: Query,
        match_type: MatchType = ...,
        deadline: Deadline | None = ...,
        *,
        top: int,
    ) -> RankedMatches: ...

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

    @overload
    def query_kernel_batch(
        self,
        queries: Iterable[Query],
        match_type: MatchType = ...,
        deadline: Deadline | None = ...,
        top: None = ...,
    ) -> list[list[Advertisement]]: ...

    @overload
    def query_kernel_batch(
        self,
        queries: Iterable[Query],
        match_type: MatchType = ...,
        deadline: Deadline | None = ...,
        *,
        top: int,
    ) -> list[RankedMatches]: ...

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
        if self._obs is not None:
            self._nodes_read.inc()
        return bytes(self._nodes_buf[start:end])

    def _decode_entries(
        self, chunk: bytes, max_word_count: int | None
    ) -> tuple[_Runs, int]:
        """Decode one node record into runs of materialized ads.

        One run per word-set row, as ``(word_set, ads)``, in record
        order, its ads in the row's order: the carriers, then the rest,
        each group by ``(-bid, listing_id)``.
        ``max_word_count`` stops the decode at the first row longer than
        the query (rows are word-count-ordered); ``None`` decodes every
        row (cache admission, :meth:`iter_ads`, compaction).  Returns the
        runs and the bytes consumed.

        A row's words are decoded once, interned through the O(vocabulary)
        token table, and its phrase tuples are built from them, so the
        run's word-set, its phrases and its ads share one object each.
        Zigzag doubles the listing and campaign ids, so those are
        multi-byte on nearly every entry and their continuation bytes are
        decoded inline; so are the bids.  Counts and lengths almost
        always fit one byte, which is inlined, with :func:`read_varint`
        for the rest.  Ads are built fresh by direct slot assignment
        (what the frozen dataclass ``__init__`` does anyway).  Nothing a
        decode builds outlives its caller unless the node cache admits
        it, so what decoding retains is bounded by ``cache_bytes``.

        The record is untrusted input: one that is truncated, indexes
        past its end, holds invalid UTF-8, miscounts its carriers or its
        phrases, or (fully decoded) does not end exactly at its last byte
        raises :class:`SegmentFormatError`.
        """
        intern = self._token_intern
        runs: _Runs = []
        built = 0
        pos = 0
        try:
            num_rows = chunk[pos]
            pos += 1
            if num_rows >= 128:
                num_rows, pos = read_varint(chunk, pos - 1)
            for _ in range(num_rows):
                word_count = chunk[pos]
                pos += 1
                if word_count >= 128:
                    word_count, pos = read_varint(chunk, pos - 1)
                if max_word_count is not None and word_count > max_word_count:
                    break
                (
                    words,
                    num_entries,
                    carriers,
                    num_phrases,
                    phrases_at,
                    phrases_end,
                    pos,
                    block_end,
                ) = _read_row(chunk, pos, word_count, intern)
                word_set = frozenset(words)
                phrases = _read_phrases(
                    chunk, phrases_at, phrases_end, num_phrases, words
                )
                phrase = phrases[0] if phrases else ()
                ads: list[Advertisement] = []
                bid = 0
                for at in range(num_entries):
                    raw = chunk[pos]
                    pos += 1
                    if raw >= 128:
                        raw &= 127
                        shift = 7
                        while True:
                            byte = chunk[pos]
                            pos += 1
                            raw |= (byte & 127) << shift
                            if byte < 128:
                                break
                            shift += 7
                    # Each group's first bid is zigzag-coded; the rest
                    # fall by ``raw``.
                    if at and at != carriers:
                        bid -= raw
                    else:
                        bid = (raw >> 1) ^ -(raw & 1)
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
                    if num_phrases > 1:
                        index = chunk[pos]
                        pos += 1
                        if index >= 128:
                            index, pos = read_varint(chunk, pos - 1)
                        phrase = phrases[index]
                    exclusions: tuple[str, ...] = ()
                    if at < carriers:
                        exclusions, pos = _read_exclusions(chunk, pos)
                    ad = _NEW_AD(Advertisement)
                    _SET(ad, "phrase", phrase)
                    _SET(
                        ad,
                        "info",
                        AdInfo(
                            listing_id=(raw_listing >> 1) ^ -(raw_listing & 1),
                            campaign_id=(raw_campaign >> 1) ^ -(raw_campaign & 1),
                            bid_price_micros=bid,
                            exclusion_phrases=exclusions,
                        ),
                    )
                    _SET(ad, "words", word_set)
                    ads.append(ad)
                if pos != block_end:
                    raise SegmentFormatError(
                        "malformed node record: an entry block disagrees "
                        "with its length"
                    )
                runs.append((word_set, ads))
                built += num_entries
        except (IndexError, UnicodeDecodeError) as exc:
            raise SegmentFormatError(f"malformed node record: {exc}") from exc
        # A slice running past the end shortens a string instead of
        # raising, so the cursor is checked once, here.
        if pos > len(chunk) or (max_word_count is None and pos != len(chunk)):
            raise SegmentFormatError(
                "malformed node record: fields run past its end or stop short"
            )
        if self._obs is not None:
            self._ads_materialised.inc(built)
        return runs, pos

    def _rank_record(
        self, chunk: bytes, words: frozenset[str], ranking: _Ranking
    ) -> tuple[int, int]:
        """The ranked walk of :meth:`_scan`, off the record's bytes.  A
        row's words are decoded for the subset test; a matching row's
        entries are read only as far as the walk goes (every carrier, its
        exclusions tested as read), and a row that does not match, or the
        rest of one past its floor, is stepped over by its ``block_len``.
        Phrases stay undecoded unless an entry is kept, and a kept entry
        is held as its fields and its row (see :meth:`_materialise`).
        Returns the entries walked and the bytes consumed; a malformed
        record raises :class:`SegmentFormatError` like :meth:`_decode_entries`."""
        intern = self._token_intern
        query_len = len(words)
        query_words = ranking.query_words
        walked = 0
        pos = 0
        try:
            num_rows = chunk[0]
            pos = 1
            if num_rows >= 128:
                num_rows, pos = read_varint(chunk, 0)
            for _ in range(num_rows):
                word_count = chunk[pos]
                pos += 1
                if word_count >= 128:
                    word_count, pos = read_varint(chunk, pos - 1)
                if word_count > query_len:
                    break
                (
                    row_words,
                    num_entries,
                    carriers,
                    num_phrases,
                    phrases_at,
                    phrases_end,
                    pos,
                    block_end,
                ) = _read_row(chunk, pos, word_count, intern)
                word_set = frozenset(row_words)
                if not word_set <= words:
                    pos = block_end
                    continue
                row = [phrases_at, phrases_end, num_phrases, row_words, word_set, None]
                position = ranking.matched
                ranking.matched += num_entries
                floor = ranking.floor
                bid = 0
                for at in range(num_entries):
                    # The varints are decoded inline, as in
                    # :meth:`_decode_entries`.
                    raw = chunk[pos]
                    pos += 1
                    if raw >= 128:
                        raw &= 127
                        shift = 7
                        while True:
                            byte = chunk[pos]
                            pos += 1
                            raw |= (byte & 127) << shift
                            if byte < 128:
                                break
                            shift += 7
                    if at and at != carriers:
                        bid -= raw
                    else:
                        bid = (raw >> 1) ^ -(raw & 1)
                    rank = bid * 1.0
                    if at >= carriers and rank < floor:
                        break
                    walked += 1
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
                    index = 0
                    if num_phrases > 1:
                        index = chunk[pos]
                        pos += 1
                        if index >= 128:
                            index, pos = read_varint(chunk, pos - 1)
                        if index >= num_phrases:
                            raise SegmentFormatError(
                                "malformed node record: phrase index out of range"
                            )
                    exclusions: tuple[str, ...] = ()
                    if at < carriers:
                        exclusions, pos = _read_exclusions(chunk, pos)
                        if excluded_by(exclusions, query_words):
                            ranking.excluded += 1
                            continue
                        if rank < floor:
                            continue
                    listing_id = (raw_listing >> 1) ^ -(raw_listing & 1)
                    item = (
                        bid,
                        listing_id,
                        (raw_campaign >> 1) ^ -(raw_campaign & 1),
                        exclusions,
                        chunk,
                        row,
                        index,
                    )
                    ranking.keep(rank, listing_id, position + at, item)
                    floor = ranking.floor
                if pos > block_end:
                    raise SegmentFormatError(
                        "malformed node record: an entry block runs past "
                        "its length"
                    )
                pos = block_end
        except (IndexError, UnicodeDecodeError, OverflowError) as exc:
            raise SegmentFormatError(f"malformed node record: {exc}") from exc
        if pos > len(chunk):
            raise SegmentFormatError(
                "malformed node record: fields run past its end"
            )
        return walked, pos

    @staticmethod
    def _materialise(item: tuple[Any, ...]) -> Advertisement:
        """The ``Advertisement`` of an entry :meth:`_rank_record` kept.
        Its row's phrases are decoded once, for the first entry built
        from the row."""
        bid, listing_id, campaign_id, exclusions, chunk, row, index = item
        phrases_at, phrases_end, num_phrases, words, word_set, phrases = row
        if phrases is None:
            try:
                phrases = row[5] = _read_phrases(
                    chunk, phrases_at, phrases_end, num_phrases, words
                )
            except IndexError as exc:
                raise SegmentFormatError(
                    f"malformed node record: {exc}"
                ) from exc
        ad = _NEW_AD(Advertisement)
        _SET(ad, "phrase", phrases[index])
        _SET(
            ad,
            "info",
            AdInfo(
                listing_id=listing_id,
                campaign_id=campaign_id,
                bid_price_micros=bid,
                exclusion_phrases=exclusions,
            ),
        )
        _SET(ad, "words", word_set)
        return ad

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
        """Index of the node a locator addresses, or ``None`` when its
        ``B^sig`` bit is clear or the node's fingerprint turns it away
        (the test :meth:`_scan` makes)."""
        key = wordhash(locator)
        suffix = hash_suffix(key, self.suffix_bits)
        word = self.bsig.words[suffix >> 6]
        bit = suffix & 63
        if not (word >> bit) & 1:
            return None
        rank_in_word = (word & ((1 << bit) - 1)).bit_count()
        node_index = self._sig_ranks[suffix >> 6] + rank_in_word
        mark = self._fingerprints[node_index]
        if mark != SHARED_FINGERPRINT and mark != fingerprint(
            key, self.suffix_bits
        ):
            return None
        return node_index

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
