"""One probe path against the parent's two: the differential test.

Before the size rule, :func:`repro.kernels.pipeline.engaged` chose
between two paths per call: the per-probe loop (backend ``off``, a
bound ``AccessTracker``, a timed deadline, a swapped hash, or a lone
``query``) and the array path (a batch on the ``numpy`` backend).  That
dispatch, both per-probe ``_scan`` loops and the bulk membership they
were fed (the sorted key table of the mutable index, the ``B^sig`` pass
of the segment) are kept here *verbatim* as ``ParentWordSetIndex`` and
``ParentPackedSegmentIndex``.  Five edits only: ``active_backend`` is
the parent's backend choice (``PARENT_BACKEND``, which could be
``off``), ``deadline.timed`` is the parent's property body (``_timed``),
the python-backend branches, which no reference here runs, are left
out (the parent's ``flat_probe_keys(..., "numpy")`` is the
combination-matrix enumerator kept verbatim in
:mod:`tests.kernels.test_flat_levels`), the segment's scan makes
format version 3's fingerprint test after its ``B^sig`` test, and plans
are built without the deadline (``probe_plan(words)``).  Since the
packed index walks its locator-prefix trie, the packed reference's loop
is fed every key the walk tests
(:func:`tests.segment.walk_reference.walked_keys`) instead of the
plan's power set, and its batch runs that loop per query; the power
set's packed path is the reference of :mod:`tests.segment.test_prefix_walk`.

On Hypothesis corpora, including ``suffix_bits=1`` segments (every node
on one or two ``B^sig`` bits) and timed deadlines, the index under test
must return the same slates, ``index.*`` / ``segment.*`` /
``resilience.*`` counters, ``AccessStats`` and partiality reasons as the
reference, for lone queries and batches, with every plan streamed
(``python``), with plans on both sides of ``BULK_MIN_KEYS`` (up to
eight query words, 255 keys), and with every plan in bulk
(``BULK_MIN_KEYS`` patched to 0).  Against the reference no deadline
runs out (it checked a budget before every key, the index under test
before each node scan); a deadline on a ticking clock that runs out
part way must cut the index under test at the same node in all three
modes.
"""

from __future__ import annotations

import string
from collections.abc import Iterable, Sequence
from dataclasses import replace
from time import perf_counter
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels.pipeline as pipeline
from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import MatchType, apply_match_type
from repro.core.queries import Query
from repro.core.wordhash import wordhash
from repro.core.wordset_index import HASH_BUCKET_BYTES, WordSetIndex
from repro.cost.accounting import AccessStats, AccessTracker
from repro.kernels import numpy_available, set_backend
from repro.kernels.pipeline import HashFn, _CANONICAL_WORDHASH, probe_keys
from repro.obs.registry import MetricsRegistry
from repro.perf.prefilter import ProbePlan
from repro.resilience.deadline import Deadline, DegradedReason
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.segment.format import SHARED_FINGERPRINT, fingerprint
from tests.kernels.test_flat_levels import _keys_numpy
from tests.segment.parent_probe import split_hits
from tests.segment.walk_reference import walked_keys

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None  # type: ignore[assignment]

# ---------------------------------------------------------------------- #
# The reference: the parent's dispatch and loops, verbatim.

#: The parent's ``REPRO_KERNELS`` choice.
PARENT_BACKEND = "off"


def active_backend() -> str:
    return PARENT_BACKEND


def _timed(deadline: Deadline) -> bool:
    """The parent's ``Deadline.timed``."""
    return deadline._expires_at_ms is not None


def flat_probe_keys(
    candidates: tuple[str, ...], sizes: tuple[int, ...], backend: str
) -> Any:
    """The parent's ``flat_probe_keys`` on its numpy backend."""
    assert backend == "numpy"
    return _keys_numpy(candidates, sizes)


def engaged(
    index: object,
    deadline: Deadline | None = None,
    hash_fn: HashFn = _CANONICAL_WORDHASH,
) -> str | None:
    """The backend the array-at-a-time path should use for ``index``, or
    ``None`` when the per-probe loop must serve instead.

    The per-probe loop is required whenever per-probe observation
    points matter more than throughput: an
    :class:`~repro.cost.accounting.AccessTracker` charging every probe,
    a *timed* deadline checked between hash probes, or a swapped hash
    the flat key arrays know nothing of.  Plan-level degradation
    constraints (``max_probes`` / ``max_query_words``) are applied
    before enumeration and therefore work identically on both paths.
    """
    backend = active_backend()
    if backend == "off" or hash_fn is not _CANONICAL_WORDHASH:
        return None
    # Resolve on the class, not the instance: delegating wrappers
    # (``CachedIndex.__getattr__``) would otherwise advertise the inner
    # index's batch method and get silently bypassed.
    if getattr(type(index), "query_kernel_batch", None) is None:
        return None
    if getattr(index, "tracker", None) is not None:
        return None
    if deadline is not None and _timed(deadline):
        return None
    return backend


class SortedKeyTable:
    """A sorted ``uint64`` snapshot of a hash table's keys, supporting
    bulk membership for whole probe batches.

    The owning index rebuilds the table lazily after mutations (tracked
    by its mutation generation); queries between mutations share one
    snapshot.
    """

    __slots__ = ("_keys",)

    def __init__(self, keys: Iterable[int], count: int) -> None:
        arr = _np.fromiter(keys, dtype=_np.uint64, count=count)
        arr.sort()
        self._keys = arr

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    def hit_positions(self, probe_keys: Any) -> Any:
        """Positions (ascending) of ``probe_keys`` entries present in
        the table.  ``probe_keys`` is a ``uint64`` array; the result is
        an index array into it."""
        table = self._keys
        if table.shape[0] == 0 or probe_keys.shape[0] == 0:
            return _np.empty(0, dtype=_np.intp)
        slots = _np.searchsorted(table, probe_keys)
        _np.minimum(slots, table.shape[0] - 1, out=slots)
        return _np.nonzero(table[slots] == probe_keys)[0]



class ParentWordSetIndex(WordSetIndex):
    """``WordSetIndex`` with the parent's dispatch, per-probe loop and
    sorted key table."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._kernel_table: SortedKeyTable | None = None
        self._kernel_table_gen = -1

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Process a query under any of the three match semantics.

        Phrase- and exact-match reuse the same probes; only the final
        verification against the stored phrase changes (Section III-B).
        With a ``deadline``, the probe loop stops at budget expiry and
        the (partial) result is flagged on the deadline object.
        """
        plan = self.probe_plan(query.words)
        # ``wordhash`` as this module binds it: collision tests swap the
        # binding, and probes must hash the way inserts did.
        return self._scan(
            query, plan, probe_keys(plan, wordhash), match_type, deadline
        )

    def _scan(
        self,
        query: Query,
        plan: ProbePlan,
        keys: Iterable[int],
        match_type: MatchType,
        deadline: Deadline | None = None,
        num_probes: int | None = None,
    ) -> list[Advertisement]:
        """Look ``keys`` up in probe-enumeration order and scan the hit
        nodes — the one loop behind :meth:`query` (``keys`` is the
        plan's whole key stream) and :meth:`query_kernel_batch`
        (``keys`` holds only the hits, misses were eliminated in bulk,
        and ``num_probes`` says how many keys were probed).

        The measured probe counter equals the closed-form
        :meth:`probe_count` because the enumeration yields exactly the
        plan's subsets, unless a deadline stopped the loop early, which
        counts ``resilience.deadline_partials``.
        """
        obs = self._obs
        started = perf_counter() if obs is not None else 0.0
        words = plan.words
        tracker = self.tracker
        results: list[Advertisement] = []
        visited: set[int] = set()
        nodes = self._nodes
        probes = 0
        node_scans = 0
        candidates = 0
        scan_seconds = 0.0
        for key in keys:
            if deadline is not None and deadline.expired():
                deadline.mark_partial(DegradedReason.DEADLINE)
                if obs is not None:
                    obs.counter("resilience.deadline_partials").inc()
                break
            probes += 1
            if tracker is not None:
                tracker.hash_probe(HASH_BUCKET_BYTES)
            if key in visited:
                # Two probed subsets collided to the same bucket; scanning
                # the node again would duplicate results.
                continue
            visited.add(key)
            node = nodes.get(key)
            if node is None:  # a miss, or a hit the key snapshot outlived
                continue
            # The bucket may belong to a different (hash-colliding)
            # word-set than the probed subset; scanning verifies stored
            # phrases against the query words, so results stay exact
            # either way and the subset itself never needs materializing.
            if obs is None:
                results.extend(self._scan_node(node, query, words, match_type))
                continue
            node_scans += 1
            candidates += sum(
                1 for e in node.entries if e.word_count <= len(words)
            )
            scan_started = perf_counter()
            results.extend(self._scan_node(node, query, words, match_type))
            scan_seconds += perf_counter() - scan_started
        if tracker is not None:
            tracker.query_done()
        if obs is not None:
            obs.counter("index.queries").inc()
            obs.counter("index.probes").inc(
                probes if num_probes is None else num_probes
            )
            obs.counter("index.node_scans").inc(node_scans)
            obs.counter("index.candidates").inc(candidates)
            obs.counter("index.results").inc(len(results))
            obs.histogram("span.scan").observe(scan_seconds * 1e3)
            obs.histogram("span.probe").observe(
                (perf_counter() - started) * 1e3
            )
        return results

    def query_kernel_batch(
        self,
        queries: Sequence[Query],
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[list[Advertisement]]:
        """Batch entry point for the :mod:`repro.kernels` fast path.

        Answers every query through flat precomputed probe-key arrays
        and (under the numpy backend) one bulk membership pass over the
        whole batch, instead of a per-probe interpreted loop.  Results,
        observability counters, and deadline-constraint handling are
        bit-identical to calling :meth:`query` per query, which is what
        happens when :func:`repro.kernels.pipeline.engaged` says the
        per-probe loop must serve.
        """
        queries = list(queries)
        backend = engaged(self, deadline, wordhash)
        if backend is None:
            return [self.query(q, match_type, deadline) for q in queries]
        plans = self._plan_memo.plans(queries, self.probe_plan, self._mutation_gen)
        keys_per = [
            flat_probe_keys(plan.candidates, plan.sizes, backend)
            for plan in plans
        ]
        hits_per = split_hits(keys_per, self._table_hits)
        return [
            self._scan(
                query, plan, hits, match_type, num_probes=len(keys)
            )
            for query, plan, keys, hits in zip(
                queries, plans, keys_per, hits_per
            )
        ]

    def _table_hits(self, all_keys: Any) -> tuple[Any, Any]:
        """Bulk membership against a sorted ``uint64`` snapshot of the
        node keys, rebuilt lazily after mutations."""
        table = self._kernel_table
        if (
            table is None
            or self._kernel_table_gen != self._mutation_gen
            or len(table) != len(self._nodes)
        ):
            table = SortedKeyTable(self._nodes.keys(), len(self._nodes))
            self._kernel_table = table
            self._kernel_table_gen = self._mutation_gen
        return all_keys, table.hit_positions(all_keys)


class ParentPackedSegmentIndex(PackedSegmentIndex):
    """``PackedSegmentIndex`` with the parent's dispatch and per-probe
    loop."""

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Broad match off the mapped file; phrase/exact verify on top.

        An expired ``deadline`` stops the probe loop between hash
        probes; the partial result is flagged on the budget object, not
        returned silently.
        """
        plan = self.probe_plan(query.words)
        return self._scan(query, plan, walked_keys(self, plan), match_type, deadline)

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
        and scan the hit nodes — the one loop behind :meth:`query`
        (``keys`` is the plan's whole key stream) and
        :meth:`query_kernel_batch` (``keys`` holds only the hit
        suffixes, misses were eliminated in bulk, and ``num_probes``
        says how many keys were probed; masking and re-testing a hit
        suffix is idempotent)."""
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
        rejects = 0
        for key in keys:
            if deadline is not None and deadline.expired():
                deadline.mark_partial(DegradedReason.DEADLINE)
                if obs is not None:
                    obs.counter("resilience.deadline_partials").inc()
                break
            probes += 1
            if tracker is not None:
                # Every probed subset is one random ``B^sig`` word read,
                # hit or miss (Section IV's ``Cost_Random`` per lookup).
                tracker.hash_probe(8)
            suffix = key & suffix_mask
            if suffix in visited:
                continue
            # Inlined B^sig bit test: the overwhelmingly common miss costs
            # one word load, no call.  A hit ranks off the same word.
            word_index = suffix >> 6
            word = sig_words[word_index]
            bit = suffix & 63
            if not (word >> bit) & 1:
                continue
            node_index = (
                sig_ranks[word_index] + (word & ((1 << bit) - 1)).bit_count()
            )
            # The fingerprint test; a rejected key leaves the suffix
            # unvisited.
            mark = self._fingerprints[node_index]
            if mark != SHARED_FINGERPRINT and mark != fingerprint(
                key, self.suffix_bits
            ):
                rejects += 1
                continue
            visited.add(suffix)
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
        if tracker is not None:
            tracker.query_done()
        if obs is not None:
            amounts = (
                1,
                probes if num_probes is None else num_probes,
                node_scans,
                entries_scanned,
                len(results),
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
        return apply_match_type(results, query, match_type)

    # ------------------------------------------------------------------ #
    # Kernel (array-at-a-time) batch path — see :mod:`repro.kernels`.

    def query_kernel_batch(
        self,
        queries: Iterable[Query],
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[list[Advertisement]]:
        """Every query through :meth:`query`: the index under test has
        one probe path, so its batch is checked against the per-probe
        loop alone."""
        return [self.query(q, match_type, deadline) for q in queries]


# ---------------------------------------------------------------------- #
# Differential

WORDS = [c1 + c2 for c1 in string.ascii_lowercase[:8] for c2 in "xy"]

ads_strategy = st.lists(
    st.builds(
        lambda phrase, listing: Advertisement(phrase, AdInfo(listing_id=listing)),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=4, unique=True).map(
            tuple
        ),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=25,
)
queries_strategy = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8, unique=True).map(
        lambda words: Query(tokens=tuple(words))
    ),
    min_size=1,
    max_size=5,
)
#: ``(op, queries, match type, spend_at)``; ``insert`` adds the
#: queries' ads to a mutable index between probes.  ``spend_at`` is
#: ``None`` (no deadline) or the clock read at which a :class:`Ticks`
#: deadline runs out, so a call's slates are cut part way.
script_strategy = st.lists(
    st.tuples(
        st.sampled_from(["query", "batch", "insert"]),
        queries_strategy,
        st.sampled_from(list(MatchType)),
        st.sampled_from([None, None, 1, 3, 12]),
    ),
    min_size=1,
    max_size=5,
)

MODES = ["streamed", "mixed"] + (["bulk"] if numpy_available() else [])
PARENT_BACKENDS = ["off"] + (["numpy"] if numpy_available() else [])
SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@pytest.fixture(params=MODES)
def mode(request, monkeypatch):
    """How the index under test sends plans to membership: every plan
    streamed (``python``), by the size rule, or every plan in bulk."""
    if request.param == "streamed":
        set_backend("python")
    elif request.param == "bulk":
        monkeypatch.setattr(pipeline, "BULK_MIN_KEYS", 0)
    yield request.param
    set_backend(None)


@pytest.fixture(params=PARENT_BACKENDS)
def parent_backend(request, monkeypatch):
    monkeypatch.setitem(globals(), "PARENT_BACKEND", request.param)
    return request.param


#: A budget no script spends: a timed deadline that never runs out.
UNSPENT = 10**9


class Ticks:
    """A clock that advances one millisecond per read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class NodeReads:
    """A clock that advances one millisecond per node record ``index``
    reads off its mapping (see :func:`count_node_reads`)."""

    def __init__(self, index) -> None:
        self.index = index
        self.start = index.node_reads

    def __call__(self) -> float:
        return float(self.index.node_reads - self.start)


def count_node_reads(index):
    """Count the node records a ``PackedSegmentIndex`` reads."""
    index.node_reads = 0
    node_chunk = index._node_chunk

    def counted(node_index):
        index.node_reads += 1
        return node_chunk(node_index)

    index._node_chunk = counted
    return index


def slate_ids(slates):
    """Order-preserving identity: the same ads in the same order."""
    return [[(ad.phrase, ad.info.listing_id) for ad in ads] for ads in slates]


def run_script(
    make_index, script, spend=lambda spend_at: spend_at, clock=lambda index: Ticks()
):
    """Everything observable from one script: per call the slates and
    partiality reasons of a registry-bound and a tracker-bound index,
    then the registry's counters and the tracker's ``AccessStats``.
    ``spend`` maps each row's ``spend_at`` to the budget it runs, on a
    fresh ``clock(index)`` per call."""
    registry, tracker = MetricsRegistry(), AccessTracker()
    indexes = (make_index(obs=registry), make_index(tracker=tracker))
    seen = []
    try:
        for op, queries, match_type, spend_at in script:
            if op == "insert":
                if not hasattr(indexes[0], "insert"):
                    continue
                for index in indexes:
                    for i, query in enumerate(queries):
                        index.insert(
                            Advertisement(query.tokens, AdInfo(listing_id=100 + i))
                        )
                continue
            for index in indexes:
                deadline = (
                    None
                    if spend_at is None
                    else Deadline(spend(spend_at), clock=clock(index))
                )
                if op == "query":
                    slates = [index.query(q, match_type, deadline) for q in queries]
                else:
                    slates = index.query_kernel_batch(queries, match_type, deadline)
                reasons = deadline.partial_reasons if deadline else ()
                seen.append((slate_ids(slates), reasons))
            seen.append(registry.snapshot()["counters"])
            seen.append(replace(tracker.stats))
    finally:
        for index in indexes:
            if hasattr(index, "close"):
                index.close()
    return seen


def unspent(spend_at):
    """The parent checked a timed budget before every key and the index
    under test checks it before each node scan, so a budget spent part
    way cuts the two at different keys; against the parent every
    deadline is timed and never runs out."""
    return UNSPENT


@SETTINGS
@given(ads=ads_strategy, script=script_strategy)
def test_wordset_index_matches_the_parent(mode, parent_backend, ads, script):
    def make(cls):
        return lambda **kw: cls.from_corpus(AdCorpus(ads), **kw)

    assert run_script(make(WordSetIndex), script, unspent) == run_script(
        make(ParentWordSetIndex), script, unspent
    )


@SETTINGS
@given(
    ads=ads_strategy,
    script=script_strategy,
    suffix_bits=st.sampled_from([None, 1]),
    cache_bytes=st.sampled_from([0, 512, 1 << 20]),
)
def test_packed_segment_matches_the_parent(
    tmp_path_factory, mode, parent_backend, ads, script, suffix_bits, cache_bytes
):
    path = tmp_path_factory.mktemp("probe-path") / "seg.bin"
    SegmentBuilder(
        WordSetIndex.from_corpus(AdCorpus(ads)), suffix_bits=suffix_bits
    ).write(path)

    def make(cls):
        return lambda **kw: cls(path, cache_bytes=cache_bytes, **kw)

    assert run_script(make(PackedSegmentIndex), script, unspent) == run_script(
        make(ParentPackedSegmentIndex), script, unspent
    )


def every_plan_streamed(mode, run):
    """``run()`` with every plan streamed (``python``), then ``mode``'s
    backend restored."""
    set_backend("python")
    try:
        return run()
    finally:
        set_backend("python" if mode == "streamed" else None)


@SETTINGS
@given(ads=ads_strategy, script=script_strategy)
def test_wordset_index_cuts_alike_in_every_mode(mode, ads, script):
    """A deadline spent part way cuts the slates at the same node
    whether plans stream, follow the size rule or all go in bulk."""

    def make(**kw):
        return WordSetIndex.from_corpus(AdCorpus(ads), **kw)

    assert run_script(make, script) == every_plan_streamed(
        mode, lambda: run_script(make, script)
    )


@SETTINGS
@given(
    ads=ads_strategy,
    script=script_strategy,
    cache_bytes=st.sampled_from([0, 512, 1 << 20]),
)
def test_packed_segment_cuts_alike_in_every_mode(
    tmp_path_factory, mode, ads, script, cache_bytes
):
    """As for the mutable index, with time counted in node records read:
    a bulk pass checks its budget once on entry, so on a clock that
    ticks per read its cut would fall one read earlier than a streamed
    plan's, while the node reads are the same both ways.  Only the count
    of keys tested differs: a bulk pass tests all of a plan's keys
    before its scan stops."""
    path = tmp_path_factory.mktemp("probe-cut") / "seg.bin"
    SegmentBuilder(WordSetIndex.from_corpus(AdCorpus(ads))).write(path)

    def make(**kw):
        return count_node_reads(PackedSegmentIndex(path, cache_bytes=cache_bytes, **kw))

    assert without_keys_tested(run_script(make, script, clock=NodeReads)) == (
        without_keys_tested(
            every_plan_streamed(mode, lambda: run_script(make, script, clock=NodeReads))
        )
    )


def without_keys_tested(seen):
    """:func:`run_script`'s record without the counts of keys tested:
    ``segment.probes`` and the tracker's probe charges."""
    view = []
    for item in seen:
        if isinstance(item, dict):
            item = {k: v for k, v in item.items() if k != "segment.probes"}
        elif isinstance(item, AccessStats):
            item = replace(
                item,
                hash_probes=0,
                random_accesses=item.random_accesses - item.hash_probes,
                bytes_scanned=item.bytes_scanned - 8 * item.hash_probes,
            )
        view.append(item)
    return view
