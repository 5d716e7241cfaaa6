"""The paper's broad-match index: a hash table over word-sets (Section III).

Every advertisement lives in exactly one *data node*; the node is addressed
by ``wordhash`` of its *node locator* — by default the ad's own word-set,
or, after re-mapping, any subset of it.  A broad-match query probes the hash
table at every candidate subset of its words and scans the hit nodes.

Hash collisions between distinct word-sets are tolerated exactly as in the
paper: colliding sets share a node, and every probe verifies the stored
phrases, so results are always exact.

The index reports its memory operations to an optional
:class:`~repro.cost.accounting.AccessTracker`, which is how all experiments
measure and compare structures.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from time import perf_counter

from repro.core.ads import AdCorpus, Advertisement
from repro.core.data_node import DataNode
from repro.core.matching import MatchType, apply_match_type
from repro.core.queries import Query
from repro.core.wordhash import wordhash
from repro.cost.accounting import AccessTracker
from repro.kernels.flat import flat_probe_keys
from repro.kernels.pipeline import (
    PlanMemo,
    bulk_membership,
    plan_query,
    probe_keys,
)
from repro.obs.registry import MetricsRegistry, active_or_none
from repro.perf.prefilter import ProbePlan
from repro.resilience.deadline import Deadline, DegradedReason

#: Default cap on query words considered during subset enumeration — the
#: paper's "heuristic cutoff for extremely long queries" (Section IV-B).
DEFAULT_MAX_QUERY_WORDS = 16

#: Hash-table space blow-up assumed by the paper's sizing example (4/3).
HASH_TABLE_BLOWUP = 4 / 3

#: Bytes per hash-table bucket entry: 8-byte stored signature + 8-byte
#: pointer/offset to the data node.
HASH_BUCKET_BYTES = 16


@dataclass(frozen=True, slots=True)
class IndexStats:
    """Structural statistics of a built index."""

    num_ads: int
    num_nodes: int
    num_distinct_wordsets: int
    hash_table_bytes: int
    node_bytes: int
    max_node_entries: int

    @property
    def total_bytes(self) -> int:
        return self.hash_table_bytes + self.node_bytes


class WordSetIndex:
    """Hash-of-word-sets broad-match index with optional re-mapping.

    Queries accept an optional :class:`~repro.resilience.deadline.Deadline`
    budget (``supports_deadline``): the scan checks it before each node
    it scans and returns a partial, *flagged* result instead of blowing
    the budget.

    Parameters
    ----------
    max_words:
        If set, node locators longer than this are disallowed; ads with
        longer word-sets must be placed via an explicit mapping (see
        :mod:`repro.optimize.remap`).  ``None`` means identity placement for
        every ad (the "no re-mapping" configuration of Fig 10 variant (a)).
    max_query_words:
        Heuristic cutoff: queries longer than this are truncated to their
        rarest words before subset enumeration.
    tracker:
        Optional :class:`AccessTracker` receiving the memory operations of
        every query.
    fast_path:
        When True (the default), queries are probe-pruned: subset
        enumeration runs only over query words that appear in some node
        locator, only at subset sizes some locator actually has, with
        memoized per-word hashing (see :mod:`repro.perf`).  Results are
        identical to the naive enumeration; only the probe count (and
        its tracker accounting) shrinks.  ``False`` keeps the paper's
        unpruned Section IV-B enumeration — the reference behaviour the
        benchmarks compare against.
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When
        enabled, every query records ``index.probes``,
        ``index.node_scans``, ``index.candidates``, ``index.results``
        counters plus ``span.probe`` / ``span.scan`` timing histograms.
        ``None`` (or a disabled registry) keeps the hot path unchanged.
    """

    def __init__(
        self,
        max_words: int | None = None,
        max_query_words: int = DEFAULT_MAX_QUERY_WORDS,
        tracker: AccessTracker | None = None,
        fast_path: bool = True,
        obs: MetricsRegistry | None = None,
    ) -> None:
        if max_words is not None and max_words < 1:
            raise ValueError("max_words must be >= 1")
        if max_query_words < 1:
            raise ValueError("max_query_words must be >= 1")
        self.max_words = max_words
        self.max_query_words = max_query_words
        self.tracker = tracker
        self.fast_path = fast_path
        self._obs: MetricsRegistry | None = None
        self.bind_obs(obs)
        self._nodes: dict[int, DataNode] = {}
        #: word-set -> locator it is currently mapped to (identity unless
        #: a mapping re-mapped it).  Needed for deletion and invariants.
        self._placement: dict[frozenset[str], frozenset[str]] = {}
        self._num_ads = 0
        self._word_freq_fn = None  # selectivity for query truncation
        #: word -> number of live *placement* locators containing it; the
        #: keys are the locator vocabulary the prefilter intersects queries
        #: with.  Counting placements (one per live word-set group), not
        #: nodes, is what keeps pruning exact under hash collisions: a
        #: colliding group's locator can differ from the node's own.
        self._vocab_refcount: dict[str, int] = {}
        #: locator size -> number of live placements with that size; lets
        #: probe plans cap and skip subset sizes no locator has.
        self._size_histogram: dict[int, int] = {}
        #: Bumped on every structural mutation; the plan memo is
        #: per-generation.
        self._mutation_gen = 0
        self._plan_memo = PlanMemo()

    # ------------------------------------------------------------------ #
    # Construction

    @classmethod
    def from_corpus(
        cls,
        corpus: AdCorpus | Iterable[Advertisement],
        mapping: Mapping[frozenset[str], frozenset[str]] | None = None,
        max_words: int | None = None,
        max_query_words: int = DEFAULT_MAX_QUERY_WORDS,
        tracker: AccessTracker | None = None,
        fast_path: bool = True,
        obs: MetricsRegistry | None = None,
    ) -> WordSetIndex:
        """Build an index, optionally under a re-mapping.

        ``mapping`` maps a bid word-set to the locator its ads should live
        at; word-sets absent from the mapping are placed at themselves.
        """
        index = cls(
            max_words=max_words,
            max_query_words=max_query_words,
            tracker=tracker,
            fast_path=fast_path,
            obs=obs,
        )
        if isinstance(corpus, AdCorpus):
            index._word_freq_fn = corpus.word_frequency
        for ad in corpus:
            locator = None
            if mapping is not None:
                locator = mapping.get(ad.words)
            index.insert(ad, locator=locator)
        return index

    def insert(
        self, ad: Advertisement, locator: frozenset[str] | None = None
    ) -> None:
        """Place ``ad`` at ``locator`` (default: its own word-set).

        Enforces the paper's mapping constraints: the locator must be a
        non-empty subset of the ad's words, within ``max_words``, and all
        ads sharing a word-set must share a node (condition IV) — a second
        ad of an already-placed word-set follows its group regardless of
        the ``locator`` argument.
        """
        established = self._placement.get(ad.words)
        if established is not None:
            locator = established
        elif locator is None:
            locator = ad.words
        self._check_locator(ad, locator)
        self._mutation_gen += 1
        key = wordhash(locator)
        node = self._nodes.get(key)
        if node is None:
            node = DataNode(locator)
            self._nodes[key] = node
        node.add(ad)
        if established is None:
            self._register_locator(locator)
        self._placement[ad.words] = locator
        self._num_ads += 1

    def _register_locator(self, locator: frozenset[str]) -> None:
        refs = self._vocab_refcount
        for word in locator:
            refs[word] = refs.get(word, 0) + 1
        size = len(locator)
        self._size_histogram[size] = self._size_histogram.get(size, 0) + 1

    def _unregister_locator(self, locator: frozenset[str]) -> None:
        refs = self._vocab_refcount
        for word in locator:
            remaining = refs[word] - 1
            if remaining:
                refs[word] = remaining
            else:
                del refs[word]
        size = len(locator)
        remaining = self._size_histogram[size] - 1
        if remaining:
            self._size_histogram[size] = remaining
        else:
            del self._size_histogram[size]

    def _check_locator(self, ad: Advertisement, locator: frozenset[str]) -> None:
        if not locator:
            raise ValueError("node locator must be non-empty")
        if not locator <= ad.words:
            raise ValueError(
                f"locator {set(locator)!r} is not a subset of the ad words "
                f"{set(ad.words)!r}"
            )
        if self.max_words is not None and len(locator) > self.max_words:
            raise ValueError(
                f"locator has {len(locator)} words, exceeding max_words="
                f"{self.max_words}"
            )

    def contains(self, ad: Advertisement) -> bool:
        """True when ``ad`` is indexed — the non-mutating validation
        half of :meth:`delete`, so write-ahead logging can check
        membership *before* committing a delete record."""
        locator = self._placement.get(ad.words)
        if locator is None:
            return False
        node = self._nodes.get(wordhash(locator))
        return node is not None and any(
            entry.ad == ad for entry in node.entries
        )

    def delete(self, ad: Advertisement) -> bool:
        """Remove ``ad``; returns False if it was not indexed.

        As the paper notes, deletion under re-mapping must locate the node
        via the placement of the ad's word-set (equivalent to a broad-match
        probe); empty nodes are dropped from the hash table.
        """
        locator = self._placement.get(ad.words)
        if locator is None:
            return False
        key = wordhash(locator)
        node = self._nodes.get(key)
        if node is None or not node.remove(ad):
            return False
        self._mutation_gen += 1
        self._num_ads -= 1
        if not any(e.ad.words == ad.words for e in node.entries):
            del self._placement[ad.words]
            self._unregister_locator(locator)
        if not node.entries:
            del self._nodes[key]
        return True

    # ------------------------------------------------------------------ #
    # Observability

    def bind_obs(self, obs: MetricsRegistry | None) -> None:
        """Attach (or detach, with ``None``) a metrics registry.

        Pre-registers every counter this index records so a snapshot taken
        before the first query already shows them at zero.
        """
        obs = active_or_none(obs)
        self._obs = obs
        if obs is not None:
            obs.counter("index.queries", help="Queries processed")
            obs.counter("index.probes", help="Hash-table probes issued")
            obs.counter("index.node_scans", help="Data nodes scanned")
            obs.counter(
                "index.candidates",
                help="Node entries small enough to be match candidates",
            )
            obs.counter("index.results", help="Matching ads returned")

    # ------------------------------------------------------------------ #
    # Query processing

    #: Queries accept a ``deadline=`` budget (checked before node scans).
    supports_deadline = True

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Process a query under any of the three match semantics.

        Phrase- and exact-match reuse the same probes; only the final
        verification against the stored phrase changes (Section III-B).
        With a ``deadline``, the scan stops at budget expiry and the
        (partial) result is flagged on the deadline object.
        """
        plan = self.probe_plan(query.words)
        return self._probe(query, plan, match_type, deadline)

    def query_kernel_batch(
        self,
        queries: Sequence[Query],
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[list[Advertisement]]:
        """:meth:`query` for every query of a batch (the entry point
        :class:`~repro.perf.batch.BatchQueryEngine` hands a deduplicated
        batch to).  A batch's plans are memoized: a lone query's would
        only grow the memo."""
        batch = list(queries)
        plans = self._plan_memo.plans(batch, self.probe_plan, self._mutation_gen)
        return [
            self._probe(query, plan, match_type, deadline)
            for query, plan in zip(batch, plans)
        ]

    def _probe(
        self,
        query: Query,
        plan: ProbePlan,
        match_type: MatchType,
        deadline: Deadline | None,
    ) -> list[Advertisement]:
        """The one probe body: the plan's keys, then :meth:`_scan`.

        A plan :func:`~repro.kernels.pipeline.bulk_membership` sends to
        bulk takes its keys from one flat array
        (:func:`~repro.kernels.flat.flat_probe_keys`); any other streams
        the key generator.  Either way every key meets the dict in
        :meth:`_scan`.
        """
        # ``wordhash`` as this module binds it: collision tests swap the
        # binding, and flat keys know only the canonical hash.
        if bulk_membership(plan, wordhash):
            keys: Iterable[int] = flat_probe_keys(
                plan.candidates, plan.sizes
            ).tolist()
        else:
            keys = probe_keys(plan, wordhash)
        return self._scan(query, plan, keys, match_type, deadline)

    def probe_plan(self, words: frozenset[str]) -> ProbePlan:
        """The probe plan a broad-match over ``words`` executes
        (:func:`repro.kernels.pipeline.plan_query` over this index's
        live prefilter state).  ``explain`` and the analytic cost model
        replay the same plan, so measured and modeled probe counts
        always agree.
        """
        return plan_query(
            words,
            fast_path=self.fast_path,
            vocabulary=self._vocab_refcount,
            size_histogram=self._size_histogram,
            max_words=self.max_words,
            max_query_words=self.max_query_words,
            selectivity=self._word_freq_fn,
        )

    def probe_count(self, query: Query) -> int:
        """Exact number of hash probes a broad ``query(query)`` performs."""
        return self.probe_plan(query.words).probe_count()

    def _scan(
        self,
        query: Query,
        plan: ProbePlan,
        keys: Iterable[int],
        match_type: MatchType,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Look ``keys`` (the plan's whole key stream) up in
        probe-enumeration order and scan the hit nodes.

        The measured probe counter equals the closed-form
        :meth:`probe_count` because the enumeration yields exactly the
        plan's subsets, unless a deadline expired before a node scan,
        which stops the loop and counts ``resilience.deadline_partials``.
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
        # The budget is checked before the first key and before each node
        # scan, so a cut lands between nodes.
        cut = deadline is not None and deadline.expired()
        if cut:
            keys = ()
        for probes, key in enumerate(keys, 1):
            node = nodes.get(key)
            # Two probed subsets can collide to one bucket; scanning the
            # node again would duplicate results.
            if node is None or key in visited:
                continue
            visited.add(key)
            if deadline is not None and deadline.expired():
                cut = True
                break
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
        if cut and deadline is not None:
            deadline.mark_partial(DegradedReason.DEADLINE)
            if obs is not None:
                obs.counter("resilience.deadline_partials").inc()
        if tracker is not None:
            tracker.hash_probe(HASH_BUCKET_BYTES, probes)
            tracker.query_done()
        if obs is not None:
            obs.counter("index.queries").inc()
            obs.counter("index.probes").inc(probes)
            obs.counter("index.node_scans").inc(node_scans)
            obs.counter("index.candidates").inc(candidates)
            obs.counter("index.results").inc(len(results))
            obs.histogram("span.scan").observe(scan_seconds * 1e3)
            obs.histogram("span.probe").observe(
                (perf_counter() - started) * 1e3
            )
        return results

    def _scan_node(
        self,
        node: DataNode,
        query: Query,
        probe_words: frozenset[str],
        match_type: MatchType,
    ) -> list[Advertisement]:
        tracker = self.tracker
        matched, scanned = node.scan(probe_words)
        if tracker is not None:
            tracker.random_access(scanned)
            tracker.candidate(
                sum(1 for e in node.entries if e.word_count <= len(probe_words))
            )
        return apply_match_type(matched, query, match_type)

    # ------------------------------------------------------------------ #
    # Introspection

    def __len__(self) -> int:
        return self._num_ads

    @property
    def nodes(self) -> dict[int, DataNode]:
        """The hash table, keyed by ``wordhash`` of the node locator."""
        return self._nodes

    def placement(self) -> dict[frozenset[str], frozenset[str]]:
        """Current word-set -> locator mapping (identity if never remapped)."""
        return dict(self._placement)

    def indexed_vocabulary(self) -> frozenset[str]:
        """Words appearing in at least one live node locator — the set the
        prefilter intersects queries with."""
        return frozenset(self._vocab_refcount)

    def locator_vocabulary_refcounts(self) -> dict[str, int]:
        """Word -> number of live placement locators containing it (the
        refcounted form of :meth:`indexed_vocabulary`, persisted into
        packed segment headers)."""
        return dict(self._vocab_refcount)

    def locator_size_histogram(self) -> dict[int, int]:
        """Locator size -> number of live placements with that size."""
        return dict(self._size_histogram)

    def max_locator_size(self) -> int:
        """Largest locator size present (0 when the index is empty)."""
        return max(self._size_histogram, default=0)

    def node_for(self, words: frozenset[str]) -> DataNode | None:
        """The node currently holding ads with word-set ``words``."""
        locator = self._placement.get(words)
        if locator is None:
            return None
        return self._nodes.get(wordhash(locator))

    def hash_table_bytes(self) -> int:
        """Modeled size of the hash table (buckets x blow-up)."""
        return int(len(self._nodes) * HASH_BUCKET_BYTES * HASH_TABLE_BLOWUP)

    def stats(self) -> IndexStats:
        """Structural statistics (node counts, modeled byte sizes)."""
        node_bytes = sum(n.size_bytes() for n in self._nodes.values())
        return IndexStats(
            num_ads=self._num_ads,
            num_nodes=len(self._nodes),
            num_distinct_wordsets=len(self._placement),
            hash_table_bytes=self.hash_table_bytes(),
            node_bytes=node_bytes,
            max_node_entries=max(
                (len(n) for n in self._nodes.values()), default=0
            ),
        )

    def check_invariants(self) -> None:
        """Validate the paper's mapping conditions I-IV plus node ordering.

        Raises ``AssertionError`` on violation; used by tests and after
        online maintenance operations.
        """
        seen_sets: set[frozenset[str]] = set()
        total = 0
        for key, node in self._nodes.items():
            assert node.entries, f"empty node left in table (key {key})"
            assert node.is_ordered(), "node entries not ordered by word count"
            for entry in node.entries:
                total += 1
                words = entry.ad.words
                locator = self._placement.get(words)
                assert locator is not None, (
                    "indexed ad missing from placement map"
                )
                # The *placement* locator governs each entry; the node's own
                # locator can differ for residents that hash-collided in.
                assert locator <= words, "locator not a subset of ad words"
                assert wordhash(locator) == key, (
                    "condition IV violated: word-set split across nodes"
                )
                seen_sets.add(words)
            if self.max_words is not None:
                assert len(node.locator) <= self.max_words
        assert total == self._num_ads, "ad count mismatch (conditions I/II)"
        assert seen_sets == set(self._placement), "placement map out of sync"
        # The fast-path pruning state must mirror the live *placement*
        # locators exactly, or the prefilter would skip probes that can hit
        # (node locators are not enough: a hash-colliding group's locator
        # never becomes the shared node's own locator).
        expected_refs: dict[str, int] = {}
        expected_sizes: dict[int, int] = {}
        for locator in self._placement.values():
            for word in locator:
                expected_refs[word] = expected_refs.get(word, 0) + 1
            size = len(locator)
            expected_sizes[size] = expected_sizes.get(size, 0) + 1
        assert self._vocab_refcount == expected_refs, (
            "locator vocabulary refcounts out of sync"
        )
        assert self._size_histogram == expected_sizes, (
            "locator size histogram out of sync"
        )
