"""Deadline budgets: clocks, expiry and the partiality record —
including the end-to-end property that an index's scan never scans a
node after the budget expires, whether the plan's keys are streamed or
tested in bulk."""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.kernels.pipeline as pipeline
from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs import MetricsRegistry
from repro.resilience import Deadline, DegradedReason, ManualClock
from repro.segment import PackedSegmentIndex, SegmentBuilder


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


class TestManualClock:
    def test_advances(self):
        clock = ManualClock()
        assert clock() == 0.0
        clock.advance(12.5)
        assert clock() == 12.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestDeadline:
    def test_after_ms_expires_on_the_clock(self):
        clock = ManualClock()
        deadline = Deadline.after_ms(10.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining_ms() == 10.0
        clock.advance(9.999)
        assert not deadline.expired()
        clock.advance(0.001)
        assert deadline.expired()
        assert deadline.remaining_ms() == 0.0

    def test_unlimited_never_expires(self):
        deadline = Deadline.unlimited()
        assert not deadline.expired()
        assert deadline.remaining_ms() == float("inf")

    def test_unlimited_accepts_injected_clock(self):
        clock = ManualClock()
        deadline = Deadline.unlimited(clock=clock)
        clock.advance(1e9)
        assert not deadline.expired()

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after_ms(0.0)
        with pytest.raises(ValueError):
            Deadline.after_ms(-5.0)

    def test_partiality_record(self):
        deadline = Deadline.unlimited()
        assert not deadline.partial
        assert deadline.primary_reason() is DegradedReason.NONE
        deadline.mark_partial(DegradedReason.DEADLINE)
        deadline.mark_partial(DegradedReason.RETRIEVAL_ERROR)
        assert deadline.partial
        assert deadline.partial_reasons == (
            DegradedReason.DEADLINE,
            DegradedReason.RETRIEVAL_ERROR,
        )
        assert deadline.primary_reason() is DegradedReason.DEADLINE


@pytest.fixture()
def corpus():
    return AdCorpus(
        [
            ad("used books", 1),
            ad("comic books", 2),
            ad("books", 3),
            ad("cheap used books", 4),
            ad("cheap", 5),
        ]
    )


class TestIndexDeadline:
    def test_expired_budget_probes_nothing(self, corpus):
        registry = MetricsRegistry()
        index = WordSetIndex.from_corpus(corpus, obs=registry)
        clock = ManualClock()
        deadline = Deadline.after_ms(5.0, clock=clock)
        clock.advance(10.0)
        result = index.query(Query.from_text("cheap used books"), deadline=deadline)
        assert result == []
        assert deadline.partial
        assert DegradedReason.DEADLINE in deadline.partial_reasons
        assert registry.value("index.probes") == 0
        assert registry.value("resilience.deadline_partials") == 1

    def test_expired_budget_probes_nothing_in_bulk(
        self, corpus, tmp_path, monkeypatch
    ):
        """A bulk plan whose budget is spent on entry runs no membership
        pass: a lone query and a batch both probe nothing, as a streamed
        plan does."""
        monkeypatch.setattr(pipeline, "BULK_MIN_KEYS", 0)
        path = tmp_path / "bulk.seg"
        SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(path)
        registry = MetricsRegistry()
        queries = [Query.from_text("cheap used books"), Query.from_text("books")]
        with PackedSegmentIndex(path, obs=registry) as index:
            clock = ManualClock()
            deadline = Deadline.after_ms(5.0, clock=clock)
            clock.advance(10.0)
            assert index.query(queries[0], deadline=deadline) == []
            assert index.query_kernel_batch(queries, deadline=deadline) == [
                [],
                [],
            ]
        assert deadline.partial
        assert DegradedReason.DEADLINE in deadline.partial_reasons
        assert registry.value("segment.probes") == 0
        assert registry.value("segment.node_scans") == 0
        assert registry.value("resilience.deadline_partials") == 3

    def test_generous_budget_matches_undeadlined_query(self, corpus):
        index = WordSetIndex.from_corpus(corpus)
        query = Query.from_text("cheap used books")
        full = index.query(query)
        deadline = Deadline.after_ms(1e9)
        assert index.query(query, deadline=deadline) == full
        assert not deadline.partial

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]

phrase_strategy = st.lists(
    st.sampled_from(WORDS), min_size=1, max_size=4, unique=True
)
corpus_strategy = st.lists(phrase_strategy, min_size=1, max_size=8)
query_strategy = st.lists(
    st.sampled_from(WORDS), min_size=1, max_size=5, unique=True
)


def scan_clock(index):
    """A :class:`ManualClock` that advances 1 ms per node ``index``
    scans: the time a budget allows is a count of node scans."""
    clock = ManualClock()
    if isinstance(index, WordSetIndex):
        scan_node = index._scan_node

        def ticking(*args):
            clock.advance(1.0)
            return scan_node(*args)

        index._scan_node = ticking
    else:
        # ``cache_bytes=0``: every node scan copies its record out.
        node_chunk = index._node_chunk

        def ticking(node_index):
            clock.advance(1.0)
            return node_chunk(node_index)

        index._node_chunk = ticking
    return clock


def assert_scan_respects_expiry(index, registry, scans_counter, query, budget):
    """(a) No node is scanned after the first expired check, (b) a short
    result is flagged DEADLINE and counted once in
    ``resilience.deadline_partials``, and (c) a budget left on entry
    that covers every node scan is invisible.  The check before the
    first key flags a budget spent on entry even when no node hits."""
    clock = scan_clock(index)
    full = index.query(query)
    full_scans = registry.value(scans_counter)
    # ``budget`` ms left when the query starts (0: already expired).
    deadline = Deadline.after_ms(budget + 1.0, clock=clock)
    clock.advance(1.0)
    result = index.query(query, deadline=deadline)

    # (a) The budget allows ``budget`` node scans and the check before
    # each scan stops the next one.
    executed = registry.value(scans_counter) - full_scans
    assert executed == min(full_scans, budget)
    partials = registry.value("resilience.deadline_partials")
    if budget > 0 and budget >= full_scans:
        # (c) Identical results, no partiality flag.
        assert result == full
        assert not deadline.partial
        assert partials == 0
    else:
        # (b) A short result is flagged, never silent.
        assert deadline.partial
        assert DegradedReason.DEADLINE in deadline.partial_reasons
        assert partials == 1
        assert {a.info.listing_id for a in result} <= {
            a.info.listing_id for a in full
        }


class TestDeadlineProperty:
    """Satellite: the hypothesis deadline-budget property.

    For any corpus, query, and expiry point, counted in node scans on a
    :class:`ManualClock`: (a) no node is scanned after the budget
    expires, (b) a short result is always flagged partial with the
    DEADLINE reason, and (c) a budget generous enough for every node
    scan returns exactly the no-deadline answer, unflagged.  The bound
    on unchecked work is the keys tested between two checks: a streamed
    plan's misses, or one bulk membership pass.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        phrases=corpus_strategy,
        query_words=query_strategy,
        budget=st.integers(min_value=0, max_value=8),
    )
    @example(
        phrases=[["alpha"], ["alpha", "beta"], ["beta", "gamma"]],
        query_words=["alpha", "beta", "gamma"],
        budget=1,
    )
    def test_probe_loop_respects_expiry(self, phrases, query_words, budget):
        corpus = AdCorpus(
            [ad(" ".join(phrase), i) for i, phrase in enumerate(phrases)]
        )
        registry = MetricsRegistry()
        index = WordSetIndex.from_corpus(corpus, obs=registry)
        query = Query.from_text(" ".join(query_words))
        assert_scan_respects_expiry(
            index, registry, "index.node_scans", query, budget
        )

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        phrases=corpus_strategy,
        query_words=query_strategy,
        budget=st.integers(min_value=0, max_value=8),
        packed=st.booleans(),
    )
    @example(
        phrases=[["alpha"], ["alpha", "beta"], ["beta", "gamma"]],
        query_words=["alpha", "beta", "gamma"],
        budget=1,
        packed=True,
    )
    @example(
        phrases=[["alpha"], ["alpha", "beta"], ["beta", "gamma"]],
        query_words=["alpha", "beta", "gamma"],
        budget=2,
        packed=False,
    )
    def test_bulk_scan_respects_expiry(
        self, tmp_path_factory, monkeypatch, phrases, query_words, budget, packed
    ):
        """The same contract with every plan above the bulk threshold:
        the whole membership pass runs before the first node scan, and
        the cut still lands between nodes (without numpy the plans
        stream, and the contract is the same)."""
        monkeypatch.setattr(pipeline, "BULK_MIN_KEYS", 0)
        corpus = AdCorpus(
            [ad(" ".join(phrase), i) for i, phrase in enumerate(phrases)]
        )
        query = Query.from_text(" ".join(query_words))
        registry = MetricsRegistry()
        if not packed:
            index = WordSetIndex.from_corpus(corpus, obs=registry)
            assert_scan_respects_expiry(
                index, registry, "index.node_scans", query, budget
            )
            return
        path = tmp_path_factory.mktemp("deadline") / "bulk.seg"
        SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(path)
        with PackedSegmentIndex(path, obs=registry, cache_bytes=0) as index:
            assert_scan_respects_expiry(
                index, registry, "segment.node_scans", query, budget
            )

    @settings(max_examples=30, deadline=None)
    @given(phrases=corpus_strategy, query_words=query_strategy)
    def test_unlimited_deadline_is_invisible(self, phrases, query_words):
        corpus = AdCorpus(
            [ad(" ".join(phrase), i) for i, phrase in enumerate(phrases)]
        )
        index = WordSetIndex.from_corpus(corpus)
        query = Query.from_text(" ".join(query_words))
        deadline = Deadline.unlimited()
        assert index.query(query, deadline=deadline) == index.query(query)
        assert not deadline.partial
