"""Differential test: the one serve pipeline against the two it replaced.

``AdServer.serve`` is now ``serve_batch([request])[0]``, and
``serve_batch`` is the only path from retrieval to ``_finish``.  The
code they replaced — a scalar ``serve`` with its own deadline
resolution, next to a batch path with another copy of it — is kept
here as the reference, verbatim but for three edits: the admission
branches and the ``priority`` argument are gone (``AdServer`` no longer
admits; the netserve frontend does), the error fallbacks are gone (the
indexes here never raise, and ``AdServer`` now lets a failing retrieval
propagate), and ``_request_deadline`` is the parent's without its
degradation ladder.  Over healthy indexes every observable must stay
bit-identical after every op: the wire form of each result, the stats
snapshot, the budgets, the frequency-cap memory, the ``serve.*``
counters and the number of ``index.query`` calls each side made (one
per lone serve: a batch of one retrieves exactly as a lone query always
did, never through the kernel batch).

The reference's batch path runs the same :class:`BatchQueryEngine` as
the server under test, so this pins the server-level refactor; what the
engine itself does is pinned by ``tests/perf/test_batch.py`` and the
kernel equivalence tests.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.obs.registry import Counter, MetricsRegistry
from repro.perf.batch import BatchQueryEngine
from repro.resilience import Deadline, DegradedReason, ManualClock, Priority
from repro.segment.builder import SegmentBuilder
from repro.segment.packed import PackedSegmentIndex
from repro.serving.request import ServeRequest
from repro.serving.server import AdServer, ServeResult

# ---------------------------------------------------------------------- #
# The reference: the replaced bodies, with the three edits above.


class ReferenceAdServer(AdServer):
    """``AdServer`` with the scalar ``serve`` and the separate batch
    path it had before ``serve`` became a batch of one."""

    def serve(
        self,
        request,
        user_id=None,
        deadline=None,
    ):
        if isinstance(request, ServeRequest):
            if user_id is not None or deadline is not None:
                raise TypeError(
                    "pass per-request fields inside the ServeRequest, "
                    "not as keyword arguments"
                )
            query = request.query
            user_id = request.user_id
            deadline = request.resolve_deadline(self._clock)
        else:
            query = request
        return self._serve_admitted(query, user_id, deadline)

    def _request_deadline(self, deadline):
        if deadline is None and self.default_deadline_ms is not None:
            deadline = Deadline.after_ms(
                self.default_deadline_ms, clock=self._clock
            )
        return deadline

    def _serve_admitted(self, query, user_id, deadline):
        obs = self._obs
        deadline = self._request_deadline(deadline)
        if obs is None:
            candidates = self._retrieve(query, deadline)
        else:
            with obs.span("retrieve"):
                candidates = self._retrieve(query, deadline)
        reason = (
            deadline.primary_reason()
            if deadline is not None
            else DegradedReason.NONE
        )
        if deadline is not None and deadline.partial:
            if DegradedReason.DEADLINE in deadline.partial_reasons:
                self.stats.deadline_partials += 1
        return self._finish(query, candidates, user_id, reason)

    def _retrieve(self, query, deadline):
        if deadline is not None and getattr(
            self.index, "supports_deadline", False
        ):
            return self.index.query(query, deadline=deadline)
        return self.index.query(query)

    def serve_batch(
        self,
        requests,
        user_id=None,
        deadline=None,
    ):
        items = list(requests)
        if any(isinstance(item, ServeRequest) for item in items):
            if not all(isinstance(item, ServeRequest) for item in items):
                raise TypeError(
                    "serve_batch takes all ServeRequests or all Queries, "
                    "not a mix"
                )
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
        return self._serve_batch_admitted(plan, deadline)

    def _tightest_deadline(self, items):
        resolved = [
            deadline
            for item in items
            if (deadline := item.resolve_deadline(self._clock)) is not None
        ]
        if not resolved:
            return None
        return min(resolved, key=lambda deadline: deadline.remaining_ms())

    def _serve_batch_admitted(self, plan, deadline):
        if not plan:
            return []
        queries = [query for query, _ in plan]
        deadline = self._request_deadline(deadline)
        if self._batch_engine is None or self._batch_engine.index is not self.index:
            self._batch_engine = BatchQueryEngine(self.index, obs=self._obs)
        candidate_lists = self._batch_engine.query_broad_batch(
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
            for (query, uid), candidates in zip(plan, candidate_lists)
        ]


# ---------------------------------------------------------------------- #
# Indexes: one fresh copy per side, each counting its ``query`` calls.

WORDS = ("a", "b", "c", "d", "e")
QUALITIES = (0.5, 1.0, 1.5, 2.0)


def quality_by_listing(ad):
    return QUALITIES[ad.info.listing_id % len(QUALITIES)]


def counted(index):
    """Count ``index.query`` calls on the instance; the class (which the
    kernel rule inspects) is untouched."""
    index.query_calls = 0
    query = index.query

    def counting_query(*args, **kwargs):
        index.query_calls += 1
        return query(*args, **kwargs)

    index.query = counting_query
    return index


def build_index(kind, corpus, workdir, side):
    if kind == "wordset":
        return WordSetIndex.from_corpus(corpus)
    path = Path(workdir) / f"{side}.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(path)
    return PackedSegmentIndex(path)


# ---------------------------------------------------------------------- #
# Scenarios.  Small ranges everywhere, so duplicate word-sets inside a
# batch, expired budgets, exhausted budgets and capped listings all occur
# often.

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
    st.lists(phrases, max_size=1),
)

queries = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(
    lambda tokens: Query(tokens=tuple(tokens))
)
users = st.sampled_from((None, "u1", "u2"))
priorities = st.sampled_from((Priority.NORMAL, Priority.HIGH, Priority.LOW))
#: ``None``, or an explicit budget: ``(budget_ms, age_ms)`` builds a
#: deadline ``budget_ms`` long and then ages the clock by ``age_ms``
#: before serving, so expired and live budgets both occur.
budgets = st.one_of(
    st.none(),
    st.tuples(st.sampled_from((5.0, 20.0)), st.sampled_from((0.0, 10.0, 30.0))),
)
#: Per-request budget of a ``ServeRequest``: none, ``deadline_ms``
#: (resolved at serve time) or an explicit, possibly aged, deadline.
request_budgets = st.one_of(
    st.none(),
    st.tuples(st.just("ms"), st.sampled_from((5.0, 20.0))),
    st.tuples(
        st.just("obj"),
        st.tuples(st.sampled_from((5.0, 20.0)), st.sampled_from((0.0, 10.0))),
    ),
)
#: A request's priority rides along in every ``ServeRequest``; no side
#: reads it.
positions = st.tuples(queries, users, priorities, request_budgets)

ops = st.one_of(
    st.tuples(st.just("serve"), positions, budgets, st.booleans()),
    st.tuples(
        st.just("batch"),
        # Duplicating the batch's head repeats a word-set in the batch.
        st.lists(positions, min_size=1, max_size=5).map(
            lambda items: items + items[:1] if len(items) % 2 else items
        ),
        users,
        budgets,
        st.booleans(),
    ),
    st.tuples(st.just("click"), st.integers(0, 3)),
    st.tuples(st.just("advance"), st.sampled_from((1.0, 50.0, 500.0))),
)

configs = st.fixed_dictionaries(
    {
        "slots": st.integers(1, 3),
        "reserve_micros": st.sampled_from((0, 1, 30, 70)),
        "quality_fn": st.sampled_from((None, quality_by_listing)),
        "frequency_cap": st.sampled_from((None, 1, 2)),
        "campaign_budgets_micros": st.dictionaries(
            st.integers(0, 3), st.integers(0, 150), max_size=3
        ),
        "default_deadline_ms": st.sampled_from((None, 5.0, 50.0)),
    }
)


class Twins:
    """Builds every per-op object twice, once per side: deadlines carry
    their partiality record, so the sides never share one."""

    def __init__(self, clock):
        self.clock = clock

    def deadlines(self, budget):
        if budget is None:
            return None, None
        budget_ms, _ = budget
        return tuple(
            Deadline.after_ms(budget_ms, clock=self.clock) for _ in range(2)
        )

    def requests(self, position):
        query, user, priority, spec = position
        if spec is None:
            return tuple(
                ServeRequest(query=query, user_id=user, priority=priority)
                for _ in range(2)
            )
        if spec[0] == "ms":
            return tuple(
                ServeRequest(
                    query=query,
                    user_id=user,
                    priority=priority,
                    deadline_ms=spec[1],
                )
                for _ in range(2)
            )
        return tuple(
            ServeRequest(
                query=query, user_id=user, priority=priority, deadline=deadline
            )
            for deadline in self.deadlines(spec[1])
        )


def age(clock, *budgets):
    """Age the clock by the op's largest explicit-budget age."""
    ages = [budget[1] for budget in budgets if budget is not None]
    if ages and max(ages) > 0:
        clock.advance(max(ages))


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
        "index_calls": server.index.query_calls,
    }


def run_op(op, server, reference, twins, clock):
    """Apply one op to both sides; returns (got, want) result lists."""
    kind = op[0]
    if kind == "serve":
        _, position, budget, as_request = op
        query, user, _, spec = position
        if as_request:
            got_request, want_request = twins.requests(position)
            age(clock, spec[1] if spec and spec[0] == "obj" else None)
            return [server.serve(got_request)], [reference.serve(want_request)]
        got_deadline, want_deadline = twins.deadlines(budget)
        age(clock, budget)
        return (
            [server.serve(query, user, got_deadline)],
            [reference.serve(query, user, want_deadline)],
        )
    _, items, user, budget, as_request = op
    got_deadline, want_deadline = twins.deadlines(budget)
    if as_request:
        pairs = [twins.requests(position) for position in items]
        age(
            clock,
            budget,
            *(spec[1] for *_, spec in items if spec and spec[0] == "obj"),
        )
        return (
            server.serve_batch(
                [got for got, _ in pairs], deadline=got_deadline
            ),
            reference.serve_batch(
                [want for _, want in pairs], deadline=want_deadline
            ),
        )
    batch = [query for query, *_ in items]
    age(clock, budget)
    return (
        server.serve_batch(batch, user, got_deadline),
        reference.serve_batch(batch, user, want_deadline),
    )


@pytest.mark.parametrize("kind", ["wordset", "packed"])
@given(
    corpus=st.lists(ads, min_size=1, max_size=20),
    config=configs,
    script=st.lists(ops, min_size=1, max_size=10),
    with_obs=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_one_pipeline_matches_the_two_it_replaced(
    kind, corpus, config, script, with_obs
):
    clock = ManualClock()
    twins = Twins(clock)
    registry, reference_registry = MetricsRegistry(), MetricsRegistry()
    with tempfile.TemporaryDirectory() as workdir:
        sides = []
        for side, (cls, obs) in enumerate(
            ((AdServer, registry), (ReferenceAdServer, reference_registry))
        ):
            index = counted(build_index(kind, AdCorpus(corpus), workdir, side))
            sides.append(
                cls(
                    index,
                    clock=clock,
                    obs=obs if with_obs else None,
                    **config,
                )
            )
        server, reference = sides
        try:
            last = reference_last = None
            for op in script:
                if op[0] == "advance":
                    clock.advance(op[1])
                    continue
                if op[0] == "click":
                    # Click the last slate (if it has that slot) on both
                    # sides: budgets drain between queries.
                    slot = op[1]
                    if last is None or slot >= len(last.outcome.awards):
                        continue
                    assert server.record_click(
                        last, slot
                    ) == reference.record_click(reference_last, slot)
                    got = want = []
                else:
                    got, want = run_op(op, server, reference, twins, clock)
                assert [r.to_dict() for r in got] == [
                    r.to_dict() for r in want
                ]
                if got:
                    last, reference_last = got[-1], want[-1]
                assert observables(server, registry) == observables(
                    reference, reference_registry
                )
        finally:
            for index in (server.index, reference.index):
                if kind == "packed":
                    index.close()


# ---------------------------------------------------------------------- #
# The argument check both entry points share.


@pytest.fixture()
def pair():
    index = WordSetIndex.from_corpus(
        AdCorpus(
            [Advertisement.from_text("used books", AdInfo(listing_id=1))]
        )
    )
    return AdServer(index), ReferenceAdServer(index)


def test_argument_errors_match(pair):
    request = ServeRequest(query=Query.from_text("books"))
    query = Query.from_text("used books")
    calls = [
        lambda s: s.serve(request, user_id="u1"),
        lambda s: s.serve(request, deadline=Deadline.unlimited()),
        lambda s: s.serve_batch([request, query]),
        lambda s: s.serve_batch([query, request]),
        lambda s: s.serve_batch([request], user_id="u1"),
    ]
    for call in calls:
        for server in pair:
            with pytest.raises(TypeError):
                call(server)
    for server in pair:
        assert server.stats.queries == 0
        assert server.serve_batch([]) == []


def test_serve_is_a_batch_of_one(pair):
    server, _ = pair
    calls = []
    original = server.serve_batch

    def recording(requests, *args):
        calls.append(list(requests))
        return original(requests, *args)

    server.serve_batch = recording
    result = server.serve(Query.from_text("used books"), "u1")
    assert isinstance(result, ServeResult)
    assert calls == [[Query.from_text("used books")]]
