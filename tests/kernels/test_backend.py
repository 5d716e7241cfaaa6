"""Backend flag semantics, and the one rule for bulk or streamed
membership."""

import pytest

import repro.core.wordset_index as wordset_module
import repro.kernels as kernels
import repro.kernels.pipeline as pipeline
import repro.segment.packed as packed_module
from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.perf.batch import BatchQueryEngine
from repro.resilience.deadline import Deadline
from repro.segment import PackedSegmentIndex, SegmentBuilder

#: Twelve one-word ads and one pair: a query over all twelve words
#: plans 12 + 66 = 78 probe keys, a three-word query 3 + 3.
WORDS = [f"w{i}" for i in range(12)]
ADS = [
    Advertisement((word,), AdInfo(listing_id=i)) for i, word in enumerate(WORDS)
] + [Advertisement(("w0", "w1"), AdInfo(listing_id=99))]
LONG = Query(tokens=tuple(WORDS))
SHORT = Query(tokens=("w0", "w1", "w2"))

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="bulk membership needs numpy"
)


@pytest.fixture(autouse=True)
def clean_override(monkeypatch):
    monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
    kernels.set_backend(None)
    yield
    kernels.set_backend(None)


class TestResolveBackend:
    def test_auto_prefers_numpy_when_available(self):
        expected = "numpy" if kernels.numpy_available() else "python"
        assert kernels.resolve_backend(None) == expected
        assert kernels.resolve_backend("auto") == expected
        assert kernels.resolve_backend("") == expected

    def test_explicit_values_pass_through(self):
        assert kernels.resolve_backend("python") == "python"
        assert kernels.resolve_backend("  PYTHON  ") == "python"
        assert kernels.BACKENDS == ("auto", "numpy", "python")

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("cuda")

    def test_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_HAVE_NUMPY", False)
        assert kernels.resolve_backend("auto") == "python"
        with pytest.raises(RuntimeError, match="numpy is not installed"):
            kernels.resolve_backend("numpy")


class TestActiveBackend:
    def test_env_variable_read(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV, "python")
        assert kernels.active_backend() == "python"
        monkeypatch.setenv(kernels.BACKEND_ENV, "auto")
        assert kernels.active_backend() == kernels.resolve_backend(None)

    def test_set_backend_overrides_env(self, monkeypatch):
        # ``off`` is no longer a backend: only the override keeps the
        # invalid environment value from being read.
        monkeypatch.setenv(kernels.BACKEND_ENV, "off")
        kernels.set_backend("python")
        assert kernels.active_backend() == "python"
        kernels.set_backend(None)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.active_backend()

    def test_set_backend_validates(self):
        with pytest.raises(ValueError):
            kernels.set_backend("cuda")


def build_wordset(tmp_path, tracker=None):
    return WordSetIndex.from_corpus(AdCorpus(ADS), tracker=tracker)


def build_packed(tmp_path, tracker=None):
    path = tmp_path / "bulk.seg"
    if not path.exists():
        SegmentBuilder(WordSetIndex.from_corpus(AdCorpus(ADS))).write(path)
    return PackedSegmentIndex(path, tracker=tracker)


@pytest.fixture(params=[build_wordset, build_packed])
def build(request, tmp_path):
    """Builds either index; closes what it built."""
    built = []

    def make(tracker=None):
        built.append(request.param(tmp_path, tracker))
        return built[-1]

    yield make
    for index in built:
        if hasattr(index, "close"):
            index.close()


@pytest.fixture()
def flat_calls(monkeypatch):
    """The plans each index enumerated as flat key arrays (bulk)."""
    calls = []
    for module in (wordset_module, packed_module):
        real = module.flat_probe_keys

        def spy(candidates, sizes, real=real):
            calls.append(candidates)
            return real(candidates, sizes)

        monkeypatch.setattr(module, "flat_probe_keys", spy)
    return calls


def bulk_plans(index, flat_calls, queries, deadline=None):
    """How many of ``queries`` went bulk, answered as one batch; without
    a budget the slates must equal the lone queries'."""
    before = len(flat_calls)
    slates = index.query_kernel_batch(queries, deadline=deadline)
    went_bulk = len(flat_calls) - before
    if deadline is None:
        assert slates == [index.query(q) for q in queries]
    return went_bulk


class TestEngaged:
    """When bulk membership engages: the plan's probe-key count against
    :data:`~repro.kernels.pipeline.BULK_MIN_KEYS`, on the numpy
    backend, and nothing else."""

    def test_plans_straddle_the_threshold(self, build):
        index = build()
        assert index.probe_plan(LONG.words).probe_count() == 78
        assert index.probe_plan(SHORT.words).probe_count() == 6
        assert 6 < pipeline.BULK_MIN_KEYS <= 78

    @needs_numpy
    def test_engages_for_plain_index(self, build, flat_calls):
        assert bulk_plans(build(), flat_calls, [LONG]) == 1
        assert pipeline.bulk_membership(build().probe_plan(LONG.words))

    def test_below_the_threshold_streams(self, build, flat_calls):
        index = build()
        assert bulk_plans(index, flat_calls, [SHORT]) == 0
        assert not pipeline.bulk_membership(index.probe_plan(SHORT.words))

    @needs_numpy
    def test_threshold_is_inclusive(self, build, flat_calls, monkeypatch):
        monkeypatch.setattr(pipeline, "BULK_MIN_KEYS", 6)
        assert bulk_plans(build(), flat_calls, [SHORT]) == 1
        monkeypatch.setattr(pipeline, "BULK_MIN_KEYS", 7)
        assert bulk_plans(build(), flat_calls, [SHORT]) == 0

    @needs_numpy
    def test_lone_query_follows_the_rule(self, build, flat_calls):
        """A lone ``query`` (a segment leg, a batch of one) is not sent
        down a per-probe loop: above the threshold it goes bulk too."""
        index = build()
        index.query(LONG, deadline=Deadline.after_ms(1e9))
        index.query(SHORT)
        assert flat_calls == [tuple(sorted(WORDS))]

    @needs_numpy
    def test_mixed_batch_splits_by_plan(self, build, flat_calls):
        assert bulk_plans(build(), flat_calls, [SHORT, LONG, SHORT]) == 1

    def test_off_disables(self, build, flat_calls):
        """What ``off`` did is ``python`` now: every plan streams.  The
        old value is rejected."""
        with pytest.raises(ValueError):
            kernels.set_backend("off")
        kernels.set_backend("python")
        assert bulk_plans(build(), flat_calls, [LONG, SHORT]) == 0

    def test_without_numpy_every_plan_streams(
        self, build, flat_calls, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_HAVE_NUMPY", False)
        assert kernels.active_backend() == "python"
        assert bulk_plans(build(), flat_calls, [LONG, SHORT]) == 0

    @needs_numpy
    def test_tracker_keeps_the_size_rule(self, build, flat_calls):
        """A bound tracker no longer forces the per-probe loop: a bulk
        plan is charged one ``hash_probe`` per key, in one call."""
        tracker = AccessTracker()
        index = build(tracker=tracker)
        assert bulk_plans(index, flat_calls, [LONG]) == 1
        # The batch, then the lone query that checked it.
        assert tracker.stats.hash_probes == 2 * 78
        assert tracker.stats.random_accesses >= 2 * 78
        assert tracker.stats.queries == 2

    @needs_numpy
    def test_timed_deadline_keeps_the_size_rule(self, build, flat_calls):
        deadline = Deadline.after_ms(1e9)
        assert bulk_plans(build(), flat_calls, [LONG], deadline) == 1
        assert not deadline.partial

    @needs_numpy
    def test_untimed_deadline_keeps_the_size_rule(self, build, flat_calls):
        deadline = Deadline.unlimited()
        assert bulk_plans(build(), flat_calls, [LONG], deadline) == 1
        assert not deadline.partial

    def test_swapped_hash_forces_per_probe_loop(self, build):
        """Flat key arrays are built from the canonical per-word
        contributions; under a swapped hash the rule streams even a plan
        above the threshold."""
        plan = build().probe_plan(LONG.words)
        assert not pipeline.bulk_membership(plan, lambda words: 0)
        assert pipeline.bulk_membership(plan) == kernels.numpy_available()

    @needs_numpy
    def test_swapped_hash_streams_above_the_threshold(
        self, flat_calls, monkeypatch
    ):
        """Flat key arrays know only the canonical hash; under a swapped
        ``wordhash`` binding the mutable index streams every plan."""
        real = wordset_module.wordhash
        monkeypatch.setattr(wordset_module, "wordhash", lambda w: real(w) % 7)
        index = WordSetIndex.from_corpus(AdCorpus(ADS))
        assert bulk_plans(index, flat_calls, [LONG, SHORT]) == 0
        assert sorted(ad.info.listing_id for ad in index.query(LONG)) == [
            *range(12),
            99,
        ]

    def test_swapped_module_hash_reaches_the_rule(self, monkeypatch):
        """``WordSetIndex`` streams under its own module's ``wordhash``
        binding — the one collision tests swap — so a batch under a weak
        hash stays exact."""
        from repro.core.wordhash import wordhash as real

        monkeypatch.setattr(wordset_module, "wordhash", lambda words: real(words) % 2)
        ads = [
            Advertisement((f"w{i}", "shared"), AdInfo(listing_id=i))
            for i in range(6)
        ]
        index = WordSetIndex.from_corpus(AdCorpus(ads))
        query = Query(tokens=("w3", "shared"))
        [slate] = index.query_kernel_batch([query])
        assert [ad.info.listing_id for ad in slate] == [3]

    def test_index_without_batch_method_falls_back(self):
        """``BatchQueryEngine`` hands a batch to ``query_kernel_batch``
        only when the index's class has one; otherwise ``query`` each."""

        class Plain:
            def __init__(self):
                self.asked = []

            def query(self, query, match_type=None):
                self.asked.append(query)
                return []

        index = Plain()
        BatchQueryEngine(index).query_broad_batch([SHORT, LONG])
        assert sorted(index.asked, key=len) == [SHORT, LONG]

    def test_delegating_wrapper_not_bypassed(self, build, monkeypatch):
        # A wrapper whose ``__getattr__`` forwards the inner index's
        # attributes; batching through the forwarded method would skip
        # the wrapper's own ``query``.
        class Forwarding:
            def __init__(self, index):
                self.index = index
                self.asked = []

            def query(self, query, match_type=None):
                self.asked.append(query)
                return self.index.query(query)

            def __getattr__(self, name):
                return getattr(self.index, name)

        inner = build()
        wrapper = Forwarding(inner)
        assert wrapper.query_kernel_batch is not None  # forwarded

        def bypass(*args, **kwargs):
            raise AssertionError("the wrapper was bypassed")

        monkeypatch.setattr(inner, "query_kernel_batch", bypass)
        BatchQueryEngine(wrapper).query_broad_batch([SHORT, LONG])
        assert sorted(wrapper.asked, key=len) == [SHORT, LONG]
