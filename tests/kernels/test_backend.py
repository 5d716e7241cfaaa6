"""Backend flag semantics: resolution, override, and engagement rules."""

import pytest

import repro.kernels as kernels
from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.cost.accounting import AccessTracker
from repro.kernels.pipeline import engaged
from repro.resilience.deadline import Deadline
from repro.segment import PackedSegmentIndex, SegmentBuilder
from repro.serving.result_cache import CachedIndex

ADS = [Advertisement(("red", "shoes"), AdInfo(listing_id=1))]


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
        assert kernels.resolve_backend("off") == "off"
        assert kernels.resolve_backend("  PYTHON  ") == "python"

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
        monkeypatch.setenv(kernels.BACKEND_ENV, "off")
        assert kernels.active_backend() == "off"

    def test_set_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(kernels.BACKEND_ENV, "off")
        kernels.set_backend("python")
        assert kernels.active_backend() == "python"
        kernels.set_backend(None)
        assert kernels.active_backend() == "off"

    def test_set_backend_validates(self):
        with pytest.raises(ValueError):
            kernels.set_backend("cuda")


def build_wordset(tmp_path, tracker=None):
    return WordSetIndex.from_corpus(AdCorpus(ADS), tracker=tracker)


def build_packed(tmp_path, tracker=None):
    path = tmp_path / "engaged.seg"
    SegmentBuilder(WordSetIndex.from_corpus(AdCorpus(ADS))).write(path)
    return PackedSegmentIndex(path, tracker=tracker)


@pytest.fixture(params=[build_wordset, build_packed])
def build(request, tmp_path):
    """Builds either index that has an array path; closes what it built."""
    built = []

    def make(tracker=None):
        built.append(request.param(tmp_path, tracker))
        return built[-1]

    yield make
    for index in built:
        if hasattr(index, "close"):
            index.close()


class TestEngaged:
    """The one rule for when the array path may replace the per-probe
    loop, asked by ``BatchQueryEngine`` and both ``query_kernel_batch``."""

    def test_engages_for_plain_index(self, build):
        assert engaged(build()) == kernels.resolve_backend(None)

    def test_off_disables(self, build):
        kernels.set_backend("off")
        assert engaged(build()) is None

    def test_index_without_batch_method_falls_back(self):
        assert engaged(object()) is None

    def test_delegating_wrapper_not_bypassed(self, build):
        # CachedIndex.__getattr__ forwards the inner index's attributes;
        # engaging on the forwarded method would silently skip the cache.
        cached = CachedIndex(build())
        assert cached.query_kernel_batch is not None  # forwarded
        assert engaged(cached) is None

    def test_tracker_forces_per_probe_loop(self, build):
        assert engaged(build(tracker=AccessTracker())) is None

    def test_timed_deadline_forces_per_probe_loop(self, build):
        assert engaged(build(), Deadline.after_ms(50.0)) is None

    def test_untimed_constraint_deadline_engages(self, build):
        deadline = Deadline.unlimited(max_probes=4)
        assert not deadline.timed
        assert engaged(build(), deadline) is not None

    def test_swapped_hash_forces_per_probe_loop(self, build):
        # Flat key arrays are built from the canonical per-word
        # contributions; a swapped hash placed the nodes elsewhere.
        assert engaged(build(), None, lambda words: 0) is None

    def test_swapped_module_hash_reaches_the_rule(self, monkeypatch):
        """``WordSetIndex.query_kernel_batch`` hands the rule its own
        module's ``wordhash`` binding — the one collision tests swap —
        so a batch under a weak hash is answered by the per-probe loop
        and stays exact."""
        import repro.core.wordset_index as wsi
        from repro.core.wordhash import wordhash as real

        monkeypatch.setattr(wsi, "wordhash", lambda words: real(words) % 2)
        ads = [
            Advertisement((f"w{i}", "shared"), AdInfo(listing_id=i))
            for i in range(6)
        ]
        index = WordSetIndex.from_corpus(AdCorpus(ads))
        query = Query(tokens=("w3", "shared"))
        [slate] = index.query_kernel_batch([query])
        assert [ad.info.listing_id for ad in slate] == [3]
