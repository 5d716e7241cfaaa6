"""Public-API integrity: exports resolve, carry docs, and stay consistent."""

import importlib
import inspect

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.cost",
    "repro.invindex",
    "repro.optimize",
    "repro.compress",
    "repro.memsim",
    "repro.distsim",
    "repro.datagen",
    "repro.serving",
    "repro.perf",
    "repro.faults",
    "repro.resilience",
    "repro.segment",
]


class TestExports:
    def test_root_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__all__, f"{module_name} exports nothing"
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_all_sorted_and_unique(self, module_name):
        module = importlib.import_module(module_name)
        names = list(module.__all__)
        assert names == sorted(names), f"{module_name}.__all__ unsorted"
        assert len(names) == len(set(names))

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module_name, names",
        [
            ("repro.serving", ["CachedIndex", "CacheStats"]),
            (
                "repro.distsim",
                ["ReplicatedCluster", "ReplicatedRunResult", "ReplicationConfig"],
            ),
            ("repro.obs", ["WorkloadRecorder"]),
            ("repro.segment", ["ShardedSegmentedIndex", "pack_corpus_tiered"]),
            ("repro.resilience", ["FanoutGuard", "ShardsUnavailableError"]),
            ("repro.perf", ["BatchStats"]),
            ("repro.distsim", ["measured_shard_service"]),
            ("repro.core", ["ShardedWordSetIndex"]),
            ("repro", ["ShardedWordSetIndex"]),
            (
                "repro.resilience",
                ["DegradationPolicy", "DegradationLevel", "DEFAULT_LADDER"],
            ),
        ],
    )
    def test_retired_names_stay_gone(self, module_name, names):
        module = importlib.import_module(module_name)
        for name in names:
            assert name not in module.__all__
            assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.serving.result_cache",
            "repro.distsim.replication",
            "repro.obs.workload",
            "repro.resilience.fanout",
            "repro.core.sharded",
            "repro.resilience.degrade",
        ],
    )
    def test_retired_modules_stay_gone(self, module_name):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module_name)


class TestDocumentation:
    @pytest.mark.parametrize("module_name", SUBPACKAGES + ["repro"])
    def test_module_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_classes_and_functions_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{module_name}: {undocumented}"

    def test_public_methods_documented_on_core_types(self):
        from repro.core.wordset_index import WordSetIndex

        undocumented = [
            name
            for name, member in inspect.getmembers(WordSetIndex)
            if not name.startswith("_")
            and callable(member)
            and not (member.__doc__ and member.__doc__.strip())
        ]
        assert not undocumented, undocumented


class TestInterchangeability:
    def test_all_retrieval_structures_share_query(self):
        """The serving layer's pluggability contract: every structure
        answers through ``query``; the primary structures no longer
        carry the removed ``query_broad`` deprecation alias (only the
        baselines keep it, as their native surface)."""
        from repro.compress.compressed_hash import CompressedWordSetIndex
        from repro.core.impact_index import ImpactOrderedIndex
        from repro.core.tree_index import TrieWordSetIndex
        from repro.core.wordset_index import WordSetIndex
        from repro.invindex import (
            CountingInvertedIndex,
            NonRedundantInvertedIndex,
            RedundantInvertedIndex,
        )

        primary = (
            WordSetIndex,
            TrieWordSetIndex,
            ImpactOrderedIndex,
            CompressedWordSetIndex,
        )
        baselines = (
            NonRedundantInvertedIndex,
            CountingInvertedIndex,
            RedundantInvertedIndex,
        )
        for cls in primary + baselines:
            assert callable(getattr(cls, "query"))
        for cls in primary:
            assert not hasattr(cls, "query_broad")
        for cls in baselines:
            assert callable(getattr(cls, "query_broad"))
