"""Tests for the experiment runner CLI."""

import os
import runpy
import sys

import pytest

from repro.experiments import runner
from repro.experiments.runner import EXPERIMENTS, main, pin_hash_seed, run_experiment
from repro.experiments.common import SMALL


class TestRunner:
    def test_all_ids_registered(self):
        assert set(EXPERIMENTS) == {
            "fig1",
            "fig2",
            "fig3",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "tab-inverted",
            "tab-multiserver",
            "tab-counters",
            "tab-compression",
            "ext-structures",
            "ext-drift",
            "ext-sharding",
            "ext-matchtypes",
            "ext-hwcompare",
            "ext-impact",
        }

    def test_every_module_has_run_and_format(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.format_report)

    def test_run_experiment_returns_report(self):
        report = run_experiment("fig1", SMALL, seed=0)
        assert "Fig 1" in report

    def test_main_single_experiment(self, capsys):
        assert main(["fig3", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "MT" in out

    def test_main_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])


class _Execed(Exception):
    """Stands in for ``os.execv``, which does not return."""


class TestHashSeed:
    """Run as a module, the runner re-execs under ``PYTHONHASHSEED=0``:
    the query generator iterates sets, so ``ext-matchtypes``' counts
    follow the hash seed."""

    @staticmethod
    def fake_execv(monkeypatch):
        def execv(executable, argv):
            raise _Execed(executable, argv)

        monkeypatch.setattr(os, "execv", execv)

    @pytest.mark.parametrize("seed", [None, "1", "random"])
    def test_a_module_run_re_execs_unless_the_seed_is_zero(
        self, monkeypatch, seed
    ):
        monkeypatch.setenv("PYTHONHASHSEED", "0")
        if seed is None:
            monkeypatch.delenv("PYTHONHASHSEED")
        else:
            monkeypatch.setenv("PYTHONHASHSEED", seed)
        self.fake_execv(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["runner", "fig1", "--seed", "3"])
        with pytest.raises(_Execed) as raised:
            runpy.run_path(runner.__file__, run_name="__main__")
        assert raised.value.args == (
            sys.executable,
            [sys.executable, "-m", "repro.experiments.runner", "fig1", "--seed", "3"],
        )
        assert os.environ["PYTHONHASHSEED"] == "0"

    def test_a_pinned_run_does_not_re_exec(self, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "0")
        self.fake_execv(monkeypatch)
        pin_hash_seed()
