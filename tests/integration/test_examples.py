"""Smoke tests: every example script runs to completion and prints its
expected final output."""

import subprocess
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "broad" in out
        assert "[1, 2, 4]" in out
        assert "after re-mapping" in out

    def test_ad_platform(self):
        out = run_example("ad_platform.py")
        assert "queries served:        2,000" in out
        assert "impressions" in out

    def test_workload_tuning(self):
        out = run_example("workload_tuning.py")
        assert "sample-optimized mapping" in out
        assert "after workload shift" in out

    def test_compressed_serving(self):
        out = run_example("compressed_serving.py")
        assert "verified 300 queries identical" in out
        assert "front-coded" in out

    def test_online_maintenance(self):
        out = run_example("online_maintenance.py")
        assert "all answers oracle-verified" in out

    def test_auction_budgets(self):
        out = run_example("auction_budgets.py")
        assert "queries:              10,000" in out
        assert "revenue" in out

    def test_import_and_serve(self):
        out = run_example("import_and_serve.py")
        assert "done — all stages verified" in out
        assert "reopened generation 2 with 8 ads" in out
