"""``run.py`` against its contract: the result line, the metric names
and units of ``BENCHMARK.json``, and failures that count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

needs_pinned_hash = pytest.mark.skipif(
    os.environ.get("PYTHONHASHSEED") != "0",
    reason="needs PYTHONHASHSEED=0 (run bench/check.sh)",
)


def test_benchmark_json_names_the_command_and_the_workloads_of_run_py():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]


def test_every_bound_is_set_and_no_timing_bound_is_wider_than_a_tenth():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["bytes_per_ad"] == 0.01
    assert bounds["server_rss_mb"] == 0.03
    assert all(0 < bound <= 0.10 for bound in bounds.values())
    assert max(bounds.values()) == bounds["setup_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_last_stdout_line_is_the_result_object(trace):
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--quick",
            "--workload", "inproc_long", "--seed", "3", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    document = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["correct"] is True
    assert document["failed"] == 0 and document["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: entry["unit"] for name, entry in document["metrics"].items()
    } == {m["name"]: m["unit"] for m in wanted}
    assert all(
        isinstance(entry["value"], float) for entry in document["metrics"].values()
    )


@needs_pinned_hash
def test_a_wrong_slate_counts_as_failed_and_fails_the_command(monkeypatch, capsys):
    import inproc
    import inputs
    from harness import RunContext

    tampered = inputs.load_inputs(ROOT / ".bench_scratch", inputs.QUICK)
    ctx = RunContext(
        inputs=tampered, seed=3, units=run.MIN_UNITS, scratch=Path("unused"), tracer=None
    )
    units = inproc.InprocLongWorkload(ctx)._units
    target = units[0][0][0]
    uses = sum(batch.count(target) for unit in units for batch in unit)
    # The oracle now claims one more candidate for that query than the
    # program can return.
    tampered.long_pool.expected[target]["outcome"]["candidates"] += 1
    monkeypatch.setattr(inputs, "load_inputs", lambda scratch, scale: tampered)

    code = run.main(["--quick", "--workload", "inproc_long", "--seed", "3"])
    document = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert uses > 0
    assert document["failed"] == uses
    assert document["correct"] is False
    assert code != 0


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    """In a directory that holds only the benchmark, there is nothing
    to measure: non-zero exit, no result line."""
    (tmp_path / "bench").mkdir()
    for source in BENCH.glob("*.py"):
        (tmp_path / "bench" / source.name).write_bytes(source.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "net_uniq",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
