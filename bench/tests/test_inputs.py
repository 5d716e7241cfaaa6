"""Inputs: same seed, same bytes; other seed, same amount of work."""

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from harness import RunContext
from inputs import QUICK, Scale, generate_bytes, load_inputs, stratified_draw, stratified_units

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

_DIGEST = (
    "import hashlib, sys;"
    f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}];"
    "from inputs import Scale, generate_bytes;"
    "print(hashlib.sha256(generate_bytes(Scale('tiny', 1500, 400, 80, 400))).hexdigest())"
)


def _digest_in_fresh_process() -> str:
    done = subprocess.run(
        [sys.executable, "-c", _DIGEST],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return done.stdout.strip()


def test_generated_inputs_are_byte_identical_across_processes():
    assert _digest_in_fresh_process() == _digest_in_fresh_process()


def test_generation_refuses_an_unpinned_hash_seed(monkeypatch):
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    with pytest.raises(RuntimeError, match="PYTHONHASHSEED"):
        generate_bytes(Scale("tiny", 10, 10, 10, 10))


def _weights(size: int) -> list[int]:
    """A sorted heavy-tailed weight list shaped like the oracle slate
    sizes of the pinned pool (median ~400, mean ~750, maximum ~6 000)."""
    rng = random.Random(0)
    return sorted(min(6_000, int(rng.lognormvariate(6.0, 1.1))) for _ in range(size))


def test_every_seed_draws_the_same_count_from_every_stratum():
    size, strata = 20_000, 20
    for seed in range(1, 6):
        drawn = stratified_draw(size, 2048, random.Random(seed), strata)
        assert len(set(drawn)) == 2048
        per_stratum = [0] * strata
        for index in drawn:
            per_stratum[index * strata // size] += 1
        # 2048 = 20 * 102 + 8: the remainder goes to the first strata.
        assert per_stratum == [103] * 8 + [102] * 12


def test_units_hold_every_stratum_and_total_work_repeats_within_3_percent():
    size, strata, units, per_stratum = 20_000, 20, 115, 2
    weights = _weights(size)
    totals = []
    for seed in range(1, 11):
        drawn = stratified_units(size, units, per_stratum, random.Random(seed), strata)
        flat = [index for unit in drawn for index in unit]
        assert len(set(flat)) == units * strata * per_stratum
        for unit in drawn:
            counts = [0] * strata
            for index in unit:
                counts[index * strata // size] += 1
            assert counts == [per_stratum] * strata
        totals.append(sum(weights[index] for index in flat))
    assert (max(totals) - min(totals)) / min(totals) < 0.03


def test_a_stratum_that_runs_dry_is_an_error_not_a_repeat():
    with pytest.raises(ValueError, match="stratum"):
        stratified_units(100, 10, 1, random.Random(1), strata=20)


@pytest.fixture(scope="module")
def quick_inputs():
    if os.environ.get("PYTHONHASHSEED") != "0":
        pytest.skip("needs PYTHONHASHSEED=0 (run bench/check.sh)")
    return load_inputs(ROOT / ".bench_scratch", QUICK)


def _plans(inputs, seed):
    import inproc
    import net

    ctx = RunContext(
        inputs=inputs, seed=seed, units=10, scratch=Path("unused"), tracer=None
    )
    uniq = net.NetWorkload(ctx, zipf=False)
    churn = inproc.TieredChurnWorkload(ctx)
    long = inproc.InprocLongWorkload(ctx)
    return (
        [[(rid, index) for rid, _, index in unit] for unit in uniq._units],
        [[ad.info.listing_id for ad in unit["I"] + unit["D"]] for unit in churn._units],
        long._units,
    )


def test_a_seed_fixes_the_plan_of_every_workload(quick_inputs):
    assert _plans(quick_inputs, 7) == _plans(quick_inputs, 7)
    assert _plans(quick_inputs, 7) != _plans(quick_inputs, 8)
