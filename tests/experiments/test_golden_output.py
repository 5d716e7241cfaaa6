"""The committed ``experiments_output.txt`` is what the runner prints.

EXPERIMENTS.md quotes that file, so a change that moves any table or
figure at ``--scale small`` must regenerate it (and re-check the prose)
in the same commit.  Section headers carry wall-clock timings; those are
stripped on both sides before the comparison.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[2]
GOLDEN = REPO / "experiments_output.txt"
_TIMING = re.compile(r"^(==== \S+ \(scale=\w+), [0-9.]+s\)", re.MULTILINE)


def strip_timings(text: str) -> str:
    return _TIMING.sub(r"\1)", text)


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="Python 3.10 hashes strings differently, so PYTHONHASHSEED=0 "
    "iterates the query generator's sets in another order",
)
def test_small_scale_runner_output_matches_committed_file():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "--scale", "small"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
        check=True,
    )
    expected = strip_timings(GOLDEN.read_text())
    assert strip_timings(completed.stdout) == expected
