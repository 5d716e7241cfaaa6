#!/usr/bin/env bash
# The benchmark's own smoke: the --quick run over all four workloads
# (small corpus, 10 units each, every slate still checked), then the
# benchmark's tests.  Not wired into CI yet: this PR may not touch files
# outside bench/.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONHASHSEED=0
python3 bench/run.py --quick
python3 -m pytest -q -p no:cacheprovider bench/tests
