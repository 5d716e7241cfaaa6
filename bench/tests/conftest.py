"""Path set-up for the benchmark's own tests.

Run them through ``bench/check.sh`` (or with ``PYTHONHASHSEED=0``):
input generation depends on string hashing, and a test that had to
generate the inputs under another hash seed would poison the cache.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
