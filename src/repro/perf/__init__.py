"""Performance fast paths for broad-match query processing.

The paper bounds the number of hash probes per query analytically
(Section IV-B: ``Σ C(|Q|, i)`` after re-mapping); this subpackage makes the
*executed* probe count approach the number of probes that can possibly hit:

* :mod:`repro.perf.prefilter` — probe planning: intersect the query with
  the indexed locator vocabulary and cap/skip subset sizes using the
  index's locator-size histogram, so subsets that cannot address any node
  are never generated;
* :mod:`repro.perf.memohash` — incremental subset-hash enumeration over
  the per-word contributions :mod:`repro.core.wordhash` memoizes, so each
  probed subset costs an O(1) XOR combine instead of re-hashing its words;
* :mod:`repro.perf.batch` — :class:`BatchQueryEngine`: deduplicates
  identical word-sets across a batch of queries and hands the distinct
  ones to the index in one dispatch;
* :mod:`repro.perf.bench` — ``make_long_queries``, the long-query
  workload generator the drills and ``bench/`` share.

All fast paths are result-identical to the naive enumeration; the property
tests in ``tests/perf`` pin this.
"""

from repro.perf.batch import BatchQueryEngine
from repro.perf.memohash import hashed_index_subsets
from repro.perf.prefilter import ProbePlan, naive_plan, plan_probes

__all__ = [
    "BatchQueryEngine",
    "ProbePlan",
    "hashed_index_subsets",
    "naive_plan",
    "plan_probes",
]
