"""repro — reproduction of "A Data Structure for Sponsored Search" (ICDE 2009).

Public API highlights:

* :class:`repro.core.WordSetIndex` — the paper's hash-of-word-sets broad-match
  index, with data nodes, early termination, and re-mapping support.
* :mod:`repro.invindex` — the inverted-index baselines the paper compares
  against (non-redundant rarest-word, counting, fully redundant).
* :mod:`repro.optimize` — long-phrase re-mapping and the workload-driven
  weighted-set-cover mapping optimizer.
* :mod:`repro.compress` — front-coding, delta coding, and the rank/select
  compressed hash replacement of Section VI.
* :mod:`repro.cost` — the main-memory cost model and access accounting.
* :mod:`repro.obs` — zero-dependency metrics registry and trace spans wired
  through every :class:`repro.core.RetrievalIndex` implementation and the
  serving stack (off-by-default, Prometheus/JSON exposition).
* :mod:`repro.segment` — the packed serving layout and the one durable
  index, :class:`repro.segment.TieredSegmentedIndex`: a mutable overlay
  over immutable segment files, committed through a checksummed manifest.
* :mod:`repro.faults` — the deterministic fault-injection harness that
  crashes that commit protocol at every step to prove recovery.
* :mod:`repro.datagen` — synthetic corpus/workload generators calibrated to
  the paper's published distributions.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from repro.core import (
    AdCorpus,
    AdInfo,
    Advertisement,
    MatchType,
    Query,
    RetrievalIndex,
    TrieWordSetIndex,
    Workload,
    WordSetIndex,
    explain_broad_match,
)
from repro.cost import AccessTracker, CostModel
from repro.faults import FaultInjector, InjectedCrash
from repro.obs import MetricsRegistry, NullRegistry

__version__ = "1.0.0"

__all__ = [
    "AdCorpus",
    "AdInfo",
    "Advertisement",
    "AccessTracker",
    "CostModel",
    "FaultInjector",
    "InjectedCrash",
    "MatchType",
    "MetricsRegistry",
    "NullRegistry",
    "Query",
    "RetrievalIndex",
    "TrieWordSetIndex",
    "Workload",
    "WordSetIndex",
    "__version__",
    "explain_broad_match",
]
