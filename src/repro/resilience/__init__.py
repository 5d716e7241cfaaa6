"""repro.resilience — serve-time overload protection.

The durability stack makes the system survive *crashes*; this package
makes it survive *load*.  The paper bounds a query's work with one
static knob, Section IV's truncation to ``max_words`` /
``max_query_words``, fixed in the index configuration.  Around it this
package holds the standard production defences, each with one owner:

* :class:`Deadline` — a per-request time budget propagated end-to-end.
  Index query paths check it before each node scan and return a partial,
  *flagged* result instead of blowing the budget.
* :class:`AdmissionController` — a token bucket with priority classes
  and in-flight-depth load shedding (lowest priority first), held by the
  netserve frontend.  A shed request still gets an explicit answer,
  never a dropped connection.
* :class:`CircuitBreaker` — closed → open → half-open breakers that stop
  retry storms against a struggling worker (the metastable-failure
  amplification the Dynamo / tail-at-scale literature warns about),
  held by the netserve frontend, one per worker process.

Everything is **off by default**: with no resilience objects attached,
every hot path is byte-for-byte the previous behaviour, and fault-free
results are bit-identical to the pre-resilience baseline.  Each piece
has its own clock-injected unit tests (``tests/resilience``) and is
tested again on the serving paths that hold it (``tests/serving``,
``tests/netserve``).

See ``docs/resilience.md`` for who sheds, the breaker state machine,
and the tuning table.
"""

from repro.resilience.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    Priority,
)
from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.deadline import (
    Deadline,
    DegradedReason,
    ManualClock,
    monotonic_ms,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "DegradedReason",
    "ManualClock",
    "Priority",
    "monotonic_ms",
]
