"""repro.resilience — serve-time overload protection.

PR 3 made the system survive *crashes*; this package makes it survive
*load*.  The paper itself supplies the degradation knob: Section IV's
query truncation bounds subset enumeration to ``sum C(|Q|, i)`` probes,
trading recall for bounded work — exactly the lever a server should pull
under overload instead of falling over.  Around that knob this package
builds the standard production defences:

* :class:`Deadline` — a per-request budget object propagated end-to-end.
  Index query paths check it before each node scan and return a partial,
  *flagged* result instead of blowing the budget.
* :class:`AdmissionController` — a token bucket with priority classes
  and in-flight-depth load shedding (lowest priority first), used by
  :class:`~repro.serving.server.AdServer` and the netserve frontend.  A
  shed request still gets an explicit answer, never a dropped
  connection.
* :class:`CircuitBreaker` — closed → open → half-open breakers that stop
  retry storms against a struggling worker (the metastable-failure
  amplification the Dynamo / tail-at-scale literature warns about),
  held by the netserve frontend, one per worker process.
* :class:`DegradationPolicy` — an adaptive ladder that responds to
  measured pressure (p95 latency from :mod:`repro.obs` histograms) by
  stepping down query truncation and capping probe plans.

Everything is **off by default**: with no resilience objects attached,
every hot path is byte-for-byte the previous behaviour, and fault-free
results are bit-identical to the pre-resilience baseline.  Each piece
has its own clock-injected unit tests (``tests/resilience``) and is
tested again on the serving paths that hold it (``tests/serving``,
``tests/netserve``).

See ``docs/resilience.md`` for the shed/degrade ladder, the breaker
state machine, and the tuning table.
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
from repro.resilience.degrade import (
    DEFAULT_LADDER,
    DegradationLevel,
    DegradationPolicy,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_LADDER",
    "Deadline",
    "DegradationLevel",
    "DegradationPolicy",
    "DegradedReason",
    "ManualClock",
    "Priority",
    "monotonic_ms",
]
