"""repro.faults — deterministic fault injection for the durability path.

A serving system's crash-safety claims are only as good as the crashes
they have survived.  This package provides the harness the durability
tests (and any operator drill) use to *prove* the recovery protocol:

* :class:`FaultInjector` — named **crashpoints** threaded through
  :meth:`repro.segment.SegmentBuilder.write` and the seals, merges and
  manifest commits of :class:`repro.segment.TieredSegmentedIndex`.  Arm
  a point and the instrumented code raises :class:`InjectedCrash`
  exactly there, simulating the process dying mid-operation.
* :mod:`repro.faults.mutators` — torn-write and bit-flip file mutators
  that corrupt persisted state the way real power loss and bit-rot do.

Injection is **off by default**: every instrumented component takes
``faults=None`` and normalises it to the shared no-op
:data:`NULL_INJECTOR`, so the production path never pays more than an
attribute load and a no-op call per crashpoint.

See ``docs/durability.md`` for the crashpoint catalog and the failure
matrix each point is tested against.
"""

from repro.faults.injector import (
    NULL_INJECTOR,
    FaultInjector,
    InjectedCrash,
    NullFaultInjector,
    active_injector,
)
from repro.faults.mutators import bit_flip, tear_tail, truncate_at

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "NULL_INJECTOR",
    "NullFaultInjector",
    "active_injector",
    "bit_flip",
    "tear_tail",
    "truncate_at",
]
