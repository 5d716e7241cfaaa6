"""The shared probe pipeline and its array-at-a-time kernels.

This package holds the front half of the paper's Section IV-B query
algorithm, written once for
:class:`~repro.core.wordset_index.WordSetIndex`,
:class:`~repro.segment.packed.PackedSegmentIndex` and
:class:`~repro.compress.compressed_hash.CompressedWordSetIndex`, and
the bulk operations over flat arrays that take the CPython interpreter
overhead *per probe* out of their loops:

* :mod:`repro.kernels.pipeline` — how a query's words become a probe
  plan and an ordered stream of probe keys, and
  the one rule (:func:`~repro.kernels.pipeline.bulk_membership`) for
  whether a plan's keys are tested in bulk or streamed;
* :mod:`repro.kernels.flat` — subset-hash enumeration flattened into
  one key array per plan, built a subset size at a time (each key is
  its prefix's key XOR one word's contribution);
* :mod:`repro.kernels.probe` — one vectorized bit-test pass of a
  batch's bulk keys against the segment's ``B^sig`` words, instead of
  a Python-level probe loop.

Two backends exist:

* ``numpy`` — plans with at least
  :data:`~repro.kernels.pipeline.BULK_MIN_KEYS` probe keys are
  enumerated and tested in bulk (optional dependency, the ``perf``
  extra);
* ``python`` — zero dependencies; every plan streams.

Backend selection is governed by the ``REPRO_KERNELS`` environment
variable: ``numpy``, ``python``, or ``auto`` (the default: numpy when
importable, else python).

**Equivalence guarantee.**  Both backends, and both ways a plan's keys
reach the scan, return bit-identical result slates and record identical
observability counters (``index.probes``, ``segment.probes``, node-scan
and candidate counts) and ``AccessStats`` for any fault-free untimed
query: each index has one probe body and one node-scan body, and the
rule only changes *how fast* the same probes run.  A timed deadline is
checked before each node scan either way, so an expired budget never
scans another node, and a budget that runs out mid-query cuts both
ways' results at the same node.
"""

from __future__ import annotations

import os

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "active_backend",
    "numpy_available",
    "resolve_backend",
    "set_backend",
]

#: Environment variable naming the kernel backend.
BACKEND_ENV = "REPRO_KERNELS"

#: Accepted ``REPRO_KERNELS`` values.
BACKENDS = ("auto", "numpy", "python")

try:  # The optional ``perf`` extra; the base install has no numpy.
    import numpy as _np  # noqa: F401

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _HAVE_NUMPY = False

#: Process-wide override installed by :func:`set_backend` (tests, CLI).
_OVERRIDE: str | None = None


def numpy_available() -> bool:
    """True when the numpy backend can be used in this process."""
    return _HAVE_NUMPY


def resolve_backend(value: str | None = None) -> str:
    """Normalize a flag value to a concrete backend.

    ``None`` and ``"auto"`` pick numpy when available, else python.
    Explicitly requesting ``numpy`` without numpy installed raises —
    a silent fallback would invalidate any benchmark run under it.
    """
    if value is None or value == "":
        value = "auto"
    value = value.strip().lower()
    if value not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {value!r}; expected one of {BACKENDS}"
        )
    if value == "auto":
        return "numpy" if _HAVE_NUMPY else "python"
    if value == "numpy" and not _HAVE_NUMPY:
        raise RuntimeError(
            "REPRO_KERNELS=numpy but numpy is not installed "
            "(pip install 'repro[perf]')"
        )
    return value


def active_backend() -> str:
    """The backend in effect: the :func:`set_backend` override when one
    is installed, else the ``REPRO_KERNELS`` environment variable, else
    auto-detection.  Returns ``"numpy"`` or ``"python"``.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return resolve_backend(os.environ.get(BACKEND_ENV))


def set_backend(value: str | None) -> None:
    """Install (or with ``None`` remove) a process-wide backend
    override taking precedence over the environment flag."""
    global _OVERRIDE
    _OVERRIDE = None if value is None else resolve_backend(value)
