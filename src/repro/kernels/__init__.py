"""The shared probe pipeline and its array-at-a-time kernels.

This package holds the front half of the paper's Section IV-B query
algorithm, written once for
:class:`~repro.core.wordset_index.WordSetIndex`,
:class:`~repro.segment.packed.PackedSegmentIndex` and
:class:`~repro.compress.compressed_hash.CompressedWordSetIndex`, and
the bulk operations over flat arrays that take the CPython interpreter
overhead *per probe* out of their loops:

* :mod:`repro.kernels.pipeline` — how a query's words become a
  budget-tightened probe plan and an ordered stream of probe keys, and
  the one rule (:func:`~repro.kernels.pipeline.engaged`) for when the
  array path may replace the per-probe loop;
* :mod:`repro.kernels.flat` — subset-hash enumeration flattened into
  precomputed flat key arrays (cached across batches, since power-law
  traffic re-probes the same word-sets constantly);
* :mod:`repro.kernels.probe` — batched membership tests: one
  ``searchsorted`` over the index's sorted key table, or one vectorized
  bit-test pass against the segment's ``B^sig`` words, instead of a
  Python-level probe loop.

Two interchangeable backends implement the kernels:

* ``numpy`` — vectorized enumeration and membership (optional
  dependency, the ``perf`` extra);
* ``python`` — pure-python fallback with zero dependencies, proven
  bit-identical by the property suite in ``tests/kernels``.

Backend selection is governed by the ``REPRO_KERNELS`` environment
variable: ``numpy``, ``python``, ``auto`` (the default: numpy when
importable, else python), or ``off`` (the per-probe loops only).

**Equivalence guarantee.**  Every backend — and ``off`` — returns
bit-identical result slates and records identical observability
counters (``index.probes``, ``segment.probes``, node-scan and candidate
counts) for any fault-free query, including plans capped by
degradation constraints.  Kernels only change *how fast* the same
probes run: both paths of an index end in the same node-scan body.
Time-budgeted deadlines, access trackers, and swapped-in hash functions
(collision tests) all take the per-probe loop, where deadline checks
and accounting keep firing at exactly the points they always did.
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
BACKENDS = ("auto", "numpy", "python", "off")

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
    auto-detection.  Returns ``"numpy"``, ``"python"``, or ``"off"``.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    return resolve_backend(os.environ.get(BACKEND_ENV))


def set_backend(value: str | None) -> None:
    """Install (or with ``None`` remove) a process-wide backend
    override taking precedence over the environment flag."""
    global _OVERRIDE
    _OVERRIDE = None if value is None else resolve_backend(value)
