"""Flat probe-key enumeration: subset hashes as one array, size by size.

A streamed plan enumerates its probe keys through the
:func:`repro.perf.memohash.hashed_index_subsets` generator — amortized
O(1) XOR work per subset, but still one generator hop, one ``yield``,
and one loop iteration of interpreter overhead per probe.  A bulk plan
(see :func:`repro.kernels.pipeline.bulk_membership`) takes its keys
from here instead: one flat ``numpy.uint64`` array enumerated without
any per-subset Python work.

The keys are built one subset size at a time, with the generator's
prefix trick done a whole level at once: the size-1 keys are the
candidates' :func:`~repro.core.wordhash.word_contrib` values, and each
size-``k`` key is the key of its size-``k-1`` prefix XOR the
contribution of its last word — one gather and one XOR per level.  The
two index arrays a level gathers through (prefix position, last word)
depend only on ``(n, k)`` and are cached, shared by every query with
``n`` candidate words.

The requested sizes come back concatenated in exactly the canonical
enumeration order (size-ascending, lexicographic within a size) that
:func:`~repro.core.subset_enum.sized_subsets` defines, so downstream
results are bit-identical to the streamed plan's.  Every call returns a
fresh array that the caller owns.
"""

from __future__ import annotations

from typing import Any

from repro.core.wordhash import word_contrib

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None  # type: ignore[assignment]

__all__ = ["clear_caches", "flat_probe_keys"]

#: Level index arrays larger than this many cells are built transiently
#: rather than cached.
_MAX_LEVEL_CELLS = 1 << 20

_level_cache: dict[tuple[int, int], tuple[Any, Any]] = {}


def clear_caches() -> int:
    """Drop the level-index cache; returns its size."""
    size = len(_level_cache)
    _level_cache.clear()
    return size


def _level(n: int, k: int, tails: Any) -> tuple[Any, Any]:
    """``(prefix, last)`` for the size-``k`` subsets of ``range(n)`` in
    lexicographic order: subset ``j`` is size-``k-1`` subset
    ``prefix[j]`` plus member ``last[j]``.  ``tails`` holds the last
    member of each size-``k-1`` subset, in the same order."""
    cached = _level_cache.get((n, k))
    if cached is not None:
        return cached
    # Each smaller subset is extended by every member after its tail,
    # in order; the runs follow the smaller subsets' own order.
    runs = n - 1 - tails
    prefix = _np.repeat(_np.arange(len(tails)), runs)
    offsets = _np.cumsum(runs) - runs - tails - 1
    last = _np.arange(len(prefix)) - _np.repeat(offsets, runs)
    if 2 * len(prefix) <= _MAX_LEVEL_CELLS:
        _level_cache[(n, k)] = (prefix, last)
    return prefix, last


def flat_probe_keys(candidates: tuple[str, ...], sizes: tuple[int, ...]) -> Any:
    """Every probe key of the plan ``(candidates, sizes)`` as one flat
    ``numpy.uint64`` array, in canonical enumeration order: exactly the
    keys :func:`~repro.perf.memohash.hashed_index_subsets` would yield.
    """
    n = len(candidates)
    wanted = {size for size in sizes if 1 <= size <= n}
    if not wanted:
        return _np.empty(0, dtype=_np.uint64)
    contribs = _np.fromiter(
        (word_contrib(word) for word in candidates), dtype=_np.uint64, count=n
    )
    levels = {1: contribs}
    keys, tails = contribs, _np.arange(n)
    for k in range(2, max(wanted) + 1):
        prefix, tails = _level(n, k, tails)
        keys = levels[k] = keys[prefix] ^ contribs[tails]
    parts = [levels[size] for size in sizes if size in wanted]
    return parts[0] if len(parts) == 1 else _np.concatenate(parts)
