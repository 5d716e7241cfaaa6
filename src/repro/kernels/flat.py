"""Flat probe-key enumeration: subset hashes as precomputed arrays.

A streamed plan enumerates its probe keys through the
:func:`repro.perf.memohash.hashed_index_subsets` generator — amortized
O(1) XOR work per subset, but still one generator hop, one ``yield``,
and one loop iteration of interpreter overhead per probe.  A bulk plan
(see :func:`repro.kernels.pipeline.bulk_membership`) takes its keys
from here instead: one flat ``numpy.uint64`` array enumerated without
any per-subset Python work.  For each subset size ``k`` the query's
per-word contribution array is XOR-reduced through a precomputed
``C(n, k) x k`` combination-index matrix (cached per ``(n, k)``, shared
by every query with ``n`` candidate words).

The keys come in exactly the canonical enumeration order
(size-ascending, lexicographic within a size) that
:func:`~repro.core.subset_enum.sized_subsets` defines, so downstream
results are bit-identical to the streamed plan's.

Because broad-match traffic is power-law, the same ``(candidates,
sizes)`` plans recur constantly; a bounded LRU keyed by the plan caches
the finished key arrays, so in steady state a head query's enumeration
costs one dictionary hit.  The cache key depends only on the plan —
which the prefilter recomputes from live index state on every query —
so index mutations can never serve stale keys.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain, combinations
from math import comb
from typing import Any, Sequence

from repro.core.wordhash import word_contrib

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None  # type: ignore[assignment]

__all__ = ["clear_caches", "flat_probe_keys"]

#: Bounded plan -> key-array LRU.  4096 distinct plans comfortably cover
#: a power-law head; each entry is a few hundred 8-byte keys.
_MAX_PLANS = 4096

#: Key arrays longer than this are rebuilt per query instead of cached
#: (a single pathological 16-word plan would otherwise crowd out the
#: whole head).
_MAX_CACHED_KEYS = 1 << 16

#: Combination-index matrices larger than this many cells are built
#: transiently rather than cached.
_MAX_COMBO_CELLS = 1 << 20

_plan_cache: OrderedDict[tuple[tuple[str, ...], tuple[int, ...]], Any]
_plan_cache = OrderedDict()
_combo_cache: dict[tuple[int, int], Any] = {}


def clear_caches() -> tuple[int, int]:
    """Drop the plan-key and combination caches; returns their sizes."""
    sizes = (len(_plan_cache), len(_combo_cache))
    _plan_cache.clear()
    _combo_cache.clear()
    return sizes


def _combo_matrix(n: int, k: int) -> Any:
    """``C(n, k) x k`` matrix of index combinations in lexicographic
    order — the gather pattern for vectorized subset enumeration."""
    cached = _combo_cache.get((n, k))
    if cached is not None:
        return cached
    count = comb(n, k)
    matrix = _np.fromiter(
        chain.from_iterable(combinations(range(n), k)),
        dtype=_np.intp,
        count=count * k,
    ).reshape(count, k)
    if count * k <= _MAX_COMBO_CELLS:
        _combo_cache[(n, k)] = matrix
    return matrix


def _keys_numpy(candidates: Sequence[str], sizes: Sequence[int]) -> Any:
    contribs = _np.fromiter(
        (word_contrib(word) for word in candidates),
        dtype=_np.uint64,
        count=len(candidates),
    )
    n = len(candidates)
    parts: list[Any] = []
    for size in sizes:
        if size < 1 or size > n:
            continue
        if size == 1:
            parts.append(contribs)
            continue
        matrix = _combo_matrix(n, size)
        parts.append(_np.bitwise_xor.reduce(contribs[matrix], axis=1))
    if not parts:
        return _np.empty(0, dtype=_np.uint64)
    if len(parts) == 1:
        # Copy so cached arrays never alias the contribs scratch.
        return parts[0].copy()
    return _np.concatenate(parts)


def flat_probe_keys(candidates: tuple[str, ...], sizes: tuple[int, ...]) -> Any:
    """Every probe key of the plan ``(candidates, sizes)`` as one flat
    ``numpy.uint64`` array, in canonical enumeration order: exactly the
    keys :func:`~repro.perf.memohash.hashed_index_subsets` would yield.
    Results are served from a bounded LRU keyed by the plan.
    """
    cache_key = (candidates, sizes)
    cached = _plan_cache.get(cache_key)
    if cached is not None:
        _plan_cache.move_to_end(cache_key)
        return cached
    keys = _keys_numpy(candidates, sizes)
    if len(keys) <= _MAX_CACHED_KEYS:
        _plan_cache[cache_key] = keys
        if len(_plan_cache) > _MAX_PLANS:
            _plan_cache.popitem(last=False)
    return keys
