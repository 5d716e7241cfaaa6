"""Flat probe keys built size by size, against the parent's enumerator.

The parent built each subset size's keys by gathering a ``C(n, k) x k``
combination matrix and XOR-reducing it, behind a plan -> key-array LRU.
Its ``_combo_matrix`` and ``_keys_numpy`` are kept here *verbatim* as the
reference (the LRU only cached their output).  On Hypothesis plans of up
to 12 candidate words and any size tuple — sizes below 1 or above ``n``,
gaps, repeats, any order — :func:`repro.kernels.flat.flat_probe_keys`
must return an equal ``uint64`` array, an empty ``uint64`` array when no
size fits, and a fresh array every call.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Any, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wordhash import word_contrib
from repro.kernels import numpy_available
from repro.kernels.flat import clear_caches, flat_probe_keys

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None  # type: ignore[assignment]

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="flat keys need numpy"
)

# ---------------------------------------------------------------------- #
# The reference: the parent's enumerator, verbatim.

#: Combination-index matrices larger than this many cells are built
#: transiently rather than cached.
_MAX_COMBO_CELLS = 1 << 20

_combo_cache: dict[tuple[int, int], Any] = {}


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


# ---------------------------------------------------------------------- #

WORDS = [f"w{i:02d}" for i in range(24)]


def assert_matches_parent(candidates: tuple[str, ...], sizes: tuple[int, ...]):
    expected = _keys_numpy(candidates, sizes)
    first = flat_probe_keys(candidates, sizes)
    assert first.dtype == _np.uint64
    assert _np.array_equal(first, expected)
    # The caller owns the array: writing to it leaves the next call whole.
    first[:] = 0
    second = flat_probe_keys(candidates, sizes)
    assert second is not first
    assert _np.array_equal(second, expected)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(WORDS), max_size=12, unique=True).map(tuple),
    st.lists(st.integers(min_value=-2, max_value=14), max_size=8).map(tuple),
)
def test_keys_equal_parents(candidates, sizes):
    assert_matches_parent(candidates, sizes)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=12, unique=True),
    st.sets(st.integers(min_value=1, max_value=12), min_size=1),
)
def test_plan_shaped_keys_equal_parents(candidates, sizes):
    """Plans as the prefilter makes them: ascending sizes, no repeats."""
    assert_matches_parent(tuple(candidates), tuple(sorted(sizes)))


@pytest.mark.parametrize(
    "n, sizes",
    [
        (16, (1, 2, 3)),  # a re-mapped long query: small sizes only
        (16, (2, 3)),
        (16, (1, 3, 5)),  # gaps
        (12, tuple(range(1, 13))),  # a full 12-word power set
        (16, tuple(range(1, 17))),  # a full 16-word power set
    ],
)
def test_long_plans_equal_parents(n, sizes):
    assert_matches_parent(tuple(WORDS[:n]), sizes)


@pytest.mark.parametrize(
    "candidates, sizes",
    [
        ((), (1, 2)),
        (("a", "b"), ()),
        (("a", "b"), (0, -1, 3)),
    ],
)
def test_no_fitting_size_is_empty_uint64(candidates, sizes):
    keys = flat_probe_keys(candidates, sizes)
    assert keys.dtype == _np.uint64 and keys.shape == (0,)


def test_clear_caches_reports_the_level_cache():
    clear_caches()
    flat_probe_keys(tuple(WORDS[:6]), (1, 2, 3))
    assert clear_caches() == 2  # the (6, 2) and (6, 3) levels
    assert clear_caches() == 0
    # A cleared cache rebuilds the same keys.
    assert_matches_parent(tuple(WORDS[:6]), (1, 2, 3))
