"""Bulk membership kernels: probe a whole batch of keys in one pass.

The packed segment keys its nodes by ``B^sig`` bit:
:func:`sig_hit_positions` tests every probe suffix of a batch's bulk
plans against the segment's u64 word array in one vectorized
expression.  It returns the *positions* of the hits within the probe
array, in probe order, so the node scan visits nodes in exactly the
streamed order.  Misses — the overwhelming majority after prefiltering
— never surface into Python at all.  (The mutable
:class:`~repro.core.wordset_index.WordSetIndex` needs no kernel here:
its bulk plans stream their flat keys through its dict.)
"""

from __future__ import annotations

from typing import Any, Sequence

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None  # type: ignore[assignment]

__all__ = [
    "sig_hit_positions",
    "sig_words_array",
    "split_by_query",
]


def sig_words_array(buffer: Any) -> Any:
    """The segment's ``B^sig`` bit-array words as a zero-copy
    little-endian ``uint64`` numpy view over the mapped buffer."""
    return _np.frombuffer(buffer, dtype="<u8")


def sig_hit_positions(suffixes: Any, sig_words: Any) -> Any:
    """Positions (ascending) of the suffixes whose ``B^sig`` bit is set.

    One vectorized gather-shift-mask over the segment's u64 words — the
    bulk form of the streamed scan's inlined
    ``(words[s >> 6] >> (s & 63)) & 1`` test.
    """
    words = sig_words[suffixes >> _np.uint64(6)]
    bits = (words >> (suffixes & _np.uint64(63))) & _np.uint64(1)
    return _np.nonzero(bits)[0]


def split_by_query(
    hit_positions: Any, boundaries: Sequence[int]
) -> Any:
    """Split a batch-wide hit-position array back into per-query spans.

    ``boundaries`` holds each query's end offset in the concatenated
    key array (ascending); returns the index into ``hit_positions``
    where each query's hits end — one ``searchsorted``, no per-hit
    Python work.
    """
    return _np.searchsorted(
        hit_positions, _np.asarray(boundaries, dtype=_np.intp)
    )
