"""The vectorized ``B^sig`` bit test, kept for one caller.

:func:`sig_hit_positions` tested every probe suffix of a batch against a
segment's u64 word array in one numpy expression, returning the
positions of the hits in probe order.  The packed index no longer calls
it: it walks its locator-prefix trie and tests each of the few keys the
walk reaches inline
(:meth:`~repro.segment.packed.PackedSegmentIndex._walk`).  Kept for
bench/layers.py until ROADMAP item 1's hook: its traced run patches
this name on this module.
"""

from __future__ import annotations

from typing import Any

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI leg
    _np = None  # type: ignore[assignment]

__all__ = ["sig_hit_positions"]


def sig_hit_positions(suffixes: Any, sig_words: Any) -> Any:
    """Positions (ascending) of the suffixes whose ``B^sig`` bit is set:
    one vectorized gather-shift-mask over the segment's u64 words, the
    bulk form of the inlined ``(words[s >> 6] >> (s & 63)) & 1`` test.
    """
    words = sig_words[suffixes >> _np.uint64(6)]
    bits = (words >> (suffixes & _np.uint64(63))) & _np.uint64(1)
    return _np.nonzero(bits)[0]
