"""Incremental subset-hash enumeration over memoized word hashes.

``wordhash`` of a set is the XOR of a mixed per-word hash, each memoized
once per process by :func:`repro.core.wordhash.word_contrib` (the one
memo, shared with inserts, deletes and point lookups; its growth bound is
documented there).  XOR is associative and invertible, so the hash of
every probed subset can be assembled from those *contributions* — instead
of re-hashing each word's bytes for every subset a query enumerates (a
``|Q|``-word query probes up to ``2^|Q| - 1`` subsets, touching each word
``2^(|Q|-1)`` times under naive re-hashing).

:func:`hashed_index_subsets` enumerates subset hashes *incrementally*:
consecutive combinations in lexicographic order share a prefix, and the
enumerator maintains prefix XOR accumulators, so advancing to the next
subset costs O(1) amortized XOR work rather than O(|subset|).

The enumeration order (size-ascending, lexicographic within a size over
the sorted candidate words) is exactly that of
:func:`repro.core.subset_enum.bounded_subsets`, so traces, costs, and
result order are preserved bit-for-bit against the naive path.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


def hashed_index_subsets(
    contribs: Sequence[int], sizes: Iterable[int]
) -> Iterator[tuple[int, list[int]]]:
    """Yield ``(subset_hash, index_list)`` for index subsets of ``contribs``.

    For each size in ``sizes`` (ascending sizes give the canonical probe
    order), enumerates all index combinations in lexicographic order.  The
    yielded ``index_list`` is **live** — it is mutated in place as the
    enumeration advances — so callers needing the subset identity must copy
    it before the next step (a hit-only copy is the point: misses never
    materialize a subset).

    The hash equals ``wordhash`` of the corresponding word subset whenever
    ``contribs[i] == word_contrib(words[i])``.
    """
    n = len(contribs)
    for size in sizes:
        if size < 1 or size > n:
            continue
        indices = list(range(size))
        # prefix[j] = XOR of contribs[indices[0..j-1]].
        prefix = [0] * (size + 1)
        for j in range(size):
            prefix[j + 1] = prefix[j] ^ contribs[indices[j]]
        while True:
            yield prefix[size], indices
            # Advance like itertools.combinations: find the rightmost index
            # that can move, bump it, reset the tail, and recompute only the
            # prefix XORs from that position on (amortized O(1) per step).
            for j in range(size - 1, -1, -1):
                if indices[j] != j + n - size:
                    break
            else:
                break
            indices[j] += 1
            for k in range(j + 1, size):
                indices[k] = indices[k - 1] + 1
            for k in range(j, size):
                prefix[k + 1] = prefix[k] ^ contribs[indices[k]]
