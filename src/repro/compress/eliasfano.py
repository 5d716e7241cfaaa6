"""Elias-Fano encoding of monotone integer sequences.

The compressed hash's ``B^off`` is a sparse bit array marking the byte
offsets at which data nodes start — equivalently, a strictly increasing
integer sequence.  Elias-Fano is the canonical succinct representation for
exactly that: ``k`` values below ``u`` take ``k*(2 + ceil(log2(u/k)))``
bits, within a constant of the ``H0`` bound the paper's sizing argument
uses, while supporting O(1)-ish ``access(j)`` (the ``select_1`` the Fig 6
lookup needs) and binary-search ``rank``.

Layout: each value is split into ``low_bits = floor(log2(u/k))`` low bits
stored verbatim and a high part stored in unary inside a plain rank/select
bit vector (value ``j``'s high part ``h_j`` is a 1-bit at position
``h_j + j``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence

from repro.compress.bitvector import BitVector


class EliasFano:
    """Succinct monotone sequence with ``access`` and predecessor search."""

    def __init__(self, values: Sequence[int], universe: int | None = None) -> None:
        values = list(values)
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("values must be non-decreasing")
        if values and values[0] < 0:
            raise ValueError("values must be non-negative")
        self._k = len(values)
        self._universe = (
            universe
            if universe is not None
            else (values[-1] + 1 if values else 1)
        )
        if values and values[-1] >= self._universe:
            raise ValueError("universe too small for the values")
        if self._k == 0:
            self._low_bits = 0
            self._lows: list[int] = []
            self._high = BitVector.from_positions(0, ())
            return
        ratio = max(1, self._universe // self._k)
        self._low_bits = max(0, ratio.bit_length() - 1)
        mask = (1 << self._low_bits) - 1
        self._lows = [v & mask for v in values]
        high_positions = [
            (v >> self._low_bits) + j for j, v in enumerate(values)
        ]
        self._high = BitVector.from_positions(
            high_positions[-1] + 1 if high_positions else 1, high_positions
        )

    @classmethod
    def from_bit_positions(cls, length: int, one_positions: Iterable[int]) -> EliasFano:
        """Encode a sparse bit array (the 1-bit positions), like ``B^off``."""
        return cls(sorted(set(one_positions)), universe=max(1, length))

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._k

    @property
    def universe(self) -> int:
        return self._universe

    def access(self, j: int) -> int:
        """The ``j``-th (0-based) value — ``select_1(B, j+1)`` on the
        equivalent bit array."""
        if not 0 <= j < self._k:
            raise IndexError(j)
        high = self._high.select1(j + 1) - j
        return (high << self._low_bits) | self._lows[j]

    def select1(self, j: int) -> int:
        """1-based select, matching the BitVector interface."""
        return self.access(j - 1)

    def rank(self, value: int) -> int:
        """Number of stored values strictly below ``value``."""
        if self._k == 0 or value <= 0:
            return 0
        low = 0
        high = self._k
        while low < high:
            mid = (low + high) // 2
            if self.access(mid) < value:
                low = mid + 1
            else:
                high = mid
        return low

    def __contains__(self, value: int) -> bool:
        index = self.rank(value)
        return index < self._k and self.access(index) == value

    def values(self) -> list[int]:
        return [self.access(j) for j in range(self._k)]

    def size_bits(self) -> int:
        """Actual storage: low bits + high bit vector (with directories)."""
        return self._k * self._low_bits + self._high.size_bits()

    @staticmethod
    def theoretical_bits(k: int, universe: int) -> float:
        """The textbook ``k * (2 + log2(u/k))`` bound."""
        if k == 0:
            return 0.0
        from math import log2

        return k * (2 + max(0.0, log2(universe / k)))


class EliasFanoBitVector:
    """Adapter exposing the BitVector read interface over an EF-coded set.

    For very sparse bit arrays (``B^sig`` over a ``2^s`` universe with few
    nodes) this beats RRR, whose class stream is linear in the array
    *length*; EF is linear in the number of ones.
    """

    __slots__ = ("_ef", "_n")

    def __init__(self, length: int, one_positions: Iterable[int]) -> None:
        self._n = length
        self._ef = EliasFano.from_bit_positions(length, one_positions)

    @classmethod
    def from_positions(cls, length: int, one_positions: Iterable[int]):
        return cls(length, one_positions)

    def __len__(self) -> int:
        return self._n

    @property
    def ones(self) -> int:
        return len(self._ef)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return int(i in self._ef)

    def rank1(self, i: int) -> int:
        if not 0 <= i <= self._n:
            raise IndexError(i)
        return self._ef.rank(i)

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def select1(self, j: int) -> int:
        return self._ef.select1(j)

    def size_bits(self) -> int:
        return self._ef.size_bits()


def _binary_search_guard(values: Sequence[int], target: int) -> int:
    """Reference rank via bisect, used by tests."""
    return bisect_left(list(values), target)
