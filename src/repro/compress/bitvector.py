"""Bit vectors with O(1) rank and sampled select.

Section VI of the paper encodes the hash table as two compressed binary
sequences supporting ``B[i]``, ``rank_b(B, i)`` and ``select_b(B, j)``.
This module implements the plain (uncompressed) broadword variant the paper
points to as the practical choice [Vigna'08]: 64-bit words, a two-level
rank directory (superblock cumulative counts + in-word popcount), and
position-sampled select with local scan.

:class:`BitVector` ranks/selects over *any* indexable u64 word source,
so a mapped file needs no copy.  A packed segment hands it a
``memoryview.cast("Q")`` straight over the mmap (:meth:`BitVector
.from_buffer`; big-endian hosts fall back to materializing the words,
correctness over zero-copy); the in-memory structures
(:class:`~repro.compress.compressed_hash.CompressedWordSetIndex`,
:class:`~repro.compress.eliasfano.EliasFano`) build theirs from one-bit
positions (:meth:`BitVector.from_positions`) in the same little-endian
word layout :func:`pack_bits` writes into segment files.

Space beyond the raw bits is the directory, built in one pass at
construction: one 64-bit cumulative count per 512-bit superblock plus one
sampled position per ``SELECT_SAMPLE`` ones — a few percent overhead,
reported by :meth:`BitVector.size_bits`.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from typing import cast

WORD_BITS = 64
SUPERBLOCK_WORDS = 8  # 512-bit superblocks
SELECT_SAMPLE = 512  # sample every 512th one-bit


def pack_bits(length: int, one_positions: Iterable[int]) -> bytes:
    """Serialize a bit-array as little-endian u64 words.

    Bit ``i`` of the array is bit ``i % 64`` of word ``i // 64``; in the
    little-endian byte layout that is simply bit ``i % 8`` of byte
    ``i // 8``, so the packing is byte-addressed.
    """
    positions = sorted(set(one_positions))
    if positions and (positions[0] < 0 or positions[-1] >= length):
        raise ValueError("bit position out of range")
    out = bytearray(((length + WORD_BITS - 1) // WORD_BITS) * 8)
    for pos in positions:
        out[pos >> 3] |= 1 << (pos & 7)
    return bytes(out)


class BitVector:
    """Immutable rank/select directory over a u64 word source."""

    __slots__ = ("_n", "_words", "_num_words", "_super_ranks", "_samples", "_ones")

    def __init__(self, words: Sequence[int], n_bits: int) -> None:
        if n_bits < 0:
            raise ValueError("n_bits must be >= 0")
        needed = (n_bits + WORD_BITS - 1) // WORD_BITS
        if len(words) < needed:
            raise ValueError(
                f"word buffer holds {len(words)} words, need {needed}"
            )
        self._n = n_bits
        self._words = words
        self._num_words = needed
        super_ranks = [0]
        samples: list[tuple[int, int]] = []
        running = 0
        for i in range(needed):
            count = words[i].bit_count()
            if count and (
                not samples
                or running // SELECT_SAMPLE != (running + count) // SELECT_SAMPLE
            ):
                samples.append((running, i))
            running += count
            if (i + 1) % SUPERBLOCK_WORDS == 0:
                super_ranks.append(running)
        self._super_ranks = super_ranks
        self._samples = samples
        self._ones = running

    @classmethod
    def from_buffer(cls, buf: memoryview, n_bits: int) -> BitVector:
        """Wrap a little-endian u64 byte buffer (e.g. an mmap slice).

        On little-endian hosts the buffer is reinterpreted in place; a
        big-endian host pays one materializing pass instead of reading
        every word wrong.
        """
        if len(buf) % 8:
            raise ValueError("bit buffer length must be a multiple of 8")
        if sys.byteorder == "little":
            words = cast("Sequence[int]", buf.cast("Q"))
        else:  # pragma: no cover - exercised only on big-endian hosts
            raw = bytes(buf)
            words = [
                int.from_bytes(raw[i : i + 8], "little")
                for i in range(0, len(raw), 8)
            ]
        return cls(words, n_bits)

    @classmethod
    def from_positions(cls, length: int, one_positions: Iterable[int]) -> BitVector:
        """Build a length-``length`` vector with ones at given positions."""
        return cls.from_buffer(memoryview(pack_bits(length, one_positions)), length)

    def release(self) -> None:
        """Release the underlying buffer view (before closing an mmap)."""
        words = self._words
        if isinstance(words, memoryview):
            words.release()
        self._words = ()
        self._num_words = 0
        self._n = 0
        self._ones = 0

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return (self._words[i >> 6] >> (i & 63)) & 1

    @property
    def ones(self) -> int:
        """Total number of 1-bits."""
        return self._ones

    @property
    def words(self) -> Sequence[int]:
        """The raw u64 words — exposed so hot loops can inline bit tests."""
        return self._words

    def rank1(self, i: int) -> int:
        """Number of 1-bits in the prefix ``B[0:i]`` (exclusive of ``i``)."""
        if not 0 <= i <= self._n:
            raise IndexError(i)
        word_index, bit_index = divmod(i, WORD_BITS)
        words = self._words
        base = (word_index // SUPERBLOCK_WORDS) * SUPERBLOCK_WORDS
        rank = self._super_ranks[word_index // SUPERBLOCK_WORDS]
        for w in range(base, word_index):
            rank += words[w].bit_count()
        if bit_index:
            rank += (words[word_index] & ((1 << bit_index) - 1)).bit_count()
        return rank

    def rank0(self, i: int) -> int:
        """Number of 0-bits in the prefix ``B[0:i]``."""
        return i - self.rank1(i)

    def select1(self, j: int) -> int:
        """Position of the ``j``-th (1-based) 1-bit.

        Sample-guided word scan; the in-word select clears the lowest set
        bit ``need - 1`` times and isolates the survivor, touching only
        the set bits instead of probing all 64 positions (the in-word
        scan dominates select cost on sparse occupancy vectors).
        """
        if not 1 <= j <= self._ones:
            raise ValueError(f"select1({j}) out of range (ones={self._ones})")
        start_word = 0
        for seen, word_index in self._samples:
            if seen < j:
                start_word = word_index
            else:
                break
        words = self._words
        base = (start_word // SUPERBLOCK_WORDS) * SUPERBLOCK_WORDS
        seen = self._super_ranks[start_word // SUPERBLOCK_WORDS]
        for w in range(base, start_word):
            seen += words[w].bit_count()
        for w in range(start_word, self._num_words):
            word = words[w]
            count = word.bit_count()
            if seen + count >= j:
                for _ in range(j - seen - 1):
                    word &= word - 1
                return w * WORD_BITS + (word & -word).bit_length() - 1
            seen += count
        raise AssertionError("unreachable: select beyond counted ones")

    def size_bits(self) -> int:
        """Raw bits plus directory overhead (what this structure costs)."""
        raw = self._num_words * WORD_BITS
        directory = len(self._super_ranks) * 64 + len(self._samples) * 128
        return raw + directory
