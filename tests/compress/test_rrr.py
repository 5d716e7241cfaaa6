"""Tests for the RRR-style compressed bit vector."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitvector import BitVector
from repro.compress.rrr import (
    BLOCK_BITS,
    RRRBitVector,
    _block_from_offset,
    _block_offset,
)
from repro.compress.sizing import h0_bits


class TestEnumerativeCoding:
    def test_roundtrip_all_classes(self):
        rng = random.Random(0)
        for _ in range(300):
            block = rng.randrange(1 << BLOCK_BITS)
            cls = block.bit_count()
            assert _block_from_offset(_block_offset(block, cls), cls) == block

    def test_all_zero_and_all_one(self):
        assert _block_offset(0, 0) == 0
        full = (1 << BLOCK_BITS) - 1
        assert _block_from_offset(_block_offset(full, BLOCK_BITS), BLOCK_BITS) == full

    def test_offsets_dense_within_class(self):
        # All 2-bit blocks must map to distinct offsets in [0, C(15,2)).
        from math import comb

        blocks = [
            (1 << i) | (1 << j)
            for i in range(BLOCK_BITS)
            for j in range(i + 1, BLOCK_BITS)
        ]
        offsets = {_block_offset(b, 2) for b in blocks}
        assert len(offsets) == len(blocks) == comb(BLOCK_BITS, 2)
        assert max(offsets) == comb(BLOCK_BITS, 2) - 1


def plain_vector(bits):
    return BitVector.from_positions(
        len(bits), [i for i, bit in enumerate(bits) if bit]
    )


class TestAgainstPlainBitVector:
    @pytest.mark.parametrize("density", [0.02, 0.2, 0.5, 0.9])
    def test_rank_and_access_match(self, density):
        rng = random.Random(int(density * 100))
        bits = [rng.random() < density for _ in range(1200)]
        plain = plain_vector(bits)
        rrr = RRRBitVector(bits)
        assert len(rrr) == len(plain)
        assert rrr.ones == plain.ones
        for i in range(0, 1201, 37):
            assert rrr.rank1(i) == plain.rank1(i)
        for i in range(0, 1200, 53):
            assert rrr[i] == plain[i]

    def test_select_matches(self):
        rng = random.Random(5)
        bits = [rng.random() < 0.1 for _ in range(2000)]
        plain = plain_vector(bits)
        rrr = RRRBitVector(bits)
        for j in range(1, rrr.ones + 1, 7):
            assert rrr.select1(j) == plain.select1(j)

    def test_from_positions_equivalent(self):
        positions = [3, 77, 500, 501, 1999]
        a = RRRBitVector.from_positions(2000, positions)
        b = RRRBitVector(1 if i in set(positions) else 0 for i in range(2000))
        assert a.ones == b.ones
        for j in range(1, 6):
            assert a.select1(j) == b.select1(j)
        for i in (0, 100, 502, 2000):
            assert a.rank1(i) == b.rank1(i)

    @given(st.lists(st.booleans(), max_size=400), st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_rank(self, bits, data):
        rrr = RRRBitVector(bits)
        if bits:
            i = data.draw(st.integers(0, len(bits)))
            assert rrr.rank1(i) == sum(bits[:i])


class TestCompression:
    def test_sparse_vector_close_to_entropy(self):
        """The paper's premise: compressed bit sequences approach nH0."""
        n, k = 1 << 16, 200
        rng = random.Random(9)
        positions = rng.sample(range(n), k)
        rrr = RRRBitVector.from_positions(n, positions)
        plain = BitVector.from_positions(n, positions)
        entropy = h0_bits(n, k)
        # The offset stream is the nH0 part; class stream + directories are
        # the o(n) overhead (4 + 2 bits per 15-bit block), which dominates
        # for extremely sparse vectors — still well under the plain layout.
        assert rrr.size_bits() < plain.size_bits() / 2
        overhead_per_block = 4 + 2
        blocks = (n + 14) // 15
        assert rrr.size_bits() <= entropy + overhead_per_block * blocks + 4096

    def test_dense_vector_no_catastrophic_blowup(self):
        rng = random.Random(4)
        bits = [rng.random() < 0.5 for _ in range(1 << 12)]
        rrr = RRRBitVector(bits)
        assert rrr.size_bits() < 2 * len(bits) + 4096

    def test_errors(self):
        rrr = RRRBitVector([1, 0])
        with pytest.raises(IndexError):
            rrr[2]
        with pytest.raises(IndexError):
            rrr.rank1(3)
        with pytest.raises(ValueError):
            rrr.select1(2)
        with pytest.raises(ValueError):
            RRRBitVector.from_positions(4, [4])
