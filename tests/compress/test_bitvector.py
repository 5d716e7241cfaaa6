"""The rank/select bit vector, over both of its constructors.

One suite for the one class: every behavioural test runs against a
vector borrowed over an external little-endian u64 buffer (the packed
segment's mmap path) and against one built from one-bit positions (what
the in-memory compressed structures use).  The oracle is the naive
list-based rank/select below — never a second bit-array implementation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitvector import BitVector, pack_bits


def naive_rank1(bits, i):
    return sum(bits[:i])


def naive_select1(bits, j):
    seen = 0
    for pos, bit in enumerate(bits):
        if bit:
            seen += 1
            if seen == j:
                return pos
    raise ValueError


def ones_of(bits):
    return [i for i, bit in enumerate(bits) if bit]


def borrowed_buffer(bits):
    return BitVector.from_buffer(
        memoryview(pack_bits(len(bits), ones_of(bits))), len(bits)
    )


def from_positions(bits):
    return BitVector.from_positions(len(bits), ones_of(bits))


both_constructors = pytest.mark.parametrize(
    "build",
    [borrowed_buffer, from_positions],
    ids=["borrowed-buffer", "from-positions"],
)


@both_constructors
class TestConstruction:
    def test_access(self, build):
        vec = build([1, 0, 1, 1])
        assert len(vec) == 4
        assert [vec[i] for i in range(4)] == [1, 0, 1, 1]

    def test_empty(self, build):
        vec = build([])
        assert len(vec) == 0
        assert vec.ones == 0

    def test_getitem_bounds(self, build):
        vec = build([1])
        with pytest.raises(IndexError):
            vec[1]
        with pytest.raises(IndexError):
            vec[-1]


class TestPacking:
    def test_from_positions(self):
        vec = BitVector.from_positions(10, [2, 5, 9])
        assert [vec[i] for i in range(10)] == [0, 0, 1, 0, 0, 1, 0, 0, 0, 1]

    def test_from_positions_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector.from_positions(5, [5])

    def test_pack_bits_layout_is_little_endian_words(self):
        buf = pack_bits(64, [0, 8, 63])
        assert len(buf) == 8
        word = int.from_bytes(buf, "little")
        assert word == (1 << 0) | (1 << 8) | (1 << 63)

    def test_pack_bits_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_bits(8, [8])
        with pytest.raises(ValueError):
            pack_bits(8, [-1])

    def test_buffer_must_be_whole_words_and_long_enough(self):
        with pytest.raises(ValueError):
            BitVector.from_buffer(memoryview(bytes(7)), 8)
        with pytest.raises(ValueError):
            BitVector.from_buffer(memoryview(bytes(8)), 65)

    def test_release_drops_the_borrowed_view(self):
        buf = memoryview(bytearray(pack_bits(256, [1, 100, 255])))
        vec = BitVector.from_buffer(buf, 256)
        assert vec.rank1(256) == 3
        vec.release()
        # After release the underlying buffer can be mutated/freed safely.
        buf.release()


DENSITIES = [0.0, 0.01, 0.2, 0.5, 0.95, 1.0]


@both_constructors
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("length", [1, 63, 64, 65, 511, 512, 1000, 4096])
def test_agrees_with_naive_oracle(build, length, density):
    rng = random.Random(int(density * 100) * 10_000 + length)
    bits = [int(rng.random() < density) for _ in range(length)]
    positions = ones_of(bits)
    vec = build(bits)

    assert vec.ones == len(positions)
    for i in range(length):
        assert vec[i] == bits[i]
    running = 0
    for i in range(length + 1):
        assert vec.rank1(i) == running
        assert vec.rank0(i) == i - running
        if i < length:
            running += bits[i]
    for j in range(1, len(positions) + 1):
        assert vec.select1(j) == positions[j - 1]


@both_constructors
class TestRank:
    def test_small(self, build):
        vec = build([1, 0, 1, 1, 0])
        assert [vec.rank1(i) for i in range(6)] == [0, 1, 1, 2, 3, 3]

    def test_rank0_complements(self, build):
        vec = build([1, 0, 1])
        for i in range(4):
            assert vec.rank0(i) + vec.rank1(i) == i

    def test_rank_full_length_is_ones(self, build):
        bits = [1, 1, 0, 1] * 100
        vec = build(bits)
        assert vec.rank1(len(bits)) == vec.ones == sum(bits)

    def test_rank_bounds(self, build):
        vec = build([1])
        with pytest.raises(IndexError):
            vec.rank1(2)
        with pytest.raises(IndexError):
            vec.rank1(-1)

    def test_crosses_word_and_superblock_boundaries(self, build):
        bits = [i % 3 == 0 for i in range(2000)]
        vec = build(bits)
        for i in (0, 63, 64, 65, 511, 512, 513, 1024, 1999, 2000):
            assert vec.rank1(i) == naive_rank1(bits, i)


@both_constructors
class TestSelect:
    def test_small(self, build):
        vec = build([0, 1, 0, 1, 1])
        assert vec.select1(1) == 1
        assert vec.select1(2) == 3
        assert vec.select1(3) == 4

    def test_select_out_of_range(self, build):
        vec = build([1, 0])
        with pytest.raises(ValueError):
            vec.select1(2)
        with pytest.raises(ValueError):
            vec.select1(0)

    def test_rank_select_inverse(self, build):
        rng = random.Random(7)
        bits = [rng.random() < 0.3 for _ in range(3000)]
        vec = build(bits)
        for j in range(1, vec.ones + 1, 17):
            pos = vec.select1(j)
            assert bits[pos]
            assert vec.rank1(pos + 1) == j

    def test_large_sparse(self, build):
        positions = {i * 997 for i in range(200)}
        vec = build([i in positions for i in range(997 * 200 + 1)])
        for j, pos in enumerate(sorted(positions), start=1):
            assert vec.select1(j) == pos

    def test_leading_all_zero_words(self, build):
        # The first select sample sits on the first non-zero word.
        bits = [0] * 1300 + [1, 0, 1]
        vec = build(bits)
        assert vec.select1(1) == 1300
        assert vec.select1(2) == 1302


@both_constructors
class TestPropertyBased:
    @given(bits=st.lists(st.booleans(), max_size=700), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_naive(self, build, bits, data):
        vec = build(bits)
        if bits:
            i = data.draw(st.integers(0, len(bits)))
            assert vec.rank1(i) == naive_rank1(bits, i)

    @given(bits=st.lists(st.booleans(), min_size=1, max_size=700), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_select_matches_naive(self, build, bits, data):
        vec = build(bits)
        if vec.ones:
            j = data.draw(st.integers(1, vec.ones))
            assert vec.select1(j) == naive_select1(bits, j)

    @given(bits=st.lists(st.booleans(), max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_size_bits_at_least_raw(self, build, bits):
        vec = build(bits)
        assert vec.size_bits() >= len(bits)


def test_size_bits_accounts_directory_overhead():
    vec = BitVector.from_positions(4096, range(0, 4096, 3))
    # 64 raw words, 9 superblock counters, one sample per 512 ones.
    assert vec.size_bits() == 4096 + 9 * 64 + 3 * 128
