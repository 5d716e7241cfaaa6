"""Segment file format: preamble validation, corruption, truncation."""

import struct

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.data_node import NodeEntry
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.faults import bit_flip, truncate_at
from repro.segment import PackedSegmentIndex, SegmentBuilder, SegmentFormatError
from repro.segment.builder import encode_node
from repro.segment import tiered
from repro.segment.format import (
    FORMAT_VERSION,
    HEADER_START,
    MAGIC,
    encode_file,
    read_header,
    read_varint,
    section_bounds,
)
from tests.segment.format_v1 import write_v1_segment


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


@pytest.fixture()
def segment_path(tmp_path):
    corpus = AdCorpus(
        [ad("cheap used books", 1), ad("books", 2), ad("rare maps", 3)]
    )
    path = tmp_path / "fmt.seg"
    SegmentBuilder(WordSetIndex.from_corpus(corpus)).write(path)
    return path


class TestPreamble:
    def test_round_trip(self):
        header = {"sections": {"nodes": [0, 4]}, "x": 1}
        blob = encode_file(header, b"\x01\x02\x03\x04")
        parsed, payload_start = read_header(blob)
        assert parsed == header
        assert blob[payload_start:] == b"\x01\x02\x03\x04"

    def test_bad_magic_rejected(self):
        with pytest.raises(SegmentFormatError, match="magic"):
            read_header(b"NOTASEGM" + b"\x00" * 16)

    def test_truncated_preamble_rejected(self):
        with pytest.raises(SegmentFormatError, match="preamble"):
            read_header(MAGIC[:4])

    def test_future_version_rejected(self):
        blob = bytearray(encode_file({}, b""))
        blob[len(MAGIC)] = FORMAT_VERSION + 1
        with pytest.raises(SegmentFormatError, match="version"):
            read_header(bytes(blob))

    def test_truncated_header_rejected(self):
        blob = encode_file({"k": "v"}, b"")
        with pytest.raises(SegmentFormatError, match="incomplete header"):
            read_header(blob[: HEADER_START + 2])

    def test_non_json_header_rejected(self):
        blob = bytearray(encode_file({"k": "v"}, b""))
        blob[HEADER_START] = 0xFF
        with pytest.raises(SegmentFormatError, match="corrupt"):
            read_header(bytes(blob))

    def test_non_object_header_rejected(self):
        import json

        body = json.dumps([1, 2]).encode()
        blob = MAGIC + struct.pack("<II", FORMAT_VERSION, len(body)) + body
        with pytest.raises(SegmentFormatError, match="not an object"):
            read_header(blob)

    def test_deeply_nested_header_rejected(self, segment_path):
        # Past the JSON decoder's nesting depth: a format error, not a
        # RecursionError, from the parser and from an open alike.
        body = b"[" * 100_000
        blob = MAGIC + struct.pack("<II", FORMAT_VERSION, len(body)) + body
        with pytest.raises(SegmentFormatError, match="corrupt"):
            read_header(blob)
        segment_path.write_bytes(blob)
        with pytest.raises(SegmentFormatError, match="corrupt"):
            PackedSegmentIndex(segment_path)


class TestVersionOne:
    """Format version 2 has one reader: a genuine version-1 file (its
    node records in the version-1 layout, its preamble saying 1) is
    refused at open with an error naming the version."""

    def test_a_v1_segment_file_is_refused(self, tmp_path):
        path = tmp_path / "v1.seg"
        corpus = AdCorpus([ad("cheap used books", 1), ad("books", 2)])
        write_v1_segment(WordSetIndex.from_corpus(corpus), path, version=1)
        blob = path.read_bytes()
        assert blob[len(MAGIC) : len(MAGIC) + 4] == (1).to_bytes(4, "little")
        with pytest.raises(SegmentFormatError, match="version 1"):
            PackedSegmentIndex(path)

    def test_a_tiered_directory_listing_a_v1_segment_is_refused_at_open(
        self, tmp_path, monkeypatch
    ):
        """Two sealed segments, the second rewritten as version 1: a
        writable and a read-only open both refuse, leave every file as it
        was, and close the segment they had already mapped."""
        directory = tmp_path / "tiered"
        with tiered.TieredSegmentedIndex(directory) as index:
            for listing, text in enumerate(["cheap used books", "books", "rare maps"]):
                index.insert(ad(text, listing))
                index.seal()
        manifest = tiered.read_manifest(directory / tiered.MANIFEST_NAME)
        names = [record.name for record in manifest.segments]
        assert len(names) == 3
        victim = directory / names[1]
        with PackedSegmentIndex(victim) as segment:
            ads = list(segment.iter_ads())
        write_v1_segment(WordSetIndex.from_corpus(ads), victim, version=1)
        before = {child.name: child.read_bytes() for child in directory.iterdir()}
        opened: list[PackedSegmentIndex] = []

        class Tracked(PackedSegmentIndex):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tiered, "PackedSegmentIndex", Tracked)
        for read_only in (False, True):
            opened.clear()
            with pytest.raises(SegmentFormatError, match="version 1"):
                tiered.TieredSegmentedIndex(directory, read_only=read_only)
            assert len(opened) == 2
            assert opened[0]._closed
            assert {child.name: child.read_bytes() for child in directory.iterdir()} == before


class TestVarint:
    def test_round_trip_values(self):
        from repro.compress.deltas import varint_encode

        for value in (0, 1, 127, 128, 300, 2**21, 2**35):
            data = varint_encode(value)
            got, end = read_varint(data, 0)
            assert (got, end) == (value, len(data))

    def test_truncated_varint_raises(self):
        with pytest.raises(SegmentFormatError, match="truncated varint"):
            read_varint(b"\x80\x80", 0)


class TestSectionBounds:
    def test_missing_section(self):
        with pytest.raises(SegmentFormatError, match="missing section"):
            section_bounds({"sections": {}}, "nodes")

    def test_malformed_entry(self):
        with pytest.raises(SegmentFormatError, match="malformed"):
            section_bounds({"sections": {"nodes": [1, -2]}}, "nodes")


class TestOnDiskCorruption:
    """Damage a real segment file; the loader must fail loudly."""

    def test_clean_file_loads(self, segment_path):
        with PackedSegmentIndex(segment_path) as packed:
            assert len(packed) == 3

    def test_payload_bit_flip_detected(self, segment_path):
        # Middle of the file is inside the payload (checksummed).
        bit_flip(segment_path, offset=-8)
        with pytest.raises(SegmentFormatError, match="checksum"):
            PackedSegmentIndex(segment_path)

    def test_truncated_payload_detected(self, segment_path):
        size = segment_path.stat().st_size
        truncate_at(segment_path, size - 16)
        with pytest.raises(SegmentFormatError):
            PackedSegmentIndex(segment_path)

    def test_empty_file_detected(self, segment_path):
        segment_path.write_bytes(b"")
        with pytest.raises(SegmentFormatError):
            PackedSegmentIndex(segment_path)

    def test_missing_file_detected(self, tmp_path):
        with pytest.raises(SegmentFormatError, match="cannot open"):
            PackedSegmentIndex(tmp_path / "nope.seg")


# ---------------------------------------------------------------------- #
# Node records: untrusted bytes (``B^off`` gives the boundaries, and
# whoever wrote the file can recompute ``payload_sha256``).

LONG = "é" * 70  # 140 UTF-8 bytes: a two-byte length varint


def rich_ad(text, listing_id, bid, exclusions=()):
    return Advertisement.from_text(
        text,
        AdInfo(
            listing_id=listing_id,
            campaign_id=-listing_id,
            bid_price_micros=bid,
            exclusion_phrases=exclusions,
        ),
    )


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """A packed index over a generated corpus plus ads carrying every
    field a cut can land in; every fourth node record and every record
    holding an exclusion phrase; the word-count limits to decode at."""
    ads = list(generate_corpus(CorpusConfig(num_ads=2_000, seed=7)).corpus)
    ads += [
        rich_ad(f"café {LONG} books", -(2**40), 2**33, ("free", LONG)),
        rich_ad(f"books {LONG} café", 2**21, 5, ("crédit",)),
        rich_ad("café books", 3, 2**20, ("free shipping", "ünï")),
        rich_ad("café books", 3, 2**20, ("free shipping", "ünï")),
    ]
    path = tmp_path_factory.mktemp("records") / "records.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads)).write(path)
    with PackedSegmentIndex(path, cache_bytes=0) as packed:
        chosen = set(range(0, packed.num_nodes(), 4))
        chosen |= {
            packed._node_index_for(ad.words)
            for ad in ads
            if ad.info.exclusion_phrases
        }
        chunks = [packed._node_chunk(i) for i in sorted(chosen)]
        longest = max(len(ad.words) for ad in ads)
        limits = (None, *range(1, longest + 1))
        yield packed, chunks, limits, ads


class TestNodeRecords:
    def test_every_truncation_raises_or_decodes_what_it_kept(self, records):
        """A full decode of a cut record raises ``SegmentFormatError``;
        a partial decode raises exactly when the cut falls before the
        bytes it consumes, and otherwise returns the intact answer."""
        packed, chunks, limits, _ = records
        assert len(chunks) > 100
        for chunk in chunks:
            for limit in limits:
                intact = packed._decode_entries(chunk, limit)
                consumed = intact[1]
                for cut in range(len(chunk)):
                    if limit is None or cut < consumed:
                        with pytest.raises(SegmentFormatError):
                            packed._decode_entries(chunk[:cut], limit)
                    else:
                        assert packed._decode_entries(chunk[:cut], limit) == intact

    def test_trailing_bytes_fail_a_full_decode_only(self, records):
        packed, chunks, _, _ = records
        for chunk in chunks[:50]:
            with pytest.raises(SegmentFormatError, match="malformed node"):
                packed._decode_entries(chunk + b"\x00", None)
            assert packed._decode_entries(
                chunk + b"\x00", 1
            ) == packed._decode_entries(chunk, 1)

    def test_bit_flips_raise_only_the_typed_error(self, records):
        packed, chunks, _, _ = records
        for chunk in chunks[::8]:
            for bit in range(len(chunk) * 8):
                flipped = bytearray(chunk)
                flipped[bit // 8] ^= 1 << (bit % 8)
                for limit in (None, 1):
                    try:
                        packed._decode_entries(bytes(flipped), limit)
                    except SegmentFormatError:
                        pass

    @pytest.mark.parametrize("field", ["token", "exclusion"])
    def test_invalid_utf8_is_a_format_error(self, records, field):
        packed = records[0]
        chunk = encode_node([NodeEntry(rich_ad("qq zz", 1, 1, ("xy",)))])
        target = b"qq" if field == "token" else b"xy"
        assert chunk.count(target) == 1
        with pytest.raises(SegmentFormatError, match="malformed node"):
            packed._decode_entries(chunk.replace(target, b"\xff\xfe"), None)

    def test_a_cut_record_surfaces_through_query(self, records, monkeypatch):
        """A node whose ``B^off`` range is cut short raises
        ``SegmentFormatError`` out of ``query``, not ``IndexError``."""
        packed, _, limits, ads = records
        target = ads[-1]
        chunk = packed._node_chunk(packed._node_index_for(target.words))
        monkeypatch.setattr(packed, "_node_chunk", lambda index: chunk[:-1])
        # Longer than every entry, so the decode reads to the cut.
        padding = tuple(f"pad{i}" for i in range(limits[-1]))
        with pytest.raises(SegmentFormatError):
            packed.query(Query(target.phrase + padding))


# ---------------------------------------------------------------------- #
# Section layout: the header must describe the one layout SegmentBuilder
# writes for its ``suffix_bits``.  Each mutation keeps the payload and its
# sha256 intact, so only the layout check can refuse it.


@pytest.fixture(scope="module")
def layout_segment(tmp_path_factory):
    """A 2 000-ad segment at ``suffix_bits=12``: its file bytes and the
    own-phrase queries of its first 300 ads."""
    ads = list(generate_corpus(CorpusConfig(num_ads=2_000, seed=3)).corpus)
    path = tmp_path_factory.mktemp("layout") / "layout.seg"
    SegmentBuilder(WordSetIndex.from_corpus(ads), suffix_bits=12).write(path)
    return path.read_bytes(), [Query(ad.phrase) for ad in ads[:300]]


def remade(blob, **changes):
    """``blob`` with header fields replaced (``sections`` entries by name)."""
    header, payload_start = read_header(blob)
    sections = dict(header["sections"], **changes.pop("sections", {}))
    header = dict(header, sections=sections, **changes)
    return encode_file(header, blob[payload_start:])


LAYOUT_MUTATIONS = {
    "suffix_bits_wider": lambda h: {"suffix_bits": 20},
    "suffix_bits_narrower": lambda h: {"suffix_bits": 10},
    "bsig_longer": lambda h: {"sections": {"bsig": [0, 8192]}},
    "bsig_offset": lambda h: {"sections": {"bsig": [8, 4096]}},
    "boff_short": lambda h: {
        "sections": {"boff": [h["boff"][0], h["boff"][1] - 64]}
    },
    "nodes_offset": lambda h: {
        "sections": {"nodes": [h["nodes"][0] - 8, h["nodes"][1] + 8]}
    },
}


class TestSectionLayout:
    def test_intact_file_opens_and_answers(self, layout_segment, tmp_path):
        blob, queries = layout_segment
        path = tmp_path / "intact.seg"
        path.write_bytes(remade(blob))
        with PackedSegmentIndex(path) as packed:
            assert packed.suffix_bits == 12
            assert all(packed.query(query) for query in queries)

    @pytest.mark.parametrize("mutation", sorted(LAYOUT_MUTATIONS))
    def test_mutated_layout_is_refused_at_open(
        self, layout_segment, tmp_path, mutation
    ):
        blob, _ = layout_segment
        sections = read_header(blob)[0]["sections"]
        path = tmp_path / f"{mutation}.seg"
        path.write_bytes(remade(blob, **LAYOUT_MUTATIONS[mutation](sections)))
        with pytest.raises(SegmentFormatError, match="layout"):
            PackedSegmentIndex(path)
