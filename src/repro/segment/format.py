"""The packed segment file format: layout constants and header codec.

A segment file is one contiguous, immutable artifact::

    MAGIC (8 bytes)  "REPROSEG"
    u32 LE           format version
    u32 LE           header length in bytes
    header           JSON (UTF-8, sorted keys, compact separators)
    payload          B^sig words || B^off words || fingerprints
                     || prefix filter || node records

The JSON header carries everything the reader needs before touching the
payload: the suffix width, section offsets/lengths, the probe-prefilter
state (locator vocabulary refcounts + locator-size histogram, see
:mod:`repro.perf.prefilter`), the non-identity placements (so compaction
preserves re-mapping and point lookups can find an ad's node), and a
SHA-256 over the payload so torn or bit-rotted files fail loudly at load
instead of surfacing as silently wrong auctions.

``B^sig`` and ``B^off`` are stored as little-endian 64-bit words (the
layout :class:`repro.compress.bitvector.BitVector` ranks/selects over
without copying).  The fingerprint section holds one byte per node
ordinal (:func:`fingerprint`): the locator hash's bits just above the
``B^sig`` suffix when one locator owns the node, or
:data:`SHARED_FINGERPRINT` when several locators share its suffix.  A
probe key whose suffix hits ``B^sig`` but whose fingerprint differs
cannot belong to the node, so the node is not read (the quotient
filter's remainders, Bender et al., VLDB 2012; the cuckoo filter's
fingerprints, Fan et al., CoNEXT 2014).

The ``prefixes`` section is a two-hash bit filter (a Bloom filter of the
same approximate-membership family) over the ``wordhash`` keys of every
locator's proper prefixes, its words taken in sorted order: for a
locator ``{a, b, c}`` with ``a < b < c``, the keys of ``{a}`` and
``{a, b}``.  The builder sizes it at :data:`PREFIX_FILTER_BITS` bits per
distinct prefix, with no power-of-two rounding; the reader takes its
size from the section's length.  A key sets or tests the two bits
:func:`prefix_filter_positions` names.
A size-``k`` subset of a query can equal a locator only if its first
``k - 1`` words are such a prefix, so the reader walks the locator
trie level by level and extends only the subsets whose key passes the
filter (the paper's Section III-B tree-structured lookup, over a hash
of word-sets).  A false positive only adds probe keys; there are no
false negatives.  Node records are the encoding
produced by :func:`repro.segment.builder.encode_node` (a word-set
table, each row followed by its entries, carriers of exclusion phrases
first, then in the auction's rank order) and read lazily by
:mod:`repro.segment.packed`.  Version 3 added the fingerprint section
to version 2's layout.  Version 4 added the ``prefixes`` section between
the fingerprints and the node records, which are unchanged, and writes
the header without the separators' spaces.  Any other version is
refused: there is one reader.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Any

MAGIC = b"REPROSEG"
FORMAT_VERSION = 4

#: Bits of the ``prefixes`` filter per distinct locator prefix.  Eight
#: bits, with the two bits per key of :func:`prefix_filter_positions`,
#: pass ~5 % of the keys that are no prefix; on the 100 k-ad benchmark
#: segment the filter is 12.6 KB and a sixteen-word query tests ~75
#: keys instead of ~1 900.
PREFIX_FILTER_BITS = 8

#: The fingerprint byte of a node that several locators share by suffix:
#: every probe key that hits its ``B^sig`` bit reads it.
SHARED_FINGERPRINT = 0

#: Fixed-size fields following the magic: format version, header length.
_FIXED = struct.Struct("<II")

#: Byte offset where the JSON header starts.
HEADER_START = len(MAGIC) + _FIXED.size

#: Crashpoint names visited by the atomic segment write (see
#: ``docs/durability.md``).
CRASH_TMP_WRITTEN = "segment.tmp_written"
CRASH_TMP_SYNCED = "segment.tmp_synced"
CRASH_RENAMED = "segment.renamed"

#: Crashpoints in the tiered lifecycle (:mod:`repro.segment.tiered`).
#: Seal and merge both write their segment file first (visiting the
#: ``segment.*`` write crashpoints above), then commit the new segment
#: set through the manifest; ``tiered.manifest.swapped`` fires after
#: both the manifest rename *and* the in-memory swap, so a crash there
#: leaves disk and process agreeing on the new generation.
CRASH_SEAL_START = "tiered.seal.start"
CRASH_SEAL_WRITTEN = "tiered.seal.written"
CRASH_MERGE_START = "tiered.merge.start"
CRASH_MERGE_WRITTEN = "tiered.merge.written"
CRASH_MANIFEST_TMP_WRITTEN = "tiered.manifest.tmp_written"
CRASH_MANIFEST_TMP_SYNCED = "tiered.manifest.tmp_synced"
CRASH_MANIFEST_SWAPPED = "tiered.manifest.swapped"

#: Every tiered crashpoint, in lifecycle order (drills iterate this).
TIERED_CRASHPOINTS = (
    CRASH_SEAL_START,
    CRASH_SEAL_WRITTEN,
    CRASH_MERGE_START,
    CRASH_MERGE_WRITTEN,
    CRASH_MANIFEST_TMP_WRITTEN,
    CRASH_MANIFEST_TMP_SYNCED,
    CRASH_MANIFEST_SWAPPED,
)


class SegmentFormatError(ValueError):
    """Raised when a segment file is invalid, corrupt, or truncated."""


def fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so a rename into it is itself durable
    (the segment write and the manifest commit both end with this).
    Platforms that refuse O_RDONLY directory fds simply skip it."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def encode_file(header: dict[str, Any], payload: bytes) -> bytes:
    """Assemble a complete segment file from its header and payload."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return MAGIC + _FIXED.pack(FORMAT_VERSION, len(blob)) + blob + payload


def read_header(buf: bytes | memoryview) -> tuple[dict[str, Any], int]:
    """Parse and validate the preamble; returns (header, payload offset)."""
    if len(buf) < HEADER_START:
        raise SegmentFormatError("segment file truncated: missing preamble")
    if bytes(buf[: len(MAGIC)]) != MAGIC:
        raise SegmentFormatError("not a repro segment file (bad magic)")
    version, header_len = _FIXED.unpack(bytes(buf[len(MAGIC) : HEADER_START]))
    if version != FORMAT_VERSION:
        raise SegmentFormatError(
            f"unsupported segment format version {version} "
            f"(this reader reads version {FORMAT_VERSION} only)"
        )
    end = HEADER_START + header_len
    if len(buf) < end:
        raise SegmentFormatError("segment file truncated: incomplete header")
    try:
        header = json.loads(bytes(buf[HEADER_START:end]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an integer past the digit
        # limit; RecursionError: nesting past the decoder's depth.
        raise SegmentFormatError(f"corrupt segment header: {exc}") from exc
    if not isinstance(header, dict):
        raise SegmentFormatError("corrupt segment header: not an object")
    return header, end


def fingerprint(key: int, suffix_bits: int) -> int:
    """The node fingerprint of a locator's 64-bit ``wordhash``: the byte
    just above its ``suffix_bits``-bit ``B^sig`` suffix, with
    :data:`SHARED_FINGERPRINT` moved to 1 so a single-locator node never
    carries the reserved value."""
    return (key >> suffix_bits) & 0xFF or 1


def prefix_filter_bytes(num_prefixes: int) -> int:
    """Length of the ``prefixes`` section for ``num_prefixes`` distinct
    prefixes: :data:`PREFIX_FILTER_BITS` bits each, rounded up to whole
    bytes, and at least one byte so an empty filter still tests."""
    return max(1, (num_prefixes * PREFIX_FILTER_BITS + 7) // 8)


def prefix_filter_positions(key: int, num_bits: int) -> tuple[int, int]:
    """The filter bits of a 64-bit prefix key, in a filter of
    ``num_bits`` bits (bit ``p`` is bit ``p & 7`` of byte ``p >> 3``).
    The filter uses two bits per key, fixed by the format: the key's
    high and low 32 bits, each scaled to ``num_bits`` by a multiply and
    a shift (Lemire's range reduction, cheaper than ``%`` in the
    reader's test, which inlines this function)."""
    return ((key >> 32) * num_bits) >> 32, ((key & 0xFFFFFFFF) * num_bits) >> 32


def read_varint(data: bytes | memoryview, offset: int) -> tuple[int, int]:
    """Decode one LEB128 varint from a buffer; returns (value, next offset).

    The zero-copy twin of :func:`repro.compress.deltas.varint_decode` —
    same wire format, but typed for ``memoryview`` so node records decode
    straight off the mapped file.
    """
    value = 0
    shift = 0
    end = len(data)
    while True:
        if offset >= end:
            raise SegmentFormatError("truncated varint in segment payload")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def section_bounds(
    header: dict[str, Any], name: str
) -> tuple[int, int]:
    """A section's ``(byte offset, length)`` entry, validated.

    For the bit-array sections the length is in *bits*; for
    ``fingerprints``, ``prefixes`` and ``nodes`` it is in bytes.
    Offsets are relative to the payload start.
    """
    sections = header.get("sections")
    if not isinstance(sections, dict) or name not in sections:
        raise SegmentFormatError(f"segment header missing section {name!r}")
    entry = sections[name]
    if (
        not isinstance(entry, list)
        or len(entry) != 2
        or not all(isinstance(v, int) and v >= 0 for v in entry)
    ):
        raise SegmentFormatError(f"malformed section entry for {name!r}")
    return entry[0], entry[1]
