"""The packed segment file format: layout constants and header codec.

A segment file is one contiguous, immutable artifact::

    MAGIC (8 bytes)  "REPROSEG"
    u32 LE           format version
    u32 LE           header length in bytes
    header           JSON (UTF-8, sorted keys)
    payload          B^sig words || B^off words || node records

The JSON header carries everything the reader needs before touching the
payload: the suffix width, section offsets/lengths, the probe-prefilter
state (locator vocabulary refcounts + locator-size histogram, see
:mod:`repro.perf.prefilter`), the non-identity placements (so compaction
preserves re-mapping and point lookups can find an ad's node), and a
SHA-256 over the payload so torn or bit-rotted files fail loudly at load
instead of surfacing as silently wrong auctions.

``B^sig`` and ``B^off`` are stored as little-endian 64-bit words (the
layout :class:`repro.compress.bitvector.BitVector` ranks/selects over
without copying).  Node records are the version-2 encoding produced by
:func:`repro.segment.builder.encode_node` (a word-set table, each row
followed by its entries, carriers of exclusion phrases first, then in
the auction's rank order) and read lazily by
:mod:`repro.segment.packed`.  Any other version is refused: there is
one reader.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Any

MAGIC = b"REPROSEG"
FORMAT_VERSION = 2

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
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
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

    For the bit-array sections the length is in *bits*; for ``nodes`` it
    is in bytes.  Offsets are relative to the payload start.
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
