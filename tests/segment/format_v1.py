"""Version-1 node records and version-2 and version-3 files, for tests
that compare formats.

Format version 2 replaced the version-1 node record (one entry list per
node in word-count and phrase order, delta-coded bids, one front-coded
phrase per entry).  The encoder and entry order that wrote version 1 are
kept here *verbatim*, so that a test can build one corpus in both
layouts and check the version-2 reader against the decoders it replaced
(kept verbatim in ``test_runs`` and ``test_decode_owner``), or check that
a genuine version-1 file is refused.

:func:`write_v1_segment` runs today's :class:`SegmentBuilder` (whose
node placement and bit arrays did not change; version 3 added the
fingerprint section, which such a file carries too) with the version-1
encoder in place of :func:`repro.segment.builder.encode_node`.  The
preamble carries the version asked for: ``1`` for a version-1 file,
which the reader refuses, or the current version, so that the current
loader opens the file and a reference subclass decodes its version-1
records.

Version 3 inserted one section into version 2's file, the node
fingerprints between ``B^off`` and the node records, and changed
nothing else; version 4 inserted the ``prefixes`` filter between the
fingerprints and the node records, and wrote the header without the separators' spaces.
:func:`version_3_bytes` takes version 4's additions out again, and
:func:`version_2_bytes` the fingerprints too, giving the bytes the
version-3 or version-2 builder wrote for the same index and suffix
width.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Sequence
from pathlib import Path
from unittest import mock

from repro.compress.deltas import zigzag_encode
from repro.core.data_node import NodeEntry
from repro.core.wordset_index import WordSetIndex
from repro.segment import builder
from repro.segment import format as segment_format
from repro.segment.builder import SegmentBuilder

# ---------------------------------------------------------------------- #
# The version-1 encoder, verbatim.


def _put(out: bytearray, value: int) -> None:
    """Append ``value`` (non-negative) to ``out`` as a LEB128 varint."""
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _put_str(out: bytearray, text: str) -> None:
    blob = text.encode("utf-8")
    _put(out, len(blob))
    out += blob


def encode_node(entries: Sequence[NodeEntry]) -> bytes:
    """One node record: entry count, delta-coded prices, front-coded entries.

    Layout (all ints LEB128 varints)::

        num_entries
        prices_len  prices_blob          # delta+zigzag bids, entry order
        per entry:
          word_count                     # |words(A)| — the scan-order key
          shared_tokens                  # front-coding vs previous phrase
          num_suffix_tokens  (len token)*
          zigzag(listing_id)  zigzag(campaign_id)
          num_exclusions  (len phrase)*

    The prices blob leads so a scan can decode one price per entry it
    touches, in step with the entry walk, and early termination never
    decodes prices (or anything else) past the cut.

    One pass over the entries appends straight into two buffers (prices,
    entries): the encoder-side mirror of the inlined decode in
    :meth:`repro.segment.packed.PackedSegmentIndex._decode_entries`.
    Same bytes as :func:`repro.compress.deltas.delta_encode_prices` and
    :func:`repro.compress.frontcoding.front_encode` would give.
    """
    prices = bytearray()
    body = bytearray()
    previous_price = 0
    previous: tuple[str, ...] = ()
    for entry in entries:
        ad = entry.ad
        info = ad.info
        # The first bid is coded against 0, i.e. as itself.
        _put(prices, zigzag_encode(info.bid_price_micros - previous_price))
        previous_price = info.bid_price_micros
        phrase = ad.phrase
        shared = 0
        for mine, theirs in zip(previous, phrase):
            if mine != theirs:
                break
            shared += 1
        previous = phrase
        _put(body, entry.word_count)
        _put(body, shared)
        _put(body, len(phrase) - shared)
        for token in phrase[shared:]:
            _put_str(body, token)
        _put(body, zigzag_encode(info.listing_id))
        _put(body, zigzag_encode(info.campaign_id))
        _put(body, len(info.exclusion_phrases))
        for exclusion in info.exclusion_phrases:
            _put_str(body, exclusion)
    out = bytearray()
    _put(out, len(entries))
    _put(out, len(prices))
    return bytes(out + prices + body)


def _entry_order(entry: NodeEntry) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """Word-count-major sort preserving early termination, with phrases of
    equal count sorted for maximal front-coding prefix sharing (the
    :func:`repro.compress.frontcoding.node_phrase_order` policy)."""
    return (entry.word_count, tuple(sorted(entry.ad.phrase)), entry.ad.phrase)


# ---------------------------------------------------------------------- #


def encode_node_v1(
    entries: Sequence[NodeEntry], coded_words: dict[str, bytes] | None = None
) -> bytes:
    """A merged node's version-1 record, entries sorted as version 1
    sorted them before encoding (``coded_words``, the version-2
    encoder's memo, is not used)."""
    return encode_node(sorted(entries, key=_entry_order))


def write_v1_segment(
    index: WordSetIndex,
    path: Path,
    suffix_bits: int | None = None,
    version: int = segment_format.FORMAT_VERSION,
) -> None:
    """Write ``index`` as a segment of version-1 node records whose
    preamble says ``version``."""
    with mock.patch.object(builder, "encode_node", encode_node_v1), mock.patch.object(
        segment_format, "FORMAT_VERSION", version
    ):
        SegmentBuilder(index, suffix_bits=suffix_bits).write(path)


def _split(data: bytes) -> tuple[dict, bytes]:
    """A segment file's header and payload, whatever its version."""
    (header_len,) = struct.unpack(
        "<I", data[len(segment_format.MAGIC) + 4 : segment_format.HEADER_START]
    )
    start = segment_format.HEADER_START + header_len
    return json.loads(data[segment_format.HEADER_START : start]), data[start:]


def _join(version: int, header: dict, payload: bytes) -> bytes:
    """A file of ``version`` with the header as versions 2 and 3 wrote
    it (``json.dumps``'s default separators) and its checksum re-taken."""
    header = dict(header, payload_sha256=hashlib.sha256(payload).hexdigest())
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return segment_format.MAGIC + struct.pack("<II", version, len(blob)) + blob + payload


def _drop_section(header: dict, payload: bytes, name: str) -> tuple[dict, bytes]:
    """``name``'s section and header entry dropped, the node records
    (the last section) moved up into its place."""
    sections = dict(header["sections"])
    offset, _ = sections.pop(name)
    nodes_off, nodes_len = sections["nodes"]
    sections["nodes"] = [offset, nodes_len]
    return dict(header, sections=sections), payload[:offset] + payload[nodes_off:]


def version_3_bytes(data: bytes) -> bytes:
    """The version-3 file of a version-4 segment file ``data``: its
    ``prefixes`` section and that section's header entry dropped, the
    node records moved up, the header
    written as version 3 wrote it, the preamble saying 3."""
    header, payload = _split(data)
    header, payload = _drop_section(header, payload, "prefixes")
    return _join(3, header, payload)


def version_2_bytes(data: bytes) -> bytes:
    """The version-2 file of a version-4 segment file ``data``: the
    version-3 file's fingerprint section and that section's header
    entry dropped too, the preamble saying 2."""
    header, payload = _split(version_3_bytes(data))
    return _join(2, *_drop_section(header, payload, "fingerprints"))
