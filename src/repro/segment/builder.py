"""``SegmentBuilder``: serialize a ``WordSetIndex`` into a packed segment.

The builder folds the live hash table into the paper's Fig 6 shape, but
as one contiguous artifact a serving process can mmap:

* data nodes are merged by the ``s``-bit suffix of their hash key (the
  same collision-tolerant merge :class:`CompressedWordSetIndex` does),
  entries re-sorted to keep the global word-count order early termination
  depends on while grouping similar phrases for prefix sharing;
* phrases are front-coded and bid prices delta-coded per node (the
  Section VI codings of :mod:`repro.compress.frontcoding` /
  :mod:`repro.compress.deltas`, written in one pass by
  :func:`encode_node`, now on the serving path);
* ``B^sig`` (suffix occupancy) and ``B^off`` (node start offsets) address
  the nodes via rank/select, serialized as little-endian u64 words;
* the header persists the probe-prefilter state (locator vocabulary
  refcounts, locator-size histogram) and the non-identity placements, so
  the packed reader plans probes exactly like the source index and
  compaction preserves re-mapping.

``write`` is atomic and durable: unique temp file, fsync before rename,
best-effort directory sync, with crashpoints ``segment.tmp_written`` /
``segment.tmp_synced`` / ``segment.renamed`` registered with
:mod:`repro.faults` (the protocol is ``docs/durability.md``).
"""

from __future__ import annotations

import hashlib
import itertools
import os
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.compress.bitvector import pack_bits
from repro.compress.deltas import zigzag_encode
from repro.core.data_node import NodeEntry
from repro.core.wordhash import hash_suffix
from repro.core.wordset_index import WordSetIndex
from repro.faults.injector import FaultInjector, InjectedCrash, active_injector
from repro.segment.format import (
    CRASH_RENAMED,
    CRASH_TMP_SYNCED,
    CRASH_TMP_WRITTEN,
    encode_file,
    fsync_directory,
)

#: Distinguishes temp files of concurrent builders within one process.
_TEMP_COUNTER = itertools.count()


def default_suffix_bits(num_nodes: int) -> int:
    """Suffix width giving ~1-2% B^sig occupancy for ``num_nodes``.

    Short suffixes shrink ``B^sig`` but make *every* probe of an absent
    subset hit a merged node and pay a decode; sizing the table ~64x the
    node count keeps spurious scans off the hot path for a few KiB of
    bits.  Clamped to [12, 26] — the paper's own sizing experiments
    (:mod:`repro.compress.suffix_opt`) explore the space/speed curve
    below this point.
    """
    return min(26, max(12, max(num_nodes, 1).bit_length() + 6))


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


class SegmentBuilder:
    """Serializes one :class:`WordSetIndex` into a packed segment."""

    def __init__(
        self, index: WordSetIndex, suffix_bits: int | None = None
    ) -> None:
        if suffix_bits is not None and not 1 <= suffix_bits <= 48:
            raise ValueError("suffix_bits must be in [1, 48]")
        self.index = index
        self.suffix_bits = (
            suffix_bits
            if suffix_bits is not None
            else default_suffix_bits(len(index.nodes))
        )

    def build(self, generation: int = 0) -> bytes:
        """Produce the complete segment file as bytes."""
        s = self.suffix_bits
        merged: dict[int, list[NodeEntry]] = {}
        for key, node in self.index.nodes.items():
            merged.setdefault(hash_suffix(key, s), []).extend(node.entries)
        suffixes = sorted(merged)
        chunks: list[bytes] = []
        offsets: list[int] = []
        position = 0
        num_ads = 0
        for suffix in suffixes:
            entries = sorted(merged[suffix], key=_entry_order)
            chunk = encode_node(entries)
            offsets.append(position)
            position += len(chunk)
            num_ads += len(entries)
            chunks.append(chunk)
        nodes_blob = b"".join(chunks)

        bsig_bits = 1 << s
        bsig = pack_bits(bsig_bits, suffixes)
        boff_bits = max(position, 1)
        boff = pack_bits(boff_bits, offsets)
        payload = bsig + boff + nodes_blob

        placements = [
            [sorted(words), sorted(locator)]
            for words, locator in sorted(
                self.index.placement().items(), key=lambda kv: sorted(kv[0])
            )
            if words != locator
        ]
        header: dict[str, Any] = {
            "format": "repro-segment",
            "suffix_bits": s,
            "generation": generation,
            "num_ads": num_ads,
            "num_nodes": len(suffixes),
            "max_words": self.index.max_words,
            "max_query_words": self.index.max_query_words,
            "fast_path": self.index.fast_path,
            "vocab": self.index.locator_vocabulary_refcounts(),
            "size_histogram": {
                str(size): count
                for size, count in sorted(
                    self.index.locator_size_histogram().items()
                )
            },
            "placements": placements,
            "sections": {
                "bsig": [0, bsig_bits],
                "boff": [len(bsig), boff_bits],
                "nodes": [len(bsig) + len(boff), len(nodes_blob)],
            },
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        return encode_file(header, payload)

    def write(
        self,
        path: str | Path,
        generation: int = 0,
        faults: FaultInjector | None = None,
    ) -> None:
        """Write the segment to ``path`` atomically and durably.

        A power loss at any instant leaves either the old complete file
        or the new complete file, never a torn one: the temp file is
        fsynced before the rename and the directory after it.
        Crashpoints:
        ``segment.tmp_written``, ``segment.tmp_synced``,
        ``segment.renamed``.
        """
        path = Path(path)
        faults = active_injector(faults)
        data = self.build(generation)
        temp = path.with_name(
            f".{path.name}.{os.getpid()}.{next(_TEMP_COUNTER)}.tmp"
        )
        try:
            with temp.open("wb") as handle:
                handle.write(data)
                faults.crashpoint(CRASH_TMP_WRITTEN)
                handle.flush()
                os.fsync(handle.fileno())
            faults.crashpoint(CRASH_TMP_SYNCED)
            temp.replace(path)
        except BaseException as exc:
            # An injected crash mimics power loss: the temp file must stay
            # behind exactly as a real crash would leave it.
            if not isinstance(exc, InjectedCrash):
                temp.unlink(missing_ok=True)
            raise
        faults.crashpoint(CRASH_RENAMED)
        fsync_directory(path.parent)
