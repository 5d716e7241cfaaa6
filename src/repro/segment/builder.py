"""``SegmentBuilder``: serialize a ``WordSetIndex`` into a packed segment.

The builder folds the live hash table into the paper's Fig 6 shape, but
as one contiguous artifact a serving process can mmap:

* data nodes are merged by the ``s``-bit suffix of their hash key (the
  same collision-tolerant merge :class:`CompressedWordSetIndex` does);
  each merged node is one record (:func:`encode_node`): a table of its
  word-sets in the word-count order early termination depends on, and
  per word-set its entries in the auction's rank order, so a read can
  stop at the first bid that cannot enter the slate;
* each word-set's words are stored once, its phrase orders front-coded
  as positions into them, and its bids delta-coded down the rank order
  (the Section VI codings, written in one pass on the serving path);
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
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from repro.compress.bitvector import pack_bits
from repro.core.ads import Advertisement
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


def _ad_order(ad: Advertisement) -> tuple[Any, ...]:
    """An entry's place within its row: carriers (ads with exclusion
    phrases) first, each group in the auction's own total order
    ``(-bid, listing_id)``, then the rest of the ad, so equal ads are the
    only ties and the record is a function of the node's ad multiset."""
    info = ad.info
    return (
        not info.exclusion_phrases,
        -info.bid_price_micros,
        info.listing_id,
        ad.phrase,
        info.campaign_id,
        info.exclusion_phrases,
    )


def encode_node(
    entries: Iterable[NodeEntry], coded_words: dict[str, bytes] | None = None
) -> bytes:
    """One version-2 node record: a word-set table whose every row is
    followed by that word-set's entry block.

    Layout (all ints LEB128 varints)::

        num_rows
        per row, in (word count, sorted words) order:
          word_count  (len token)*          # the word-set, sorted
          num_entries  num_carriers         # carriers: ads with exclusions
          num_phrases  phrases_len  phrases # front-coded, see below
          block_len                         # bytes of the entry block
          entry block: the carriers, then the other entries, each group
          in (-bid, listing_id) order:
            bid                   # a group's first: zigzag(bid);
                                  #   then previous bid - bid
            zigzag(listing_id)  zigzag(campaign_id)
            phrase_index                    # only if num_phrases > 1
            num_exclusions  (len phrase)*   # only for a carrier

    A row's phrases are its distinct phrase orders, sorted, each written
    as positions into the row's sorted words and front-coded against the
    previous phrase of the row: ``shared  num_suffix  position*``.

    The layout serves a walk that wants every carrier and the best few
    of the rest: the carriers lead, so the walk has read them all after
    ``num_carriers`` entries, and from there bids only fall, so it can
    stop at the first bid below its floor.  ``phrases_len`` and
    ``block_len`` let a read step over a row's phrases or its block
    without decoding them, and the word-count order lets it stop at the
    first row longer than the query.  The decoder is
    :meth:`repro.segment.packed.PackedSegmentIndex._decode_entries`; the
    record depends only on the entries' multiset, not on their order.

    ``coded_words`` memoizes each word's length-prefixed UTF-8 bytes; a
    build passes one table to all its nodes.
    """
    rows: dict[frozenset[str], list[Advertisement]] = {}
    for entry in entries:
        ad = entry.ad
        row = rows.get(ad.words)
        if row is None:
            rows[ad.words] = [ad]
        else:
            row.append(ad)
    if coded_words is None:
        coded_words = {}
    out = bytearray()
    _put(out, len(rows))
    if len(rows) == 1:
        ((words, ads),) = rows.items()
        _encode_row(out, sorted(words), ads, coded_words)
    else:
        for _, ordered_words, ads in sorted(
            (len(words), sorted(words), ads) for words, ads in rows.items()
        ):
            _encode_row(out, ordered_words, ads, coded_words)
    return bytes(out)


def _encode_row(
    out: bytearray,
    ordered_words: list[str],
    ads: list[Advertisement],
    coded_words: dict[str, bytes],
) -> None:
    """Append one row and its entry block (layout in :func:`encode_node`)."""
    if len(ads) > 1:
        ads.sort(key=_ad_order)
        phrases = sorted({ad.phrase for ad in ads})
    else:
        phrases = [ads[0].phrase]
    carriers = 0
    for ad in ads:
        if not ad.info.exclusion_phrases:
            break
        carriers += 1
    _put(out, len(ordered_words))
    for word in ordered_words:
        coded = coded_words.get(word)
        if coded is None:
            blob = bytearray()
            _put_str(blob, word)
            coded = coded_words[word] = bytes(blob)
        out += coded
    position = ordered_words.index
    # The three counts, the phrases' byte length (slot 3) and the
    # front-coded phrases; nearly always every one of them fits a byte.
    codes = [len(ads), carriers, len(phrases), 0]
    previous: list[int] = []
    for phrase in phrases:
        positions = [position(token) for token in phrase]
        shared = 0
        for mine, theirs in zip(previous, positions):
            if mine != theirs:
                break
            shared += 1
        codes += (shared, len(positions) - shared, *positions[shared:])
        previous = positions
    codes[3] = len(codes) - 4
    if max(codes) < 0x80:
        out += bytes(codes)
    else:
        phrases_blob = bytearray()
        for value in codes[4:]:
            _put(phrases_blob, value)
        codes[3] = len(phrases_blob)
        for value in codes[:4]:
            _put(out, value)
        out += phrases_blob
    block = _encode_block(ads, carriers, phrases)
    _put(out, len(block))
    out += block


def _encode_block(
    ads: list[Advertisement], carriers: int, phrases: list[tuple[str, ...]]
) -> bytearray:
    """A row's entry block (layout in :func:`encode_node`).  The three
    ints of every entry are zigzag-mapped and varint-coded inline: this
    loop runs once per ad of every seal, merge and build."""
    block = bytearray()
    append = block.append
    phrase_index = (
        {phrase: at for at, phrase in enumerate(phrases)}
        if len(phrases) > 1
        else None
    )
    previous = 0
    for at, ad in enumerate(ads):
        info = ad.info
        bid = info.bid_price_micros
        # A group's first bid is zigzag-coded; the rest fall from it.
        if at and at != carriers:
            coded_bid = previous - bid
        else:
            coded_bid = bid << 1 if bid >= 0 else (-bid << 1) - 1
        previous = bid
        listing = info.listing_id
        campaign = info.campaign_id
        listing = listing << 1 if listing >= 0 else (-listing << 1) - 1
        campaign = campaign << 1 if campaign >= 0 else (-campaign << 1) - 1
        while coded_bid > 0x7F:
            append(coded_bid & 0x7F | 0x80)
            coded_bid >>= 7
        append(coded_bid)
        while listing > 0x7F:
            append(listing & 0x7F | 0x80)
            listing >>= 7
        append(listing)
        while campaign > 0x7F:
            append(campaign & 0x7F | 0x80)
            campaign >>= 7
        append(campaign)
        if phrase_index is not None:
            _put(block, phrase_index[ad.phrase])
        if at < carriers:
            _put(block, len(info.exclusion_phrases))
            for exclusion in info.exclusion_phrases:
                _put_str(block, exclusion)
    return block


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
        coded_words: dict[str, bytes] = {}
        for suffix in suffixes:
            entries = merged[suffix]
            chunk = encode_node(entries, coded_words)
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
