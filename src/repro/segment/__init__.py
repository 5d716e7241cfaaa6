"""Packed serving segments: the compressed index as the live query path.

PR 2 built :class:`~repro.compress.compressed_hash.CompressedWordSetIndex`
as an offline size study; this package makes the compressed form
*servable*: :class:`SegmentBuilder` freezes a
:class:`~repro.core.wordset_index.WordSetIndex` into one contiguous,
checksummed, mmap-able file (front-coded phrases, delta-coded bids,
``B^sig``/``B^off`` rank-select addressing — the paper's Fig 6 layout)
and :class:`PackedSegmentIndex` serves queries straight off the mapping.

:mod:`repro.segment.tiered` adds the mutable surface in an LSM shape:
:class:`TieredSegmentedIndex` takes inserts into an overlay and deletes
as tombstones, seals the overlay into small L0 segments,
background-merges tiers upward under a checksummed manifest (crash-safe
via atomic tmp+fsync+rename) keeping every ad's persisted placement, and
folds everything into one segment on
:meth:`~TieredSegmentedIndex.compact`.  :mod:`repro.segment.churn` is the
continuous-ingest correctness drill.
"""

from repro.segment.builder import SegmentBuilder, default_suffix_bits
from repro.segment.format import (
    SegmentFormatError,
    TIERED_CRASHPOINTS,
)
from repro.segment.packed import PackedSegmentIndex
from repro.segment.sizing import deep_sizeof
from repro.segment.tiered import (
    BackgroundMerger,
    Manifest,
    ManifestFormatError,
    SegmentRecord,
    TieredConfig,
    TieredSegmentedIndex,
    Tombstones,
    manifest_fingerprint,
    read_manifest,
)

__all__ = [
    "BackgroundMerger",
    "Manifest",
    "ManifestFormatError",
    "PackedSegmentIndex",
    "SegmentBuilder",
    "SegmentFormatError",
    "SegmentRecord",
    "TIERED_CRASHPOINTS",
    "TieredConfig",
    "TieredSegmentedIndex",
    "Tombstones",
    "deep_sizeof",
    "default_suffix_bits",
    "manifest_fingerprint",
    "read_manifest",
]
