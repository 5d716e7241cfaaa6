"""Tiered segments: continuous ingest with a crash-safe manifest.

A packed segment is immutable; serving still needs inserts and deletes.
This module is the one mutable index over packed segments, in the LSM
shape of the paper's fast local placement (the periodic Section V
re-optimization is offline: ``repro.cli build --optimize`` and
:class:`~repro.optimize.online.MaintainedIndex`):

* **ingest** lands in the mutable :class:`WordSetIndex` overlay;
* **seal** freezes the overlay into a small immutable L0 segment file
  once it crosses ``seal_threshold`` ads;
* **merge** folds ``fan_in`` same-level segments into one segment a
  level up (size-ratio policy), re-inserting the survivors at their
  victims' persisted placements, so a merge's output is a function of
  its victims and tombstones only;
* **deletes** of overlay ads are plain deletes; deletes of sealed ads
  record a *tombstone* in :class:`Tombstones` (a count per exact ad,
  since the corpus permits duplicate ads, indexed by ``listing_id``);
* **queries** fan over the tiers newest-first, filter cross-tier
  tombstones (:meth:`Tombstones.filter`: an int ``listing_id`` test per
  result, an :class:`Advertisement` hash per *dead* one), and finish
  with the overlay.  Read amplification is bounded by ``fan_in``
  segments per level plus the overlay;
* **compact** seals, then folds *every* tier into one segment — the
  offline, full-corpus end of the same merge machinery.

The single source of truth for the live segment set is a checksummed
JSON **manifest** (``MANIFEST.json``).  Every seal and merge commits by
writing the new manifest to a unique temp file, fsyncing, and renaming
over the old one — the same atomic discipline as
:meth:`SegmentBuilder.write` — and only then swapping the in-memory
state.  Crashpoints (``tiered.seal.*``, ``tiered.merge.*``,
``tiered.manifest.*``) are threaded through :mod:`repro.faults`; a
crash at *any* of them leaves a directory that reopens as exactly one
committed generation (segment files not referenced by the manifest,
and orphaned ``*.tmp`` files, are swept on the next writable open).

Threading contract: one writer thread (``insert``/``delete``/``seal``),
at most one background merge thread (:class:`BackgroundMerger`), and
queries from the writer thread or — with ``concurrent readers``
enabled — other threads.  Commits replace shared state copy-on-write
under the internal lock, so an in-flight query always sees one
consistent (segments, tombstones) pair.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.faults.injector import FaultInjector, active_injector
from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.deadline import Deadline, DegradedReason
from repro.segment.builder import SegmentBuilder
from repro.segment.format import (
    CRASH_MANIFEST_SWAPPED,
    CRASH_MANIFEST_TMP_SYNCED,
    CRASH_MANIFEST_TMP_WRITTEN,
    CRASH_MERGE_START,
    CRASH_MERGE_WRITTEN,
    CRASH_SEAL_START,
    CRASH_SEAL_WRITTEN,
    SegmentFormatError,
    fsync_directory,
)
from repro.segment.packed import PackedSegmentIndex

__all__ = [
    "BackgroundMerger",
    "MANIFEST_NAME",
    "Manifest",
    "ManifestFormatError",
    "SegmentRecord",
    "TieredConfig",
    "TieredSegmentedIndex",
    "Tombstones",
    "manifest_fingerprint",
    "read_manifest",
    "write_manifest",
]

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-tiered-manifest"
MANIFEST_VERSION = 1

#: Unique temp names for manifest writes (same scheme as the builder's).
_MANIFEST_TEMP = iter(range(1 << 62))

#: The segment file names this module writes, ``seg-<seq>-L<level>.seg``.
#: A record naming anything else is refused: its name is opened, and
#: unlinked after a merge, inside the index directory, so a name such as
#: ``../outside.seg`` must never reach a path.
_SEGMENT_NAME = re.compile(r"seg-[0-9]{6,}-L[0-9]+\.seg")


class ManifestFormatError(SegmentFormatError):
    """Raised when a tiered manifest is missing, corrupt, or torn."""


# --------------------------------------------------------------------- #
# Manifest model + codec


@dataclass(frozen=True, slots=True)
class SegmentRecord:
    """One live segment in the manifest, oldest-first list order."""

    name: str
    level: int
    seq: int
    num_ads: int

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "level": self.level,
            "seq": self.seq,
            "num_ads": self.num_ads,
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> SegmentRecord:
        try:
            record = cls(
                name=str(payload["name"]),
                level=int(payload["level"]),
                seq=int(payload["seq"]),
                num_ads=int(payload["num_ads"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ManifestFormatError(
                f"bad segment record: {exc}"
            ) from exc
        if not _SEGMENT_NAME.fullmatch(record.name):
            raise ManifestFormatError(
                f"bad segment record: {record.name!r} is not a segment "
                "file name"
            )
        return record


def _ad_to_json(ad: Advertisement) -> dict[str, Any]:
    info = ad.info
    encoded: dict[str, Any] = {
        "phrase": list(ad.phrase),
        "listing_id": info.listing_id,
        "campaign_id": info.campaign_id,
        "bid_price_micros": info.bid_price_micros,
    }
    if info.exclusion_phrases:
        encoded["exclusion_phrases"] = list(info.exclusion_phrases)
    return encoded


def _ad_from_json(payload: dict[str, Any]) -> Advertisement:
    try:
        return Advertisement(
            phrase=tuple(payload["phrase"]),
            info=AdInfo(
                listing_id=int(payload["listing_id"]),
                campaign_id=int(payload.get("campaign_id", 0)),
                bid_price_micros=int(payload.get("bid_price_micros", 0)),
                exclusion_phrases=tuple(
                    payload.get("exclusion_phrases", ())
                ),
            ),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ManifestFormatError(f"bad tombstone ad: {exc}") from exc


@dataclass(frozen=True, slots=True)
class Manifest:
    """The committed truth: generation, live segments, pending deletes.

    Tombstones are persisted with every commit so a reopened index
    filters exactly what the committed generation had pending — a
    delete is durable once any subsequent seal/merge commits.
    """

    generation: int = 0
    next_seq: int = 0
    segments: tuple[SegmentRecord, ...] = ()
    tombstones: tuple[tuple[Advertisement, int], ...] = ()
    max_words: int | None = None
    max_query_words: int = 16
    fast_path: bool = True

    def body(self) -> dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "generation": self.generation,
            "next_seq": self.next_seq,
            "index": {
                "max_words": self.max_words,
                "max_query_words": self.max_query_words,
                "fast_path": self.fast_path,
            },
            "segments": [record.to_json() for record in self.segments],
            "tombstones": [
                [_ad_to_json(ad), count] for ad, count in self.tombstones
            ],
        }

    def encode(self) -> bytes:
        """Compact JSON: the sorted-key body the checksum covers, with
        ``"checksum"`` appended as its last key — one C-encoder pass.
        :meth:`decode` also reads the indented form older writers left."""
        blob = json.dumps(self.body(), sort_keys=True).encode("utf-8")
        checksum = hashlib.sha256(blob).hexdigest()
        return blob[:-1] + b', "checksum": "' + checksum.encode() + b'"}'

    @classmethod
    def decode(cls, data: bytes) -> Manifest:
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError: bad JSON or UTF-8, or an integer past the
            # digit limit; RecursionError: nesting past the decoder's
            # depth.
            raise ManifestFormatError(f"corrupt manifest: {exc}") from exc
        if (
            not isinstance(payload, dict)
            or payload.get("format") != MANIFEST_FORMAT
        ):
            raise ManifestFormatError("not a tiered manifest")
        if payload.get("version") != MANIFEST_VERSION:
            raise ManifestFormatError(
                f"unsupported manifest version {payload.get('version')!r}"
            )
        checksum = payload.pop("checksum", None)
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        if checksum != hashlib.sha256(blob).hexdigest():
            raise ManifestFormatError("manifest checksum mismatch")
        try:
            index = payload.get("index") or {}
            max_words = index.get("max_words")
            manifest = cls(
                generation=int(payload["generation"]),
                next_seq=int(payload["next_seq"]),
                segments=tuple(
                    SegmentRecord.from_json(record)
                    for record in payload.get("segments", ())
                ),
                tombstones=tuple(
                    (_ad_from_json(entry[0]), int(entry[1]))
                    for entry in payload.get("tombstones", ())
                ),
                max_words=None if max_words is None else int(max_words),
                max_query_words=int(index.get("max_query_words", 16)),
                fast_path=bool(index.get("fast_path", True)),
            )
        except (
            KeyError, TypeError, ValueError, IndexError, AttributeError,
            OverflowError,
        ) as exc:
            raise ManifestFormatError(f"malformed manifest: {exc}") from exc
        names = [record.name for record in manifest.segments]
        if len(set(names)) != len(names):
            raise ManifestFormatError("duplicate segment names in manifest")
        return manifest


def read_manifest(path: str | Path) -> Manifest:
    """Load and validate the manifest at ``path``."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError as exc:
        raise ManifestFormatError(f"no manifest at {path}") from exc
    except OSError as exc:
        raise ManifestFormatError(f"cannot read manifest: {exc}") from exc
    return Manifest.decode(data)


def write_manifest(
    path: str | Path,
    manifest: Manifest,
    faults: FaultInjector | None = None,
) -> None:
    """Commit ``manifest`` atomically: unique temp, fsync, rename.

    Crashpoints ``tiered.manifest.tmp_written`` / ``tmp_synced`` fire
    before the rename — a crash there leaves the old manifest in force
    plus a temp orphan the next writable open sweeps.  The post-rename
    ``tiered.manifest.swapped`` point is the *caller's* to fire (after
    it has also swapped its in-memory state), so disk and process never
    disagree across that crashpoint.
    """
    path = Path(path)
    injector = active_injector(faults)
    data = manifest.encode()
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{next(_MANIFEST_TEMP)}.tmp"
    )
    try:
        with temp.open("wb") as handle:
            handle.write(data)
            injector.crashpoint(CRASH_MANIFEST_TMP_WRITTEN)
            handle.flush()
            os.fsync(handle.fileno())
        injector.crashpoint(CRASH_MANIFEST_TMP_SYNCED)
        temp.replace(path)
    except BaseException:
        # Injected crashes mimic power loss and deliberately leave the
        # temp file behind; real failures shouldn't either — recovery
        # cleanup handles both, and unlinking here could mask a torn
        # write the drills want to observe.
        raise
    fsync_directory(path.parent)


def manifest_fingerprint(
    directory: str | Path,
) -> tuple[int, int, int] | None:
    """Cheap change detector for the manifest (inode, mtime, size).

    The atomic rename commit gives every generation a fresh inode, so a
    serving worker can poll this between requests and reload only when
    it moves.  ``None`` while no manifest exists.
    """
    try:
        stat = os.stat(Path(directory) / MANIFEST_NAME)
    except OSError:
        return None
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


# --------------------------------------------------------------------- #
# Configuration


@dataclass(frozen=True, slots=True)
class TieredConfig:
    """Shape and policy of one tiered index.

    Parameters
    ----------
    seal_threshold:
        Overlay ads that trigger a seal inside ``insert``.
    fan_in:
        Segments accumulated at one level before they merge into one
        segment a level up.  Also the per-level read-amplification
        bound.
    auto_merge:
        Run ratio-triggered merges inline right after a threshold seal.
        Inline merging is disabled automatically while a
        :class:`BackgroundMerger` owns merging.
    suffix_bits / max_words / max_query_words / fast_path:
        Passed through to the per-tier builder and overlay.  The
        index-shape fields are persisted in the manifest and adopted
        from it on reopen.  Each open segment keeps a decoded-node
        cache of ``DEFAULT_CACHE_BYTES``, so a stack of ``n`` sealed
        tiers may hold up to ``n`` times that decoded.
    """

    seal_threshold: int = 512
    fan_in: int = 4
    auto_merge: bool = True
    suffix_bits: int | None = None
    max_words: int | None = None
    max_query_words: int = 16
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.seal_threshold < 1:
            raise ValueError("seal_threshold must be >= 1")
        if self.fan_in < 2:
            raise ValueError("fan_in must be >= 2")


@dataclass(slots=True)
class _OpenSegment:
    """A manifest record plus its opened reader."""

    record: SegmentRecord
    index: PackedSegmentIndex


# --------------------------------------------------------------------- #
# The tiered index


class Tombstones:
    """Pending cross-tier deletions, indexed so readers pay per *dead*
    ad rather than per ad seen.

    ``counts`` holds a count per exact ad (the corpus permits duplicate
    ads), ``dead_ids`` the dead occurrences per ``listing_id`` and
    ``total`` their sum; :meth:`add` and :meth:`discard` are the only
    writers and keep the three in step.  Readers test the int
    ``ad.info.listing_id in dead_ids`` first and hash a whole
    :class:`Advertisement` (phrase, info and word-set) only for the few
    *suspects* that pass.
    """

    __slots__ = ("counts", "dead_ids", "total")

    def __init__(
        self, items: Iterable[tuple[Advertisement, int]] = ()
    ) -> None:
        self.counts: dict[Advertisement, int] = {}
        self.dead_ids: dict[int, int] = {}
        self.total = 0
        for ad, count in items:
            if count > 0:
                self.add(ad, count)

    def copy(self) -> Tombstones:
        clone = Tombstones()
        clone.counts = self.counts.copy()
        clone.dead_ids = self.dead_ids.copy()
        clone.total = self.total
        return clone

    def count(self, ad: Advertisement) -> int:
        return self.counts.get(ad, 0)

    def add(self, ad: Advertisement, count: int = 1) -> None:
        listing_id = ad.info.listing_id
        self.counts[ad] = self.counts.get(ad, 0) + count
        self.dead_ids[listing_id] = self.dead_ids.get(listing_id, 0) + count
        self.total += count

    def discard(self, ad: Advertisement, count: int = 1) -> int:
        """Forget up to ``count`` pending deletions of ``ad``; returns
        how many were pending and are now forgotten."""
        dropped = min(count, self.counts.get(ad, 0))
        if dropped:
            listing_id = ad.info.listing_id
            self.counts[ad] -= dropped
            if not self.counts[ad]:
                del self.counts[ad]
            self.dead_ids[listing_id] -= dropped
            if not self.dead_ids[listing_id]:
                del self.dead_ids[listing_id]
            self.total -= dropped
        return dropped

    def encoded(self) -> tuple[tuple[Advertisement, int], ...]:
        """The manifest form: sorted by ``(phrase, listing_id)``, ties
        in first-tombstoned order (stable sort, insertion-ordered)."""
        return tuple(
            sorted(
                self.counts.items(),
                key=lambda item: (item[0].phrase, item[0].info.listing_id),
            )
        )

    def filter(
        self,
        results: list[Advertisement],
        consumed: dict[Advertisement, int] | None = None,
    ) -> list[Advertisement]:
        """``results`` minus the first ``count`` occurrences of each
        dead ad, in result order.  The common serving case is
        "tombstones exist but none of *these* results are dead": with
        no suspect, or none that is exactly a dead ad, the input list
        itself comes back.  ``consumed`` tallies the occurrences
        dropped; one dict passed across calls spends each count over
        several lists (a fold's victims, oldest first)."""
        dead_ids = self.dead_ids
        suspects = [
            index
            for index, ad in enumerate(results)
            if ad.info.listing_id in dead_ids
        ]
        if not suspects:
            return results
        if consumed is None:
            consumed = {}
        kept: list[Advertisement] = []
        start = 0
        for index in suspects:
            ad = results[index]
            used = consumed.get(ad, 0)
            if self.counts.get(ad, 0) > used:
                consumed[ad] = used + 1
                kept += results[start:index]
                start = index + 1
        if not start:
            return results
        kept += results[start:]
        return kept


class TieredSegmentedIndex:
    """Continuous-ingest serving index over manifest-managed tiers."""

    #: Capability marker: ``query`` accepts a ``deadline`` budget.
    supports_deadline = True

    def __init__(
        self,
        directory: str | Path,
        config: TieredConfig | None = None,
        obs: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        read_only: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.config = config if config is not None else TieredConfig()
        self._faults = active_injector(faults)
        self._obs = active_or_none(obs)
        self._read_only = read_only
        self._lock = threading.RLock()
        self._merge_inflight = False
        self._concurrent_readers = False
        self._active_queries = 0
        self._retired: list[PackedSegmentIndex] = []
        self._closed = False

        manifest_path = self.directory / MANIFEST_NAME
        if manifest_path.exists():
            manifest = read_manifest(manifest_path)
        elif read_only:
            raise ManifestFormatError(
                f"no tiered manifest in {self.directory}"
            )
        else:
            self.directory.mkdir(parents=True, exist_ok=True)
            manifest = Manifest(
                max_words=self.config.max_words,
                max_query_words=self.config.max_query_words,
                fast_path=self.config.fast_path,
            )
            write_manifest(manifest_path, manifest, self._faults)
        # The manifest owns the index shape across generations.
        self._max_words = manifest.max_words
        self._max_query_words = manifest.max_query_words
        self._fast_path = manifest.fast_path
        if not read_only:
            self._sweep_unreferenced(manifest)
        self._segments: list[_OpenSegment] = []
        try:
            for record in manifest.segments:
                self._segments.append(
                    _OpenSegment(
                        record=record,
                        index=PackedSegmentIndex(
                            self.directory / record.name, obs=self._obs
                        ),
                    )
                )
        except BaseException:
            for open_segment in self._segments:
                open_segment.index.close()
            raise
        self._tombstones = Tombstones(manifest.tombstones)
        self._overlay = self._fresh_overlay()
        self._manifest = manifest
        self._next_seq = manifest.next_seq
        self._register_obs()

    # ------------------------------------------------------------------ #
    # Construction helpers

    def _fresh_overlay(self) -> WordSetIndex:
        return WordSetIndex(
            max_words=self._max_words,
            max_query_words=self._max_query_words,
            fast_path=self._fast_path,
        )

    def _sweep_unreferenced(self, manifest: Manifest) -> None:
        """Remove crash debris: ``*.tmp`` orphans (torn segment or
        manifest writes) and segment files the manifest doesn't
        reference (written but never committed).  Writable opens only —
        a read-only observer must not race a writer's pre-commit
        files."""
        referenced = {record.name for record in manifest.segments}
        try:
            children = list(self.directory.iterdir())
        except OSError:
            return
        for child in children:
            name = child.name
            if name == MANIFEST_NAME or name in referenced:
                continue
            if name.endswith(".tmp") or (
                name.startswith("seg-") and name.endswith(".seg")
            ):
                try:
                    child.unlink()
                except OSError:
                    continue

    def _register_obs(self) -> None:
        obs = self._obs
        if obs is not None:
            obs.counter("tiered.seals", help="Overlay seals committed")
            obs.counter("tiered.merges", help="Tier merges committed")
            self._update_gauges()

    def _update_gauges(self) -> None:
        obs = self._obs
        if obs is not None:
            obs.gauge(
                "tiered.segments", help="Live sealed segments"
            ).set(float(len(self._segments)))
            obs.gauge(
                "tiered.overlay_ads", help="Ads in the mutable overlay"
            ).set(float(len(self._overlay)))
            obs.gauge(
                "tiered.tombstones", help="Pending cross-tier deletions"
            ).set(float(self._tombstones.total))

    def _assert_writable(self) -> None:
        if self._read_only:
            raise RuntimeError("index opened read-only")

    # ------------------------------------------------------------------ #
    # Mutation

    def insert(
        self, ad: Advertisement, locator: frozenset[str] | None = None
    ) -> None:
        """Add ``ad``.  Re-inserting a tombstoned segment ad resurrects
        the sealed copy (indistinguishable by full-field equality)
        instead of duplicating it — unless an explicit ``locator`` asks
        for a specific placement, or a merge is in flight (the merge
        snapshot already accounted for the tombstone; a fresh overlay
        copy plus the still-pending tombstone nets out identically)."""
        self._assert_writable()
        with self._lock:
            if not (
                locator is None
                and not self._merge_inflight
                and self._tombstones.discard(ad)
            ):
                self._overlay.insert(ad, locator)
            overlay_ads = len(self._overlay)
        self._update_gauges()
        if overlay_ads >= self.config.seal_threshold:
            self.seal()
            if self.config.auto_merge and not self._concurrent_readers:
                self.maybe_merge()

    def delete(self, ad: Advertisement) -> bool:
        """Remove one occurrence of ``ad``; False if not live."""
        self._assert_writable()
        with self._lock:
            if self._overlay.delete(ad):
                self._update_gauges()
                return True
            if self._sealed_live(ad):
                self._tombstones.add(ad)
                self._update_gauges()
                return True
            return False

    def contains(self, ad: Advertisement) -> bool:
        with self._lock:
            return self._overlay.contains(ad) or self._sealed_live(ad)

    def _sealed_live(self, ad: Advertisement) -> bool:
        """Whether the sealed tiers hold more copies of ``ad`` than its
        pending tombstones cancel — caller holds the lock.  Walks the
        tiers newest-first and stops as soon as the answer is known."""
        pending = self._tombstones.count(ad)
        sealed = 0
        for open_segment in reversed(self._segments):
            sealed += open_segment.index.lookup_count(ad)
            if sealed > pending:
                return True
        return False

    # ------------------------------------------------------------------ #
    # Query processing

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Fan over tiers newest-first, filter cross-tier tombstones,
        finish with the overlay.  One lock acquisition snapshots a
        consistent (segments, tombstones, overlay) triple; commits swap
        those references copy-on-write, so a concurrent merge never
        tears an in-flight query."""
        with self._lock:
            self._active_queries += 1
            segments = tuple(self._segments)
            tombstones = self._tombstones
            overlay = self._overlay
        try:
            results: list[Advertisement] = []
            for open_segment in reversed(segments):
                if deadline is not None and deadline.expired():
                    deadline.mark_partial(DegradedReason.DEADLINE)
                    break
                results.extend(
                    open_segment.index.query(query, match_type, deadline)
                )
            if tombstones.total:
                results = tombstones.filter(results)
            results.extend(overlay.query(query, match_type, deadline))
            return results
        finally:
            drained: list[PackedSegmentIndex] = []
            with self._lock:
                self._active_queries -= 1
                if not self._active_queries and self._retired:
                    drained, self._retired = self._retired, []
            for retired in drained:
                retired.close()

    # ------------------------------------------------------------------ #
    # Seal

    def seal(self) -> Path | None:
        """Freeze the overlay into a new L0 segment and commit it.

        Returns the new segment path, or ``None`` for an empty overlay.
        Crash-safe: the segment file is written first (atomic in its own
        right), then the manifest commit makes it live; a crash anywhere
        before the manifest rename leaves the previous generation in
        force (the orphan file is swept on the next writable open) and
        the in-process overlay untouched, so a retry just runs again.

        With an empty overlay but tombstones that changed since the
        last commit, a manifest-only generation is written — ``seal()``
        is the durability point for deletes too.
        """
        self._assert_writable()
        if not len(self._overlay):
            with self._lock:
                tombstones = self._tombstones.encoded()
                if tombstones == self._manifest.tombstones:
                    return None
                self._faults.crashpoint(CRASH_SEAL_START)
                manifest = replace(
                    self._manifest,
                    generation=self._manifest.generation + 1,
                    next_seq=self._next_seq,
                    tombstones=tombstones,
                )
                self._commit_locked(manifest, segments=self._segments)
            self._faults.crashpoint(CRASH_MANIFEST_SWAPPED)
            return None
        self._faults.crashpoint(CRASH_SEAL_START)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        name = f"seg-{seq:06d}-L0.seg"
        path = self.directory / name
        builder = SegmentBuilder(
            self._overlay, suffix_bits=self.config.suffix_bits
        )
        builder.write(
            path,
            generation=self._manifest.generation + 1,
            faults=self._faults,
        )
        self._faults.crashpoint(CRASH_SEAL_WRITTEN)
        segment = PackedSegmentIndex(path, obs=self._obs)
        record = SegmentRecord(
            name=name, level=0, seq=seq, num_ads=len(segment)
        )
        try:
            with self._lock:
                manifest = replace(
                    self._manifest,
                    generation=self._manifest.generation + 1,
                    next_seq=self._next_seq,
                    segments=self._manifest.segments + (record,),
                    tombstones=self._tombstones.encoded(),
                )
                self._commit_locked(
                    manifest,
                    segments=self._segments
                    + [_OpenSegment(record=record, index=segment)],
                    fresh_overlay=True,
                )
        except BaseException:
            segment.close()
            raise
        obs = self._obs
        if obs is not None:
            obs.counter("tiered.seals").inc()
        self._faults.crashpoint(CRASH_MANIFEST_SWAPPED)
        return path

    def _commit_locked(
        self,
        manifest: Manifest,
        segments: list[_OpenSegment],
        fresh_overlay: bool = False,
        tombstones: Tombstones | None = None,
    ) -> None:
        """Write the manifest, then swap in-memory state — caller holds
        the lock.  No crashpoint separates the rename from the swap;
        the combined ``tiered.manifest.swapped`` point fires after both,
        so an injected crash there leaves disk and process agreeing."""
        write_manifest(
            self.directory / MANIFEST_NAME, manifest, self._faults
        )
        self._manifest = manifest
        self._segments = segments
        if tombstones is not None:
            self._tombstones = tombstones
        if fresh_overlay:
            self._overlay = self._fresh_overlay()
        self._update_gauges()

    # ------------------------------------------------------------------ #
    # Merge

    def _merge_candidate_level(self) -> int | None:
        """Lowest level holding ``fan_in``-or-more segments."""
        counts: Counter[int] = Counter(
            open_segment.record.level for open_segment in self._segments
        )
        eligible = [
            level
            for level, count in counts.items()
            if count >= self.config.fan_in
        ]
        return min(eligible) if eligible else None

    def maybe_merge(self, max_merges: int | None = None) -> int:
        """Run ratio-triggered merges (cascading upward) until quiet or
        ``max_merges``; returns the number of merges committed."""
        merged = 0
        while max_merges is None or merged < max_merges:
            with self._lock:
                level = self._merge_candidate_level()
            if level is None:
                break
            if self.merge_level(level) is None:
                break
            merged += 1
        return merged

    def merge_level(self, level: int) -> Path | None:
        """Fold the oldest ``fan_in`` segments at ``level`` into one
        segment at ``level + 1``; returns its path (``None`` if the
        level no longer qualifies)."""
        self._assert_writable()
        with self._lock:
            victims = [
                open_segment
                for open_segment in self._segments
                if open_segment.record.level == level
            ][: self.config.fan_in]
            if len(victims) < self.config.fan_in:
                return None
        return self._merge(victims, out_level=level + 1)

    def compact(self) -> Path:
        """Full compaction: seal the overlay, then fold *every* segment
        into a single one."""
        self._assert_writable()
        self.seal()
        with self._lock:
            victims = list(self._segments)
            tombstoned = bool(self._tombstones.total)
        # A lone segment is already folded unless tombstones still mask it.
        if len(victims) > 1 or (victims and tombstoned):
            top = max(
                open_segment.record.level for open_segment in victims
            )
            self._merge(victims, out_level=top + 1)
        return self.directory

    def _merge(
        self, victims: list[_OpenSegment], out_level: int
    ) -> Path | None:
        """Fold ``victims`` (oldest-first) into one new segment.

        Applicable tombstones are consumed from a snapshot taken up
        front; deletes and inserts that land *during* the fold stay
        pending (``insert`` routes around the resurrect shortcut while
        a merge is in flight) and reconcile at commit, so a background
        merge never loses a concurrent write.
        """
        with self._lock:
            tomb_snapshot = self._tombstones.copy()
            self._merge_inflight = True
        try:
            self._faults.crashpoint(CRASH_MERGE_START)
            with self._lock:
                seq = self._next_seq
                self._next_seq += 1
            consumed: dict[Advertisement, int] = {}
            placements: dict[frozenset[str], frozenset[str]] = {}
            survivors: list[Advertisement] = []
            for open_segment in victims:
                placements.update(open_segment.index.placements())
                survivors += tomb_snapshot.filter(
                    list(open_segment.index.iter_ads()), consumed
                )
            fresh = self._fresh_overlay()
            for ad in survivors:
                fresh.insert(ad, placements.get(ad.words))
            name = f"seg-{seq:06d}-L{out_level}.seg"
            path = self.directory / name
            SegmentBuilder(
                fresh, suffix_bits=self.config.suffix_bits
            ).write(
                path,
                generation=self._manifest.generation + 1,
                faults=self._faults,
            )
            self._faults.crashpoint(CRASH_MERGE_WRITTEN)
            segment = PackedSegmentIndex(path, obs=self._obs)
            record = SegmentRecord(
                name=name, level=out_level, seq=seq, num_ads=len(segment)
            )
            victim_set = {id(open_segment) for open_segment in victims}
            try:
                with self._lock:
                    # Copy-on-write tombstone reconciliation: in-flight
                    # query snapshots keep the counter matching their
                    # segment list.
                    new_tombstones = self._tombstones.copy()
                    for ad, count in consumed.items():
                        new_tombstones.discard(ad, count)
                    kept = [
                        open_segment
                        for open_segment in self._segments
                        if id(open_segment) not in victim_set
                    ]
                    # The merged segment takes the oldest victim's
                    # position so list order stays oldest-first.
                    insert_at = min(
                        (
                            i
                            for i, open_segment in enumerate(self._segments)
                            if id(open_segment) in victim_set
                        ),
                        default=len(kept),
                    )
                    new_segments = (
                        kept[:insert_at]
                        + [_OpenSegment(record=record, index=segment)]
                        + kept[insert_at:]
                    )
                    records = tuple(
                        open_segment.record for open_segment in new_segments
                    )
                    manifest = replace(
                        self._manifest,
                        generation=self._manifest.generation + 1,
                        next_seq=self._next_seq,
                        segments=records,
                        tombstones=new_tombstones.encoded(),
                    )
                    self._commit_locked(
                        manifest,
                        segments=new_segments,
                        tombstones=new_tombstones,
                    )
            except BaseException:
                segment.close()
                raise
            self._retire(victims)
            obs = self._obs
            if obs is not None:
                obs.counter("tiered.merges").inc()
            self._faults.crashpoint(CRASH_MANIFEST_SWAPPED)
            return path
        finally:
            with self._lock:
                self._merge_inflight = False

    def _retire(self, victims: list[_OpenSegment]) -> None:
        """Close merged-away segments and unlink their files.

        A query that snapshotted *before* the commit may still be
        reading a victim's buffers, so closing is epoch-gated: with any
        query in flight the reader is parked on ``_retired`` and the
        last in-flight query drains the list; with none, it closes
        right here.  Snapshots after the commit never see victims.  The
        manifest no longer references these files, so a crash before
        the unlink just leaves debris for the next open's sweep.
        """
        to_close: list[PackedSegmentIndex] = []
        with self._lock:
            for open_segment in victims:
                if self._active_queries:
                    self._retired.append(open_segment.index)
                else:
                    to_close.append(open_segment.index)
        for index in to_close:
            index.close()
        for open_segment in victims:
            try:
                (self.directory / open_segment.record.name).unlink()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Concurrency plumbing

    def enable_concurrent_readers(self) -> None:
        """Mark queries as possibly concurrent with merges.  Disables
        the inline auto-merge in ``insert`` (the caller's
        :class:`BackgroundMerger` owns merging); retired-segment
        lifetime is always epoch-gated (see :meth:`_retire`), so this
        is a policy switch, not a safety one."""
        with self._lock:
            self._concurrent_readers = True

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle

    @property
    def generation(self) -> int:
        return self._manifest.generation

    @property
    def manifest(self) -> Manifest:
        return self._manifest

    @property
    def overlay(self) -> WordSetIndex:
        return self._overlay

    @property
    def segments(self) -> list[PackedSegmentIndex]:
        """Open per-tier readers, oldest-first."""
        return [open_segment.index for open_segment in self._segments]

    def tombstone_count(self) -> int:
        with self._lock:
            return self._tombstones.total

    def __len__(self) -> int:
        with self._lock:
            sealed = sum(
                len(open_segment.index) for open_segment in self._segments
            )
            return (
                sealed
                - self._tombstones.total
                + len(self._overlay)
            )

    def live_ads(self) -> Iterator[Advertisement]:
        """Every live ad: tiers oldest-first minus tombstones, then the
        overlay."""
        with self._lock:
            segments = tuple(self._segments)
            tombstones = self._tombstones.copy()
            overlay = self._overlay
        consumed: dict[Advertisement, int] = {}
        for open_segment in segments:
            yield from tombstones.filter(
                list(open_segment.index.iter_ads()), consumed
            )
        for node in overlay.nodes.values():
            for entry in node.entries:
                yield entry.ad

    def read_amplification(self) -> int:
        """Structures probed per query: every tier plus the overlay."""
        with self._lock:
            return len(self._segments) + 1

    def read_amp_bound(self) -> int:
        """The configured bound: ``fan_in`` segments per level (the
        ratio policy merges a level the moment it reaches ``fan_in``)
        across the levels currently in use, plus the overlay."""
        with self._lock:
            levels = {
                open_segment.record.level
                for open_segment in self._segments
            }
        top = max(levels) if levels else 0
        return self.config.fan_in * (top + 1) + 1

    def segment_bytes(self) -> int:
        with self._lock:
            return sum(
                open_segment.index.segment_bytes()
                for open_segment in self._segments
            )

    def stats(self) -> dict[str, Any]:
        with self._lock:
            per_level: Counter[int] = Counter(
                open_segment.record.level
                for open_segment in self._segments
            )
            return {
                "num_ads": len(self),
                "generation": self._manifest.generation,
                "segments": [
                    {
                        "name": open_segment.record.name,
                        "level": open_segment.record.level,
                        "num_ads": len(open_segment.index),
                        "bytes": open_segment.index.segment_bytes(),
                    }
                    for open_segment in self._segments
                ],
                "levels": {
                    str(level): count
                    for level, count in sorted(per_level.items())
                },
                "overlay_ads": len(self._overlay),
                "tombstones": self._tombstones.total,
                "read_amplification": len(self._segments) + 1,
                "read_amp_bound": self.read_amp_bound(),
                "segment_bytes": sum(
                    open_segment.index.segment_bytes()
                    for open_segment in self._segments
                ),
                "directory": str(self.directory),
            }

    def bulk_load(
        self,
        ads: Iterable[Advertisement],
        mapping: dict[frozenset[str], frozenset[str]] | None = None,
    ) -> None:
        """Initial fill: straight into the overlay (no auto-seal churn),
        then one seal — the packed baseline starts as a single L0."""
        self._assert_writable()
        with self._lock:
            for ad in ads:
                locator = mapping.get(ad.words) if mapping else None
                self._overlay.insert(ad, locator)
        self.seal()

    @classmethod
    def pack_corpus(
        cls,
        corpus: AdCorpus | Iterable[Advertisement],
        directory: str | Path,
        config: TieredConfig | None = None,
        mapping: dict[frozenset[str], frozenset[str]] | None = None,
        obs: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
    ) -> TieredSegmentedIndex:
        """Create a tiered directory seeded with ``corpus`` as one L0."""
        index = cls(directory, config=config, obs=obs, faults=faults)
        try:
            index.bulk_load(corpus, mapping)
        except BaseException:
            index.close()
            raise
        return index

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for open_segment in self._segments:
                open_segment.index.close()
            for retired in self._retired:
                retired.close()
            self._retired.clear()

    def __enter__(self) -> TieredSegmentedIndex:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Background merging


class BackgroundMerger:
    """Owns ratio-triggered merges on a daemon thread.

    Serving (queries on any thread) continues while merges run: the
    index snapshots state per query and commits swap copy-on-write.
    Injected crashes from armed ``tiered.*``/``segment.*`` crashpoints
    are caught and counted — a crashed merge is retried on the next
    tick, exactly like a restarted compaction daemon.
    """

    def __init__(
        self, index: TieredSegmentedIndex, interval_s: float = 0.01
    ) -> None:
        self.index = index
        self.interval_s = interval_s
        self.merges = 0
        self.crashes = 0
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._thread is not None:
            return
        self.index.enable_concurrent_readers()
        self._thread = threading.Thread(
            target=self._run, name="tiered-merger", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        from repro.faults.injector import InjectedCrash

        while not self._stop.is_set():
            try:
                merged = self.index.maybe_merge(max_merges=1)
            except InjectedCrash:
                self.crashes += 1
                merged = 0
            except Exception as exc:  # noqa: BLE001 — drill gates on this
                self.errors.append(f"{type(exc).__name__}: {exc}")
                merged = 0
            if not merged:
                self._stop.wait(self.interval_s)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def drain(self) -> None:
        """Stop the thread, then run any remaining merges inline."""
        self.stop()
        self.merges += self.index.maybe_merge()

    def __enter__(self) -> BackgroundMerger:
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
