"""Index persistence: versioned, checksummed save/load of corpus + mapping.

A serving process must be able to persist the built structure and restore
it on restart without re-running the optimizer.  The format is JSON-lines:

* line 1 — header: format version, counts, configuration;
* one line per advertisement (phrase, metadata);
* one line per non-identity mapping entry;
* trailer — a SHA-256 over everything above, so truncation or bit-rot is
  detected at load time rather than surfacing as silently wrong auctions.

``load_index`` rebuilds the :class:`~repro.core.wordset_index.WordSetIndex`
(placement is deterministic given corpus + mapping) and returns the corpus
and mapping alongside it for further optimization.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.wordset_index import WordSetIndex
from repro.faults.injector import FaultInjector, InjectedCrash, active_injector
from repro.optimize.mapping import Mapping

FORMAT_VERSION = 1

#: Distinguishes temp files of concurrent savers within one process; the
#: pid handles concurrent processes.
_TEMP_COUNTER = itertools.count()


class PersistenceError(ValueError):
    """Raised when a saved index file is invalid, corrupt, or truncated."""


@dataclass(frozen=True, slots=True)
class LoadedIndex:
    corpus: AdCorpus
    mapping: Mapping
    index: WordSetIndex
    #: Snapshot generation: bumped on every compaction so op-log records
    #: from before the compaction are recognisably stale (see
    #: :mod:`repro.oplog` and ``docs/durability.md``).
    generation: int = 0


def _ad_record(ad: Advertisement) -> dict:
    return {
        "phrase": list(ad.phrase),
        "listing_id": ad.info.listing_id,
        "campaign_id": ad.info.campaign_id,
        "bid_price_micros": ad.info.bid_price_micros,
        "exclusions": list(ad.info.exclusion_phrases),
    }


def _ad_from_record(record: dict) -> Advertisement:
    info = AdInfo(
        listing_id=record["listing_id"],
        campaign_id=record["campaign_id"],
        bid_price_micros=record["bid_price_micros"],
        exclusion_phrases=tuple(record["exclusions"]),
    )
    return Advertisement(phrase=tuple(record["phrase"]), info=info)


def save_index(
    path: str | Path,
    corpus: AdCorpus,
    mapping: Mapping | None = None,
    max_query_words: int = 16,
    generation: int = 0,
    faults: FaultInjector | None = None,
) -> None:
    """Write corpus + mapping to ``path``, atomically and durably.

    The write is crash-safe in the strict sense: a unique temp file (so
    concurrent savers never collide) is fully written and **fsynced
    before** the atomic ``rename``, then the directory entry is synced
    best-effort — a power loss at any instant leaves either the old
    complete file or the new complete file, never a torn or empty one.

    Crashpoints (see ``docs/durability.md``): ``save.tmp_written``,
    ``save.tmp_synced``, ``save.renamed``.
    """
    path = Path(path)
    faults = active_injector(faults)
    mapping = mapping if mapping is not None else Mapping({})
    remapped = {
        words: locator
        for words, locator in mapping.as_dict().items()
        if words != locator
    }
    header = {
        "format": "repro-wordset-index",
        "version": FORMAT_VERSION,
        "generation": generation,
        "num_ads": len(corpus),
        "num_remapped": len(remapped),
        "max_words": mapping.max_words,
        "max_query_words": max_query_words,
    }
    digest = hashlib.sha256()
    temp = path.with_name(
        f".{path.name}.{os.getpid()}.{next(_TEMP_COUNTER)}.tmp"
    )
    try:
        with temp.open("w", encoding="utf-8") as handle:
            for record in _records(header, corpus, remapped):
                line = json.dumps(record, sort_keys=True)
                digest.update(line.encode("utf-8"))
                handle.write(line + "\n")
            handle.write(
                json.dumps({"sha256": digest.hexdigest()}, sort_keys=True)
                + "\n"
            )
            faults.crashpoint("save.tmp_written")
            handle.flush()
            os.fsync(handle.fileno())
        faults.crashpoint("save.tmp_synced")
        temp.replace(path)
    except BaseException as exc:
        # A real power loss would leave the temp file behind; an
        # injected crash must too, so recovery is tested against the
        # true on-disk state.  Ordinary errors clean up after themselves.
        if not isinstance(exc, InjectedCrash):
            temp.unlink(missing_ok=True)
        raise
    faults.crashpoint("save.renamed")
    fsync_directory(path.parent)


def fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so a rename into it is itself durable
    (every atomic temp-write + rename in the tree ends with this).
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


def _records(header, corpus, remapped):
    yield header
    for ad in corpus:
        yield {"ad": _ad_record(ad)}
    for words, locator in sorted(
        remapped.items(), key=lambda kv: sorted(kv[0])
    ):
        yield {"map": {"words": sorted(words), "locator": sorted(locator)}}


def load_index(path: str | Path) -> LoadedIndex:
    """Read, verify, and rebuild.  Raises :class:`PersistenceError` on any
    malformed input."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 2:
        raise PersistenceError("file truncated: missing header or trailer")

    try:
        trailer = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise PersistenceError("trailer is not valid JSON") from exc
    if "sha256" not in trailer:
        raise PersistenceError("file truncated: checksum trailer missing")

    digest = hashlib.sha256()
    records = []
    for line in lines[:-1]:
        digest.update(line.encode("utf-8"))
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise PersistenceError("corrupt record: invalid JSON") from exc
    if digest.hexdigest() != trailer["sha256"]:
        raise PersistenceError("checksum mismatch: file corrupt")

    header = records[0]
    if header.get("format") != "repro-wordset-index":
        raise PersistenceError("not a repro index file")
    if header.get("version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {header.get('version')!r}"
        )

    ads = []
    assignment: dict[frozenset[str], frozenset[str]] = {}
    for record in records[1:]:
        if "ad" in record:
            ads.append(_ad_from_record(record["ad"]))
        elif "map" in record:
            entry = record["map"]
            assignment[frozenset(entry["words"])] = frozenset(entry["locator"])
        else:
            raise PersistenceError(f"unknown record type: {record!r}")
    if len(ads) != header["num_ads"]:
        raise PersistenceError(
            f"ad count mismatch: header says {header['num_ads']}, "
            f"found {len(ads)}"
        )
    if len(assignment) != header["num_remapped"]:
        raise PersistenceError("mapping count mismatch")

    corpus = AdCorpus(ads)
    try:
        mapping = Mapping(assignment, max_words=header["max_words"])
    except ValueError as exc:
        raise PersistenceError(f"invalid mapping in file: {exc}") from exc
    index = WordSetIndex.from_corpus(
        corpus,
        mapping=mapping.as_dict(),
        max_words=mapping.max_words,
        max_query_words=header["max_query_words"],
    )
    return LoadedIndex(
        corpus=corpus,
        mapping=mapping,
        index=index,
        generation=int(header.get("generation", 0)),
    )
