"""Operation-log persistence: snapshot + append-only journal + compaction.

Full snapshots (:mod:`repro.persist`) are the right format for periodic
re-optimization output, but a serving process that inserts/deletes ads all
day cannot rewrite the corpus on every mutation.  The standard answer is
the one implemented here:

* a **base snapshot** (the `persist` format) written at startup or
  compaction time, carrying a **generation id** that is bumped on every
  compaction;
* an **op-log**: one JSON line per mutation (`insert` / `delete`), each
  line carrying a sequence number, the generation it belongs to, and a
  per-record checksum, fsync-friendly append-only;
* **recovery** = load snapshot, replay the log in order.  A torn trailing
  write is tolerated, reported, **and truncated** so the log is clean
  before it is reopened for append; records from an older generation are
  stale left-overs of a compaction that crashed between snapshot rename
  and log truncation, and are skipped rather than replayed onto the
  fresh snapshot; corruption *before* the tail is an error;
* **compaction** = write a fresh snapshot (next generation) of the live
  state, then truncate the log — crash-safe at every step because the
  generation check makes the truncation idempotent.

Mutations follow a single **WAL discipline**: validate, then log, then
apply to memory — for ``insert`` *and* ``delete`` — so a crash between
the two steps always errs the same direction (the op is durable in the
log and will be applied on recovery; memory is never ahead of the log).

``DurableIndex`` wraps a WordSetIndex (or a MaintainedIndex-compatible
structure) with this machinery.  Every step is instrumented with
:mod:`repro.faults` crashpoints (catalog in ``docs/durability.md``) and
reports into :mod:`repro.obs` (``recoveries``, ``stale_ops_skipped``,
``durability.*`` counters) when a registry is attached.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.core.ads import AdCorpus, Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.faults.injector import FaultInjector, active_injector
from repro.obs.registry import MetricsRegistry, active_or_none
from repro.optimize.mapping import Mapping
from repro.persist import (
    PersistenceError,
    _ad_from_record,
    _ad_record,
    fsync_directory,
    load_index,
    save_index,
)


def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _record_crc(seq: int, gen: int, payload: str) -> str:
    """Checksum binding the op payload to its sequence and generation,
    so a bit flip in *any* field of the record is caught."""
    return _checksum(f"{seq}:{gen}:{payload}")


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What replay found."""

    replayed_ops: int
    truncated_tail: bool
    #: Records skipped because their generation predates the snapshot's
    #: (left-overs of a compaction that crashed before log truncation).
    stale_ops_skipped: int = 0
    #: The snapshot generation recovery loaded.
    generation: int = 0


class DurableIndex:
    """A WordSetIndex with snapshot + op-log durability.

    Parameters
    ----------
    snapshot_path, log_path:
        Where the base snapshot and the op-log live.
    corpus, mapping:
        Pass a corpus for a fresh start (writes snapshot generation 0 and
        an empty log); omit it to recover from the paths.
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry` for the
        durability counters.
    faults:
        Optional :class:`~repro.faults.FaultInjector`; every durability
        step visits a named crashpoint through it.
    fsync:
        When True, every appended op is fsynced before the mutation is
        applied (full write-ahead durability; the default trades the
        fsync for OS-crash — not process-crash — durability, the
        standard serving configuration).
    """

    def __init__(
        self,
        snapshot_path: str | Path,
        log_path: str | Path,
        corpus: AdCorpus | None = None,
        mapping: Mapping | None = None,
        *,
        obs: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        fsync: bool = False,
    ) -> None:
        self.snapshot_path = Path(snapshot_path)
        self.log_path = Path(log_path)
        self._faults = active_injector(faults)
        self._fsync = fsync
        self._obs = active_or_none(obs)
        if self._obs is not None:
            self._obs.counter("recoveries", help="Successful log recoveries")
            self._obs.counter(
                "stale_ops_skipped",
                help="Stale-generation op-log records skipped on replay",
            )
            self._obs.counter(
                "durability.replayed_ops", help="Op-log records replayed"
            )
            self._obs.counter(
                "durability.torn_tails_truncated",
                help="Torn trailing log writes truncated on recovery",
            )
            self._obs.counter(
                "durability.compactions", help="Completed compactions"
            )
        if corpus is not None:
            # Fresh start: write the base snapshot, empty log.
            self._corpus = corpus
            self._mapping = mapping if mapping is not None else Mapping({})
            self._generation = 0
            save_index(
                self.snapshot_path,
                corpus,
                self._mapping,
                generation=0,
                faults=self._faults,
            )
            self.log_path.write_text("")
            self.recovery = RecoveryReport(
                replayed_ops=0, truncated_tail=False
            )
        else:
            self.recovery = self._recover()
        self._rebuild()
        self._sequence = self.recovery.replayed_ops
        self._log_handle = self.log_path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------ #
    # Recovery

    def _recover(self) -> RecoveryReport:
        loaded = load_index(self.snapshot_path)
        self._corpus = loaded.corpus
        self._mapping = loaded.mapping
        self._generation = loaded.generation
        self._faults.crashpoint("recover.snapshot_loaded")
        ads = list(self._corpus)
        replayed = 0
        stale = 0
        truncated = False
        live_lines: list[str] = []
        raw = ""
        if self.log_path.exists():
            # Read the whole log exactly once; every decision below works
            # on this in-memory copy, so a concurrent writer (or the
            # quadratic re-read the old code did per bad line) cannot
            # change the evidence between checks.
            raw = self.log_path.read_text(encoding="utf-8")
        lines = raw.splitlines()
        ends_complete = raw.endswith("\n")
        for line_number, line in enumerate(lines):
            is_tail = line_number == len(lines) - 1
            try:
                if is_tail and not ends_complete:
                    # The newline is the commit mark of an append: a
                    # final line without one is torn by definition, even
                    # if its prefix happens to parse.
                    raise ValueError("torn trailing write (no newline)")
                record = json.loads(line)
                payload = json.dumps(record["op"], sort_keys=True)
                if "gen" in record:
                    generation = int(record["gen"])
                    expected_crc = _record_crc(
                        int(record["seq"]), generation, payload
                    )
                else:
                    # Pre-generation log format: payload-only checksum,
                    # implicitly the snapshot's generation.
                    generation = self._generation
                    expected_crc = _checksum(payload)
                if record["crc"] != expected_crc:
                    raise ValueError("bad checksum")
                if generation > self._generation:
                    raise ValueError(
                        f"record from future generation {generation} "
                        f"(snapshot is {self._generation})"
                    )
                if generation < self._generation:
                    # Stale left-over of an interrupted compaction: the
                    # snapshot already contains this op's effect.
                    stale += 1
                    continue
                if record["seq"] != replayed:
                    raise ValueError("sequence gap")
            except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
                if not is_tail:
                    raise PersistenceError(
                        f"op-log corrupt at line {line_number + 1} with "
                        f"valid records after it: {exc}"
                    ) from exc
                truncated = True  # torn tail write: tolerated, truncated
                break
            op = record["op"]
            if op["kind"] == "insert":
                ads.append(_ad_from_record(op["ad"]))
            elif op["kind"] == "delete":
                victim = _ad_from_record(op["ad"])
                for i, existing in enumerate(ads):
                    if existing == victim:
                        del ads[i]
                        break
            else:
                raise PersistenceError(f"unknown op kind {op['kind']!r}")
            replayed += 1
            live_lines.append(line)
        if truncated or stale:
            # The on-disk log disagrees with what replay accepted (torn
            # tail and/or stale records).  Rewrite it to exactly the live
            # records *before* it is reopened for append — otherwise new
            # records would land after the corrupt line and the next
            # recovery would refuse to start.
            self._rewrite_log(live_lines)
        self._corpus = AdCorpus(ads)
        if self._obs is not None:
            self._obs.counter("recoveries").inc()
            self._obs.counter("durability.replayed_ops").inc(replayed)
            if stale:
                self._obs.counter("stale_ops_skipped").inc(stale)
            if truncated:
                self._obs.counter("durability.torn_tails_truncated").inc()
        return RecoveryReport(
            replayed_ops=replayed,
            truncated_tail=truncated,
            stale_ops_skipped=stale,
            generation=self._generation,
        )

    def _rewrite_log(self, lines: list[str]) -> None:
        """Atomically replace the log with exactly ``lines`` (write a
        temp, fsync, rename, fsync the directory) — a crash mid-rewrite
        must not lose the valid records recovery just accepted, and a
        power loss after it must not undo the rename."""
        temp = self.log_path.with_name(
            f".{self.log_path.name}.{os.getpid()}.rewrite.tmp"
        )
        with temp.open("w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in lines))
            handle.flush()
            os.fsync(handle.fileno())
        temp.replace(self.log_path)
        fsync_directory(self.log_path.parent)
        self._faults.crashpoint("recover.log_rewritten")

    def _rebuild(self) -> None:
        # Incremental build: ads replayed from the log may have word-sets
        # the snapshot's mapping has never seen (including long ones that
        # need a synthesized short locator), so each ad goes through the
        # same local placement heuristic as a live insert.
        self._index = WordSetIndex(max_words=self._mapping.max_words)
        for ad in self._corpus:
            self._index.insert(ad, locator=self._locator_for_new(ad))

    # ------------------------------------------------------------------ #
    # Mutations (logged)

    def _append(self, op: dict) -> None:
        payload = json.dumps(op, sort_keys=True)
        record = {
            "seq": self._sequence,
            "gen": self._generation,
            "op": op,
            "crc": _record_crc(self._sequence, self._generation, payload),
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        self._faults.crashpoint("oplog.append.start")
        if self._faults.is_armed("oplog.append.torn"):
            # Simulate the power dying halfway through the write: half
            # the record reaches the file, then the crashpoint fires.
            self._log_handle.write(line[: max(1, len(line) // 2)])
            self._log_handle.flush()
            self._faults.crashpoint("oplog.append.torn")
        self._log_handle.write(line)
        self._log_handle.flush()
        if self._fsync:
            os.fsync(self._log_handle.fileno())
        self._faults.crashpoint("oplog.append.synced")
        self._sequence += 1

    def insert(self, ad: Advertisement) -> None:
        """Insert under the WAL discipline: validate (placement is
        computable), log, then apply to memory."""
        locator = self._locator_for_new(ad)
        self._append({"kind": "insert", "ad": _ad_record(ad)})
        self._faults.crashpoint("oplog.insert.logged")
        self._corpus.add(ad)
        self._index.insert(ad, locator=locator)

    def _locator_for_new(self, ad: Advertisement) -> frozenset[str]:
        """Same local heuristic as online maintenance: mapped locator if
        known, identity if short, else best existing / synthesized short
        locator."""
        from repro.optimize.remap import (
            _best_existing_locator,
            _rarest_words_locator,
        )

        placement = self._index.placement()
        if ad.words in placement:
            return placement[ad.words]
        locator = self._mapping.locator_for(ad.words)
        max_words = self._mapping.max_words
        if max_words is None or len(locator) <= max_words:
            return locator
        existing = _best_existing_locator(
            ad.words, set(placement.values()), max_words
        )
        if existing is not None:
            return existing
        return _rarest_words_locator(ad.words, self._corpus, max_words)

    def delete(self, ad: Advertisement) -> bool:
        """Delete under the WAL discipline: validate membership without
        mutating, log, then apply to memory (the pre-fix code mutated the
        index *before* logging — a crash between the steps lost the
        delete from the log while memory had already applied it)."""
        contains = getattr(self._index, "contains", None)
        if contains is not None:
            present = contains(ad)
        else:
            present = any(existing == ad for existing in self._corpus)
        if not present:
            return False
        self._append({"kind": "delete", "ad": _ad_record(ad)})
        self._faults.crashpoint("oplog.delete.logged")
        self._index.delete(ad)
        remaining = list(self._corpus)
        for i, existing in enumerate(remaining):
            if existing == ad:
                del remaining[i]
                break
        self._corpus = AdCorpus(remaining)
        return True

    # ------------------------------------------------------------------ #

    def query(
        self, query: Query, match_type: MatchType = MatchType.BROAD
    ) -> list[Advertisement]:
        return self._index.query(query, match_type)

    def stats(self):
        return self._index.stats()

    def __len__(self) -> int:
        return len(self._index)

    @property
    def corpus(self) -> AdCorpus:
        return self._corpus

    @property
    def index(self) -> WordSetIndex:
        """The live in-memory index (read-only uses: packing, stats)."""
        return self._index

    @property
    def log_ops(self) -> int:
        return self._sequence

    @property
    def generation(self) -> int:
        """The current snapshot generation (bumped by compaction)."""
        return self._generation

    def compact(self, mapping: Mapping | None = None) -> None:
        """Write a fresh snapshot of live state; truncate the log.

        Crash-safe: the new snapshot carries generation ``g+1``, so if
        the process dies after the snapshot rename but before the log
        truncation, recovery recognises every surviving log record as
        generation ``g`` — stale — and skips it instead of replaying it
        onto a snapshot that already contains its effect (the pre-fix
        behaviour, which duplicated every logged insert).

        Pass a new ``mapping`` to fold a re-optimization into the
        compaction (the paper's periodic reopt naturally lands here).
        """
        if mapping is not None:
            self._mapping = mapping
            self._rebuild()
        self._faults.crashpoint("compact.start")
        new_generation = self._generation + 1
        save_index(
            self.snapshot_path,
            self._corpus,
            self._mapping,
            generation=new_generation,
            faults=self._faults,
        )
        self._faults.crashpoint("compact.snapshot_written")
        self._log_handle.close()
        self.log_path.write_text("")
        self._faults.crashpoint("compact.log_truncated")
        self._log_handle = self.log_path.open("a", encoding="utf-8")
        self._sequence = 0
        self._generation = new_generation
        if self._obs is not None:
            self._obs.counter("durability.compactions").inc()

    def close(self) -> None:
        self._log_handle.close()
