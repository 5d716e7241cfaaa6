"""Tests for snapshot + op-log durability (crash recovery, compaction)."""

import json

import pytest

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import naive_broad_match
from repro.core.queries import Query
from repro.oplog import DurableIndex
from repro.optimize.mapping import Mapping
from repro.persist import PersistenceError


def ad(text, listing_id=0):
    return Advertisement.from_text(text, AdInfo(listing_id=listing_id))


@pytest.fixture()
def paths(tmp_path):
    return tmp_path / "snapshot.jsonl", tmp_path / "ops.log"


@pytest.fixture()
def durable(paths):
    snapshot, log = paths
    corpus = AdCorpus([ad("used books", 1), ad("books", 2)])
    index = DurableIndex(snapshot, log, corpus=corpus)
    yield index
    index.close()


class TestBasicDurability:
    def test_fresh_start_queryable(self, durable):
        result = durable.query(Query.from_text("cheap used books"))
        assert {a.info.listing_id for a in result} == {1, 2}

    def test_insert_logged_and_recovered(self, durable, paths):
        snapshot, log = paths
        durable.insert(ad("rare maps", 3))
        durable.close()
        recovered = DurableIndex(snapshot, log)
        assert recovered.recovery.replayed_ops == 1
        result = recovered.query(Query.from_text("rare maps shop"))
        assert 3 in {a.info.listing_id for a in result}
        recovered.close()

    def test_delete_logged_and_recovered(self, durable, paths):
        snapshot, log = paths
        assert durable.delete(ad("books", 2))
        durable.close()
        recovered = DurableIndex(snapshot, log)
        result = recovered.query(Query.from_text("books"))
        assert result == []
        recovered.close()

    def test_failed_delete_not_logged(self, durable):
        before = durable.log_ops
        assert not durable.delete(ad("absent", 99))
        assert durable.log_ops == before

    def test_mixed_churn_recovery_matches_oracle(self, paths):
        snapshot, log = paths
        corpus = AdCorpus([ad(f"base w{i}", i) for i in range(8)])
        durable = DurableIndex(snapshot, log, corpus=corpus)
        live = list(corpus)
        for i in range(12):
            new_ad = ad(f"churn{i} base", 100 + i)
            durable.insert(new_ad)
            live.append(new_ad)
            if i % 3 == 0:
                victim = live.pop(0)
                assert durable.delete(victim)
        durable.close()

        recovered = DurableIndex(snapshot, log)
        for qtext in ("base w3 churn1", "base churn2 churn5", "nope"):
            q = Query.from_text(qtext)
            got = sorted(a.info.listing_id for a in recovered.query(q))
            want = sorted(a.info.listing_id for a in naive_broad_match(live, q))
            assert got == want
        recovered.close()


class TestCrashSemantics:
    def test_torn_tail_write_tolerated(self, durable, paths):
        snapshot, log = paths
        durable.insert(ad("complete op", 10))
        durable.close()
        with log.open("a") as handle:
            handle.write('{"seq": 1, "op": {"kind": "ins')  # torn write
        recovered = DurableIndex(snapshot, log)
        assert recovered.recovery.truncated_tail
        assert recovered.recovery.replayed_ops == 1
        recovered.close()

    def test_log_rewrite_fsyncs_the_directory_after_rename(
        self, durable, paths, monkeypatch
    ):
        """Truncating a torn tail renames a rewritten log into place;
        the parent directory must be fsynced *after* that rename or a
        power loss can bring the torn log back."""
        import os
        import stat
        from pathlib import Path

        snapshot, log = paths
        durable.insert(ad("complete op", 10))
        durable.close()
        with log.open("a") as handle:
            handle.write('{"seq": 1, "op": {"kind": "ins')  # torn write

        events = []
        real_fsync = os.fsync
        real_replace = Path.replace

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            events.append(f"fsync-{kind}")
            return real_fsync(fd)

        def replace(self, target):
            if Path(target) == log:
                events.append("rename-log")
            return real_replace(self, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        recovered = DurableIndex(snapshot, log)
        recovered.close()
        assert recovered.recovery.truncated_tail
        renamed = events.index("rename-log")
        assert "fsync-file" in events[:renamed]
        assert "fsync-dir" in events[renamed + 1 :]

    def test_mid_log_corruption_is_an_error(self, durable, paths):
        snapshot, log = paths
        durable.insert(ad("first op", 10))
        durable.insert(ad("second op", 11))
        durable.close()
        lines = log.read_text().splitlines()
        lines[0] = lines[0].replace("first", "fxrst")  # breaks the crc
        log.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="valid records after"):
            DurableIndex(snapshot, log)

    def test_sequence_gap_at_tail_tolerated(self, durable, paths):
        snapshot, log = paths
        durable.insert(ad("op a", 10))
        durable.close()
        # Append a record with a wrong sequence number at the tail.
        payload = {"kind": "insert", "ad": {"phrase": ["x"], "listing_id": 9,
                   "campaign_id": 0, "bid_price_micros": 0, "exclusions": []}}
        import hashlib

        crc = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()[:16]
        with log.open("a") as handle:
            handle.write(json.dumps({"seq": 7, "op": payload, "crc": crc}) + "\n")
        recovered = DurableIndex(snapshot, log)
        assert recovered.recovery.truncated_tail
        recovered.close()

    def test_missing_log_is_clean_recovery(self, durable, paths):
        snapshot, log = paths
        durable.close()
        log.unlink()
        recovered = DurableIndex(snapshot, log)
        assert recovered.recovery.replayed_ops == 0
        assert len(recovered) == 2
        recovered.close()


class TestCompaction:
    def test_compaction_truncates_log(self, durable, paths):
        snapshot, log = paths
        for i in range(5):
            durable.insert(ad(f"new{i}", 10 + i))
        assert durable.log_ops == 5
        durable.compact()
        assert durable.log_ops == 0
        assert log.read_text() == ""
        durable.close()
        recovered = DurableIndex(snapshot, log)
        assert len(recovered) == 7
        recovered.close()

    def test_compaction_folds_in_new_mapping(self, durable, paths):
        snapshot, log = paths
        durable.insert(ad("cheap used books", 5))
        mapping = Mapping(
            {
                frozenset({"cheap", "used", "books"}): frozenset(
                    {"used", "books"}
                )
            }
        )
        durable.compact(mapping=mapping)
        result = durable.query(Query.from_text("cheap used books"))
        assert 5 in {a.info.listing_id for a in result}
        durable.close()
        recovered = DurableIndex(snapshot, log)
        assert recovered.recovery.replayed_ops == 0
        assert 5 in {
            a.info.listing_id
            for a in recovered.query(Query.from_text("cheap used books"))
        }
        recovered.close()

    def test_long_phrase_insert_with_max_words_mapping(self, paths):
        snapshot, log = paths
        corpus = AdCorpus([ad("a b", 1)])
        durable = DurableIndex(
            snapshot, log, corpus=corpus, mapping=Mapping({}, max_words=3)
        )
        long_ad = ad("p q r s t u", 2)
        durable.insert(long_ad)
        q = Query.from_text("p q r s t u v")
        assert 2 in {a.info.listing_id for a in durable.query(q)}
        durable.close()
        recovered = DurableIndex(snapshot, log)
        assert 2 in {a.info.listing_id for a in recovered.query(q)}
        recovered.close()
