"""Tiered segments: seal/merge lifecycle, crash-safe manifest, oracle
equivalence under churn, and wiring into the serving stack."""

import hashlib
import json
from collections import Counter

import pytest

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.faults import FaultInjector, InjectedCrash
from repro.obs import MetricsRegistry
from repro.segment import (
    TIERED_CRASHPOINTS,
    BackgroundMerger,
    Manifest,
    ManifestFormatError,
    SegmentRecord,
    TieredConfig,
    TieredSegmentedIndex,
    manifest_fingerprint,
    read_manifest,
)
from repro.segment.churn import ChurnConfig, run_churn_drill
from repro.segment.format import (
    CRASH_MANIFEST_SWAPPED,
    CRASH_MERGE_START,
    CRASH_MERGE_WRITTEN,
    CRASH_SEAL_START,
    CRASH_SEAL_WRITTEN,
)
from repro.segment import tiered as tiered_module
from repro.segment.tiered import MANIFEST_NAME


def ad(text, listing_id=0, bid=100):
    return Advertisement.from_text(
        text, AdInfo(listing_id=listing_id, bid_price_micros=bid)
    )


def ids(ads):
    return sorted(a.info.listing_id for a in ads)


def slate(ads):
    return sorted(
        (a.phrase, a.info.listing_id, a.info.bid_price_micros) for a in ads
    )


PROBES = [
    Query(("common", "w0")),
    Query(("common", "w1", "w2")),
    Query(("w3",)),
    Query(("absent", "words")),
]


def fill(index, oracle, count, start=0):
    for i in range(start, start + count):
        a = ad(f"w{i % 5} common item{i}", listing_id=i)
        index.insert(a)
        oracle.insert(a)


def assert_matches(index, oracle):
    assert len(index) == len(oracle)
    for query in PROBES:
        assert slate(index.query(query)) == slate(oracle.query(query)), query


def committed_view(directory):
    """Live-ad multiset of the *committed* generation on disk."""
    reopened = TieredSegmentedIndex(directory, read_only=True)
    try:
        return Counter(reopened.live_ads())
    finally:
        reopened.close()


class TestManifest:
    def test_round_trip(self):
        manifest = Manifest(
            generation=3,
            next_seq=7,
            segments=(
                SegmentRecord(name="seg-000001-L0.seg", level=0, seq=1,
                              num_ads=10),
            ),
            tombstones=((ad("dead thing", 9), 2),),
            max_words=5,
        )
        decoded = Manifest.decode(manifest.encode())
        assert decoded == manifest

    def test_checksum_mismatch_rejected(self):
        data = Manifest(generation=1).encode()
        torn = data.replace(b'"generation": 1', b'"generation": 2')
        with pytest.raises(ManifestFormatError, match="checksum"):
            Manifest.decode(torn)

    def test_garbage_rejected(self):
        with pytest.raises(ManifestFormatError):
            Manifest.decode(b"\x00\xffnot json")
        with pytest.raises(ManifestFormatError):
            Manifest.decode(b'{"format": "something-else"}')

    def test_deep_nesting_rejected(self, tmp_path):
        # Past the JSON decoder's nesting depth: a format error, not a
        # RecursionError, from the codec and from a read-only open.
        deep = b"[" * 100_000
        with pytest.raises(ManifestFormatError, match="corrupt"):
            Manifest.decode(deep)
        (tmp_path / MANIFEST_NAME).write_bytes(deep)
        with pytest.raises(ManifestFormatError, match="corrupt"):
            TieredSegmentedIndex(tmp_path, read_only=True)

    @pytest.mark.parametrize(
        "name",
        [
            "../outside.seg",
            "../seg-000000-L0.seg",
            "sub/seg-000000-L0.seg",
            "seg-000000-L0.seg/",
            "seg-000000-L0.seg\n",
            "seg-0-L0.seg",
            "MANIFEST.json",
        ],
    )
    def test_a_segment_name_outside_the_writers_shape_is_refused(self, name):
        record = {"name": name, "level": 0, "seq": 0, "num_ads": 1}
        with pytest.raises(ManifestFormatError, match="segment file name"):
            SegmentRecord.from_json(record)

    @pytest.mark.parametrize("read_only", [False, True])
    def test_a_manifest_cannot_reach_outside_its_directory(
        self, tmp_path, monkeypatch, read_only
    ):
        # A valid index whose one segment is moved out of the directory
        # and named by a path, the manifest re-checksummed around it.
        directory = tmp_path / "index"
        index = TieredSegmentedIndex.pack_corpus(
            [ad("red shoes", 1), ad("blue shoes", 2)], directory
        )
        index.close()
        manifest = read_manifest(directory / MANIFEST_NAME)
        (record,) = manifest.segments
        outside = tmp_path / "outside.seg"
        (directory / record.name).rename(outside)
        before = outside.read_bytes()
        body = manifest.body()
        body["segments"][0]["name"] = "../outside.seg"
        blob = json.dumps(body, sort_keys=True).encode("utf-8")
        checksum = hashlib.sha256(blob).hexdigest()
        (directory / MANIFEST_NAME).write_bytes(
            blob[:-1] + b', "checksum": "' + checksum.encode() + b'"}'
        )
        opened = []
        real = tiered_module.PackedSegmentIndex
        monkeypatch.setattr(
            tiered_module,
            "PackedSegmentIndex",
            lambda path, *args, **kwargs: opened.append(path)
            or real(path, *args, **kwargs),
        )
        with pytest.raises(ManifestFormatError, match="segment file name"):
            TieredSegmentedIndex(directory, read_only=read_only)
        assert opened == []
        assert outside.read_bytes() == before

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ManifestFormatError):
            read_manifest(tmp_path / MANIFEST_NAME)

    def test_read_only_open_requires_manifest(self, tmp_path):
        with pytest.raises(ManifestFormatError):
            TieredSegmentedIndex(tmp_path / "absent", read_only=True)


class TestLifecycle:
    def test_auto_seal_creates_l0_segments(self, tmp_path):
        index = TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=5, fan_in=100)
        )
        oracle = WordSetIndex()
        with index:
            fill(index, oracle, 23)
            stats = index.stats()
            assert stats["levels"] == {"0": 4}
            assert stats["overlay_ads"] == 3
            assert_matches(index, oracle)

    def test_ratio_merge_folds_fan_in_segments_upward(self, tmp_path):
        index = TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=4, fan_in=3)
        )
        oracle = WordSetIndex()
        with index:
            fill(index, oracle, 60)
            levels = {
                record.level for record in index.manifest.segments
            }
            assert max(levels) >= 1
            # The ratio policy never leaves fan_in segments at a level.
            per_level = Counter(
                record.level for record in index.manifest.segments
            )
            assert all(count < 3 for count in per_level.values())
            assert_matches(index, oracle)
            assert index.read_amplification() <= index.read_amp_bound()

    def test_cross_tier_tombstones_filter_oldest_copy(self, tmp_path):
        config = TieredConfig(seal_threshold=2, fan_in=100)
        index = TieredSegmentedIndex(tmp_path, config=config)
        oracle = WordSetIndex()
        with index:
            duplicate = ad("dup common w0", listing_id=500)
            for _ in range(3):  # one copy per L0 segment
                index.insert(duplicate)
                oracle.insert(duplicate)
                index.insert(ad("filler x", listing_id=501))
                oracle.insert(ad("filler x", listing_id=501))
            assert index.delete(duplicate) and oracle.delete(duplicate)
            assert index.delete(duplicate) and oracle.delete(duplicate)
            assert_matches(index, oracle)
            assert index.contains(duplicate)
            assert index.delete(duplicate) and oracle.delete(duplicate)
            assert not index.contains(duplicate)
            assert not index.delete(duplicate)

    def test_reinsert_resurrects_tombstoned_sealed_ad(self, tmp_path):
        index = TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=2, fan_in=100)
        )
        with index:
            victim = ad("resurrect me common", listing_id=7)
            index.insert(victim)
            index.insert(ad("filler y", listing_id=8))  # triggers seal
            assert index.delete(victim)
            assert index.tombstone_count() == 1
            index.insert(victim)
            assert index.tombstone_count() == 0
            assert len(index.overlay) == 0  # resurrected, not duplicated
            assert index.contains(victim)

    def test_seal_commits_tombstone_only_generation(self, tmp_path):
        index = TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=2, fan_in=100)
        )
        with index:
            victim = ad("delete me common", listing_id=1)
            index.insert(victim)
            index.insert(ad("filler z", listing_id=2))
            generation = index.generation
            assert index.delete(victim)
            assert index.seal() is None  # no overlay — manifest-only
            assert index.generation == generation + 1
            assert index.seal() is None  # nothing changed — no commit
            assert index.generation == generation + 1
        reopened = TieredSegmentedIndex(tmp_path)
        with reopened:
            assert not reopened.contains(victim)

    def test_unsealed_overlay_is_volatile_by_design(self, tmp_path):
        index = TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=100)
        )
        with index:
            index.insert(ad("sealed one common", listing_id=1))
            index.seal()
            index.insert(ad("volatile one", listing_id=2))
        reopened = TieredSegmentedIndex(tmp_path)
        with reopened:
            assert ids(reopened.live_ads()) == [1]

    def test_reopen_round_trips_exact_state(self, tmp_path):
        config = TieredConfig(seal_threshold=3, fan_in=2)
        index = TieredSegmentedIndex(tmp_path, config=config)
        oracle = WordSetIndex()
        with index:
            fill(index, oracle, 50)
            for i in range(0, 50, 7):
                victim = ad(f"w{i % 5} common item{i}", listing_id=i)
                assert index.delete(victim) == oracle.delete(victim)
            index.seal()
            expected = Counter(index.live_ads())
        reopened = TieredSegmentedIndex(tmp_path, config=config)
        with reopened:
            assert Counter(reopened.live_ads()) == expected
            assert_matches(reopened, oracle)

    def test_manifest_fingerprint_moves_on_every_commit(self, tmp_path):
        index = TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=100)
        )
        with index:
            first = manifest_fingerprint(tmp_path)
            assert first is not None
            index.insert(ad("a thing common", listing_id=1))
            index.seal()
            second = manifest_fingerprint(tmp_path)
            assert second != first

    def test_read_only_rejects_writes(self, tmp_path):
        with TieredSegmentedIndex(tmp_path) as writer:
            writer.insert(ad("content common", listing_id=1))
            writer.seal()
            reader = TieredSegmentedIndex(tmp_path, read_only=True)
            try:
                assert len(reader) == 1
                with pytest.raises(RuntimeError):
                    reader.insert(ad("nope", listing_id=2))
                with pytest.raises(RuntimeError):
                    reader.delete(ad("content common", listing_id=1))
                with pytest.raises(RuntimeError):
                    reader.seal()
            finally:
                reader.close()

    def test_full_compact_folds_everything_into_one_segment(self, tmp_path):
        config = TieredConfig(seal_threshold=3, fan_in=3)
        index = TieredSegmentedIndex(tmp_path, config=config)
        oracle = WordSetIndex()
        with index:
            fill(index, oracle, 31)
            index.compact()
            assert len(index.manifest.segments) == 1
            assert index.read_amplification() == 2
            assert_matches(index, oracle)

    def test_stats_shape(self, tmp_path):
        with TieredSegmentedIndex(tmp_path) as index:
            index.insert(ad("one common", listing_id=1))
            index.seal()
            stats = index.stats()
            for key in (
                "num_ads", "generation", "segments", "levels",
                "overlay_ads", "tombstones", "read_amplification",
                "read_amp_bound", "segment_bytes",
            ):
                assert key in stats
            assert stats["segments"][0]["level"] == 0

    def test_obs_counters_and_gauges(self, tmp_path):
        obs = MetricsRegistry()
        config = TieredConfig(seal_threshold=2, fan_in=2)
        with TieredSegmentedIndex(tmp_path, config=config, obs=obs) as index:
            oracle = WordSetIndex()
            fill(index, oracle, 16)
            assert obs.value("tiered.seals") >= 4
            assert obs.value("tiered.merges") >= 1
            assert obs.value("tiered.segments") == len(
                index.manifest.segments
            )


class TestPointLookups:
    """``delete`` stops once the answer is known; ``lookup_count``
    skips what its segment cannot hold."""

    def test_delete_walks_newest_first_and_stops_early(self, tmp_path):
        config = TieredConfig(seal_threshold=1_000, auto_merge=False)
        twin = ad("twin common", listing_id=3)
        with TieredSegmentedIndex(tmp_path, config=config) as index:
            index.insert(twin)
            index.seal()
            index.insert(twin)  # nothing tombstoned: a second copy
            index.seal()
            older, newer = index.segments
            calls = Counter()
            for name, segment in (("older", older), ("newer", newer)):
                original = segment.lookup_count

                def counting(target, name=name, original=original):
                    calls[name] += 1
                    return original(target)

                segment.lookup_count = counting
            assert index.delete(twin) is True
            assert calls == {"newer": 1}  # 1 sealed > 0 pending
            assert index.delete(twin) is True
            assert calls == {"newer": 2, "older": 1}  # 2 > 1 only after both
            assert index.delete(twin) is False
            assert calls == {"newer": 3, "older": 2}
            assert index.tombstone_count() == 2
            assert not index.contains(twin)

    def test_same_listing_other_bid_is_not_counted(self, tmp_path):
        with TieredSegmentedIndex(tmp_path) as index:
            index.insert(ad("red shoes", listing_id=5, bid=100))
            index.seal()
            (segment,) = index.segments
            assert segment.lookup_count(ad("red shoes", listing_id=5, bid=100)) == 1
            assert segment.lookup_count(ad("red shoes", listing_id=5, bid=200)) == 0
            assert segment.lookup_count(ad("red shoes", listing_id=6, bid=100)) == 0
            assert not index.delete(ad("red shoes", listing_id=5, bid=200))

    def test_word_outside_the_vocabulary_is_answered_without_hashing(
        self, tmp_path, monkeypatch
    ):
        import repro.segment.packed as packed

        with TieredSegmentedIndex(tmp_path) as index:
            index.insert(ad("red shoes", listing_id=5))
            index.seal()
            (segment,) = index.segments
            calls = []
            original = packed.wordhash

            def counting(words):
                calls.append(frozenset(words))
                return original(words)

            monkeypatch.setattr(packed, "wordhash", counting)
            assert segment.lookup_count(ad("red boots", listing_id=5)) == 0
            assert segment.lookup_count(ad("shoes", listing_id=5)) == 0
            assert calls == [frozenset({"shoes"})]  # in the vocabulary: hashed
            assert segment.lookup_count(ad("red shoes", listing_id=5)) == 1
            assert len(calls) == 2


class TestCrashRecovery:
    """Every named crashpoint: the reopened index is exactly one
    committed generation, with no stray files."""

    def seeded(self, tmp_path, faults=None):
        config = TieredConfig(seal_threshold=5, fan_in=2)
        index = TieredSegmentedIndex(tmp_path, config=config, faults=faults)
        oracle = WordSetIndex()
        fill(index, oracle, 12)
        index.seal()
        return index, oracle, config

    @pytest.mark.parametrize("point", TIERED_CRASHPOINTS)
    def test_seal_crash_reopens_committed_generation(self, tmp_path, point):
        if point in (CRASH_MERGE_START, CRASH_MERGE_WRITTEN):
            pytest.skip("merge points do not fire during a seal")
        injector = FaultInjector()
        index, oracle, config = self.seeded(tmp_path, faults=injector)
        committed = committed_view(tmp_path)
        pending = [ad(f"pending p{i}", listing_id=100 + i) for i in range(3)]
        for extra in pending:
            index.insert(extra)
        with injector.arm(point):
            with pytest.raises(InjectedCrash):
                index.seal()
        index.close()  # simulate process death; overlay not re-sealed

    # What must reopen depends on where the crash hit: before the
        # rename the old generation holds; at/after the swap the new one.
        reopened = TieredSegmentedIndex(tmp_path, config=config)
        with reopened:
            live = Counter(reopened.live_ads())
            if point == CRASH_MANIFEST_SWAPPED:
                assert live == committed + Counter(pending)
            else:
                assert live == committed
            # The sweep leaves exactly the manifest + referenced files.
            referenced = {
                record.name for record in reopened.manifest.segments
            }
            on_disk = {p.name for p in tmp_path.iterdir()}
            assert on_disk == referenced | {MANIFEST_NAME}

    @pytest.mark.parametrize("point", TIERED_CRASHPOINTS)
    def test_merge_crash_reopens_committed_generation(self, tmp_path, point):
        injector = FaultInjector()
        config = TieredConfig(
            seal_threshold=3, fan_in=2, auto_merge=False
        )
        index = TieredSegmentedIndex(tmp_path, config=config, faults=injector)
        oracle = WordSetIndex()
        fill(index, oracle, 13)
        index.seal()
        committed = committed_view(tmp_path)
        assert len(index.manifest.segments) >= 2
        if point in (CRASH_SEAL_START, CRASH_SEAL_WRITTEN):
            pytest.skip("seal points do not fire during a merge")
        with injector.arm(point):
            with pytest.raises(InjectedCrash):
                index.maybe_merge()
        index.close()
        reopened = TieredSegmentedIndex(tmp_path, config=config)
        with reopened:
            # Merges never change content, only layout — every point
            # reopens the same live multiset.
            assert Counter(reopened.live_ads()) == committed
            assert_matches(reopened, oracle)
            referenced = {
                record.name for record in reopened.manifest.segments
            }
            on_disk = {p.name for p in tmp_path.iterdir()}
            assert on_disk == referenced | {MANIFEST_NAME}

    def test_crashed_seal_retries_cleanly_in_process(self, tmp_path):
        injector = FaultInjector()
        config = TieredConfig(seal_threshold=100)
        index = TieredSegmentedIndex(tmp_path, config=config, faults=injector)
        with index:
            index.insert(ad("retry me common", listing_id=1))
            with injector.arm("segment.tmp_written"):
                with pytest.raises(InjectedCrash):
                    index.seal()
            # The overlay survived the crash; the retry commits.
            assert index.seal() is not None
            assert ids(index.live_ads()) == [1]


class TestContinuousChurn:
    def test_churn_drill_with_background_merges(self, tmp_path):
        result = run_churn_drill(
            tmp_path / "drill",
            ChurnConfig(ops=4_000, probe_every=100, seal_threshold=64),
        )
        assert result.ok, result.to_json()
        assert result.merges > 0
        assert result.probes > 0

    def test_churn_drill_survives_injected_crashes(self, tmp_path):
        result = run_churn_drill(
            tmp_path / "drill",
            ChurnConfig(
                ops=4_000, probe_every=100, seal_threshold=64,
                crash_every=400,
            ),
        )
        assert result.ok, result.to_json()
        assert result.injected_crashes > 0

    def test_background_merger_bounds_read_amplification(self, tmp_path):
        config = TieredConfig(seal_threshold=16, fan_in=4)
        index = TieredSegmentedIndex(tmp_path, config=config)
        merger = BackgroundMerger(index, interval_s=0.001)
        with index, merger:
            for i in range(600):
                index.insert(ad(f"w{i % 9} common i{i}", listing_id=i))
        merger.drain()
        assert index.read_amplification() <= index.read_amp_bound()


class TestServingIntegration:
    def test_adserver_serves_over_tiered_index(self, tmp_path):
        from repro.serving.server import AdServer

        config = TieredConfig(seal_threshold=4, fan_in=2)
        index = TieredSegmentedIndex(tmp_path, config=config)
        with index:
            for i in range(20):
                index.insert(
                    ad(f"auction w{i % 3} common", listing_id=i, bid=100 + i)
                )
            server = AdServer(index, slots=4)
            result = server.serve(Query(("auction", "w1", "common")))
            assert not result.degraded
            assert 1 <= len(result.ads) <= 4
            # Highest-bid copy of the matching phrase wins the auction.
            assert result.outcome.candidates > 0

    def test_batch_engine_over_a_multi_segment_directory(self, tmp_path):
        from repro.perf.batch import BatchQueryEngine

        ads = [ad(f"batch w{i % 7} common b{i}", listing_id=i)
               for i in range(123)]
        oracle = WordSetIndex()
        with TieredSegmentedIndex(
            tmp_path, config=TieredConfig(seal_threshold=8, fan_in=2)
        ) as index:
            for a in ads[:-3]:
                index.insert(a)
                oracle.insert(a)
            for a in ads[:10]:
                assert index.delete(a)
                oracle.delete(a)
            for a in ads[-3:]:
                index.insert(a)
                oracle.insert(a)
            assert len(index.segments) > 1
            assert len(index.overlay) > 0
            engine = BatchQueryEngine(index)
            batch = [Query((f"w{i % 7}", "common", "batch")) for i in range(10)]
            results = engine.query_broad_batch(batch)
            for query, got in zip(batch, results):
                assert ids(got) == ids(oracle.query(query))

    def test_worker_reloads_on_manifest_swap(self, tmp_path):
        from repro.netserve.worker import WorkerConfig

        from tests.netserve.worker_rig import RunningWorker

        directory = tmp_path / "tiered"
        config = TieredConfig(seal_threshold=100)
        writer = TieredSegmentedIndex(directory, config=config)
        writer.insert(ad("serve w0 common", listing_id=1))
        writer.seal()
        worker_config = WorkerConfig(
            segment_path=str(directory),
            socket_path=str(tmp_path / "sock"),
            # Probe the manifest before every batch: this test is
            # about the swap itself, not the throttle (which has
            # its own coverage in tests/netserve/test_batching.py).
            reload_check_interval_s=0.0,
        )
        try:
            with RunningWorker(worker_config) as rig:
                reply = rig.serve(["serve", "w0", "common"])
                assert reply["type"] == "result"
                assert reply["result"]["outcome"]["candidates"] == 1
                assert reply["generation"] == writer.generation
                # Commit a new generation; the worker must pick it up
                # between requests.
                writer.insert(ad("serve w0 common", listing_id=2))
                writer.seal()
                reply = rig.serve(["serve", "w0", "common"])
                assert reply["result"]["outcome"]["candidates"] == 2
                assert reply["generation"] == writer.generation
                stats = rig.stats()
                assert stats["generation"] == writer.generation
                assert stats["tiered"]["generation"] == writer.generation
                assert stats["tiered"]["manifest_reloads"] == 1
        finally:
            writer.close()
