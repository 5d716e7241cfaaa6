"""``TieredSegmentedIndex`` as the mutable index over packed segments:
overlay inserts, per-ad tombstone counts, per-query deadlines and
crash-safe full compaction."""

from collections import Counter

import pytest

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.faults import FaultInjector, InjectedCrash, tear_tail
from repro.obs import MetricsRegistry
from repro.resilience.deadline import Deadline, DegradedReason
from repro.segment import (
    TIERED_CRASHPOINTS,
    TieredConfig,
    TieredSegmentedIndex,
)
from repro.segment.format import (
    CRASH_MANIFEST_SWAPPED,
    CRASH_MERGE_START,
    CRASH_MERGE_WRITTEN,
    CRASH_RENAMED,
    CRASH_TMP_SYNCED,
    CRASH_TMP_WRITTEN,
)
from repro.segment.tiered import MANIFEST_NAME


def ad(text, listing_id=0, bid=0):
    return Advertisement.from_text(
        text, AdInfo(listing_id=listing_id, bid_price_micros=bid)
    )


def ids(ads):
    return sorted(a.info.listing_id for a in ads)


BASE_ADS = [
    ad("cheap used books", 1, bid=500),
    ad("used books", 2, bid=300),
    ad("books", 3, bid=200),
    ad("books", 4, bid=200),  # duplicate word-set, distinct listing
    ad("rare maps", 5),
]

PROBES = ["cheap used books today", "books", "rare maps of norway", "none"]

#: Nothing seals or merges unless the test asks for it.
MANUAL = TieredConfig(seal_threshold=1_000, auto_merge=False)


def open_base(directory, ads=BASE_ADS, **kwargs):
    """A tiered index whose sealed state is exactly ``ads`` (one L0)."""
    return TieredSegmentedIndex.pack_corpus(
        ads, directory, config=MANUAL, **kwargs
    )


@pytest.fixture()
def segmented(tmp_path):
    index = open_base(tmp_path / "base")
    yield index
    index.close()


def oracle_for(ads):
    index = WordSetIndex()
    for a in ads:
        index.insert(a)
    return index


def assert_matches(segmented, live_ads):
    oracle = oracle_for(live_ads)
    assert len(segmented) == len(live_ads)
    for text in PROBES:
        query = Query.from_text(text)
        assert ids(segmented.query(query)) == ids(oracle.query(query)), text


class TestOverlayMutation:
    def test_insert_lands_in_overlay(self, segmented):
        new = ad("fresh inventory", 10)
        segmented.insert(new)
        assert segmented.contains(new)
        assert len(segmented.overlay) == 1
        assert_matches(segmented, BASE_ADS + [new])

    def test_delete_overlay_ad_is_plain_delete(self, segmented):
        new = ad("fresh inventory", 10)
        segmented.insert(new)
        assert segmented.delete(new)
        assert segmented.tombstone_count() == 0
        assert_matches(segmented, BASE_ADS)

    def test_delete_segment_ad_records_tombstone(self, segmented):
        assert segmented.delete(BASE_ADS[0])
        assert segmented.tombstone_count() == 1
        assert not segmented.contains(BASE_ADS[0])
        assert_matches(segmented, BASE_ADS[1:])

    def test_delete_absent_ad_is_false(self, segmented):
        assert not segmented.delete(ad("never indexed", 99))
        assert not segmented.delete(ad("books", 99))  # wrong listing id

    def test_duplicate_segment_ads_delete_one_at_a_time(self, segmented):
        dup = BASE_ADS[2]
        other = BASE_ADS[3]
        assert segmented.delete(dup)
        assert segmented.contains(other)
        assert_matches(segmented, [a for a in BASE_ADS if a != dup])
        assert segmented.delete(other)
        assert not segmented.delete(ad("books", 3, bid=200))
        assert_matches(segmented, BASE_ADS[:2] + BASE_ADS[4:])

    def test_identical_ads_carry_a_tombstone_count(self, tmp_path):
        # The corpus permits exact duplicates; tombstones count them.
        twin = ad("books", 3, bid=200)
        with open_base(tmp_path, BASE_ADS + [twin]) as segmented:
            assert segmented.delete(twin)
            assert segmented.tombstone_count() == 1
            assert segmented.contains(twin)  # one copy still live
            assert_matches(segmented, BASE_ADS)
            assert segmented.delete(twin)
            assert segmented.tombstone_count() == 2
            assert not segmented.contains(twin)
            assert not segmented.delete(twin)
            assert_matches(segmented, BASE_ADS[:2] + BASE_ADS[3:])

    def test_reinsert_resurrects_tombstoned_segment_ad(self, segmented):
        target = BASE_ADS[0]
        segmented.delete(target)
        segmented.insert(target)
        assert segmented.tombstone_count() == 0
        assert len(segmented.overlay) == 0  # served by the sealed copy
        assert_matches(segmented, BASE_ADS)

    def test_obs_gauges_track_overlay_and_tombstones(self, tmp_path):
        registry = MetricsRegistry()
        with open_base(tmp_path, obs=registry) as index:
            index.insert(ad("fresh inventory", 10))
            index.delete(BASE_ADS[0])
            snapshot = {m.name: m.value for m in registry.collect()}
            assert snapshot["tiered.overlay_ads"] == 1.0
            assert snapshot["tiered.tombstones"] == 1.0


class _TickClock:
    """Advances one millisecond per read, so a budget of ``k`` ms is a
    budget of ``k`` deadline checks."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestDeadline:
    def test_budget_threads_through_segments_then_overlay(self, segmented):
        overlay_ad = ad("books on sale", 20)
        segmented.insert(overlay_ad)
        query = Query.from_text("cheap used books on sale")
        full = ids(segmented.query(query))
        assert 20 in full and len(full) > 1

        slates = []
        for budget in range(1, 500):
            deadline = Deadline.after_ms(budget, clock=_TickClock())
            got = ids(segmented.query(query, deadline=deadline))
            assert Counter(got) <= Counter(full)
            if got != full:
                # Anything short of the full answer is flagged.
                assert deadline.partial
                assert deadline.primary_reason() is DegradedReason.DEADLINE
            slates.append(got)
            if not deadline.partial:
                break
        assert slates[0] == []  # expired before the first tier
        assert slates[-1] == full
        # Sealed tiers answer before the overlay: some budget yields
        # sealed ads without the overlay's, never the reverse.
        sealed_only = [s for s in slates if s and 20 not in s]
        assert sealed_only
        assert all(s == full for s in slates if 20 in s)


class TestCompaction:
    def test_compact_folds_overlay_and_tombstones(self, segmented):
        new = ad("fresh inventory", 10)
        segmented.insert(new)
        segmented.delete(BASE_ADS[1])
        generation = segmented.generation
        assert segmented.compact() == segmented.directory

        live = [a for a in BASE_ADS if a != BASE_ADS[1]] + [new]
        assert segmented.generation > generation
        assert len(segmented.overlay) == 0
        assert segmented.tombstone_count() == 0
        assert len(segmented.segments) == 1
        assert len(segmented.segments[0]) == len(live)
        assert_matches(segmented, live)

    def test_compacted_directory_reopens_as_the_new_generation(
        self, tmp_path
    ):
        with open_base(tmp_path) as segmented:
            segmented.delete(BASE_ADS[0])
            segmented.compact()
            generation = segmented.generation
            # A lone segment is rewritten too: its tombstone is consumed.
            assert segmented.tombstone_count() == 0
            assert_matches(segmented, BASE_ADS[1:])
        with TieredSegmentedIndex(tmp_path, read_only=True) as reopened:
            assert reopened.generation == generation
            assert len(reopened.segments) == 1
            assert_matches(reopened, BASE_ADS[1:])

    def test_compaction_preserves_optimizer_placements(self, tmp_path):
        # An ad re-homed to a locator subset must keep its placement
        # across pack -> serve -> compact, or broad matches get lost.
        moved = ad("cheap used books extra terms", 30)
        locator = frozenset(["cheap", "used", "books"])
        config = TieredConfig(
            seal_threshold=1_000, auto_merge=False, max_words=3
        )
        with TieredSegmentedIndex.pack_corpus(
            BASE_ADS + [moved],
            tmp_path,
            config=config,
            mapping={moved.words: locator},
        ) as segmented:
            query = Query.from_text("cheap used books extra terms today")
            before = ids(segmented.query(query))
            assert moved.info.listing_id in before
            segmented.insert(ad("fresh inventory", 10))
            segmented.compact()  # seal + fold two segments into one
            assert len(segmented.segments) == 1
            assert segmented.segments[0].placements()[moved.words] == locator
            assert ids(segmented.query(query)) == before


#: Every crashpoint a full compaction (seal, then fold) walks through.
COMPACT_CRASHPOINTS = TIERED_CRASHPOINTS + (
    CRASH_TMP_WRITTEN,
    CRASH_TMP_SYNCED,
    CRASH_RENAMED,
)

#: Points first reached only after the seal's manifest commit: a crash
#: there has already made the overlay and the tombstones durable.
AFTER_SEAL_COMMIT = (
    CRASH_MANIFEST_SWAPPED,
    CRASH_MERGE_START,
    CRASH_MERGE_WRITTEN,
)


class TestCompactionCrashes:
    """A crash at any compaction point leaves a servable process, and a
    directory that reopens as one complete generation or the other."""

    NEW = ad("fresh inventory", 10)
    LIVE = [a for a in BASE_ADS if a != BASE_ADS[0]] + [NEW]

    def dirty(self, directory, injector):
        segmented = open_base(directory, faults=injector)
        segmented.insert(self.NEW)
        segmented.delete(BASE_ADS[0])
        return segmented

    @pytest.mark.parametrize("point", COMPACT_CRASHPOINTS)
    def test_crash_leaves_live_process_servable(self, tmp_path, point):
        injector = FaultInjector()
        with self.dirty(tmp_path, injector) as segmented:
            with injector.arm(point):
                with pytest.raises(InjectedCrash):
                    segmented.compact()

            # Whatever the crash point, the in-process index still
            # answers every probe with the full live truth.
            assert_matches(segmented, self.LIVE)

            # And a retry completes the job.
            segmented.compact()
            assert len(segmented.segments) == 1
            assert segmented.tombstone_count() == 0
            assert_matches(segmented, self.LIVE)

    @pytest.mark.parametrize("point", COMPACT_CRASHPOINTS)
    def test_disk_state_is_one_generation_or_the_other(
        self, tmp_path, point
    ):
        injector = FaultInjector()
        segmented = self.dirty(tmp_path, injector)
        try:
            with injector.arm(point):
                with pytest.raises(InjectedCrash):
                    segmented.compact()
        finally:
            segmented.close()
        if point in (CRASH_TMP_WRITTEN, CRASH_TMP_SYNCED):
            # The crash before the rename leaves the temp file behind,
            # exactly as a power loss would.
            assert list(tmp_path.glob("*.tmp"))

        # Simulated restart: reopen whatever the directory holds now.
        with TieredSegmentedIndex(tmp_path, config=MANUAL) as reopened:
            if point in AFTER_SEAL_COMMIT:
                assert_matches(reopened, self.LIVE)
            else:
                assert_matches(reopened, BASE_ADS)
            # The writable open swept every orphan and uncommitted file.
            referenced = {
                record.name for record in reopened.manifest.segments
            }
            on_disk = {p.name for p in tmp_path.iterdir()}
            assert on_disk == referenced | {MANIFEST_NAME}

    def test_torn_temp_write_at_crashpoint_recovers(self, tmp_path):
        # Crash at the segment-write crashpoint AND the interrupted temp
        # write is physically torn (tear_tail).  The committed tiers must
        # keep serving, a retried compaction must complete, and a
        # restart must reopen the compacted state.
        injector = FaultInjector()
        with self.dirty(tmp_path, injector) as segmented:
            with injector.arm(CRASH_TMP_WRITTEN):
                with pytest.raises(InjectedCrash):
                    segmented.compact()
            orphans = list(tmp_path.glob("*.tmp"))
            assert orphans
            for orphan in orphans:
                tear_tail(orphan, keep_fraction=0.5)
            assert_matches(segmented, self.LIVE)  # live process fine
            segmented.compact()  # the retry never reads the torn temp
            assert_matches(segmented, self.LIVE)
        with TieredSegmentedIndex(tmp_path, config=MANUAL) as reopened:
            assert not list(tmp_path.glob("*.tmp"))
            assert_matches(reopened, self.LIVE)

    def test_torn_temp_never_shadows_the_live_segments(self, tmp_path):
        # The atomic-write discipline: a crash before rename leaves only
        # a *.tmp orphan; the serving path never opens temp files.
        injector = FaultInjector()
        segmented = self.dirty(tmp_path, injector)
        try:
            with injector.arm(CRASH_TMP_WRITTEN):
                with pytest.raises(InjectedCrash):
                    segmented.compact()
        finally:
            segmented.close()
        for orphan in tmp_path.glob("*.tmp"):
            tear_tail(orphan, keep_fraction=0.5)
        with TieredSegmentedIndex(tmp_path, read_only=True) as reopened:
            assert list(tmp_path.glob("*.tmp"))  # read-only: not swept
            assert_matches(reopened, BASE_ADS)

