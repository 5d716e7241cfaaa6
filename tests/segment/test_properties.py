"""Property test: the tiered serving path is indistinguishable from a
plain ``WordSetIndex`` under any interleaving of inserts, deletes, seals,
tier merges, reopens and compactions — including a compaction that
crashes mid-flight."""

import string
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.faults import FaultInjector, InjectedCrash
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.segment.format import (
    CRASH_MANIFEST_SWAPPED,
    CRASH_MANIFEST_TMP_SYNCED,
    CRASH_MERGE_START,
    CRASH_MERGE_WRITTEN,
    CRASH_SEAL_START,
    CRASH_SEAL_WRITTEN,
    CRASH_TMP_WRITTEN,
)

WORDS = [c1 + c2 for c1 in string.ascii_lowercase[:6] for c2 in "xy"]


def phrase_strategy():
    return st.lists(
        st.sampled_from(WORDS), min_size=1, max_size=4, unique=True
    ).map(tuple)


# Two bids, so ads that agree on (phrase, listing id) — one tombstone
# id bucket, one manifest sort key — can still be unequal ads.
def ad_strategy():
    return st.builds(
        lambda phrase, listing, bid: Advertisement(
            phrase, AdInfo(listing_id=listing, bid_price_micros=bid)
        ),
        phrase_strategy(),
        st.integers(min_value=0, max_value=30),
        st.sampled_from([0, 500]),
    )


# An op is ("insert", ad) | ("insert_locator", ad) | ("delete", ad) |
# ("delete_live", i) | ("insert_twin", i) | ("seal", None) |
# ("merge", None) | ("reopen", None) | ("compact", None) |
# ("crash_compact", point).
# A drawn ``delete`` rarely names an ad that exists, so ``delete_live``
# deletes the oracle's ``i``-th live ad (sealed ones become tombstones)
# and ``insert_twin`` inserts its copy at the other bid — a live ad in a
# dead ad's id bucket.
# ``merge`` folds the two oldest L0 segments (when there are two), so
# tombstones cross a partial fold; ``reopen`` seals (the durability
# point for overlay ads and deletes alike), closes, and reopens the
# directory, so they cross a manifest round trip mid-script.
# ``insert_locator`` pins an explicit placement, which must BYPASS the
# tombstone-resurrect shortcut: the ad lands in the overlay at the
# requested node and the pending tombstone keeps cancelling the sealed
# copy — the net live multiset is identical either way, and this op
# proves it.  A crash point that the compaction at hand never reaches
# (nothing to seal, or a single tier with nothing to fold) simply lets
# the compaction complete.
def op_strategy():
    return st.one_of(
        st.tuples(st.just("insert"), ad_strategy()),
        st.tuples(st.just("insert_locator"), ad_strategy()),
        st.tuples(st.just("delete"), ad_strategy()),
        st.tuples(st.just("delete_live"), st.integers(0, 40)),
        st.tuples(st.just("insert_twin"), st.integers(0, 40)),
        st.tuples(st.just("seal"), st.none()),
        st.tuples(st.just("merge"), st.none()),
        st.tuples(st.just("reopen"), st.none()),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(
            st.just("crash_compact"),
            st.sampled_from(
                [
                    CRASH_SEAL_START,
                    CRASH_TMP_WRITTEN,
                    CRASH_SEAL_WRITTEN,
                    CRASH_MANIFEST_TMP_SYNCED,
                    CRASH_MANIFEST_SWAPPED,
                    CRASH_MERGE_START,
                    CRASH_MERGE_WRITTEN,
                ]
            ),
        ),
    )


class Oracle:
    """Multiset of live ads + naive WordSetIndex mirror."""

    def __init__(self, ads):
        self.ads = list(ads)

    def insert(self, ad):
        self.ads.append(ad)

    def delete(self, ad):
        if ad in self.ads:
            self.ads.remove(ad)
            return True
        return False

    def results(self, query):
        index = WordSetIndex()
        for ad in self.ads:
            index.insert(ad)
        return sorted(map(slate_key, index.query(query)))


def slate_key(ad):
    return (ad.info.listing_id, ad.phrase, ad.info.bid_price_micros)


def assert_tombstones_match(segmented, oracle):
    """Pending deletions are exactly the sealed copies the oracle no
    longer holds, the type's three views of them agree, and the live
    multiset is the oracle's."""
    sealed = sum(len(segment) for segment in segmented.segments)
    pending = sealed + len(segmented.overlay) - len(oracle.ads)
    tombstones = segmented._tombstones
    assert segmented.tombstone_count() == pending
    assert sum(tombstones.counts.values()) == pending
    assert sum(tombstones.dead_ids.values()) == pending
    assert all(count > 0 for count in tombstones.counts.values())
    assert Counter(segmented.live_ads()) == Counter(oracle.ads)


PROBE_QUERIES = [
    Query(tuple(WORDS[:5])),
    Query(tuple(WORDS[5:9])),
    Query((WORDS[0], WORDS[11], WORDS[6])),
    Query(("unrelated",)),
]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    base=st.lists(ad_strategy(), max_size=12),
    ops=st.lists(op_strategy(), max_size=20),
)
def test_interleavings_match_wordset_oracle(tmp_path_factory, base, ops):
    directory = tmp_path_factory.mktemp("prop")
    injector = FaultInjector()
    oracle = Oracle(base)
    # Seals and merges stay explicit ops (plus the folds in ``compact``).
    config = TieredConfig(seal_threshold=1_000, fan_in=2, auto_merge=False)
    segmented = TieredSegmentedIndex.pack_corpus(
        base, directory, config=config, faults=injector
    )
    try:
        for step, (kind, arg) in enumerate(ops):
            if kind in ("delete_live", "insert_twin"):
                if not oracle.ads:
                    continue
                arg = oracle.ads[arg % len(oracle.ads)]
                if kind == "insert_twin":
                    bid = 500 - arg.info.bid_price_micros
                    arg = Advertisement(
                        arg.phrase,
                        AdInfo(arg.info.listing_id, bid_price_micros=bid),
                    )
                kind = kind.split("_")[0]
            if kind == "insert":
                segmented.insert(arg)
                oracle.insert(arg)
            elif kind == "insert_locator":
                # Explicit placement at a single-word subset of the
                # phrase; the oracle places plainly — broad-query
                # results must not depend on the mapping.
                segmented.insert(arg, locator=frozenset({arg.phrase[0]}))
                oracle.insert(arg)
            elif kind == "delete":
                assert segmented.delete(arg) == oracle.delete(arg)
            elif kind == "seal":
                segmented.seal()
            elif kind == "merge":
                segmented.merge_level(0)
            elif kind == "reopen":
                segmented.seal()
                segmented.close()
                segmented = TieredSegmentedIndex(
                    directory, config=config, faults=injector
                )
            elif kind == "compact":
                segmented.compact()
                assert len(segmented.segments) <= 1
                assert segmented.tombstone_count() == 0
            else:  # crash_compact: fail, verify, then the state lives on
                with injector.arm(arg):
                    try:
                        segmented.compact()
                    except InjectedCrash:
                        pass
            if kind in ("insert", "insert_locator", "delete"):
                assert segmented.contains(arg) == (arg in oracle.ads), (
                    step,
                    kind,
                )
            assert len(segmented) == len(oracle.ads), (step, kind)
            assert_tombstones_match(segmented, oracle)
            for query in PROBE_QUERIES:
                got = sorted(map(slate_key, segmented.query(query)))
                assert got == oracle.results(query), (step, kind)
        assert len(segmented) == len(oracle.ads)
    finally:
        segmented.close()
