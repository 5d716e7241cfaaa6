"""Property test: the tiered serving path is indistinguishable from a
plain ``WordSetIndex`` under any interleaving of inserts, deletes, seals
and compactions — including a compaction that crashes mid-flight."""

import string

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


def ad_strategy():
    return st.builds(
        lambda phrase, listing: Advertisement(
            phrase, AdInfo(listing_id=listing)
        ),
        phrase_strategy(),
        st.integers(min_value=0, max_value=30),
    )


# An op is ("insert", ad) | ("insert_locator", ad) | ("delete", ad) |
# ("seal", None) | ("compact", None) | ("crash_compact", point).
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
        st.tuples(st.just("seal"), st.none()),
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
        return sorted(
            (a.info.listing_id, a.phrase) for a in index.query(query)
        )


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
    # Seals stay explicit ops; merges only happen inside ``compact``.
    config = TieredConfig(seal_threshold=1_000, auto_merge=False)
    with TieredSegmentedIndex.pack_corpus(
        base, directory, config=config, faults=injector
    ) as segmented:
        for step, (kind, arg) in enumerate(ops):
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
            for query in PROBE_QUERIES:
                got = sorted(
                    (a.info.listing_id, a.phrase)
                    for a in segmented.query(query)
                )
                assert got == oracle.results(query), (step, kind)
        assert len(segmented) == len(oracle.ads)
