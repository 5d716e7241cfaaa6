"""``Tombstones``: differential against the filter it replaced, the
"no per-result hash" cost contract, and manifest content stability.

``Tombstones.filter`` pre-tests ``ad.info.listing_id`` (an int lookup)
and resolves only the suspects against the exact per-ad counts.  The
function it replaced — one ``Advertisement`` hash per result — is kept
here *verbatim* as the reference; outputs must be element-for-element
equal, and the same list object must come back when nothing is dropped.
"""

import hashlib
import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.segment import TieredConfig, TieredSegmentedIndex, Tombstones
from repro.segment.tiered import MANIFEST_NAME, Manifest, read_manifest

# ---------------------------------------------------------------------- #
# The reference: the replaced code, verbatim.


def filter_tombstones(
    results: list[Advertisement],
    tombstones: dict[Advertisement, int],
) -> list[Advertisement]:
    """Drop up to ``tombstones[ad]`` occurrences of each dead ad.

    Allocation-aware: the common serving case is "tombstones exist but
    none of *these* results are dead", so the mutable scratch copy of
    the tombstone map (and the kept-list rebuild) is deferred until the
    first actual hit.  When nothing is filtered the input list is
    returned as-is — zero allocations on the hot path.
    """
    remaining: dict[Advertisement, int] | None = None
    kept: list[Advertisement] | None = None
    for index, ad in enumerate(results):
        source = tombstones if remaining is None else remaining
        pending = source.get(ad, 0)
        if pending > 0:
            if remaining is None or kept is None:
                remaining = dict(tombstones)
                kept = results[:index]
            remaining[ad] = pending - 1
        elif kept is not None:
            kept.append(ad)
    return results if kept is None else kept


# ---------------------------------------------------------------------- #
# Differential


def ad(text, listing_id=0, bid=100):
    return Advertisement.from_text(
        text, AdInfo(listing_id=listing_id, bid_price_micros=bid)
    )


# A small pool on purpose: three listing ids, two phrases, two bids, so
# draws repeat identical ads (counts >= 2) and collide on a listing id
# while differing in bid or phrase (same id bucket, unequal ads).
pool_ads = st.builds(
    ad,
    st.sampled_from(["red shoes", "blue hat"]),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([100, 200]),
)


@settings(max_examples=300, deadline=None)
@given(
    results=st.lists(pool_ads, max_size=24),
    dead=st.lists(
        st.tuples(pool_ads, st.integers(min_value=1, max_value=3)),
        max_size=6,
    ),
)
def test_filter_matches_the_replaced_filter(results, dead):
    reference_map: dict[Advertisement, int] = {}
    for dead_ad, count in dead:
        reference_map[dead_ad] = reference_map.get(dead_ad, 0) + count
    tombstones = Tombstones(dead)
    assert tombstones.counts == reference_map
    before = list(results)

    expected = filter_tombstones(results, reference_map)
    got = tombstones.filter(results)

    assert got == expected
    assert all(a is b for a, b in zip(got, expected))
    if len(expected) == len(results):
        assert got is results  # nothing dropped: the input list itself
    assert results == before
    assert tombstones.counts == reference_map
    assert tombstones.total == sum(reference_map.values())
    assert sum(tombstones.dead_ids.values()) == tombstones.total


@given(
    ops=st.lists(
        st.tuples(
            st.booleans(), pool_ads, st.integers(min_value=1, max_value=3)
        ),
        max_size=30,
    )
)
def test_add_and_discard_keep_the_three_views_in_step(ops):
    tombstones = Tombstones()
    model: Counter[Advertisement] = Counter()
    for is_add, target, count in ops:
        if is_add:
            tombstones.add(target, count)
            model[target] += count
        else:
            dropped = tombstones.discard(target, count)
            assert dropped == min(count, model[target])
            model[target] -= dropped
        model = +model  # a spent count leaves no entry behind
        by_id: Counter[int] = Counter()
        for dead_ad, pending in model.items():
            by_id[dead_ad.info.listing_id] += pending
        assert tombstones.counts == model
        assert tombstones.dead_ids == by_id
        assert tombstones.total == sum(model.values())
        assert tombstones.count(target) == model[target]
    clone = tombstones.copy()
    clone.add(ad("red shoes", 1))
    assert tombstones.counts == model  # a copy shares nothing


def test_consumed_tally_spends_one_count_across_lists():
    """A fold filters its victims oldest-first against one tally: a
    count of 1 drops the oldest copy only."""
    dead = ad("red shoes", 1)
    tombstones = Tombstones([(dead, 1)])
    consumed: dict[Advertisement, int] = {}
    older, newer = [dead, ad("blue hat", 2)], [dead]
    assert tombstones.filter(older, consumed) == older[1:]
    assert tombstones.filter(newer, consumed) is newer
    assert consumed == {dead: 1}


# ---------------------------------------------------------------------- #
# Cost contract: ``Advertisement.__hash__`` runs per dead ad, not per ad


class HashCounter:
    """``Advertisement.__hash__`` swapped for a counting wrapper."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Advertisement.__hash__

        def counting(ad_self):
            self.calls += 1
            return original(ad_self)

        monkeypatch.setattr(Advertisement, "__hash__", counting)


def test_filter_hashes_suspects_only(monkeypatch):
    results = [ad(f"word{i} common", listing_id=i) for i in range(600)]
    elsewhere = [ad(f"gone{i}", listing_id=10_000 + i) for i in range(40)]
    clean = Tombstones((dead, 1) for dead in elsewhere)
    suspects = results[5:600:100]  # k = 6 results that are dead
    # ... plus one live result that merely shares a dead ad's listing id
    lookalike = ad("word7 common", listing_id=7, bid=999)
    dirty = Tombstones(
        [(dead, 1) for dead in elsewhere + suspects] + [(lookalike, 1)]
    )
    k = len(suspects) + 1

    counter = HashCounter(monkeypatch)
    assert clean.filter(results) is results
    assert counter.calls == 0

    filtered = dirty.filter(results)
    assert counter.calls <= 4 * k
    assert len(filtered) == len(results) - len(suspects)
    assert results[7] in filtered


def test_merge_hashes_dead_ads_not_live_ones(tmp_path, monkeypatch):
    n, d = 600, 5
    config = TieredConfig(seal_threshold=n // 2, fan_in=2, auto_merge=False)
    ads = [ad(f"word{i % 7} item{i}", listing_id=i) for i in range(n + d)]
    with TieredSegmentedIndex(tmp_path, config=config) as index:
        for live in ads[:n]:
            index.insert(live)  # two auto-seals of n/2
        assert len(index.segments) == 2
        for dead in ads[n:]:
            index.insert(dead)
        index.seal()
        for dead in ads[n:]:
            assert index.delete(dead)  # sealed: five tombstones
        # Fold all three segments: n live ads, d dead ones.
        counter = HashCounter(monkeypatch)
        index._merge(list(index._segments), out_level=1)
        assert counter.calls <= 10 * d  # the parent's fold made >= 2 * n
        assert counter.calls < n // 4
        assert index.tombstone_count() == 0
        assert Counter(index.live_ads()) == Counter(ads[:n])


# ---------------------------------------------------------------------- #
# Manifest stability

# The ``checksum`` field of MANIFEST.json after each step of
# ``scripted_history``, as written by the PARENT commit (4667605, which
# wrote indented JSON) running the same script from a parent checkout.
# The field is the sha256 of the canonical sorted-key body, so it pins
# the manifest's content independently of how the file is laid out.
PARENT_MANIFEST_CHECKSUM = {
    "tombstone-only seal": "42c846f8f7def230b68c76b4f928c486701d49b469a59f7a3c600461c86d7fc7",
    "merge": "2bb297fa073a5e596d94ae9d08e784ead413f672dcdcc8cc6b9e18d4c0dd3027",
    "final seal": "721eadb7a285cd33ac1efe2313fb3e42780a2e4dc029f31c1916c61aba1f740d",
}


def scripted_history(directory):
    """Inserts, deletes of sealed ads (a duplicate, and a pair that
    ties under the manifest's ``(phrase, listing_id)`` sort key),
    a resurrect, seals, a tombstone-only seal and a merge.  Yields
    ``(step, index)`` after each commit worth pinning; uses nothing the
    parent commit lacks."""
    config = TieredConfig(seal_threshold=1_000, fan_in=2, auto_merge=False)
    twin_low, twin_high = ad("red shoes", 1, bid=100), ad("red shoes", 1, bid=200)
    late_low, late_high = ad("grey coat", 9, bid=100), ad("grey coat", 9, bid=200)
    double = ad("green hat", 3)
    back = ad("blue shoes", 2)
    with TieredSegmentedIndex(directory, config=config) as index:
        for item in (twin_low, twin_high, double, double, back, ad("zz top", 4)):
            index.insert(item)
        index.seal()
        for item in (ad("aa first", 5), ad("red shoes", 6), double):
            index.insert(item)
        index.seal()
        # High bid first: first-tombstoned order is not bid order.
        for item in (twin_high, back, double, twin_low, double):
            assert index.delete(item)
        index.insert(back)  # resurrects the sealed copy
        assert index.seal() is None  # empty overlay: manifest-only commit
        yield "tombstone-only seal", index
        for item in (late_low, late_high, ad("mid thing", 7)):
            index.insert(item)
        index.seal()
        for item in (late_high, late_low, ad("aa first", 5)):
            assert index.delete(item)
        index.merge_level(0)  # folds the two oldest; the third keeps its dead
        yield "merge", index
        assert index.delete(ad("mid thing", 7))
        index.seal()
        yield "final seal", index


def test_manifest_content_matches_the_parent_and_reopen_restores(tmp_path):
    path = tmp_path / MANIFEST_NAME
    for step, index in scripted_history(tmp_path):
        data = path.read_bytes()
        assert json.loads(data)["checksum"] == PARENT_MANIFEST_CHECKSUM[step], step
        assert b"\n" not in data  # compact, one C-encoder pass
        live = index._tombstones
    # The twins tie under (phrase, listing_id): first-tombstoned first.
    assert [
        (dead.info.listing_id, dead.info.bid_price_micros, count)
        for dead, count in live.encoded()
    ] == [(9, 200, 1), (9, 100, 1), (7, 100, 1)]
    with TieredSegmentedIndex(tmp_path, read_only=True) as reopened:
        restored = reopened._tombstones
        assert restored.counts == live.counts
        assert list(restored.counts) == list(live.counts)
        assert restored.dead_ids == live.dead_ids == {9: 2, 7: 1}
        assert restored.total == live.total == 3
        assert reopened.manifest.tombstones == live.encoded()


def parent_encode(self: Manifest) -> bytes:
    """``Manifest.encode`` as the parent commit wrote it (indented JSON),
    kept verbatim: directories written before the compact form hold
    manifests in this shape."""
    body = self.body()
    blob = json.dumps(body, sort_keys=True).encode("utf-8")
    body["checksum"] = hashlib.sha256(blob).hexdigest()
    return json.dumps(body, sort_keys=True, indent=1).encode("utf-8")


def test_a_manifest_in_the_parents_indented_form_still_opens(tmp_path):
    path = tmp_path / MANIFEST_NAME
    for _step, _index in scripted_history(tmp_path):
        pass
    with TieredSegmentedIndex(tmp_path, read_only=True) as compact:
        manifest = compact.manifest
        segments = [segment.path.name for segment in compact.segments]
        tombstones = compact._tombstones
        live = Counter(compact.live_ads())
    indented = parent_encode(manifest)
    assert b"\n" in indented and indented != manifest.encode()
    assert Manifest.decode(indented) == manifest
    path.write_bytes(indented)
    with TieredSegmentedIndex(tmp_path, read_only=True) as reopened:
        assert reopened.manifest == manifest
        assert [segment.path.name for segment in reopened.segments] == segments
        assert reopened._tombstones.counts == tombstones.counts
        assert reopened._tombstones.dead_ids == tombstones.dead_ids
        assert Counter(reopened.live_ads()) == live
    # A writer picks the directory up and commits in the compact form.
    with TieredSegmentedIndex(tmp_path) as writer:
        writer.insert(ad("late arrival", 11))
        writer.seal()
    assert b"\n" not in path.read_bytes()
    assert read_manifest(path).tombstones == manifest.tombstones
