"""A merge's output is a function of its victims and tombstones only.

Survivors go back in at their victims' persisted placements, so a
scripted tiered history — a re-mapped ``pack_corpus``, auto-seals,
deletes of sealed ads, merges at two levels and a full ``compact()`` —
writes the same bytes every time.  The sha256 of every segment file and
the manifest checksum after each step are pinned to what the commit
that still carried the in-merge set-cover re-optimizer wrote for the
same script with no workload recorder attached (the only configuration
any serving path, CLI command or benchmark ever ran).
"""

import hashlib
import json

from repro.core.ads import AdInfo, Advertisement
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.segment.tiered import MANIFEST_NAME

CONFIG = TieredConfig(seal_threshold=6, fan_in=2, max_words=3)

#: ``pack_corpus`` placements: each maps a word-set to a proper subset,
#: so a survivor re-inserted at its own word-set lands on another node.
MAPPING = {
    frozenset({"cheap", "used", "books"}): frozenset({"books"}),
    frozenset({"rare", "books"}): frozenset({"books"}),
    frozenset({"cheap", "flights", "paris"}): frozenset({"flights", "paris"}),
    frozenset({"red", "running", "shoes"}): frozenset({"shoes"}),
    frozenset({"blue", "suede", "shoes", "sale"}): frozenset({"suede", "shoes"}),
}

PACKED = [
    "cheap used books", "rare books", "books", "cheap flights paris",
    "flights paris", "red running shoes", "blue suede shoes sale",
    "shoes", "comic books", "cheap used books",
]


def ad(text, listing_id, bid=100):
    return Advertisement.from_text(
        text, AdInfo(listing_id=listing_id, bid_price_micros=bid)
    )


def snapshot(directory):
    """Manifest checksum plus the sha256 of every live segment file."""
    manifest = json.loads((directory / MANIFEST_NAME).read_bytes())
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("seg-*.seg"))
    }
    return manifest["checksum"], files


def scripted_history(directory):
    """Yields ``(step, index)`` after each commit worth pinning."""
    corpus = [ad(text, i, bid=100 + 7 * i) for i, text in enumerate(PACKED)]
    index = TieredSegmentedIndex.pack_corpus(
        corpus, directory, config=CONFIG, mapping=MAPPING
    )
    with index:
        yield "packed", index
        # Six inserts reach the seal threshold: the auto-seal makes a
        # second L0 and the inline merge folds the pair into an L1.  Two of them share re-mapped word-sets, which
        # the overlay places at their own word-sets until the merge.
        for i, text in enumerate(
            ["rare books", "cheap used books", "kids books", "paris hotels",
             "cheap hotels", "red running shoes"],
            start=20,
        ):
            index.insert(ad(text, i, bid=300 + i))
        yield "first merge", index
        # Tombstones on sealed ads, re-mapped ones included.
        assert index.delete(corpus[0])
        assert index.delete(corpus[5])
        assert index.delete(ad("paris hotels", 23, bid=323))
        words = ["cheap used books", "flights paris", "suede shoes",
                 "books online", "red shoes", "cheap flights paris"]
        # An auto-seal beside the L1: the tombstones stay pending.
        for i in range(40, 46):
            index.insert(ad(words[i % len(words)], i, bid=500 + i))
        yield "tombstones pending", index
        # The next auto-seal folds the L0 pair into an L1, then the L1
        # pair into an L2, consuming the tombstones.
        for i in range(46, 52):
            index.insert(ad(words[i % len(words)], i, bid=500 + i))
        yield "second-level merge", index
        assert index.delete(ad("suede shoes", 44, bid=544))
        assert index.delete(corpus[9])
        index.insert(ad("rare books", 60, bid=60))
        index.compact()
        yield "compact", index


#: ``snapshot()`` after each step, as written without a recorder by the
#: commit that still had the in-merge re-optimizer.
PARENT_SNAPSHOT = {
    "packed": (
        "0ea3d857ffb109dcebad1f54a4960a2216868238a7121440881c408edab31430",
        {"seg-000000-L0.seg": "2f190e9c1b6b23b4dae90737c6fedb044d0335c8114511771e2ac09adfb98418"},
    ),
    "first merge": (
        "ce73d3fc2de44986c44a5d0d3068e658c264953bc5d1754e884579e3fca2e888",
        {"seg-000002-L1.seg": "2a790f18d077aac1f3239b0749193c03cadbbe6ae2e6df4839688d724763fca0"},
    ),
    "tombstones pending": (
        "ea8a97babc231fb320028ea1fecee27741278dbc1ec4b594ad2e99942f7a9cf5",
        {
            "seg-000002-L1.seg": "2a790f18d077aac1f3239b0749193c03cadbbe6ae2e6df4839688d724763fca0",
            "seg-000003-L0.seg": "7359f5eed2fa03899d7e38b5c862a174aaab11ee16e0ffbe57c6decf85821832",
        },
    ),
    "second-level merge": (
        "c6f5c0eb5a38d6469782ca438bf2e7426c3deb9bed799ff705900f0ed5e347d0",
        {"seg-000006-L2.seg": "981641027425955fe7690432d67cefb6df13759378a6c19873ac57aaa57527e3"},
    ),
    "compact": (
        "83a026d780a3b961a11a752ef3ad36ac4b3c895e20b0939837b561fa6ea2024f",
        {"seg-000008-L3.seg": "3c28e8a4bbccef09a32c511c97f7990d81c054c951c7aba81947fb247152ac41"},
    ),
}


def test_merges_write_the_parents_bytes(tmp_path):
    steps = []
    for step, index in scripted_history(tmp_path):
        steps.append(step)
        assert snapshot(tmp_path) == PARENT_SNAPSHOT[step], step
        if step == "compact":
            # Every re-mapped word-set survives, and three merges later
            # still sits at its packed placement.
            assert index.segments[0].placements() == MAPPING
    assert steps == list(PARENT_SNAPSHOT)
