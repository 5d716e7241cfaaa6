"""A merge's output is a function of its victims and tombstones only.

Survivors go back in at their victims' persisted placements, so a
scripted tiered history — a re-mapped ``pack_corpus``, auto-seals,
deletes of sealed ads, merges at two levels and a full ``compact()`` —
writes the same bytes every time.  The sha256 of every segment file and
the manifest checksum after each step are pinned to what the commit
that still carried the in-merge set-cover re-optimizer wrote for the
same script with no workload recorder attached (the only configuration
any serving path, CLI command or benchmark ever ran).  The segment
hashes were re-taken for format version 3, whose files add the
fingerprint section; their ``B^sig``, ``B^off`` and node-record
sections are byte for byte those of the pinned version-2 files, and the
manifest checksums did not move.  Version 4 added the ``prefixes``
filter and a compact header, so each file is hashed as its version-3
bytes (:func:`tests.segment.format_v1.version_3_bytes`): every section
version 3 had must still be the pinned one.
"""

import hashlib
import json

from repro.core.ads import AdInfo, Advertisement
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.segment.tiered import MANIFEST_NAME
from tests.segment.format_v1 import version_3_bytes

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
    """Manifest checksum plus the sha256 of every live segment file's
    version-3 bytes."""
    manifest = json.loads((directory / MANIFEST_NAME).read_bytes())
    files = {
        path.name: hashlib.sha256(version_3_bytes(path.read_bytes())).hexdigest()
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
        {"seg-000000-L0.seg": "f7feb17e6f85d06667921575f15c85045bc9d80b06d4e980af9626d9226991e1"},
    ),
    "first merge": (
        "ce73d3fc2de44986c44a5d0d3068e658c264953bc5d1754e884579e3fca2e888",
        {"seg-000002-L1.seg": "632e208a5ce5e11f9a385684d19351fdab5ebdad545c97287c78720133c945a4"},
    ),
    "tombstones pending": (
        "ea8a97babc231fb320028ea1fecee27741278dbc1ec4b594ad2e99942f7a9cf5",
        {
            "seg-000002-L1.seg": "632e208a5ce5e11f9a385684d19351fdab5ebdad545c97287c78720133c945a4",
            "seg-000003-L0.seg": "a359ce33782bb7463313dd9c90799e981da0fc02c162149d6896354d7ccd394f",
        },
    ),
    "second-level merge": (
        "c6f5c0eb5a38d6469782ca438bf2e7426c3deb9bed799ff705900f0ed5e347d0",
        {"seg-000006-L2.seg": "65fa85ac441811fc9cdacfd58847fba43d532c3f5cdb438dda1cbf9614dd1e76"},
    ),
    "compact": (
        "83a026d780a3b961a11a752ef3ad36ac4b3c895e20b0939837b561fa6ea2024f",
        {"seg-000008-L3.seg": "d019ae56a00e394fa34e482b3812e748612c644979ce7d4f1511034310f343bb"},
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
