"""The adopter path end-to-end: import, optimize, pack, serve, survive.

1. Import an advertiser CSV and a query trace (the files are written by
   this script to keep the example self-contained).
2. Optimize the mapping for the observed workload.
3. Pack a tiered index directory; reopen it read-only; query it.
4. Mutate it: inserts and deletes land in the overlay, ``seal`` commits
   them as a new manifest generation, and reopening the directory — the
   same path crash recovery takes — sees exactly the committed state.
   Compaction then folds every tier into one segment; every ad keeps
   the placement the optimizer gave it in step 2.

Run with::

    python examples/import_and_serve.py
"""

import tempfile
from pathlib import Path

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.cost.model import CostModel
from repro.datagen.importers import load_corpus_csv, load_workload_tsv
from repro.optimize.mapping import OptimizerConfig, optimize_mapping
from repro.segment import TieredConfig, TieredSegmentedIndex

ADS_CSV = """bid_phrase,listing_id,campaign_id,bid_price_micros,exclusions
used books,1,100,300000,
cheap used books,2,100,550000,free
books,3,101,200000,
rare first edition books,4,102,900000,
comic books,5,103,250000,
cheap flights,6,104,400000,
flights,7,104,150000,
talk talk,8,105,120000,
"""

TRACE_TSV = """cheap used books\t120
used books\t80
comic books online\t25
cheap flights paris\t40
talk talk greatest hits\t10
first edition books\t5
"""


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-demo-"))
    (workdir / "ads.csv").write_text(ADS_CSV)
    (workdir / "trace.tsv").write_text(TRACE_TSV)

    # 1. Import.
    corpus = load_corpus_csv(workdir / "ads.csv")
    workload = load_workload_tsv(workdir / "trace.tsv")
    print(f"imported {len(corpus)} ads, {len(workload)} distinct queries")

    # 2. Optimize.
    mapping = optimize_mapping(
        corpus, workload, CostModel(), OptimizerConfig(max_words=10)
    )
    print(f"optimizer re-mapped {mapping.remapped_count()} word-set group(s)")

    # 3. Pack a directory and reopen it.
    directory = workdir / "index"
    placements = {
        words: locator
        for words, locator in mapping.as_dict().items()
        if words != locator
    }
    TieredSegmentedIndex.pack_corpus(
        corpus,
        directory,
        config=TieredConfig(max_words=mapping.max_words),
        mapping=placements,
    ).close()
    q = Query.from_text("cheap used books online")
    with TieredSegmentedIndex(directory, read_only=True) as reopened:
        before = sorted(a.info.listing_id for a in reopened.query(q))
    print(f"after reopen, {q.tokens} -> listings {before}")

    # 4. Mutate and commit; the process then exits, the files remain.
    flights = Advertisement.from_text(
        "flights",
        AdInfo(listing_id=7, campaign_id=104, bid_price_micros=150_000),
    )
    with TieredSegmentedIndex(directory) as index:
        index.insert(
            Advertisement.from_text(
                "used books bulk",
                AdInfo(listing_id=9, bid_price_micros=80_000),
            )
        )
        assert index.delete(flights)
        index.seal()
        print(
            f"sealed generation {index.generation}: "
            f"{len(index.segments)} segment(s), "
            f"{index.tombstone_count()} tombstone(s)"
        )

    # Reopening is the recovery: exactly the committed generation.
    with TieredSegmentedIndex(directory) as recovered:
        print(
            f"reopened generation {recovered.generation} with "
            f"{len(recovered)} ads"
        )
        bulk = recovered.query(Query.from_text("used books bulk order"))
        assert 9 in {a.info.listing_id for a in bulk}
        assert recovered.query(Query.from_text("flights")) == []

        # Compaction folds every tier into one segment; the survivors
        # keep their persisted placements.
        recovered.compact()
        assert recovered.segments[0].placements() == placements
        print(
            f"compacted into {len(recovered.segments)} segment(s), "
            f"{recovered.tombstone_count()} tombstone(s)"
        )
        assert recovered.query(Query.from_text("flights")) == []
        after = sorted(a.info.listing_id for a in recovered.query(q))
        assert after == before, after
    print("done — all stages verified")


if __name__ == "__main__":
    main()
