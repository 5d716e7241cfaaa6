"""Benches and acceptance gates for tiered continuous ingest (PR 8).

The headline experiment is the churn drill (``repro.segment.churn``): a
100k-op insert/delete/re-insert stream against a
:class:`~repro.segment.TieredSegmentedIndex` with the background merger
running, every probe checked bit-for-bit against a ``WordSetIndex``
oracle.  Gates:

* zero failed or incorrect queries while merges run underneath;
* zero lost acknowledged writes and zero phantom ads after the final
  seal (and after a full reopen from the manifest);
* steady-state read amplification within the configured
  ``read_amp_bound()`` (= ``fan_in * (top_level + 1) + 1``) once the
  merger drains.

The drill runs once, at the 100k-op acceptance configuration, and the
gates assert on its result; no file is written.  The CI smoke job runs
the standalone driver at a smaller size on every push.
"""

import pytest

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.segment.churn import ChurnConfig, run_churn_drill

DRILL = ChurnConfig(
    ops=100_000,
    seed=7,
    probe_every=500,
    seal_threshold=256,
    fan_in=4,
)


@pytest.fixture(scope="module")
def drill_result(tmp_path_factory):
    return run_churn_drill(tmp_path_factory.mktemp("drill"), DRILL)


def test_churn_drill_acceptance_gates(drill_result):
    result = drill_result
    assert result.ops_applied == DRILL.ops
    assert result.failed_queries == 0
    assert result.mismatches == [], result.to_json()
    assert result.lost_writes == 0
    assert result.phantom_ads == 0
    assert result.reopen_consistent
    assert not result.merger_errors
    assert result.merges > 0  # the merger actually ran underneath


def test_steady_state_read_amplification_bounded(drill_result):
    """After the merger drains and the final seal commits, the tier
    stack must respect the configured bound (transient L0 buildup
    during the run is allowed; the steady state is not)."""
    stats = drill_result.final_stats
    assert stats["read_amplification"] <= stats["read_amp_bound"], (
        f"read amplification {stats['read_amplification']} exceeds "
        f"bound {stats['read_amp_bound']}"
    )


def test_bench_tiered_ingest_throughput(benchmark, tmp_path_factory):
    """Sustained insert rate through auto-seal and inline merges."""
    counter = iter(range(1_000_000))

    def ingest_run():
        n = next(counter)
        directory = tmp_path_factory.mktemp(f"ingest-{n}")
        config = TieredConfig(seal_threshold=256, fan_in=4)
        with TieredSegmentedIndex(directory, config=config) as index:
            for i in range(4_000):
                index.insert(
                    Advertisement.from_text(
                        f"w{i % 31} k{i % 7} item{i}",
                        AdInfo(listing_id=i, bid_price_micros=100 + i),
                    )
                )
            return len(index)

    total = benchmark.pedantic(ingest_run, rounds=3, iterations=1)
    assert total == 4_000


def test_bench_tiered_query_replay(benchmark, tmp_path_factory):
    """Broad-query replay across a multi-tier stack with tombstones."""
    directory = tmp_path_factory.mktemp("replay")
    config = TieredConfig(seal_threshold=128, fan_in=4)
    with TieredSegmentedIndex(directory, config=config) as index:
        ads = [
            Advertisement.from_text(
                f"w{i % 31} k{i % 7} item{i}",
                AdInfo(listing_id=i, bid_price_micros=100 + i),
            )
            for i in range(4_000)
        ]
        for ad in ads:
            index.insert(ad)
        for ad in ads[::17]:
            index.delete(ad)
        queries = [
            Query((f"w{i % 31}", f"k{i % 7}", f"item{i}", "pad"))
            for i in range(0, 4_000, 41)
        ]

        def replay():
            return sum(len(index.query(q)) for q in queries)

        total = benchmark.pedantic(replay, rounds=3, iterations=1)
        assert total > 0


def test_drill_ok_gate(drill_result):
    """``ok`` is what ``python -m repro.segment.churn`` exits on (the
    ``tiered-ingest-smoke`` CI job); it must hold at the acceptance size
    too.  Nothing is written: speed numbers come from ``bench/run.py``."""
    assert drill_result.ok, drill_result.to_json()
