"""The set-up stages all four workloads share.

``build WordSetIndex -> SegmentBuilder.write -> open``, each inside its
own stage so that ``setup.build_index_s``, ``setup.pack_s`` and
``setup.open_s`` can be told apart.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.ads import AdCorpus, Advertisement
from repro.core.wordset_index import WordSetIndex
from repro.segment.builder import SegmentBuilder
from repro.segment.packed import PackedSegmentIndex

from harness import SetupStages

__all__ = ["build_pack_open"]


def build_pack_open(
    ads: list[Advertisement], path: Path, stages: SetupStages
) -> PackedSegmentIndex:
    """Index ``ads``, write the packed segment to ``path`` and open it.

    The build-time index is dropped before returning: processes forked
    afterwards must not inherit it, and resident memory must be the
    serving state's.
    """
    with stages.stage("build_index"):
        index = WordSetIndex.from_corpus(AdCorpus(ads))
    with stages.stage("pack"):
        SegmentBuilder(index).write(path)
    del index
    with stages.stage("open"):
        return PackedSegmentIndex(path)
