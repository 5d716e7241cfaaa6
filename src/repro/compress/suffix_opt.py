"""Choosing the suffix size ``s`` (Section VI, "Selecting the suffix-size").

A shorter suffix shrinks ``B^sig`` (and the entropy of ``B^off``) but
merges more nodes, making the average probe scan more data.  Following the
paper, we reuse the workload cost model with two differences: collisions
happen at suffix granularity (we cannot steer them per node), and the
objective trades structure size against access time rather than optimizing
time alone — expressed here as ``cost = access_ns + space_weight *
structure_bits``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.queries import Workload
from repro.core.wordset_index import WordSetIndex
from repro.compress.compressed_hash import CompressedWordSetIndex
from repro.cost.accounting import AccessTracker
from repro.cost.model import CostModel


@dataclass(frozen=True, slots=True)
class SuffixTradeoffPoint:
    """One point on the size/speed curve."""

    suffix_bits: int
    structure_bits: int
    entropy_bits: float
    num_nodes: int
    avg_entries_per_node: float
    access_ns: float

    def objective(self, space_weight_ns_per_bit: float) -> float:
        return self.access_ns + space_weight_ns_per_bit * self.entropy_bits


def evaluate_suffix_sizes(
    index: WordSetIndex,
    workload: Workload,
    model: CostModel,
    suffix_bits_range: Sequence[int],
) -> list[SuffixTradeoffPoint]:
    """Build the compressed structure at each ``s`` and measure modeled
    access cost of the workload plus structure size."""
    points = []
    for bits in suffix_bits_range:
        compressed = CompressedWordSetIndex.from_index(index, suffix_bits=bits)
        access_ns = _workload_access_ns(compressed, workload, model)
        points.append(
            SuffixTradeoffPoint(
                suffix_bits=bits,
                structure_bits=compressed.structure_bits(),
                entropy_bits=compressed.entropy_bits(),
                num_nodes=compressed.num_nodes(),
                avg_entries_per_node=compressed.average_entries_per_suffix(),
                access_ns=access_ns,
            )
        )
    return points


def _workload_access_ns(
    compressed: CompressedWordSetIndex, workload: Workload, model: CostModel
) -> float:
    """Frequency-weighted modeled access time of the workload."""
    total = 0.0
    saved = compressed.tracker
    try:
        for query, frequency in workload:
            tracker = AccessTracker()
            compressed.tracker = tracker
            compressed.query(query)
            total += frequency * tracker.stats.modeled_ns(model)
    finally:
        compressed.tracker = saved
    return total


def choose_suffix_bits(
    index: WordSetIndex,
    workload: Workload,
    model: CostModel,
    suffix_bits_range: Sequence[int],
    space_weight_ns_per_bit: float = 0.0,
) -> SuffixTradeoffPoint:
    """Pick the ``s`` minimizing access time + weighted structure size.

    ``space_weight_ns_per_bit = 0`` optimizes pure speed (largest useful
    suffix); increasing it shifts the optimum toward smaller, more
    collision-prone structures.
    """
    points = evaluate_suffix_sizes(index, workload, model, suffix_bits_range)
    if not points:
        raise ValueError("empty suffix_bits_range")
    return min(points, key=lambda p: p.objective(space_weight_ns_per_bit))
