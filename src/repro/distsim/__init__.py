"""Discrete-event simulation of the two-server deployment (Section VII-B)."""

from repro.distsim.cluster import (
    ClusterConfig,
    TwoTierCluster,
    find_saturation_rate,
)
from repro.distsim.events import EventQueue
from repro.distsim.metrics import RunMetrics, smooth_histogram
from repro.distsim.network import NetworkModel
from repro.distsim.scatter import (
    ScatterConfig,
    ScatterGatherCluster,
    uniform_shard_service,
)
from repro.distsim.server import Server

__all__ = [
    "ClusterConfig",
    "EventQueue",
    "NetworkModel",
    "RunMetrics",
    "ScatterConfig",
    "ScatterGatherCluster",
    "Server",
    "TwoTierCluster",
    "find_saturation_rate",
    "smooth_histogram",
    "uniform_shard_service",
]
