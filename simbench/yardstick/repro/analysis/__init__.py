"""Analytical tools: cost, scalability, bisection, diversity, link load.

These implement the paper's Sec. 2.3 analyses (and the Fig. 3 / Fig. 4
artefacts) without simulation, plus the static link-load analyzer used
to cross-check simulated saturation points.
"""

from repro.analysis.bisection import BisectionBandwidth, bisection_bandwidth
from repro.analysis.cost import COST_TABLE, CostMetrics, cost_metrics
from repro.analysis.diversity import DiversityStats, path_diversity_stats
from repro.analysis.faults import DegradedTopology, FaultTrial, degrade, fault_resilience
from repro.analysis.linkload import (
    channel_loads_indirect,
    channel_loads_minimal,
    load_skew,
    permutation_flows,
    saturation_throughput,
    uniform_flows,
    workload_flows,
)
from repro.analysis.partition import BisectionResult, Graph, bisect, cut_weight
from repro.analysis.queueing import md1_wait_ns, mean_minimal_hops, uniform_latency_model
from repro.analysis.spectral import SpectralStats, spectral_stats
from repro.analysis.scalability import (
    FAMILIES,
    nodes_at_radix,
    scalability_points,
    scalability_table,
)

__all__ = [
    "bisection_bandwidth",
    "BisectionBandwidth",
    "cost_metrics",
    "CostMetrics",
    "COST_TABLE",
    "path_diversity_stats",
    "DiversityStats",
    "degrade",
    "DegradedTopology",
    "fault_resilience",
    "FaultTrial",
    "channel_loads_minimal",
    "channel_loads_indirect",
    "uniform_flows",
    "permutation_flows",
    "workload_flows",
    "load_skew",
    "saturation_throughput",
    "Graph",
    "bisect",
    "cut_weight",
    "BisectionResult",
    "md1_wait_ns",
    "mean_minimal_hops",
    "uniform_latency_model",
    "spectral_stats",
    "SpectralStats",
    "scalability_points",
    "scalability_table",
    "nodes_at_radix",
    "FAMILIES",
]
