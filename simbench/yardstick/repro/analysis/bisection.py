"""Approximate bisection bandwidth (paper Sec. 2.3.2, Fig. 4).

The routers are bisected into two halves of (approximately) equal
*end-node* weight using the multilevel partitioner; the bisection
bandwidth per end-node is then

.. math:: B = \\frac{\\text{cut links} \\cdot b}{N / 2}

with ``b`` the link bandwidth.  The paper's reference values: ~0.89 b
for the OFT (~0.81 at small scale), ~0.71 b / ~0.67 b for the SF with
``p = floor/ceil(r'/2)``, and ~0.5 b for the MLFM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.analysis.partition import Graph, bisect
from repro.topology.base import Topology

__all__ = ["bisection_bandwidth", "BisectionBandwidth"]


@dataclass
class BisectionBandwidth:
    """Result of :func:`bisection_bandwidth`."""

    topology: str
    cut_links: float
    per_node: float  # fraction of link bandwidth b per end-node
    node_split: Tuple[float, float]
    imbalance: float


def bisection_bandwidth(
    topology: Topology,
    restarts: int = 8,
    max_imbalance: float = 0.05,
    seed: int = 0,
) -> BisectionBandwidth:
    """Estimate the per-end-node bisection bandwidth of *topology*.

    An upper-bound estimate in the same sense as the paper's: the
    partitioner minimises the cut, so the reported value approximates
    (from above, for a heuristic partitioner) the true bisection.
    """
    graph = Graph.from_topology(topology, weight_by_nodes=True)
    result = bisect(graph, max_imbalance=max_imbalance, restarts=restarts, seed=seed)
    per_node = result.cut / (topology.num_nodes / 2.0)
    return BisectionBandwidth(
        topology=topology.name,
        cut_links=result.cut,
        per_node=per_node,
        node_split=result.part_weights,
        imbalance=result.imbalance,
    )
