"""Cost metrics (links and ports per end-node) -- Fig. 3's table.

Provides both instance-level measurements (from a built topology) and
the asymptotic formulas the paper tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.topology.base import Topology

__all__ = ["CostMetrics", "cost_metrics", "COST_TABLE"]


@dataclass
class CostMetrics:
    """Measured cost of one topology instance."""

    topology: str
    num_nodes: int
    num_routers: int
    max_radix: int
    links_per_node: float
    ports_per_node: float
    diameter: Optional[int] = None


def cost_metrics(topology: Topology, with_diameter: bool = False) -> CostMetrics:
    """Measure the paper's cost metrics on a concrete instance."""
    return CostMetrics(
        topology=topology.name,
        num_nodes=topology.num_nodes,
        num_routers=topology.num_routers,
        max_radix=topology.max_radix(),
        links_per_node=topology.links_per_node(),
        ports_per_node=topology.ports_per_node(),
        diameter=topology.endpoint_diameter() if with_diameter else None,
    )


#: The asymptotic comparison table of Fig. 3:
#: family -> (diameter, scale formula, links/node, ports/node).
COST_TABLE = {
    "2D HyperX": {"diameter": 2, "scale": "~ r^3/27", "links_per_node": 2, "ports_per_node": 3},
    "Slim Fly": {"diameter": 2, "scale": "~ r^3/8", "links_per_node": 2, "ports_per_node": 3},
    "2-lvl Fat-Tree": {"diameter": 2, "scale": "r^2/2", "links_per_node": 2, "ports_per_node": 3},
    "3-lvl Fat-Tree": {"diameter": 4, "scale": "r^3/4", "links_per_node": 3, "ports_per_node": 5},
    "MLFM": {"diameter": 2, "scale": "~ r^3/8", "links_per_node": 2, "ports_per_node": 3},
    "OFT": {"diameter": 2, "scale": "~ r^3/4", "links_per_node": 2, "ports_per_node": 3},
}
