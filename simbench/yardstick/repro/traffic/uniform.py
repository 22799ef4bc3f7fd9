"""Global uniform random traffic (paper Sec. 4.3).

Every generated packet draws a destination uniformly among all other
nodes -- the pattern all three topologies are provisioned for at
``p ~ r'/2`` (full global bandwidth).
"""

from __future__ import annotations

from typing import Optional

__all__ = ["UniformRandom"]


class UniformRandom:
    """Uniformly random destinations over ``[0, num_nodes) \\ {src}``."""

    def __init__(self, num_nodes: int):
        if num_nodes < 2:
            raise ValueError(f"UniformRandom: need >= 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes

    def pick_destination(self, src_node: int, rng) -> Optional[int]:
        dst = rng.randrange(self.num_nodes - 1)
        return dst if dst < src_node else dst + 1
