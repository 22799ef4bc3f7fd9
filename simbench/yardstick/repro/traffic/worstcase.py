"""Adversarial (worst-case) traffic patterns under minimal routing.

Paper Sec. 4.2, one construction per topology:

- **MLFM**: node shift by ``p`` (= ``h``); every local router's nodes
  target the next router, whose single minimal path carries ``h`` flows
  (saturation at ``1/h``).
- **OFT**: node shift by ``p`` (= ``k``); same single-path overload with
  ``k`` flows (saturation at ``1/k``).
- **Slim Fly**: routers communicate in distance-2 pairs whose minimal
  routes *overlap pairwise* (Fig. 5): we build a greedy walk
  ``r0, r1, r2, ...`` on the router graph and pair ``ri -> r(i+2)``, so
  that route ``i`` (``ri -> r(i+1) -> r(i+2)``) and route ``i+1`` share
  the link ``(r(i+1), r(i+2))`` -- ``2p`` flows per link, saturation at
  ``1/(2p)``.  The greedy step prefers successors that keep the pair at
  distance exactly 2 with the walk's midpoint as *unique* common
  neighbor (otherwise path diversity would dilute the overload).
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

from repro.topology.base import Topology
from repro.topology.mlfm import MLFM
from repro.topology.oft import OFT
from repro.topology.slimfly import SlimFly
from repro.traffic.base import PermutationTraffic
from repro.traffic.shift import ShiftTraffic

__all__ = [
    "worst_case_traffic",
    "slimfly_worst_case_chain",
    "slimfly_worst_case_chains",
    "SlimFlyWorstCase",
]


def slimfly_worst_case_chains(topology: Topology, seed: int = 0) -> List[List[int]]:
    """Greedy walk decomposition of the router graph for the SF worst case.

    Produces chains of routers in which consecutive routers are (almost
    always) adjacent; the greedy step prefers a successor ``n`` such
    that the predecessor ``prev`` and ``n`` are non-adjacent with the
    current router as their *only* common neighbor (the Fig. 5 overlap
    condition).  When the walk dead-ends a new chain is started from an
    unvisited router; chains shorter than 3 (which could not express a
    distance-2 pairing) are merged onto the previous chain, so a
    handful of junction steps may violate adjacency -- the aggregate
    overload (max link load ``~2p``) is unaffected, which the tests
    check analytically.
    """
    num = topology.num_routers
    rng = random.Random(seed)
    unvisited = set(range(num))
    chains: List[List[int]] = []
    while unvisited:
        start = rng.choice(sorted(unvisited))
        walk = [start]
        unvisited.discard(start)
        while True:
            current = walk[-1]
            prev = walk[-2] if len(walk) >= 2 else None
            candidates = [n for n in topology.neighbors(current) if n in unvisited]
            if not candidates:
                break
            rng.shuffle(candidates)
            best: Optional[int] = None
            best_rank = -1
            for n in candidates:
                if prev is None:
                    rank = 1
                elif topology.is_edge(prev, n):
                    rank = 0  # distance-1 pair: no overload at all
                else:
                    commons = topology.common_neighbors(prev, n)
                    rank = 3 if commons == [current] else 2
                if rank > best_rank:
                    best_rank = rank
                    best = n
                    if rank == 3:
                        break
            assert best is not None
            walk.append(best)
            unvisited.discard(best)
        if len(walk) >= 3 or not chains:
            chains.append(walk)
        else:
            chains[-1].extend(walk)
    # A single stranded chain of length < 3 cannot happen for the MMS
    # graphs used here (degree >= 5), but keep the invariant explicit.
    if any(len(c) < 3 for c in chains):
        raise RuntimeError(f"{topology.name}: degenerate worst-case chain decomposition")
    return chains


def slimfly_worst_case_chain(topology: Topology, seed: int = 0) -> List[int]:
    """Backwards-compatible single-walk view: concatenation of the chains."""
    return [r for chain in slimfly_worst_case_chains(topology, seed) for r in chain]


class SlimFlyWorstCase(PermutationTraffic):
    """SF adversarial permutation built from a greedy distance-2 chain.

    Router ``walk[i]`` sends to router ``walk[i+2]`` (cyclically); node
    ``j`` of the source targets node ``j`` of the destination.
    """

    def __init__(self, topology: SlimFly, seed: int = 0):
        chains = slimfly_worst_case_chains(topology, seed)
        dst = np.full(topology.num_nodes, -1, dtype=np.int64)
        for chain in chains:
            num = len(chain)
            for i, src_router in enumerate(chain):
                dst_router = chain[(i + 2) % num]
                src_nodes = topology.nodes_of(src_router)
                dst_nodes = topology.nodes_of(dst_router)
                for a, b in zip(src_nodes, dst_nodes):
                    dst[a] = b
        super().__init__(dst)
        self.chains = chains


def worst_case_traffic(topology: Topology, seed: int = 0) -> PermutationTraffic:
    """The paper's worst-case pattern for *topology* (Sec. 4.2)."""
    if isinstance(topology, SlimFly):
        return SlimFlyWorstCase(topology, seed=seed)
    if isinstance(topology, MLFM):
        return ShiftTraffic(topology.num_nodes, topology.p)
    if isinstance(topology, OFT):
        return ShiftTraffic(topology.num_nodes, topology.p)
    # Generic fallback: shift by the first endpoint router's node count,
    # which overloads single-path topologies in the same way.
    p = topology.nodes_attached(topology.endpoint_routers()[0])
    return ShiftTraffic(topology.num_nodes, max(p, 1))
