"""Distributed destination-based forwarding tables.

The simulator uses source routing, but a real deployment of these
topologies programs per-router forwarding tables (e.g. InfiniBand LFTs
or OpenFlow rules).  This module materialises the *destination-router
based* next-hop tables induced by minimal routing and verifies their
correctness and loop-freedom -- the artefact a network operator would
actually install.

For diameter-two topologies every table entry is trivially loop-free
(the next hop strictly decreases the remaining distance); the
verification walk proves it per instance, including for longer-diameter
reference topologies.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.routing.paths import MinimalPaths
from repro.topology.base import Topology

__all__ = ["ForwardingTables"]


class ForwardingTables:
    """Per-router minimal next-hop tables.

    ``next_hops(router, dst_router)`` returns every neighbor that lies
    on a minimal path toward ``dst_router`` -- multipath entries where
    path diversity exists (ECMP-style), a single entry elsewhere.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._paths = MinimalPaths(topology)
        self._tables: List[Dict[int, Tuple[int, ...]]] = [
            dict() for _ in range(topology.num_routers)
        ]
        self._built = [False] * topology.num_routers

    def _build_router(self, router: int) -> None:
        topo = self.topology
        table = self._tables[router]
        for dst in range(topo.num_routers):
            if dst == router:
                continue
            hops = sorted({p[1] for p in self._paths.paths(router, dst)})
            table[dst] = tuple(hops)
        self._built[router] = True

    def next_hops(self, router: int, dst_router: int) -> Tuple[int, ...]:
        """Minimal next hops from *router* toward *dst_router*."""
        if router == dst_router:
            return ()
        if not self._built[router]:
            self._build_router(router)
        return self._tables[router][dst_router]

    def table_size(self, router: int) -> int:
        """Number of (destination, next-hop) entries at *router*."""
        if not self._built[router]:
            self._build_router(router)
        return sum(len(v) for v in self._tables[router].values())

    def walk(self, src_router: int, dst_router: int, choose=min) -> List[int]:
        """Follow the tables hop by hop from source to destination.

        ``choose`` selects among multipath entries (default: lowest
        id).  Raises ``RuntimeError`` if a loop is detected (which the
        verification test proves never happens).
        """
        path = [src_router]
        current = src_router
        limit = self.topology.num_routers + 1
        while current != dst_router:
            hops = self.next_hops(current, dst_router)
            if not hops:
                raise RuntimeError(f"no route {current} -> {dst_router}")
            current = choose(hops)
            path.append(current)
            if len(path) > limit:
                raise RuntimeError(f"forwarding loop on {src_router} -> {dst_router}: {path}")
        return path

    def verify(self) -> List[str]:
        """Exhaustively check delivery and minimality between endpoint
        routers; returns violations (empty == correct)."""
        problems: List[str] = []
        endpoints = self.topology.endpoint_routers()
        for s in endpoints:
            for d in endpoints:
                if s == d:
                    continue
                expected = self._paths.distance(s, d)
                path = self.walk(s, d)
                if len(path) - 1 != expected:
                    problems.append(
                        f"{s}->{d}: walked {len(path) - 1} hops, minimal is {expected}"
                    )
                    if len(problems) > 10:
                        return problems
        return problems

    def total_entries(self) -> int:
        """Total forwarding entries across all routers (memory metric)."""
        return sum(self.table_size(r) for r in range(self.topology.num_routers))
