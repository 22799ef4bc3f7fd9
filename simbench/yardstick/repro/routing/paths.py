"""Shortest-path enumeration over router graphs.

For the diameter-two topologies a minimal route between endpoint
routers is either the direct edge or a two-hop route through a common
neighbor (paper Sec. 3.1); :class:`MinimalPaths` enumerates *all* of
them (the basis for path-diversity analysis, Sec. 2.3.3) with caching.
A generic BFS enumeration is provided for longer-diameter reference
topologies (3-level Fat-Tree, Dragonfly).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.base import Topology

__all__ = ["MinimalPaths", "all_shortest_paths_bfs"]

RouterPath = Tuple[int, ...]


def all_shortest_paths_bfs(topology: Topology, src: int, dst: int) -> List[RouterPath]:
    """All shortest router paths ``src -> dst`` by BFS + backtracking.

    Works for any diameter; used for reference topologies and as a
    cross-check of the specialised diameter-two enumeration.
    """
    if src == dst:
        return [(src,)]
    dist: Dict[int, int] = {src: 0}
    parents: Dict[int, List[int]] = {src: []}
    frontier = [src]
    found = False
    while frontier and not found:
        nxt: List[int] = []
        for u in frontier:
            du = dist[u]
            for v in topology.neighbors(u):
                if v not in dist:
                    dist[v] = du + 1
                    parents[v] = [u]
                    nxt.append(v)
                elif dist[v] == du + 1:
                    parents[v].append(u)
        if dst in dist:
            found = True
        frontier = nxt
    if dst not in dist:
        raise ValueError(f"{topology.name}: no path {src} -> {dst}")

    paths: List[RouterPath] = []

    def backtrack(v: int, suffix: Tuple[int, ...]) -> None:
        if v == src:
            paths.append((src,) + suffix)
            return
        for u in parents[v]:
            backtrack(u, (v,) + suffix)

    backtrack(dst, ())
    return paths


class MinimalPaths:
    """Cached enumeration of all minimal paths between router pairs.

    Specialised for diameter-two pairs (direct edge, else common
    neighbors); falls back to BFS for more distant pairs so the same
    object also serves the reference topologies.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._cache: Dict[Tuple[int, int], Tuple[RouterPath, ...]] = {}

    def paths(self, src: int, dst: int) -> Tuple[RouterPath, ...]:
        """All minimal router paths from *src* to *dst* (inclusive ends)."""
        key = (src, dst)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        topo = self.topology
        if src == dst:
            result: Tuple[RouterPath, ...] = ((src,),)
        elif topo.is_edge(src, dst):
            result = ((src, dst),)
        else:
            middles = topo.common_neighbors(src, dst)
            if middles:
                result = tuple((src, m, dst) for m in middles)
            else:
                result = tuple(all_shortest_paths_bfs(topo, src, dst))
        self._cache[key] = result
        return result

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two routers."""
        return len(self.paths(src, dst)[0]) - 1

    def diversity(self, src: int, dst: int) -> int:
        """Number of distinct minimal paths between two routers."""
        return len(self.paths(src, dst))
