"""Channel-dependency-graph (CDG) deadlock analysis (paper Sec. 3.4).

A routing function is deadlock-free if its channel dependency graph --
vertices are *(directed channel, virtual channel)* pairs, edges connect
resources held consecutively by some route -- is acyclic (Dally &
Towles).  This module builds the exact CDG induced by:

- all minimal routes between endpoint routers, and/or
- all indirect routes (every ``source -> intermediate -> destination``
  combination with eligible intermediates),

under a given VC policy, and checks acyclicity.  The tests use it to
*prove* per instance the paper's claims:

- MLFM/OFT minimal routing is deadlock-free with a single VC (the
  UP -> DOWN order argument);
- MLFM/OFT indirect routing is deadlock-free with 2 VCs, and would NOT
  be with 1 (the cycle the paper describes);
- SF minimal/indirect routing is deadlock-free with 2/4 hop-indexed VCs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.routing.paths import MinimalPaths
from repro.routing.vc import VCPolicy
from repro.topology.base import Topology

__all__ = [
    "ChannelDependencyGraph",
    "build_cdg_minimal",
    "build_cdg_indirect",
    "find_cycle",
]

ChannelVC = Tuple[int, int, int]  # (from_router, to_router, vc)


class ChannelDependencyGraph:
    """Directed graph over *(channel, VC)* resources."""

    def __init__(self) -> None:
        self._succ: Dict[ChannelVC, Set[ChannelVC]] = {}

    def add_dependency(self, held: ChannelVC, wanted: ChannelVC) -> None:
        """Record that a route holds *held* while requesting *wanted*."""
        self._succ.setdefault(held, set()).add(wanted)
        self._succ.setdefault(wanted, set())

    def add_route(self, routers: Sequence[int], vcs: Sequence[int]) -> None:
        """Add the consecutive-resource dependencies of one route."""
        hops = [
            (routers[i], routers[i + 1], vcs[i]) for i in range(len(routers) - 1)
        ]
        for a, b in zip(hops[:-1], hops[1:]):
            self.add_dependency(a, b)

    @property
    def num_vertices(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def successors(self, vertex: ChannelVC) -> Set[ChannelVC]:
        return self._succ.get(vertex, set())

    def vertices(self) -> Iterable[ChannelVC]:
        return self._succ.keys()

    def is_acyclic(self) -> bool:
        """Kahn's algorithm: ``True`` iff the CDG has no cycle."""
        indegree: Dict[ChannelVC, int] = {v: 0 for v in self._succ}
        for succs in self._succ.values():
            for w in succs:
                indegree[w] += 1
        stack = [v for v, d in indegree.items() if d == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for w in self._succ[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    stack.append(w)
        return seen == len(self._succ)

    def find_cycle(self) -> Optional[List[ChannelVC]]:
        """Return one dependency cycle (as a vertex list), or ``None``.

        Iterative DFS with colouring; useful to *exhibit* the deadlock
        the paper warns about when indirect routes share a single VC.
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        colour: Dict[ChannelVC, int] = {v: WHITE for v in self._succ}
        parent: Dict[ChannelVC, Optional[ChannelVC]] = {}
        for start in self._succ:
            if colour[start] != WHITE:
                continue
            stack: List[Tuple[ChannelVC, Iterable[ChannelVC]]] = [
                (start, iter(self._succ[start]))
            ]
            colour[start] = GRAY
            parent[start] = None
            while stack:
                v, it = stack[-1]
                advanced = False
                for w in it:
                    if colour[w] == WHITE:
                        colour[w] = GRAY
                        parent[w] = v
                        stack.append((w, iter(self._succ[w])))
                        advanced = True
                        break
                    if colour[w] == GRAY:
                        # Found a back edge w -> ... -> v -> w.
                        cycle = [v]
                        node = v
                        while node != w:
                            node = parent[node]  # type: ignore[assignment]
                            cycle.append(node)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[v] = BLACK
                    stack.pop()
        return None


def _minimal_route_iter(
    topology: Topology, paths: MinimalPaths, sources: Sequence[int], dests: Sequence[int]
):
    for s in sources:
        for d in dests:
            if s == d:
                continue
            for p in paths.paths(s, d):
                yield p


def build_cdg_minimal(
    topology: Topology, vc_policy: VCPolicy
) -> ChannelDependencyGraph:
    """CDG induced by *all* minimal routes between endpoint routers."""
    cdg = ChannelDependencyGraph()
    paths = MinimalPaths(topology)
    endpoints = topology.endpoint_routers()
    for p in _minimal_route_iter(topology, paths, endpoints, endpoints):
        cdg.add_route(p, vc_policy.assign(p, None))
    return cdg


def build_cdg_indirect(
    topology: Topology,
    vc_policy: VCPolicy,
    include_minimal: bool = True,
) -> ChannelDependencyGraph:
    """CDG induced by all indirect routes (and optionally minimal ones).

    Enumerates every ``source -> intermediate`` and ``intermediate ->
    destination`` minimal-leg combination for all eligible
    intermediates.  Exhaustive over route *shapes*: complexity is
    O(|endpoints| x |intermediates| x diversity), fine for the instance
    sizes used in tests.
    """
    cdg = ChannelDependencyGraph()
    paths = MinimalPaths(topology)
    endpoints = topology.endpoint_routers()
    intermediates = topology.valiant_intermediates()

    if include_minimal:
        for p in _minimal_route_iter(topology, paths, endpoints, endpoints):
            cdg.add_route(p, vc_policy.assign(p, None))

    for s in endpoints:
        for i in intermediates:
            if i == s:
                continue
            for leg1 in paths.paths(s, i):
                for d in endpoints:
                    if d == i or d == s:
                        continue
                    for leg2 in paths.paths(i, d):
                        routers = leg1 + leg2[1:]
                        inter_idx = len(leg1) - 1
                        cdg.add_route(routers, vc_policy.assign(routers, inter_idx))
    return cdg


def find_cycle(cdg: ChannelDependencyGraph) -> Optional[List[ChannelVC]]:
    """Convenience wrapper around :meth:`ChannelDependencyGraph.find_cycle`."""
    return cdg.find_cycle()
