"""Multilevel graph bisection (METIS substitute for Fig. 4).

The paper approximates bisection bandwidth with a graph-partitioning
tool [Karypis & Kumar].  This module implements the same multilevel
scheme from scratch:

1. **Coarsening** -- heavy-edge matching merges matched vertex pairs
   (summing vertex and parallel-edge weights) until the graph is small.
2. **Initial partition** -- greedy BFS region growing from random seeds
   to half the total vertex weight, multiple restarts.
3. **Refinement** -- Fiduccia-Mattheyses-style boundary passes with
   vertex moves chosen by gain, allowing a bounded imbalance, with
   hill-climbing (the best prefix of each pass is kept).
4. **Uncoarsening** -- project the partition up each level and refine.

Vertex weights let callers balance by *end-node count* (the quantity
that matters for bisection bandwidth) while hub routers float freely.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Graph", "bisect", "cut_weight", "BisectionResult"]


class Graph:
    """Undirected weighted graph in adjacency-list form."""

    def __init__(self, num_vertices: int, vertex_weights: Optional[Sequence[float]] = None):
        self.n = num_vertices
        self.vwgt: List[float] = (
            list(vertex_weights) if vertex_weights is not None else [1.0] * num_vertices
        )
        if len(self.vwgt) != num_vertices:
            raise ValueError("vertex_weights length mismatch")
        # adj[u] -> {v: edge weight}
        self.adj: List[Dict[int, float]] = [dict() for _ in range(num_vertices)]

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add (or reinforce) an undirected edge."""
        if u == v:
            return
        self.adj[u][v] = self.adj[u].get(v, 0.0) + weight
        self.adj[v][u] = self.adj[v].get(u, 0.0) + weight

    @property
    def total_vertex_weight(self) -> float:
        return sum(self.vwgt)

    @classmethod
    def from_topology(cls, topology, weight_by_nodes: bool = True) -> "Graph":
        """Router graph of a topology; vertices weighted by end-node count."""
        weights = (
            [topology.nodes_attached(r) for r in range(topology.num_routers)]
            if weight_by_nodes
            else None
        )
        g = cls(topology.num_routers, weights)
        for a, b in topology.edges():
            g.add_edge(a, b, 1.0)
        return g


@dataclass
class BisectionResult:
    """Outcome of :func:`bisect`."""

    parts: List[int]  # 0/1 per vertex
    cut: float
    part_weights: Tuple[float, float]
    imbalance: float  # max part weight / ideal half


def cut_weight(graph: Graph, parts: Sequence[int]) -> float:
    """Total weight of edges crossing the partition."""
    cut = 0.0
    for u in range(graph.n):
        pu = parts[u]
        for v, w in graph.adj[u].items():
            if v > u and parts[v] != pu:
                cut += w
    return cut


def _coarsen(graph: Graph, rng: random.Random) -> Tuple[Graph, List[int]]:
    """One level of heavy-edge matching; returns (coarse graph, vertex map)."""
    order = list(range(graph.n))
    rng.shuffle(order)
    match = [-1] * graph.n
    for u in order:
        if match[u] >= 0:
            continue
        best, best_w = -1, -1.0
        for v, w in graph.adj[u].items():
            if match[v] < 0 and w > best_w:
                best, best_w = v, w
        if best >= 0:
            match[u] = best
            match[best] = u
        else:
            match[u] = u
    cmap = [-1] * graph.n
    next_id = 0
    for u in range(graph.n):
        if cmap[u] >= 0:
            continue
        v = match[u]
        cmap[u] = next_id
        if v != u:
            cmap[v] = next_id
        next_id += 1
    coarse = Graph(next_id, [0.0] * next_id)
    for u in range(graph.n):
        coarse.vwgt[cmap[u]] += graph.vwgt[u]
    for u in range(graph.n):
        cu = cmap[u]
        for v, w in graph.adj[u].items():
            if v > u:
                cv = cmap[v]
                if cu != cv:
                    coarse.add_edge(cu, cv, w)
    return coarse, cmap


def _grow_initial(graph: Graph, rng: random.Random) -> List[int]:
    """Greedy BFS region growing to half the total vertex weight."""
    target = graph.total_vertex_weight / 2.0
    seed = rng.randrange(graph.n)
    parts = [1] * graph.n
    weight = 0.0
    frontier = [seed]
    seen = {seed}
    while frontier and weight < target:
        u = frontier.pop(rng.randrange(len(frontier)))
        if weight + graph.vwgt[u] > target and weight > 0:
            continue
        parts[u] = 0
        weight += graph.vwgt[u]
        for v in graph.adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return parts


def _refine(graph: Graph, parts: List[int], max_imbalance: float, passes: int = 8) -> None:
    """FM-style boundary refinement with hill climbing (in place).

    Within a pass, moves may transiently exceed the balance bound by up
    to one vertex weight (so that swap-like sequences are reachable);
    only *balanced* prefixes are accepted as checkpoints, and the pass
    rolls back to the best one.
    """
    total = graph.total_vertex_weight
    half = total / 2.0
    strict = half * max_imbalance
    max_vw = max(graph.vwgt) if graph.n else 0.0
    relaxed = max(strict, max_vw)
    pw = [0.0, 0.0]
    for u in range(graph.n):
        pw[parts[u]] += graph.vwgt[u]

    def gain(u: int) -> float:
        g = 0.0
        pu = parts[u]
        for v, w in graph.adj[u].items():
            g += w if parts[v] != pu else -w
        return g

    def balanced() -> bool:
        return max(pw) <= half + strict + 1e-9

    for _ in range(passes):
        moved: List[Tuple[int, float]] = []
        locked = [False] * graph.n
        improved_any = False
        cum = 0.0
        best_cum = 0.0
        best_prefix = 0
        for _step in range(graph.n):
            best_u = -1
            best_score = float("-inf")
            best_raw = 0.0
            is_balanced = balanced()
            for u in range(graph.n):
                if locked[u]:
                    continue
                pu = parts[u]
                # Relaxed in-pass balance: allow overshoot by one vertex.
                if pw[1 - pu] + graph.vwgt[u] > half + relaxed:
                    continue
                # Only consider boundary vertices (fast reject); when the
                # state is imbalanced any vertex may move so balance can
                # always be restored.
                if is_balanced and not any(parts[v] != pu for v in graph.adj[u]):
                    continue
                raw = gain(u)
                score = raw
                # When imbalanced, prioritise moves off the heavy side.
                if not is_balanced and pw[pu] < pw[1 - pu]:
                    score -= total
                if score > best_score:
                    best_u, best_score, best_raw = u, score, raw
            if best_u < 0:
                break
            pu = parts[best_u]
            parts[best_u] = 1 - pu
            pw[pu] -= graph.vwgt[best_u]
            pw[1 - pu] += graph.vwgt[best_u]
            locked[best_u] = True
            moved.append((best_u, best_raw))
            cum += best_raw
            if balanced() and cum > best_cum + 1e-12:
                best_cum = cum
                best_prefix = len(moved)
                improved_any = True
        # Roll back moves beyond the best balanced prefix.
        for u, _g in reversed(moved[best_prefix:]):
            pu = parts[u]
            parts[u] = 1 - pu
            pw[pu] -= graph.vwgt[u]
            pw[1 - pu] += graph.vwgt[u]
        if not improved_any:
            break


def bisect(
    graph: Graph,
    max_imbalance: float = 0.05,
    restarts: int = 8,
    seed: int = 0,
    coarsen_to: int = 48,
) -> BisectionResult:
    """Multilevel weighted bisection of *graph*.

    ``max_imbalance`` is the allowed deviation of each side from half
    the total vertex weight (0.05 = 5%).  Returns the best of
    *restarts* runs.
    """
    if graph.n < 2:
        raise ValueError("bisect: graph must have at least 2 vertices")
    rng = random.Random(seed)
    best: Optional[BisectionResult] = None

    for _ in range(restarts):
        # Coarsening phase.
        levels: List[Tuple[Graph, List[int]]] = []
        g = graph
        while g.n > coarsen_to:
            coarse, cmap = _coarsen(g, rng)
            if coarse.n >= g.n:  # no progress (e.g. star graphs)
                break
            levels.append((g, cmap))
            g = coarse

        parts = _grow_initial(g, rng)
        _refine(g, parts, max_imbalance)

        # Uncoarsening with refinement at each level.
        for fine, cmap in reversed(levels):
            fine_parts = [parts[cmap[u]] for u in range(fine.n)]
            parts = fine_parts
            _refine(fine, parts, max_imbalance)
            g = fine

        cut = cut_weight(graph, parts)
        pw0 = sum(graph.vwgt[u] for u in range(graph.n) if parts[u] == 0)
        pw1 = graph.total_vertex_weight - pw0
        imbalance = max(pw0, pw1) / (graph.total_vertex_weight / 2.0)
        result = BisectionResult(parts=parts, cut=cut, part_weights=(pw0, pw1), imbalance=imbalance)
        if best is None or result.cut < best.cut:
            best = result
    assert best is not None
    return best
