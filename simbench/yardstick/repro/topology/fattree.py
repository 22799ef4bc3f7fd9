"""Two-level and three-level Fat-Trees (comparison baselines).

Paper Sec. 2.2.1 and Fig. 3: the full-bisection two-level Fat-Tree built
from radix-``r`` routers has ``r`` level-1 routers with ``p = r/2``
end-nodes each, ``r/2`` level-2 routers, ``N = r^2 / 2`` end-nodes and a
cost of 3 ports / 2 links per end-node; its diameter is 2.

The three-level Fat-Tree baseline of Fig. 3 (``N ~ r^3/4``, 5 ports and
3 links per end-node, diameter 4) is the classic folded-Clos / "pod"
construction: ``r`` pods of ``r/2`` edge + ``r/2`` aggregation routers,
plus ``(r/2)^2`` core routers.
"""

from __future__ import annotations

from typing import List

from repro.topology.base import LINK_DOWN, LINK_UP, Topology

__all__ = ["FatTree2L", "FatTree3L"]


class FatTree2L(Topology):
    """Full-bisection two-level Fat-Tree from radix-``r`` routers.

    Level-1 router ``i`` (ids ``0 .. r-1``) has one link to each of the
    ``r/2`` level-2 routers (ids ``r .. 3r/2 - 1``) -- the graph is the
    complete bipartite ``K(r, r/2)``.
    """

    def __init__(self, r: int):
        if r < 2 or r % 2 != 0:
            raise ValueError(f"FatTree2L: radix r={r} must be even and >= 2")
        half = r // 2
        num_l1 = r
        num_l2 = half
        num_routers = num_l1 + num_l2
        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        for i in range(num_l1):
            for j in range(num_l2):
                adjacency[i].append(num_l1 + j)
                adjacency[num_l1 + j].append(i)
        nodes_per_router = [half] * num_l1 + [0] * num_l2
        super().__init__(
            name=f"FT2(r={r})",
            adjacency=adjacency,
            nodes_per_router=nodes_per_router,
            params={"r": r, "p": half},
        )
        self.r = r
        self.p = half
        self.num_l1 = num_l1
        self.num_l2 = num_l2

    def is_leaf(self, router: int) -> bool:
        """``True`` for level-1 (end-node-bearing) routers."""
        return router < self.num_l1

    def link_class(self, u: int, v: int) -> int:
        """Up toward level 2, down toward level 1."""
        return LINK_UP if not self.is_leaf(v) else LINK_DOWN

    @staticmethod
    def expected_num_nodes(r: int) -> int:
        """``N = r^2 / 2``."""
        return r * r // 2


class FatTree3L(Topology):
    """Three-level folded-Clos Fat-Tree (Fig. 3 baseline; diameter 4).

    ``r`` pods; pod ``g`` has edge routers ``(g, 0..r/2-1)`` each with
    ``r/2`` end-nodes and aggregation routers ``(g, 0..r/2-1)``; pods are
    internally complete-bipartite between edge and aggregation.  Core
    router ``(a, c)`` (``a, c in [0, r/2)``) connects to aggregation
    router ``a`` of every pod.
    """

    def __init__(self, r: int):
        if r < 2 or r % 2 != 0:
            raise ValueError(f"FatTree3L: radix r={r} must be even and >= 2")
        half = r // 2
        num_edge = r * half
        num_agg = r * half
        num_core = half * half
        num_routers = num_edge + num_agg + num_core

        def edge_id(pod: int, idx: int) -> int:
            return pod * half + idx

        def agg_id(pod: int, idx: int) -> int:
            return num_edge + pod * half + idx

        def core_id(a: int, c: int) -> int:
            return num_edge + num_agg + a * half + c

        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        for pod in range(r):
            for e in range(half):
                for a in range(half):
                    adjacency[edge_id(pod, e)].append(agg_id(pod, a))
                    adjacency[agg_id(pod, a)].append(edge_id(pod, e))
        for pod in range(r):
            for a in range(half):
                for c in range(half):
                    adjacency[agg_id(pod, a)].append(core_id(a, c))
                    adjacency[core_id(a, c)].append(agg_id(pod, a))

        nodes_per_router = [half] * num_edge + [0] * (num_agg + num_core)
        super().__init__(
            name=f"FT3(r={r})",
            adjacency=adjacency,
            nodes_per_router=nodes_per_router,
            params={"r": r, "p": half},
        )
        self.r = r
        self.p = half
        self.num_edge = num_edge
        self.num_agg = num_agg
        self.num_core = num_core

    def level(self, router: int) -> int:
        """0 = edge, 1 = aggregation, 2 = core."""
        if router < self.num_edge:
            return 0
        if router < self.num_edge + self.num_agg:
            return 1
        return 2

    def link_class(self, u: int, v: int) -> int:
        """Up toward the core, down toward the edge."""
        return LINK_UP if self.level(v) > self.level(u) else LINK_DOWN

    @staticmethod
    def expected_num_nodes(r: int) -> int:
        """``N = r^3 / 4``."""
        return r**3 // 4
