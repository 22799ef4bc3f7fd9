"""Dragonfly topology (related-work reference; paper Sec. 1).

The Dragonfly [Kim et al., ISCA '08] is the most widely deployed
cost-effective alternative to Fat-Trees and serves as a related-work
comparison point (diameter 3, cost comparable to the diameter-two
designs at lower scalability per radix).  We implement the balanced
canonical configuration: groups of ``a`` fully-connected routers, ``h``
global links per router, ``p`` end-nodes per router, with ``g = a*h + 1``
groups so that every group pair is joined by exactly one global link
(the "absolute" arrangement: router ``k`` of a group owns global links
``k*h .. k*h + h - 1``).

Balanced recommendation: ``a = 2p = 2h``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.topology.base import Topology

__all__ = ["Dragonfly"]


class Dragonfly(Topology):
    """Canonical one-link-per-group-pair Dragonfly.

    Parameters
    ----------
    p:
        End-nodes per router.
    a:
        Routers per group (default ``2p``).
    h:
        Global links per router (default ``p``).
    """

    def __init__(self, p: int, a: int | None = None, h: int | None = None):
        if p < 1:
            raise ValueError(f"Dragonfly: p={p} must be >= 1")
        a_val = 2 * p if a is None else int(a)
        h_val = p if h is None else int(h)
        if a_val < 1 or h_val < 1:
            raise ValueError(f"Dragonfly: a={a_val}, h={h_val} must be >= 1")
        g = a_val * h_val + 1
        num_routers = g * a_val

        def rid(group: int, idx: int) -> int:
            return group * a_val + idx

        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        # Intra-group full mesh.
        for group in range(g):
            for i in range(a_val):
                for j in range(i + 1, a_val):
                    adjacency[rid(group, i)].append(rid(group, j))
                    adjacency[rid(group, j)].append(rid(group, i))
        # Global links, absolute arrangement: global channel slot
        # s in [0, a*h) of group ``src`` targets group offset s+1, and is
        # owned by router s // h.
        for src in range(g):
            for slot in range(a_val * h_val):
                dst = (src + slot + 1) % g
                if dst == src:
                    continue
                # The reverse slot in dst that points back at src.
                back = (src - dst - 1) % g
                if back >= a_val * h_val:
                    continue
                u = rid(src, slot // h_val)
                v = rid(dst, back // h_val)
                if v not in adjacency[u]:
                    adjacency[u].append(v)
                    adjacency[v].append(u)

        super().__init__(
            name=f"DF(p={p},a={a_val},h={h_val})",
            adjacency=adjacency,
            nodes_per_router=[p] * num_routers,
            params={"p": p, "a": a_val, "h": h_val, "g": g},
        )
        self.p = p
        self.a = a_val
        self.h = h_val
        self.g = g

    def group_of(self, router: int) -> int:
        """Group index of a router."""
        return router // self.a

    def coords(self, router: int) -> Tuple[int, int]:
        """``(group, index-in-group)``."""
        return divmod(router, self.a)

    def valiant_intermediates(self) -> List[int]:
        """Any router may serve as a Valiant intermediate."""
        return list(range(self.num_routers))
