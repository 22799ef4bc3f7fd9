"""Two-dimensional HyperX (Generalized Hypercube).

Paper Sec. 2.1.1: the Cartesian product of two fully-connected graphs.
Routers form an ``s1 x s2`` grid; routers sharing a row or a column are
directly connected.  The balanced configuration uses ``s1 = s2 = r/3 + 1``
and ``p = r/3`` end-nodes per router, giving ``N = (r/3) (r/3 + 1)^2``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.topology.base import Topology

__all__ = ["HyperX2D"]


class HyperX2D(Topology):
    """Balanced (or custom) two-dimensional HyperX.

    Parameters
    ----------
    s1, s2:
        Sizes of the fully-connected graphs in each dimension.
    p:
        End-nodes per router; default the balanced ``(s1 - 1 + s2 - 1) // 2``
        is *not* used -- the paper's balanced choice is one third of the
        radix, i.e. ``p`` such that ``p == s1 - 1 == s2 - 1`` when square;
        by default ``p = min(s1, s2) - 1``.
    """

    def __init__(self, s1: int, s2: int, p: int | None = None):
        if s1 < 2 or s2 < 2:
            raise ValueError(f"HyperX2D: dimensions ({s1},{s2}) must be >= 2")
        p_val = min(s1, s2) - 1 if p is None else int(p)
        if p_val < 0:
            raise ValueError(f"HyperX2D: p={p_val} must be non-negative")
        num_routers = s1 * s2

        def rid(i: int, j: int) -> int:
            return i * s2 + j

        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        for i in range(s1):
            for j in range(s2):
                me = rid(i, j)
                for jj in range(s2):
                    if jj != j:
                        adjacency[me].append(rid(i, jj))
                for ii in range(s1):
                    if ii != i:
                        adjacency[me].append(rid(ii, j))

        super().__init__(
            name=f"HyperX({s1}x{s2},p={p_val})",
            adjacency=adjacency,
            nodes_per_router=[p_val] * num_routers,
            params={"s1": s1, "s2": s2, "p": p_val},
        )
        self.s1 = s1
        self.s2 = s2
        self.p = p_val

    @classmethod
    def balanced(cls, r: int) -> "HyperX2D":
        """Balanced square HyperX from router radix *r* (must be divisible by 3).

        ``s1 = s2 = r/3 + 1``, ``p = r/3`` (paper Sec. 2.1.1).
        """
        if r % 3 != 0 or r < 3:
            raise ValueError(f"HyperX2D.balanced: radix {r} must be a positive multiple of 3")
        side = r // 3 + 1
        return cls(side, side, r // 3)

    def coords(self, router: int) -> Tuple[int, int]:
        """Grid coordinates ``(i, j)`` of a router id."""
        return divmod(router, self.s2)

    def valiant_intermediates(self) -> List[int]:
        """Any router may serve as a Valiant intermediate (direct topology)."""
        return list(range(self.num_routers))

    @staticmethod
    def expected_num_nodes(r: int) -> int:
        """``N = (r/3) (r/3 + 1)^2`` for the balanced configuration."""
        if r % 3 != 0:
            raise ValueError(f"radix {r} not divisible by 3")
        third = r // 3
        return third * (third + 1) ** 2
