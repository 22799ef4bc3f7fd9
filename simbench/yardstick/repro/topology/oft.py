"""Two-Level Orthogonal Fat-Tree (k-OFT).

Paper Sec. 2.2.4: stacking two SPTs with ``r1 = r2 = k`` produces the
two-level ``k``-OFT, a three-layer indirect network:

- levels L0 and L2 each have ``RL = 1 + k(k-1)`` routers with ``k``
  end-nodes apiece;
- the common level L1 has ``RL`` routers with no end-nodes;
- L0 router *i* and L2 router *i* both connect to the L1 routers listed
  in row *i* of the ``k``-ML3B table (the "orthogonal" wiring), giving
  every router radix ``2k``.

Totals: ``N = 2 k RL = 2k^3 - 2k^2 + 2k`` end-nodes, ``R = 3 RL``
routers, cost 3 ports / 2 links per end-node.

Router ids follow the paper's morphology order: L0 routers ``0..RL-1``,
L1 routers ``RL..2RL-1``, L2 routers ``2RL..3RL-1``; end-node ids are
contiguous over L0 then L2 (L1 has none).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.topology.base import LINK_DOWN, LINK_UP, Topology
from repro.topology.ml3b import ml3b_table, valid_oft_k

__all__ = ["OFT"]


class OFT(Topology):
    """Two-level Orthogonal Fat-Tree built from the ``k``-ML3B.

    Parameters
    ----------
    k:
        Router-to-router radix of each SPT level; ``k - 1`` must be a
        prime power (the paper describes the prime case; our GF-based
        MOLS extend the identical construction to prime powers).  Full
        router radix is ``2k``.
    p:
        End-nodes per L0/L2 router; default ``k`` (the paper's balanced
        choice, Sec. 2.2.2).
    """

    LEVEL_L0 = 0
    LEVEL_L1 = 1
    LEVEL_L2 = 2

    def __init__(self, k: int, p: int | None = None):
        if not valid_oft_k(k):
            raise ValueError(f"OFT: k={k} requires k-1 a prime power and k >= 3")
        p_val = k if p is None else int(p)
        if p_val < 0:
            raise ValueError(f"OFT: p={p_val} must be non-negative")

        table = ml3b_table(k)
        rl = table.shape[0]
        num_routers = 3 * rl
        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        for i in range(rl):
            l0 = i
            l2 = 2 * rl + i
            for j in map(int, table[i]):
                l1 = rl + j
                adjacency[l0].append(l1)
                adjacency[l1].append(l0)
                adjacency[l2].append(l1)
                adjacency[l1].append(l2)

        nodes_per_router = [p_val] * rl + [0] * rl + [p_val] * rl
        super().__init__(
            name=f"OFT(k={k})" if p_val == k else f"OFT(k={k},p={p_val})",
            adjacency=adjacency,
            nodes_per_router=nodes_per_router,
            params={"k": k, "p": p_val, "RL": rl},
        )
        self.k = k
        self.p = p_val
        self.rl = rl
        self.table = table

    # -- structure queries ---------------------------------------------------

    def level(self, router: int) -> int:
        """0, 1 or 2 -- the layer of a router id."""
        return router // self.rl

    def index_in_level(self, router: int) -> int:
        """Position of a router within its layer."""
        return router % self.rl

    def symmetric_counterpart(self, router: int) -> int:
        """The L2 (resp. L0) router wired identically to this L0 (resp. L2) one.

        Paper Sec. 2.3.3: routers ``(0, i)`` and ``(2, i)`` connect to the
        same L1 routers, which is the only source of path diversity.
        Raises ``ValueError`` for L1 routers.
        """
        lvl = self.level(router)
        if lvl == self.LEVEL_L0:
            return router + 2 * self.rl
        if lvl == self.LEVEL_L2:
            return router - 2 * self.rl
        raise ValueError(f"OFT: L1 router {router} has no symmetric counterpart")

    # -- routing hooks ---------------------------------------------------------

    def link_class(self, u: int, v: int) -> int:
        """Channels toward L1 are UP, away from L1 are DOWN (Sec. 3.4)."""
        return LINK_UP if self.level(v) == self.LEVEL_L1 else LINK_DOWN

    # -- formulas (used by tests and Fig. 3) ------------------------------------

    @staticmethod
    def expected_num_nodes(k: int) -> int:
        """``N = 2k^3 - 2k^2 + 2k``."""
        return 2 * k**3 - 2 * k**2 + 2 * k

    @staticmethod
    def expected_num_routers(k: int) -> int:
        """``R = 3k^2 - 3k + 3``."""
        return 3 * k**2 - 3 * k + 3
