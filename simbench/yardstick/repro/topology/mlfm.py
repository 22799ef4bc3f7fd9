"""Multi-Layer Full-Mesh (MLFM).

Paper Sec. 2.2.3: the ``(h, l, p)``-MLFM consists of ``l`` layers of
``h + 1`` local routers (LRs) each, with ``p`` end-nodes per LR.  The
direct link of the full mesh between LR pair ``{a, b}`` of every layer
is replaced by two links through a shared global router (GR): GR
``{a, b}`` connects to ``LR(layer, a)`` and ``LR(layer, b)`` in *every*
layer, so there are ``Rg = h(h+1)/2`` GRs of radix ``2l``; LRs have
radix ``h + p``.

The single-radix instance studied in the paper is the ``h``-MLFM
(``h = l = p``), with ``R = 3h(h+1)/2`` radix-``2h`` routers and
``N = h^3 + h^2`` end-nodes.

Router ids follow the paper's morphology order: LRs first, ordered by
``(layer, index)`` (so node ids are contiguous intra-layer, then
inter-layer, matching Sec. 4.4's contiguous mapping), then GRs ordered
by pair ``(a, b)``, ``a < b``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.base import LINK_DOWN, LINK_UP, Topology

__all__ = ["MLFM"]


class MLFM(Topology):
    """Multi-Layer Full-Mesh topology.

    Parameters
    ----------
    h:
        Full-mesh degree: each layer has ``h + 1`` local routers.
    l:
        Number of layers (default ``h``, the single-radix ``h``-MLFM).
    p:
        End-nodes per local router (default ``h``).
    """

    def __init__(self, h: int, l: int | None = None, p: int | None = None):
        if h < 1:
            raise ValueError(f"MLFM: h={h} must be >= 1")
        l_val = h if l is None else int(l)
        p_val = h if p is None else int(p)
        if l_val < 1:
            raise ValueError(f"MLFM: l={l_val} must be >= 1")
        if p_val < 0:
            raise ValueError(f"MLFM: p={p_val} must be non-negative")

        num_lr = l_val * (h + 1)
        pairs: List[Tuple[int, int]] = [(a, b) for a in range(h + 1) for b in range(a + 1, h + 1)]
        pair_index: Dict[Tuple[int, int], int] = {ab: i for i, ab in enumerate(pairs)}
        num_gr = len(pairs)
        num_routers = num_lr + num_gr

        def lr_id(layer: int, idx: int) -> int:
            return layer * (h + 1) + idx

        def gr_id(a: int, b: int) -> int:
            return num_lr + pair_index[(a, b) if a < b else (b, a)]

        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        for layer in range(l_val):
            for a, b in pairs:
                g = gr_id(a, b)
                for idx in (a, b):
                    lr = lr_id(layer, idx)
                    adjacency[lr].append(g)
                    adjacency[g].append(lr)

        nodes_per_router = [p_val] * num_lr + [0] * num_gr
        is_h_mlfm = l_val == h and p_val == h
        name = f"MLFM(h={h})" if is_h_mlfm else f"MLFM(h={h},l={l_val},p={p_val})"
        super().__init__(
            name=name,
            adjacency=adjacency,
            nodes_per_router=nodes_per_router,
            params={"h": h, "l": l_val, "p": p_val},
        )
        self.h = h
        self.l = l_val
        self.p = p_val
        self.num_local_routers = num_lr
        self.num_global_routers = num_gr
        self._pairs = pairs

    # -- structure queries ------------------------------------------------

    def is_local(self, router: int) -> bool:
        """``True`` iff *router* is a local router (has end-nodes)."""
        return router < self.num_local_routers

    def layer_of(self, router: int) -> int:
        """Layer of a local router; raises for global routers."""
        if not self.is_local(router):
            raise ValueError(f"MLFM: router {router} is a global router")
        return router // (self.h + 1)

    def column_of(self, router: int) -> int:
        """Column (relative index within its layer) of a local router.

        Local routers in the same column are connected by ``h`` minimal
        paths (paper Sec. 2.3.3).
        """
        if not self.is_local(router):
            raise ValueError(f"MLFM: router {router} is a global router")
        return router % (self.h + 1)

    def gr_pair(self, router: int) -> Tuple[int, int]:
        """The LR-index pair ``(a, b)`` served by a global router."""
        if self.is_local(router):
            raise ValueError(f"MLFM: router {router} is a local router")
        return self._pairs[router - self.num_local_routers]

    # -- routing hooks -------------------------------------------------------

    def link_class(self, u: int, v: int) -> int:
        """Channels toward a GR are UP, away from it DOWN (Sec. 3.4)."""
        return LINK_UP if not self.is_local(v) else LINK_DOWN

    # -- formulas (used by tests and Fig. 3) ----------------------------------

    @staticmethod
    def expected_num_nodes(h: int) -> int:
        """``N = h^3 + h^2`` for the single-radix ``h``-MLFM."""
        return h**3 + h**2

    @staticmethod
    def expected_num_routers(h: int) -> int:
        """``R = 3h(h+1)/2`` for the single-radix ``h``-MLFM."""
        return 3 * h * (h + 1) // 2
