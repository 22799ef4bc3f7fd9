"""Single-Path Trees and the generic Stacked-SPT construction
(paper Sec. 2.2.2 -- the class the paper introduces).

An SPT(r1, r2) is a two-level indirect network in which

- level-1 routers (the leaves, carrying ``p = r1`` end-nodes each)
  have ``r1`` up-links,
- level-2 routers have ``r2`` down-links,
- **exactly one** minimal path exists between any pair of level-1
  routers, and the number of level-2 routers is minimal.

It scales to ``R1 = 1 + r1 (r2 - 1)`` level-1 and ``R2 = R1 r1 / r2``
level-2 routers.  Precise constructions are known for two cases (the
paper's own words), both implemented here:

- ``r2 = 2``: level-2 routers are the edges of the complete graph on
  the ``r1 + 1`` level-1 routers (a full mesh with midpoint routers);
- ``r2 = r1`` with ``r1 - 1`` a prime power: the k-ML3B projective-plane
  incidence (:mod:`repro.topology.ml3b`).

**Stacking** (Sec. 2.2.2): instantiate ``s = 2 r1 / r2`` identical
SPTs and merge each s-tuple of corresponding level-2 routers into one
physical radix-``2 r1`` router.  The result -- the SSPT -- preserves
the diameter-2 and (almost everywhere) single-path properties while
every router has the same radix.  ``SSPT(h, 2)`` *is* the h-MLFM and
``SSPT(k, k)`` *is* the two-level k-OFT; the tests verify the
isomorphisms against :class:`repro.topology.MLFM` / `OFT`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.maths.primes import is_prime_power
from repro.topology.base import LINK_DOWN, LINK_UP, Topology
from repro.topology.ml3b import ml3b_table, verify_ml3b

__all__ = ["spt_incidence", "verify_spt_incidence", "SSPT"]


def spt_incidence(r1: int, r2: int) -> np.ndarray:
    """The ``R1 x r1`` incidence table of an SPT(r1, r2).

    Row *i* lists the level-2 routers adjacent to level-1 router *i*.
    Only the two known constructions are supported; anything else
    raises ``ValueError`` (building arbitrary resolvable designs is an
    open combinatorial problem, as the paper notes).
    """
    if r1 < 2 or r2 < 2:
        raise ValueError(f"SPT(r1={r1}, r2={r2}): radices must be >= 2")
    if r2 == 2:
        # Full mesh with midpoint routers: R1 = r1 + 1 leaves; level-2
        # router {a, b} (a < b) sits on the mesh edge (a, b).
        n_leaves = r1 + 1
        pair_id = {}
        next_id = 0
        for a in range(n_leaves):
            for b in range(a + 1, n_leaves):
                pair_id[(a, b)] = next_id
                next_id += 1
        table = np.empty((n_leaves, r1), dtype=np.int64)
        for a in range(n_leaves):
            row = [pair_id[(min(a, b), max(a, b))] for b in range(n_leaves) if b != a]
            table[a, :] = row
        return table
    if r2 == r1:
        if not is_prime_power(r1 - 1):
            raise ValueError(
                f"SPT(r1={r1}, r2={r1}): construction requires r1 - 1 a prime power"
            )
        return ml3b_table(r1)
    raise ValueError(
        f"SPT(r1={r1}, r2={r2}): no known construction (supported: r2 = 2, r2 = r1 "
        f"with r1 - 1 a prime power)"
    )


def verify_spt_incidence(table: np.ndarray, r1: int, r2: int) -> List[str]:
    """Check the SPT defining properties on an incidence table.

    - shape ``R1 x r1`` with ``R1 = 1 + r1 (r2 - 1)``;
    - every level-2 router appears in exactly ``r2`` rows;
    - any two rows share exactly one level-2 router (single minimal
      path between any pair of level-1 routers).
    """
    problems: List[str] = []
    table = np.asarray(table)
    expect_r1_count = 1 + r1 * (r2 - 1)
    if table.shape != (expect_r1_count, r1):
        problems.append(f"shape {table.shape} != ({expect_r1_count}, {r1})")
        return problems
    r2_count = expect_r1_count * r1 // r2
    counts = np.bincount(table.ravel(), minlength=r2_count)
    if len(counts) > r2_count or np.any(counts != r2):
        problems.append(f"level-2 degrees != {r2}")
    rows = [set(map(int, table[i])) for i in range(table.shape[0])]
    for i in range(len(rows)):
        if len(rows[i]) != r1:
            problems.append(f"row {i} has repeats")
        for j in range(i + 1, len(rows)):
            if len(rows[i] & rows[j]) != 1:
                problems.append(f"rows {i},{j} share != 1 router")
                if len(problems) > 10:
                    return problems
    return problems


class SSPT(Topology):
    """Generic Stacked Single-Path Tree.

    Parameters
    ----------
    r1:
        Router-to-router radix of level-1 routers (also the per-router
        end-node count ``p``).
    r2:
        Down-link radix of level-2 routers within one SPT; must divide
        ``2 r1``.  ``r2 = 2`` yields the MLFM, ``r2 = r1`` the OFT.
    p:
        End-nodes per level-1 router; defaults to ``r1`` (balanced).

    Router numbering: the ``s = 2 r1 / r2`` SPT copies' level-1 routers
    first (copy-major, matching the MLFM/OFT morphology order), then
    the merged level-2 routers.
    """

    def __init__(self, r1: int, r2: int, p: int | None = None):
        table = spt_incidence(r1, r2)
        if (2 * r1) % r2 != 0:
            raise ValueError(f"SSPT(r1={r1}, r2={r2}): r2 must divide 2*r1")
        copies = 2 * r1 // r2
        p_val = r1 if p is None else int(p)
        if p_val < 0:
            raise ValueError(f"SSPT: p={p_val} must be non-negative")

        n_l1 = table.shape[0]  # per copy
        n_l2 = n_l1 * r1 // r2  # merged across copies
        num_bottom = copies * n_l1
        num_routers = num_bottom + n_l2

        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        for copy in range(copies):
            base = copy * n_l1
            for i in range(n_l1):
                leaf = base + i
                for j in map(int, table[i]):
                    top = num_bottom + j
                    adjacency[leaf].append(top)
                    adjacency[top].append(leaf)

        nodes_per_router = [p_val] * num_bottom + [0] * n_l2
        super().__init__(
            name=f"SSPT(r1={r1},r2={r2})",
            adjacency=adjacency,
            nodes_per_router=nodes_per_router,
            params={"r1": r1, "r2": r2, "p": p_val, "copies": copies},
        )
        self.r1 = r1
        self.r2 = r2
        self.p = p_val
        self.copies = copies
        self.leaves_per_copy = n_l1
        self.num_bottom = num_bottom
        self.num_top = n_l2
        self.table = table

    # -- structure ---------------------------------------------------------

    def is_leaf(self, router: int) -> bool:
        """Level-1 (end-node-bearing) router?"""
        return router < self.num_bottom

    def copy_of(self, router: int) -> int:
        """SPT copy index of a level-1 router."""
        if not self.is_leaf(router):
            raise ValueError(f"SSPT: router {router} is a level-2 router")
        return router // self.leaves_per_copy

    def index_in_copy(self, router: int) -> int:
        """Position of a level-1 router inside its SPT copy."""
        if not self.is_leaf(router):
            raise ValueError(f"SSPT: router {router} is a level-2 router")
        return router % self.leaves_per_copy

    def counterparts(self, router: int) -> List[int]:
        """Corresponding level-1 routers in the *other* copies.

        These are the only endpoint-router pairs with path diversity
        (``r1`` minimal paths; Sec. 2.2.2).
        """
        idx = self.index_in_copy(router)
        return [
            c * self.leaves_per_copy + idx
            for c in range(self.copies)
            if c != self.copy_of(router)
        ]

    # -- routing hooks ---------------------------------------------------------

    def link_class(self, u: int, v: int) -> int:
        """Toward the merged top level is UP, away is DOWN."""
        return LINK_UP if not self.is_leaf(v) else LINK_DOWN

    # -- formulas --------------------------------------------------------------

    @staticmethod
    def expected_num_nodes(r1: int, r2: int) -> int:
        """``N = (r1^2 (r2 - 1) + r1) * 2 r1 / r2`` (Sec. 2.2.2)."""
        return (r1 * r1 * (r2 - 1) + r1) * 2 * r1 // r2
