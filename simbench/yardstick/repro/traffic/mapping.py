"""Process-to-node mappings and torus geometry helpers (paper Sec. 4.4).

The paper assigns processes to nodes *contiguously* (process ``i`` on
node ``i``), with the node order derived from each topology's
morphology -- which our router/node numbering already encodes (see
:mod:`repro.topology.base`).  For the nearest-neighbour exchange, the
processes form the largest 3D torus that fits the node count, ranked in
dimension order (X fastest).
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["torus_rank", "torus_coords", "best_torus_dims", "paper_torus_dims"]


def torus_rank(coords: Tuple[int, int, int], dims: Tuple[int, int, int]) -> int:
    """Rank of torus coordinates ``(x, y, z)``, X fastest-varying."""
    x, y, z = coords
    dx, dy, dz = dims
    if not (0 <= x < dx and 0 <= y < dy and 0 <= z < dz):
        raise ValueError(f"coords {coords} out of torus {dims}")
    return x + dx * (y + dy * z)


def torus_coords(rank: int, dims: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """Inverse of :func:`torus_rank`."""
    dx, dy, dz = dims
    if not (0 <= rank < dx * dy * dz):
        raise ValueError(f"rank {rank} out of torus {dims}")
    x = rank % dx
    y = (rank // dx) % dy
    z = rank // (dx * dy)
    return (x, y, z)


def paper_torus_dims(topology) -> Tuple[int, int, int]:
    """The torus shape the paper pairs with each topology (Sec. 4.4).

    - MLFM: ``(p, h+1, l)`` -- with the contiguous mapping, X exchanges
      stay inside a router, Y inside a layer, Z across a router column
      (exactly the structure behind Fig. 14's MLFM discussion; for
      ``h = 15`` this is the paper's 15 x 16 x 15).
    - Slim Fly: ``(q, q, 2p)`` -- the paper's 13 x 13 x 18 / 13 x 13 x 20.
    - Anything else (incl. OFT, whose aligned torus would be the
      "highly impractical" ``k x RL x 2``): the largest near-cubic fit,
      as the paper does for the OFT (12 x 14 x 19).
    """
    from repro.topology.mlfm import MLFM
    from repro.topology.slimfly import SlimFly

    if isinstance(topology, MLFM):
        return (topology.p, topology.h + 1, topology.l)
    if isinstance(topology, SlimFly):
        dims = (topology.q, topology.q, 2 * topology.p)
        if dims[0] * dims[1] * dims[2] <= topology.num_nodes:
            return dims
    return best_torus_dims(topology.num_nodes)


def best_torus_dims(num_nodes: int) -> Tuple[int, int, int]:
    """Largest (then most cubic) 3D torus with at most *num_nodes* ranks.

    Mirrors the paper's choice of "the largest 3D torus that fits in
    each topology" (e.g. 15 x 16 x 15 for the 3600-node MLFM).  Ties on
    volume are broken toward the smallest max/min side ratio.
    """
    if num_nodes < 8:
        raise ValueError(f"best_torus_dims: need >= 8 nodes, got {num_nodes}")
    best: Tuple[int, int, int] = (1, 1, 1)
    best_key = (-1, float("inf"))
    # a <= b <= c without loss of generality; a <= N^(1/3).
    a = 1
    while a * a * a <= num_nodes:
        b = a
        while a * b * b <= num_nodes:
            c = num_nodes // (a * b)
            if c >= b:
                volume = a * b * c
                key = (volume, c / a)
                if key[0] > best_key[0] or (key[0] == best_key[0] and key[1] < best_key[1]):
                    best_key = key
                    best = (a, b, c)
            b += 1
        a += 1
    return best
