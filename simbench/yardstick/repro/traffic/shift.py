"""Shift (cyclic offset) permutation traffic.

Node ``i`` sends to ``(i + shift) mod N``.  With ``shift = p`` (the
number of nodes per router) this moves every router's traffic to the
next router -- the particular worst-case instantiation the paper uses
for the MLFM (shift ``h``) and the OFT (shift ``k``), Sec. 4.2.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.base import PermutationTraffic

__all__ = ["ShiftTraffic", "shift_permutation"]


def shift_permutation(num_nodes: int, shift: int) -> np.ndarray:
    """Destination array of the shift pattern."""
    if num_nodes < 2:
        raise ValueError(f"shift_permutation: need >= 2 nodes, got {num_nodes}")
    if shift % num_nodes == 0:
        raise ValueError(f"shift {shift} is a multiple of N={num_nodes} (self-traffic)")
    return (np.arange(num_nodes) + shift) % num_nodes


class ShiftTraffic(PermutationTraffic):
    """Permutation traffic ``i -> (i + shift) mod N``."""

    def __init__(self, num_nodes: int, shift: int):
        super().__init__(shift_permutation(num_nodes, shift))
        self.shift = shift
