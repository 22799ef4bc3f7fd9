"""Traffic patterns and workloads (paper Sec. 4.2-4.4).

Synthetic (rate-driven): :class:`UniformRandom`, :class:`ShiftTraffic`,
:class:`PermutationTraffic`, and the per-topology adversarial patterns
from :func:`worst_case_traffic`.

Exchanges (finite): :class:`AllToAll` and :class:`NearestNeighbor3D`.
"""

from repro.traffic.alltoall import AllToAll
from repro.traffic.base import ExchangeTraffic, PermutationTraffic, SyntheticTraffic
from repro.traffic.classic import (
    BitComplement,
    BitReverse,
    HotspotTraffic,
    Tornado,
    Transpose,
)
from repro.traffic.mapping import best_torus_dims, paper_torus_dims, torus_coords, torus_rank
from repro.traffic.nearest import NearestNeighbor3D
from repro.traffic.shift import ShiftTraffic, shift_permutation
from repro.traffic.uniform import UniformRandom
from repro.traffic.worstcase import (
    SlimFlyWorstCase,
    slimfly_worst_case_chain,
    worst_case_traffic,
)

__all__ = [
    "SyntheticTraffic",
    "ExchangeTraffic",
    "PermutationTraffic",
    "UniformRandom",
    "BitComplement",
    "BitReverse",
    "Transpose",
    "Tornado",
    "HotspotTraffic",
    "ShiftTraffic",
    "shift_permutation",
    "worst_case_traffic",
    "SlimFlyWorstCase",
    "slimfly_worst_case_chain",
    "AllToAll",
    "NearestNeighbor3D",
    "best_torus_dims",
    "paper_torus_dims",
    "torus_rank",
    "torus_coords",
]
