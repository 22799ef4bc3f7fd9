"""Spectral analysis of router graphs.

Why do the diameter-two topologies sustain near-full uniform
throughput?  Spectrally: their router graphs are excellent expanders.
This module computes

- the adjacency spectrum and **spectral gap** ``d - lambda_2`` of a
  regular router graph,
- the **Cheeger (isoperimetric) bounds** on edge expansion implied by
  the gap, and
- the distance to the **Ramanujan bound** ``lambda_2 <= 2 sqrt(d-1)``
  (MMS graphs -- the Slim Fly -- are known to be near-Ramanujan, which
  is the structural reason behind their Moore-bound proximity and flat
  uniform-traffic behaviour).

Dense ``eigvalsh`` is fine for the instance sizes in play (hundreds of
routers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.topology.base import Topology

__all__ = ["SpectralStats", "spectral_stats"]


@dataclass
class SpectralStats:
    """Spectral summary of a (preferably regular) router graph."""

    topology: str
    degree: float  # max eigenvalue (= degree for regular connected graphs)
    lambda2: float  # second-largest adjacency eigenvalue
    lambda_min: float
    spectral_gap: float  # degree - lambda2
    ramanujan_bound: float  # 2 sqrt(d - 1)
    is_ramanujan: bool  # max(|lambda2|, |lambda_min|) <= bound (+eps)
    cheeger_lower: float  # gap / 2 <= h(G)
    cheeger_upper: float  # h(G) <= sqrt(2 d gap)
    bipartite: bool  # lambda_min == -degree


def spectral_stats(topology: Topology, tol: float = 1e-8) -> SpectralStats:
    """Compute the adjacency spectrum summary of the router graph.

    For irregular graphs the "degree" reported is the Perron eigenvalue
    and the Ramanujan test uses the maximum degree.
    """
    mat = topology.adjacency_matrix().astype(np.float64)
    eigenvalues = np.linalg.eigvalsh(mat)
    eigenvalues.sort()
    perron = float(eigenvalues[-1])
    lambda2 = float(eigenvalues[-2]) if len(eigenvalues) > 1 else perron
    lambda_min = float(eigenvalues[0])
    max_degree = max(topology.degree(r) for r in range(topology.num_routers))
    gap = perron - lambda2
    bound = 2.0 * math.sqrt(max(max_degree - 1, 0))
    bipartite = abs(lambda_min + perron) < tol
    # For bipartite graphs lambda_min = -d necessarily; Ramanujan-ness
    # is then judged on the nontrivial spectrum.
    nontrivial = abs(lambda2)
    if not bipartite:
        nontrivial = max(nontrivial, abs(lambda_min))
    return SpectralStats(
        topology=topology.name,
        degree=perron,
        lambda2=lambda2,
        lambda_min=lambda_min,
        spectral_gap=gap,
        ramanujan_bound=bound,
        is_ramanujan=nontrivial <= bound + tol,
        cheeger_lower=gap / 2.0,
        cheeger_upper=math.sqrt(max(2.0 * perron * gap, 0.0)),
        bipartite=bipartite,
    )
