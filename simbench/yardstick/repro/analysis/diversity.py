"""Shortest-path diversity statistics (paper Sec. 2.3.3).

Quantifies how many minimal paths exist between router pairs:

- Slim Fly: no diversity between adjacent routers; sparse diversity
  between distance-2 pairs (q = 23: average ~1.1, maximum 8);
- MLFM: ``h`` minimal paths between same-column local routers, exactly
  one otherwise;
- OFT: ``k`` minimal paths between symmetric counterpart routers,
  exactly one otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.routing.paths import MinimalPaths
from repro.topology.base import Topology

__all__ = ["DiversityStats", "path_diversity_stats"]


@dataclass
class DiversityStats:
    """Distribution of minimal-path counts over router pairs."""

    topology: str
    num_pairs: int
    mean: float
    max: int
    min: int
    histogram: Dict[int, int]
    mean_distance2: Optional[float] = None  # over non-adjacent pairs only
    max_distance2: Optional[int] = None


def path_diversity_stats(
    topology: Topology,
    pairs: Optional[Sequence] = None,
) -> DiversityStats:
    """Diversity statistics over ordered endpoint-router pairs.

    ``pairs`` may restrict the enumeration; by default all ordered
    pairs of distinct endpoint routers are measured.  Distance-2
    restricted aggregates (the paper's SF numbers) are reported
    separately.
    """
    paths = MinimalPaths(topology)
    endpoints = topology.endpoint_routers()
    if pairs is None:
        pairs = [(s, d) for s in endpoints for d in endpoints if s != d]

    histogram: Dict[int, int] = {}
    total = 0
    count = 0
    d2_total = 0
    d2_count = 0
    d2_max = 0
    for s, d in pairs:
        diversity = paths.diversity(s, d)
        histogram[diversity] = histogram.get(diversity, 0) + 1
        total += diversity
        count += 1
        if not topology.is_edge(s, d):
            d2_total += diversity
            d2_count += 1
            d2_max = max(d2_max, diversity)
    if count == 0:
        raise ValueError(f"{topology.name}: no pairs to measure")
    return DiversityStats(
        topology=topology.name,
        num_pairs=count,
        mean=total / count,
        max=max(histogram),
        min=min(histogram),
        histogram=dict(sorted(histogram.items())),
        mean_distance2=d2_total / d2_count if d2_count else None,
        max_distance2=d2_max if d2_count else None,
    )
