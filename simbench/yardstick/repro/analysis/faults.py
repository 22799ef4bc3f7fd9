"""Link-failure resilience analysis (extension beyond the paper).

The paper's diameter-two designs trade path diversity for scalability
(Sec. 2.3.3), which raises an obvious operational question the paper
leaves open: how gracefully do they degrade when links fail?  This
module answers it statically:

- :func:`degrade` builds a copy of a topology with a chosen set (or
  random fraction) of router-router links removed, preserving the
  original's link-class / Valiant structure so routing and deadlock
  machinery keep working;
- :func:`fault_resilience` sweeps failure fractions and reports
  connectivity, endpoint diameter and mean path diversity over random
  trials -- the degradation curves of each design.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.routing.paths import MinimalPaths
from repro.topology.base import Topology

__all__ = [
    "DegradedTopology",
    "degrade",
    "FaultTrial",
    "fault_resilience",
    "safe_vc_policy",
]


class DegradedTopology(Topology):
    """A topology with some router-router links removed.

    Delegates :meth:`link_class` and :meth:`valiant_intermediates` to
    the intact original so SSPT up/down structure (and therefore VC
    policies and CDG analysis) remain meaningful.
    """

    def __init__(self, base: Topology, failed_links: Sequence[Tuple[int, int]]):
        failed = {(min(a, b), max(a, b)) for a, b in failed_links}
        for a, b in failed:
            if not base.is_edge(a, b):
                raise ValueError(f"cannot fail non-existent link ({a}, {b})")
        adjacency = [
            [n for n in base.neighbors(r) if (min(r, n), max(r, n)) not in failed]
            for r in range(base.num_routers)
        ]
        super().__init__(
            name=f"{base.name}-deg{len(failed)}",
            adjacency=adjacency,
            nodes_per_router=[base.nodes_attached(r) for r in range(base.num_routers)],
            params=dict(base.params, failed_links=len(failed)),
        )
        self.base = base
        self.failed_links = sorted(failed)

    def link_class(self, u: int, v: int) -> int:
        return self.base.link_class(u, v)

    def valiant_intermediates(self) -> List[int]:
        return self.base.valiant_intermediates()


def degrade(
    topology: Topology,
    fraction: Optional[float] = None,
    links: Optional[Sequence[Tuple[int, int]]] = None,
    seed: int = 0,
) -> DegradedTopology:
    """Remove an explicit link list or a random *fraction* of links."""
    if (fraction is None) == (links is None):
        raise ValueError("degrade: give exactly one of fraction= or links=")
    if links is None:
        if not (0.0 <= fraction < 1.0):
            raise ValueError(f"degrade: fraction {fraction} must be in [0, 1)")
        all_links = list(topology.edges())
        count = int(round(fraction * len(all_links)))
        rng = random.Random(seed)
        links = rng.sample(all_links, count)
    return DegradedTopology(topology, links)


@dataclass
class FaultTrial:
    """Aggregated outcome of failure trials at one failure fraction."""

    fraction: float
    trials: int
    connected_fraction: float  # trials where all endpoint routers stay connected
    mean_endpoint_diameter: float  # over connected trials
    worst_endpoint_diameter: int
    mean_diversity: float  # mean minimal-path count over sampled pairs


def _endpoint_connected_and_diameter(topo: Topology) -> Optional[int]:
    """Endpoint diameter, or ``None`` if endpoint routers are disconnected."""
    try:
        return topo.endpoint_diameter()
    except ValueError:
        return None


def safe_vc_policy(topology: Topology, uses_indirect: bool = False):
    """A VC policy sized for a (possibly degraded) flat topology.

    The paper's hop-indexed scheme assumes diameter 2; after failures,
    minimal paths can be longer.  This helper measures the endpoint
    diameter and returns a :class:`repro.routing.vc.HopIndexVC` with a
    matching budget (indirect routes being two minimal legs).  Only for
    flat topologies: degraded SSPTs with >2-hop minimal routes are no
    longer inherently deadlock-free on one VC, so simulate those with a
    hop-indexed policy too (which this returns for any topology).
    """
    from repro.routing.vc import HopIndexVC

    diameter = topology.endpoint_diameter()
    minimal = max(2, diameter)
    indirect = max(4, 2 * diameter)
    return HopIndexVC(minimal_vcs=minimal if not uses_indirect else indirect,
                      indirect_vcs=indirect)


def fault_resilience(
    topology: Topology,
    fractions: Sequence[float] = (0.01, 0.05, 0.10),
    trials: int = 5,
    seed: int = 0,
    diversity_samples: int = 100,
) -> List[FaultTrial]:
    """Random-link-failure degradation sweep.

    For each failure fraction runs *trials* random failure patterns and
    aggregates endpoint-level connectivity, diameter and sampled path
    diversity.
    """
    rng = random.Random(seed)
    results: List[FaultTrial] = []
    endpoints = topology.endpoint_routers()
    for fraction in fractions:
        connected = 0
        diameters: List[int] = []
        diversity_sum = 0.0
        diversity_count = 0
        for t in range(trials):
            degraded = degrade(topology, fraction=fraction, seed=rng.getrandbits(32))
            diameter = _endpoint_connected_and_diameter(degraded)
            if diameter is None:
                continue
            connected += 1
            diameters.append(diameter)
            paths = MinimalPaths(degraded)
            pair_rng = random.Random(seed * 1000 + t)
            for _ in range(diversity_samples):
                s = endpoints[pair_rng.randrange(len(endpoints))]
                d = endpoints[pair_rng.randrange(len(endpoints))]
                if s == d:
                    continue
                diversity_sum += paths.diversity(s, d)
                diversity_count += 1
        results.append(
            FaultTrial(
                fraction=fraction,
                trials=trials,
                connected_fraction=connected / trials,
                mean_endpoint_diameter=(
                    sum(diameters) / len(diameters) if diameters else float("inf")
                ),
                worst_endpoint_diameter=max(diameters) if diameters else -1,
                mean_diversity=(
                    diversity_sum / diversity_count if diversity_count else 0.0
                ),
            )
        )
    return results
