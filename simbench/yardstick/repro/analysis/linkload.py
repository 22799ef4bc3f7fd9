"""Static (fluid) link-load analysis.

Computes the expected per-channel load induced by a traffic pattern
under minimal or indirect-random routing, assuming each flow injects at
rate 1 and splits uniformly over its candidate paths.  The reciprocal of
the maximum channel load is the theoretical saturation throughput --
the analytic counterpart of the simulator's measured saturation points
(paper Sec. 4.2: ``1/(2p)`` for SF, ``1/h`` for MLFM, ``1/k`` for OFT
under worst-case traffic, and ~1 under uniform traffic).

Loads are expressed in units of one node's injection bandwidth, so a
channel load of ``2p`` means ``2p`` node-flows share that link.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.routing.paths import MinimalPaths
from repro.topology.base import Topology

__all__ = [
    "channel_loads_minimal",
    "channel_loads_indirect",
    "saturation_throughput",
    "uniform_flows",
    "permutation_flows",
    "workload_flows",
    "load_skew",
]

Channel = Tuple[int, int]


def uniform_flows(topology: Topology) -> Iterable[Tuple[int, int, float]]:
    """Node-flow triples ``(src, dst, weight)`` for uniform traffic.

    Each node spreads one unit of injection over the ``N - 1`` other
    nodes.
    """
    n = topology.num_nodes
    w = 1.0 / (n - 1)
    for s in range(n):
        for d in range(n):
            if s != d:
                yield (s, d, w)


def permutation_flows(destinations: Sequence[int]) -> Iterable[Tuple[int, int, float]]:
    """Node-flow triples for a (partial) permutation pattern."""
    for s, d in enumerate(destinations):
        if d >= 0:
            yield (s, int(d), 1.0)


def workload_flows(
    workload, phase: Optional[str] = None
) -> Iterable[Tuple[int, int, float]]:
    """Node-flow triples for a :class:`repro.workload.Workload` DAG.

    Each (src, dst) pair is weighted by its share of the workload's
    total bytes (restricted to *phase* when given), so the resulting
    channel loads predict *where* a collective schedule concentrates
    traffic -- the static counterpart of the driver's measured
    link-load skew.  Control-only messages carry no bytes and are
    skipped.
    """
    volume: Dict[Tuple[int, int], int] = {}
    total = 0
    for m in workload:
        if m.is_local or (phase is not None and m.phase != phase):
            continue
        volume[(m.src, m.dst)] = volume.get((m.src, m.dst), 0) + m.size
        total += m.size
    if total == 0:
        raise ValueError(
            f"workload {workload.name!r} moves no bytes"
            + (f" in phase {phase!r}" if phase is not None else "")
        )
    for (s, d), b in volume.items():
        yield (s, d, b / total)


def load_skew(loads: Dict[Channel, float]) -> float:
    """Max/mean ratio of channel loads (1.0 = perfectly balanced)."""
    if not loads:
        raise ValueError("no channel loads")
    values = list(loads.values())
    mean = sum(values) / len(values)
    if mean <= 0:
        raise ValueError("degenerate channel loads (mean <= 0)")
    return max(values) / mean


def _add_path(loads: Dict[Channel, float], path: Tuple[int, ...], weight: float) -> None:
    for i in range(len(path) - 1):
        ch = (path[i], path[i + 1])
        loads[ch] = loads.get(ch, 0.0) + weight


def channel_loads_minimal(
    topology: Topology,
    flows: Iterable[Tuple[int, int, float]],
    paths: Optional[MinimalPaths] = None,
) -> Dict[Channel, float]:
    """Expected channel loads under minimal routing with uniform path split.

    Router-level flows are aggregated first, so the cost is
    O(router-pairs x diversity) rather than O(node-pairs).
    """
    paths = paths if paths is not None else MinimalPaths(topology)
    router_flow: Dict[Channel, float] = {}
    node_router = topology.node_router
    for s, d, w in flows:
        rs, rd = int(node_router[s]), int(node_router[d])
        if rs == rd:
            continue
        router_flow[(rs, rd)] = router_flow.get((rs, rd), 0.0) + w

    loads: Dict[Channel, float] = {}
    for (rs, rd), w in router_flow.items():
        candidates = paths.paths(rs, rd)
        share = w / len(candidates)
        for path in candidates:
            _add_path(loads, path, share)
    return loads


def channel_loads_indirect(
    topology: Topology,
    flows: Iterable[Tuple[int, int, float]],
    paths: Optional[MinimalPaths] = None,
    intermediates: Optional[Sequence[int]] = None,
) -> Dict[Channel, float]:
    """Expected channel loads under indirect random (Valiant) routing.

    Each router-level flow spreads uniformly over the eligible
    intermediates (excluding its endpoints), each leg splitting
    uniformly over its minimal paths.  Intra-router traffic never enters
    the fabric (mirroring :class:`repro.routing.IndirectRandomRouting`).
    """
    paths = paths if paths is not None else MinimalPaths(topology)
    pool = list(intermediates) if intermediates is not None else topology.valiant_intermediates()

    router_flow: Dict[Channel, float] = {}
    node_router = topology.node_router
    for s, d, w in flows:
        rs, rd = int(node_router[s]), int(node_router[d])
        if rs == rd:
            continue
        router_flow[(rs, rd)] = router_flow.get((rs, rd), 0.0) + w

    # Precompute, for every (endpoint, intermediate) ordered pair, the
    # per-channel split of one unit of flow on the minimal legs.
    loads: Dict[Channel, float] = {}
    for (rs, rd), w in router_flow.items():
        eligible = [i for i in pool if i != rs and i != rd]
        if not eligible:
            raise ValueError(f"{topology.name}: no eligible intermediate for {rs}->{rd}")
        w_i = w / len(eligible)
        for i in eligible:
            for leg in ((rs, i), (i, rd)):
                candidates = paths.paths(*leg)
                share = w_i / len(candidates)
                for path in candidates:
                    _add_path(loads, path, share)
    return loads


def saturation_throughput(loads: Dict[Channel, float]) -> float:
    """Theoretical saturation injection fraction: ``1 / max channel load``."""
    if not loads:
        return 1.0
    worst = max(loads.values())
    return 1.0 if worst <= 1.0 else 1.0 / worst
