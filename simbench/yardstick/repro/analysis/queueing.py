"""Analytic latency model (M/D/1 queueing approximation).

A lightweight cross-check for the simulator's uniform-traffic latency
curves: with Poisson packet generation and deterministic (fixed-size)
service, each traversed link behaves approximately like an M/D/1 queue
with utilisation equal to the offered load, whose mean waiting time is

.. math:: W = \\frac{\\rho}{2 (1 - \\rho)} \\cdot T_s

(Pollaczek-Khinchine for deterministic service, ``T_s`` = packet
serialization time).  Summing the zero-load pipeline latency and one
waiting term per serialising stage (injection link, each router output
and the ejection link) gives a closed-form latency-vs-load curve that
tracks the simulated one until the approximation's independence
assumptions break near saturation.

This is deliberately a *model*, not a second simulator: tests assert
agreement at low/medium loads and divergence-in-the-right-direction
near saturation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.routing.paths import MinimalPaths
from repro.sim.config import PAPER_CONFIG, SimConfig
from repro.topology.base import Topology

__all__ = ["md1_wait_ns", "uniform_latency_model", "mean_minimal_hops"]


def md1_wait_ns(load: float, service_ns: float) -> float:
    """Mean M/D/1 waiting time at utilisation *load*."""
    if not (0.0 <= load < 1.0):
        raise ValueError(f"md1_wait_ns: utilisation {load} must be in [0, 1)")
    return load / (2.0 * (1.0 - load)) * service_ns


def mean_minimal_hops(topology: Topology, samples: Optional[int] = None, seed: int = 0) -> float:
    """Average minimal router-hop count over uniform node pairs.

    Counts intra-router pairs as 0 hops, weighting by node population
    (exactly what uniform traffic samples).  ``samples`` bounds the
    router-pair enumeration for very large instances.
    """
    import random

    paths = MinimalPaths(topology)
    endpoints = topology.endpoint_routers()
    weights = {r: topology.nodes_attached(r) for r in endpoints}
    n = topology.num_nodes

    pair_iter: Sequence = [(s, d) for s in endpoints for d in endpoints]
    if samples is not None and samples < len(pair_iter):
        rng = random.Random(seed)
        pair_iter = rng.sample(pair_iter, samples)

    total_w = 0.0
    total_hops = 0.0
    for s, d in pair_iter:
        if s == d:
            # Intra-router pairs: p * (p - 1) ordered node pairs, 0 hops.
            w = weights[s] * (weights[s] - 1)
            hops = 0
        else:
            w = weights[s] * weights[d]
            hops = paths.distance(s, d)
        total_w += w
        total_hops += w * hops
    if total_w == 0:
        raise ValueError(f"{topology.name}: no node pairs")
    return total_hops / total_w


def uniform_latency_model(
    topology: Topology,
    load: float,
    config: SimConfig = PAPER_CONFIG,
    hops: Optional[float] = None,
) -> Dict[str, float]:
    """Closed-form mean latency under uniform traffic at *load*.

    Returns the decomposition: ``zero_load``, ``queueing`` and
    ``total`` (ns).  ``hops`` overrides the measured mean minimal hop
    count (useful for non-minimal routing).
    """
    if not (0.0 <= load < 1.0):
        raise ValueError(f"uniform_latency_model: load {load} must be in [0, 1)")
    mean_hops = mean_minimal_hops(topology) if hops is None else hops
    ser = config.packet_time_ns
    link = config.link_latency_ns
    switch = config.switch_latency_ns

    # Pipeline: injection (ser+link), per-router (switch+ser+link) for
    # each router traversal (mean_hops router-router links plus the
    # ejection leg).
    zero_load = (ser + link) + (mean_hops + 1) * (switch + ser + link)
    # Serialising stages: injection link, one output per traversed
    # router (mean_hops + 1 including ejection).  Each approximated as
    # an independent M/D/1 at utilisation = load.
    stages = 1.0 + (mean_hops + 1.0)
    queueing = stages * md1_wait_ns(load, ser)
    return {
        "zero_load": zero_load,
        "queueing": queueing,
        "total": zero_load + queueing,
        "mean_hops": mean_hops,
    }
