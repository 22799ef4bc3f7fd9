"""Builders that turn sweep/exchange descriptions into campaign jobs.

The seed contract mirrors :func:`repro.experiments.runner.load_sweep`:
point ``i`` of a sweep started at base seed ``s`` becomes a job with
``seed = s + i`` (routing seed ``s+i``, traffic seed ``s+i+1000`` inside
the worker) — so the orchestrated and serial paths produce bit-identical
:class:`SweepPoint` values for the same inputs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import SweepPoint
from repro.orchestrate.campaign import CampaignResult, Orchestrator
from repro.orchestrate.job import Job, sim_config_dict
from repro.sim.config import PAPER_CONFIG, SimConfig
from repro.topology.base import Topology

__all__ = [
    "sweep_jobs",
    "exchange_job",
    "workload_job",
    "workload_size_jobs",
    "points_from_outcomes",
    "orchestrated_load_sweep",
    "cli_routing_spec",
    "cli_pattern_spec",
]

#: A declarative routing/pattern spec: (registry name, picklable kwargs).
Spec = Tuple[str, Dict[str, Any]]


def sweep_jobs(
    topology_spec: str,
    routing: Spec,
    pattern: Spec,
    loads: Sequence[float],
    warmup_ns: float = 2_000.0,
    measure_ns: float = 6_000.0,
    seed: int = 0,
    arrival: str = "poisson",
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> List[Job]:
    """One sweep job per offered-load point, ordered like the load grid."""
    routing_name, routing_kwargs = routing
    pattern_name, pattern_kwargs = pattern
    return [
        Job(
            kind="sweep",
            topology=topology_spec,
            routing=routing_name,
            routing_kwargs=dict(routing_kwargs),
            pattern=pattern_name,
            pattern_kwargs=dict(pattern_kwargs),
            load=load,
            seed=seed + i,
            warmup_ns=warmup_ns,
            measure_ns=measure_ns,
            arrival=arrival,
            config=sim_config_dict(config),
            tag=tag or f"{topology_spec}/{routing_name}/{pattern_name}",
        )
        for i, load in enumerate(loads)
    ]


def exchange_job(
    topology_spec: str,
    routing: Spec,
    exchange: Spec,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> Job:
    """One finite-exchange job (``exchange`` is ``("a2a"|"nn", kwargs)``)."""
    routing_name, routing_kwargs = routing
    exchange_name, exchange_kwargs = exchange
    return Job(
        kind="exchange",
        topology=topology_spec,
        routing=routing_name,
        routing_kwargs=dict(routing_kwargs),
        pattern=exchange_name,
        pattern_kwargs=dict(exchange_kwargs),
        load=0.0,
        seed=seed,
        config=sim_config_dict(config),
        tag=tag or f"{topology_spec}/{routing_name}/{exchange_name}",
    )


def workload_job(
    topology_spec: str,
    routing: Spec,
    workload: Spec,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> Job:
    """One collective-workload job.

    ``workload`` is ``(name, kwargs)`` with a name registered in
    :data:`repro.workload.WORKLOAD_GENERATORS` and kwargs understood by
    :func:`repro.workload.build_workload` (``message_bytes``, ``ranks``,
    plus generator extras like ``iterations`` or ``barrier``).
    """
    routing_name, routing_kwargs = routing
    workload_name, workload_kwargs = workload
    return Job(
        kind="workload",
        topology=topology_spec,
        routing=routing_name,
        routing_kwargs=dict(routing_kwargs),
        pattern=workload_name,
        pattern_kwargs=dict(workload_kwargs),
        load=0.0,
        seed=seed,
        config=sim_config_dict(config),
        tag=tag or f"{topology_spec}/{routing_name}/{workload_name}",
    )


def workload_size_jobs(
    topology_spec: str,
    routing: Spec,
    workload_name: str,
    message_sizes: Sequence[int],
    workload_kwargs: Optional[Dict[str, Any]] = None,
    seed: int = 0,
    config: SimConfig = PAPER_CONFIG,
    tag: str = "",
) -> List[Job]:
    """One workload job per message size (completion-vs-size curves)."""
    base = dict(workload_kwargs or {})
    jobs = []
    for size in message_sizes:
        kwargs = dict(base)
        kwargs["message_bytes"] = int(size)
        jobs.append(
            workload_job(
                topology_spec,
                routing,
                (workload_name, kwargs),
                seed=seed,
                config=config,
                tag=(tag or f"{topology_spec}/{routing[0]}/{workload_name}")
                + f"/B{size}",
            )
        )
    return jobs


def points_from_outcomes(result: CampaignResult, job_ids: Sequence[str]) -> List[SweepPoint]:
    """Sweep points for *job_ids*, in order; raises if any of them failed."""
    points: List[SweepPoint] = []
    for job_id in job_ids:
        outcome = result.outcomes[job_id]
        if not outcome.ok or outcome.result is None:
            raise RuntimeError(f"sweep job {job_id} failed: {outcome.error}")
        points.append(outcome.result.sweep_point())
    return points


def orchestrated_load_sweep(
    topology_spec: str,
    routing: Spec,
    pattern: Spec,
    loads: Sequence[float],
    orchestrator: Optional[Orchestrator] = None,
    warmup_ns: float = 2_000.0,
    measure_ns: float = 6_000.0,
    seed: int = 0,
    arrival: str = "poisson",
    config: SimConfig = PAPER_CONFIG,
) -> List[SweepPoint]:
    """Drop-in declarative counterpart of :func:`load_sweep`.

    Bit-identical to the serial path for the same arguments; the
    orchestrator only changes *where* points execute.
    """
    jobs = sweep_jobs(
        topology_spec, routing, pattern, loads,
        warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed,
        arrival=arrival, config=config,
    )
    orch = orchestrator or Orchestrator(jobs=1)
    result = orch.run(jobs)
    return points_from_outcomes(result, result.order)


# --------------------------------------------------------------------------
# CLI-name -> declarative-spec translation (mirrors repro.cli defaults).
# --------------------------------------------------------------------------


def cli_routing_spec(topology: Topology, name: str) -> Spec:
    """The declarative spec matching ``repro.cli``'s routing defaults."""
    from repro.topology import SlimFly

    name = name.lower()
    if name == "min":
        return ("min", {})
    if name == "inr":
        return ("inr", {})
    if name in ("ugal", "ugal-a", "ugal-ath", "ugalth"):
        threshold = 0.10 if name in ("ugal-ath", "ugalth") else None
        if isinstance(topology, SlimFly):
            kwargs: Dict[str, Any] = {"cost_mode": "sf", "c_sf": 1.0, "num_indirect": 4}
        else:
            kwargs = {"c": 2.0, "num_indirect": 4}
        if threshold is not None:
            kwargs["threshold"] = threshold
        return ("ugal", kwargs)
    raise ValueError(f"unknown routing {name!r} (min | inr | ugal | ugal-ath)")


def cli_pattern_spec(topology: Topology, name: str, seed: int = 0) -> Spec:
    """The declarative spec matching ``repro.cli``'s pattern names."""
    name = name.lower()
    if name == "uniform":
        return ("uniform", {})
    if name == "worstcase":
        return ("worstcase", {"seed": seed})
    if name.startswith("shift"):
        _, _, arg = name.partition(":")
        if arg:
            return ("shift", {"shift": int(arg)})
        return ("shift", {})
    if name in ("bitcomp", "bitrev", "transpose", "tornado"):
        return (name, {})
    if name.startswith("hotspot"):
        _, _, arg = name.partition(":")
        return ("hotspot", {"fraction": float(arg) if arg else 0.2})
    raise ValueError(
        f"unknown pattern {name!r} (uniform | worstcase | shift[:k] | bitcomp | "
        f"bitrev | transpose | tornado | hotspot[:frac])"
    )
