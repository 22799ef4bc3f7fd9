"""Per-figure reproduction experiments.

One function per table/figure of the paper (see DESIGN.md §3 for the
index).  Each returns a plain-data dict -- inputs, measured series and a
rendered ASCII table under ``"report"`` -- so the benchmark harness can
regenerate and print the paper's artefacts.

All simulation-based figures accept a ``scale`` preset (``"tiny"`` /
``"small"`` / ``"paper"``; DESIGN.md §4 explains the reduced-scale
substitution) plus overridable load grids, so quick runs and full
reproductions share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import (
    bisection_bandwidth,
    channel_loads_minimal,
    path_diversity_stats,
    permutation_flows,
    saturation_throughput,
    scalability_points,
)
from repro.analysis.cost import COST_TABLE
from repro.experiments.configs import ExperimentConfig, configs_for_scale, windows_for_scale
from repro.experiments.report import ascii_table
from repro.experiments.runner import SweepPoint, load_sweep, run_exchange, saturation_point

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.orchestrate import Orchestrator
from repro.topology import MLFM, OFT, SlimFly, ml3b_table
from repro.traffic import (
    AllToAll,
    UniformRandom,
    paper_torus_dims,
    worst_case_traffic,
)

__all__ = [
    "table2_data",
    "fig3_data",
    "fig4_data",
    "fig5_data",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "fig9_data",
    "fig10_data",
    "fig11_data",
    "fig12_data",
    "fig13_data",
    "fig14_data",
    "diversity_data",
    "tail_effects_data",
    "collectives_data",
]

UNI_LOADS = (0.2, 0.5, 0.8, 0.95)
WC_LOADS = (0.05, 0.1, 0.2, 0.35, 0.5)


# --------------------------------------------------------------------------
# Table 2 and the analytic figures (no simulation).
# --------------------------------------------------------------------------


def table2_data() -> Dict:
    """Table 2: the tabular representation of the 4-ML3B."""
    table = ml3b_table(4)
    rows = [[i] + [int(v) for v in table[i]] for i in range(table.shape[0])]
    return {
        "table": table,
        "report": ascii_table(
            ["i"] + [f"j{c}" for c in range(table.shape[1])],
            rows,
            title="Table 2: 4-ML3B (j s.t. (1,j) and (0,i) are connected)",
        ),
    }


def fig3_data(max_radix: int = 64) -> Dict:
    """Fig. 3: scale vs router radix, plus the cost table."""
    families = ("2D HyperX", "Slim Fly", "2-lvl Fat-Tree", "3-lvl Fat-Tree", "MLFM", "OFT")
    family_keys = {"2D HyperX": "HyperX2D", "Slim Fly": "SF", "2-lvl Fat-Tree": "FT2",
                   "3-lvl Fat-Tree": "FT3", "MLFM": "MLFM", "OFT": "OFT"}
    points = {name: scalability_points(family_keys[name], max_radix) for name in families}
    best = {name: max((n for _, n in pts), default=0) for name, pts in points.items()}
    rows = []
    for name in families:
        info = COST_TABLE[name]
        rows.append(
            [name, info["diameter"], info["scale"], info["links_per_node"],
             info["ports_per_node"], best[name]]
        )
    return {
        "points": points,
        "best_at_radix": best,
        "report": ascii_table(
            ["topology", "diam", "scale", "Nl/N", "Np/N", f"N @ r<={max_radix}"],
            rows,
            title=f"Fig. 3: scale and cost of low-diameter topologies (radix <= {max_radix})",
        ),
    }


def fig4_data(scale: str = "tiny", restarts: int = 6, seed: int = 0) -> Dict:
    """Fig. 4: approximate per-end-node bisection bandwidth vs size."""
    sizes = {
        "tiny": {"q": (5, 7), "h": (5, 7), "k": (4, 6)},
        "small": {"q": (5, 7, 9, 11), "h": (5, 7, 9, 11), "k": (4, 6, 8)},
        "paper": {"q": (5, 7, 9, 11, 13), "h": (5, 7, 9, 11, 15), "k": (4, 6, 8, 12)},
    }[scale]
    rows = []
    results = []
    for q in sizes["q"]:
        for p_mode in ("floor", "ceil"):
            topo = SlimFly(q, p_mode)
            bb = bisection_bandwidth(topo, restarts=restarts, seed=seed)
            results.append(bb)
            rows.append([bb.topology, topo.num_nodes, bb.cut_links, bb.per_node])
    for h in sizes["h"]:
        topo = MLFM(h)
        bb = bisection_bandwidth(topo, restarts=restarts, seed=seed)
        results.append(bb)
        rows.append([bb.topology, topo.num_nodes, bb.cut_links, bb.per_node])
    for k in sizes["k"]:
        topo = OFT(k)
        bb = bisection_bandwidth(topo, restarts=restarts, seed=seed)
        results.append(bb)
        rows.append([bb.topology, topo.num_nodes, bb.cut_links, bb.per_node])
    return {
        "results": results,
        "report": ascii_table(
            ["topology", "N", "cut links", "bisection b/node"],
            rows,
            title="Fig. 4: approximate bisection bandwidth (multilevel partitioner)",
        ),
    }


def fig5_data(scale: str = "tiny", seed: int = 0) -> Dict:
    """Fig. 5: the SF worst-case construction and its link overload.

    Validates that the greedy distance-2 pairing produces overlapping
    routes whose most-loaded link carries ``2p`` flows, i.e. analytic
    saturation ``1/(2p)``.
    """
    q = {"tiny": 5, "small": 7, "paper": 13}[scale]
    topo = SlimFly(q, "floor")
    wc = worst_case_traffic(topo, seed=seed)
    loads = channel_loads_minimal(topo, permutation_flows(wc.destinations))
    max_load = max(loads.values())
    sat = saturation_throughput(loads)
    rows = [[topo.name, topo.p, max_load, 2 * topo.p, sat, 1.0 / (2 * topo.p)]]
    return {
        "topology": topo.name,
        "max_link_load": max_load,
        "saturation": sat,
        "expected_saturation": 1.0 / (2 * topo.p),
        "report": ascii_table(
            ["topology", "p", "max link load", "2p", "analytic sat", "1/(2p)"],
            rows,
            title="Fig. 5: SF worst-case pairing (overlapping distance-2 routes)",
        ),
    }


# --------------------------------------------------------------------------
# Simulation figures.
# --------------------------------------------------------------------------


@dataclass
class _SweepTask:
    """One named sweep of a figure: serial factories + declarative specs."""

    key: str
    config: ExperimentConfig
    routing_factory: Callable
    routing_spec: Tuple[str, Dict[str, object]]
    pattern_factory: Callable
    pattern_spec: Tuple[str, Dict[str, object]]
    loads: Sequence[float]


def _run_sweep_tasks(
    tasks: Sequence[_SweepTask],
    orchestrator: Optional["Orchestrator"],
    warmup_ns: float,
    measure_ns: float,
    seed: int,
) -> Dict[str, List[SweepPoint]]:
    """Execute every task, in parallel when an orchestrator is given.

    Both paths are bit-identical for fixed seeds (the orchestrator
    executes point ``i`` through the same
    :func:`~repro.experiments.runner.run_sweep_point` primitive with
    ``seed = seed + i``).  Ad-hoc configs without a declarative
    ``spec`` fall back to the serial path.
    """
    use_orchestrator = orchestrator is not None and all(t.config.spec for t in tasks)
    out: Dict[str, List[SweepPoint]] = {}
    if not use_orchestrator:
        topo_cache: Dict[str, object] = {}
        for task in tasks:
            topo = topo_cache.setdefault(task.config.key, task.config.topology())
            out[task.key] = load_sweep(
                topo, task.routing_factory, task.pattern_factory, task.loads,
                warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed,
            )
        return out

    from repro.orchestrate import points_from_outcomes, sweep_jobs

    jobs = []
    slices: Dict[str, Tuple[int, int]] = {}
    for task in tasks:
        task_jobs = sweep_jobs(
            task.config.spec, task.routing_spec, task.pattern_spec, task.loads,
            warmup_ns=warmup_ns, measure_ns=measure_ns, seed=seed, tag=task.key,
        )
        slices[task.key] = (len(jobs), len(task_jobs))
        jobs.extend(task_jobs)
    result = orchestrator.run(jobs)
    for task in tasks:
        start, count = slices[task.key]
        out[task.key] = points_from_outcomes(result, result.order[start:start + count])
    return out


def fig6_data(
    scale: str = "tiny",
    uni_loads: Sequence[float] = UNI_LOADS,
    wc_loads: Sequence[float] = WC_LOADS,
    seed: int = 0,
    configs: Optional[Sequence[ExperimentConfig]] = None,
    orchestrator: Optional["Orchestrator"] = None,
) -> Dict:
    """Fig. 6: oblivious routing (MIN / INR) under uniform and worst-case.

    Reports throughput per offered load and the saturation point of
    every (config, routing, pattern) combination.  With *orchestrator*,
    the 16 sweeps run as one parallel, cached campaign.
    """
    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    tasks: List[_SweepTask] = []
    for config in configs:
        routings = (
            ("MIN", config.minimal, config.minimal_spec()),
            ("INR", config.indirect, config.indirect_spec()),
        )
        patterns = (
            ("UNI", lambda t: UniformRandom(t.num_nodes), ("uniform", {}), uni_loads),
            ("WC", lambda t: worst_case_traffic(t, seed=seed),
             ("worstcase", {"seed": seed}), wc_loads),
        )
        for rname, rfactory, rspec in routings:
            for pname, pfactory, pspec, loads in patterns:
                tasks.append(_SweepTask(
                    key=f"{config.key}/{rname}/{pname}", config=config,
                    routing_factory=rfactory, routing_spec=rspec,
                    pattern_factory=pfactory, pattern_spec=pspec, loads=loads,
                ))
    by_key = _run_sweep_tasks(
        tasks, orchestrator, windows.warmup_ns, windows.measure_ns, seed
    )
    rows: List[List[object]] = []
    saturations: Dict[str, float] = {}
    for task in tasks:
        points = by_key[task.key]
        saturations[task.key] = saturation_point(points)
        config_key, rname, pname = task.key.split("/")
        for p in points:
            rows.append([config_key, rname, pname, p.load, p.throughput, p.mean_latency_ns])
    return {
        "rows": rows,
        "saturations": saturations,
        "report": ascii_table(
            ["config", "routing", "pattern", "load", "throughput", "latency ns"],
            rows,
            title="Fig. 6: oblivious routing under uniform and worst-case traffic",
        ),
    }


def _adaptive_parameter_figure(
    config: ExperimentConfig,
    title: str,
    vary: str,
    values: Sequence[float],
    fixed: Dict[str, object],
    threshold: Optional[float],
    scale: str,
    uni_loads: Sequence[float],
    wc_loads: Sequence[float],
    seed: int,
    orchestrator: Optional["Orchestrator"] = None,
) -> Dict:
    """Shared engine of Figs. 7-12: UGAL parameter sensitivity sweeps."""
    windows = windows_for_scale(scale)
    tasks: List[_SweepTask] = []
    labels: Dict[str, str] = {}
    for value in values:
        overrides = dict(fixed)
        overrides[vary] = value
        overrides["threshold"] = threshold

        def rfactory(t, s, overrides=overrides):
            return config.adaptive(t, seed=s, **overrides)

        for pname, pfactory, pspec, loads in (
            ("UNI", lambda t: UniformRandom(t.num_nodes), ("uniform", {}), uni_loads),
            ("WC", lambda t: worst_case_traffic(t, seed=seed),
             ("worstcase", {"seed": seed}), wc_loads),
        ):
            key = f"{config.key}/{vary}={value:g}/{pname}"
            labels[key] = f"{vary}={value:g}"
            tasks.append(_SweepTask(
                key=key, config=config,
                routing_factory=rfactory,
                routing_spec=config.adaptive_spec(**overrides),
                pattern_factory=pfactory, pattern_spec=pspec, loads=loads,
            ))
    by_key = _run_sweep_tasks(
        tasks, orchestrator, windows.warmup_ns, windows.measure_ns, seed
    )
    rows: List[List[object]] = []
    for task in tasks:
        pname = task.key.rsplit("/", 1)[-1]
        for p in by_key[task.key]:
            rows.append([config.key, labels[task.key], pname, p.load, p.throughput,
                         p.mean_latency_ns, p.indirect_fraction])
    return {
        "rows": rows,
        "report": ascii_table(
            ["config", "param", "pattern", "load", "throughput", "latency ns", "indirect frac"],
            rows,
            title=title,
        ),
    }


def _config_by_key(scale: str, key: str) -> ExperimentConfig:
    for config in configs_for_scale(scale):
        if config.key == key:
            return config
    raise KeyError(key)


def fig7_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
              ni_values=(1, 2, 4), csf_values=(0.5, 1.0, 2.0)) -> Dict:
    """Fig. 7: SF-A sensitivity to nI (cSF = 1) and cSF (nI = 4)."""
    config = _config_by_key(scale, "sf-floor")
    part_a = _adaptive_parameter_figure(
        config, "Fig. 7a: SF-A varying nI (cSF=1)", "num_indirect", ni_values,
        {"cost_mode": "sf", "c_sf": 1.0}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, "Fig. 7b: SF-A varying cSF (nI=4)", "c_sf", csf_values,
        {"cost_mode": "sf", "num_indirect": 4}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig8_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
              ni_values=(1, 2, 4), csf_values=(0.5, 1.0, 2.0), threshold=0.10) -> Dict:
    """Fig. 8: SF-ATh (T = 10%) sensitivity to nI and cSF."""
    config = _config_by_key(scale, "sf-floor")
    part_a = _adaptive_parameter_figure(
        config, f"Fig. 8a: SF-ATh varying nI (cSF=1, T={threshold:.0%})",
        "num_indirect", ni_values, {"cost_mode": "sf", "c_sf": 1.0},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, f"Fig. 8b: SF-ATh varying cSF (nI=4, T={threshold:.0%})",
        "c_sf", csf_values, {"cost_mode": "sf", "num_indirect": 4},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig9_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
              ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0)) -> Dict:
    """Fig. 9: MLFM-A sensitivity to nI (c = 2) and c (nI = 5)."""
    config = _config_by_key(scale, "mlfm")
    part_a = _adaptive_parameter_figure(
        config, "Fig. 9a: MLFM-A varying nI (c=2)", "num_indirect", ni_values,
        {"cost_mode": "const", "c": 2.0}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, "Fig. 9b: MLFM-A varying c (nI=5)", "c", c_values,
        {"cost_mode": "const", "num_indirect": 5}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig10_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
               ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0)) -> Dict:
    """Fig. 10: OFT-A sensitivity to nI (c = 2) and c (nI = 1)."""
    config = _config_by_key(scale, "oft")
    part_a = _adaptive_parameter_figure(
        config, "Fig. 10a: OFT-A varying nI (c=2)", "num_indirect", ni_values,
        {"cost_mode": "const", "c": 2.0}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, "Fig. 10b: OFT-A varying c (nI=1)", "c", c_values,
        {"cost_mode": "const", "num_indirect": 1}, None, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig11_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
               ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0), threshold=0.10) -> Dict:
    """Fig. 11: MLFM-ATh (T = 10%) sensitivity to nI and c."""
    config = _config_by_key(scale, "mlfm")
    part_a = _adaptive_parameter_figure(
        config, f"Fig. 11a: MLFM-ATh varying nI (c=2, T={threshold:.0%})",
        "num_indirect", ni_values, {"cost_mode": "const", "c": 2.0},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, f"Fig. 11b: MLFM-ATh varying c (nI=5, T={threshold:.0%})",
        "c", c_values, {"cost_mode": "const", "num_indirect": 5},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def fig12_data(scale="tiny", uni_loads=UNI_LOADS, wc_loads=WC_LOADS, seed=0,
              orchestrator=None,
               ni_values=(1, 2, 5), c_values=(1.0, 2.0, 4.0), threshold=0.10) -> Dict:
    """Fig. 12: OFT-ATh (T = 10%) sensitivity to nI and c."""
    config = _config_by_key(scale, "oft")
    part_a = _adaptive_parameter_figure(
        config, f"Fig. 12a: OFT-ATh varying nI (c=2, T={threshold:.0%})",
        "num_indirect", ni_values, {"cost_mode": "const", "c": 2.0},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    part_b = _adaptive_parameter_figure(
        config, f"Fig. 12b: OFT-ATh varying c (nI=1, T={threshold:.0%})",
        "c", c_values, {"cost_mode": "const", "num_indirect": 1},
        threshold, scale, uni_loads, wc_loads, seed,
        orchestrator=orchestrator)
    return {"a": part_a, "b": part_b, "report": part_a["report"] + "\n\n" + part_b["report"]}


def _run_exchange_tasks(
    tasks: Sequence[Tuple[str, ExperimentConfig, Callable, Tuple[str, Dict[str, object]],
                          Tuple[str, Dict[str, object]]]],
    orchestrator: Optional["Orchestrator"],
    seed: int,
) -> Dict[str, Dict[str, float]]:
    """Figs. 13/14 engine: run named finite exchanges, parallel if possible.

    Each task is ``(key, config, routing_factory, routing_spec,
    exchange_spec)``; returns the :func:`run_exchange` result dict per
    key.  Exchange objects are rebuilt per run in both paths (they are
    stateless descriptions), so serial and orchestrated results match.
    """
    use_orchestrator = orchestrator is not None and all(t[1].spec for t in tasks)
    out: Dict[str, Dict[str, float]] = {}
    if not use_orchestrator:
        from repro.orchestrate.job import _build_exchange  # shared builder

        topo_cache: Dict[str, object] = {}
        for key, config, rfactory, _rspec, (xname, xkwargs) in tasks:
            topo = topo_cache.setdefault(config.key, config.topology())
            exchange = _build_exchange(xname, xkwargs, topo)
            out[key] = run_exchange(topo, rfactory, exchange, seed=seed)
        return out

    from repro.orchestrate import exchange_job

    jobs = [
        exchange_job(config.spec, rspec, xspec, seed=seed, tag=key)
        for key, config, _rfactory, rspec, xspec in tasks
    ]
    result = orchestrator.run(jobs)
    for (key, *_), job_id in zip(tasks, result.order):
        outcome = result.outcomes[job_id]
        if not outcome.ok or outcome.result is None:
            raise RuntimeError(f"exchange job {job_id} ({key}) failed: {outcome.error}")
        out[key] = outcome.result.payload
    return out


def fig13_data(scale: str = "tiny", seed: int = 0,
               configs: Optional[Sequence[ExperimentConfig]] = None,
               orchestrator: Optional["Orchestrator"] = None) -> Dict:
    """Fig. 13: effective throughput of one all-to-all exchange."""
    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    tasks = []
    for config in configs:
        xspec = ("a2a", {"message_bytes": windows.a2a_message_bytes, "seed": seed})
        for rname, rfactory, rspec in (
            ("MIN", config.minimal, config.minimal_spec()),
            ("INR", config.indirect, config.indirect_spec()),
            ("ADAPT", config.adaptive, config.adaptive_spec()),
        ):
            tasks.append((f"{config.key}/{rname}", config, rfactory, rspec, xspec))
    by_key = _run_exchange_tasks(tasks, orchestrator, seed)
    rows: List[List[object]] = []
    results: Dict[str, float] = {}
    for key, config, *_ in tasks:
        res = by_key[key]
        eff = res["effective_throughput"]
        results[key] = eff
        rows.append([config.key, key.rsplit("/", 1)[-1], eff, res["completion_ns"]])
    return {
        "results": results,
        "rows": rows,
        "report": ascii_table(
            ["config", "routing", "effective throughput", "completion ns"],
            rows,
            title="Fig. 13: effective throughput, one all-to-all exchange",
        ),
    }


def fig14_data(scale: str = "tiny", seed: int = 0,
               configs: Optional[Sequence[ExperimentConfig]] = None,
               orchestrator: Optional["Orchestrator"] = None) -> Dict:
    """Fig. 14: effective throughput of one nearest-neighbour exchange."""
    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    tasks = []
    dims_of: Dict[str, Tuple[int, int, int]] = {}
    for config in configs:
        dims_of[config.key] = paper_torus_dims(config.topology())
        xspec = ("nn", {"message_bytes": windows.nn_message_bytes})
        for rname, rfactory, rspec in (
            ("MIN", config.minimal, config.minimal_spec()),
            ("INR", config.indirect, config.indirect_spec()),
            ("ADAPT", config.adaptive, config.adaptive_spec()),
        ):
            tasks.append((f"{config.key}/{rname}", config, rfactory, rspec, xspec))
    by_key = _run_exchange_tasks(tasks, orchestrator, seed)
    rows: List[List[object]] = []
    results: Dict[str, float] = {}
    for key, config, *_ in tasks:
        eff = by_key[key]["effective_throughput"]
        results[key] = eff
        dims = dims_of[config.key]
        rows.append([config.key, f"{dims[0]}x{dims[1]}x{dims[2]}",
                     key.rsplit("/", 1)[-1], eff])
    return {
        "results": results,
        "rows": rows,
        "report": ascii_table(
            ["config", "torus", "routing", "effective throughput"],
            rows,
            title="Fig. 14: effective throughput, nearest-neighbour exchange",
        ),
    }


def tail_effects_data(scale: str = "tiny", seed: int = 0,
                      configs: Optional[Sequence[ExperimentConfig]] = None) -> Dict:
    """Sec. 4.4's tail-effect argument, quantified.

    The paper argues that the A2A effective throughput being "almost
    identical to the steady state throughput is a strong indicator that
    tail effects are negligible".  This experiment measures both sides:
    the steady-state uniform throughput under minimal routing at high
    offered load, and the A2A effective throughput, and reports their
    ratio per configuration.
    """
    configs = list(configs) if configs is not None else configs_for_scale(scale)
    windows = windows_for_scale(scale)
    rows: List[List[object]] = []
    ratios: Dict[str, float] = {}
    for config in configs:
        topo = config.topology()
        points = load_sweep(
            topo, config.minimal, lambda t: UniformRandom(t.num_nodes), [0.95],
            warmup_ns=windows.warmup_ns, measure_ns=windows.measure_ns, seed=seed,
        )
        steady = points[0].throughput
        exchange = AllToAll(topo.num_nodes, message_bytes=windows.a2a_message_bytes,
                            seed=seed)
        eff = run_exchange(topo, config.minimal, exchange, seed=seed)[
            "effective_throughput"
        ]
        ratio = eff / steady
        ratios[config.key] = ratio
        rows.append([config.key, steady, eff, ratio])
    return {
        "ratios": ratios,
        "rows": rows,
        "report": ascii_table(
            ["config", "steady-state thr", "A2A effective thr", "ratio"],
            rows,
            title="Tail effects: steady-state vs finite-exchange throughput (Sec. 4.4)",
        ),
    }


def diversity_data(scale: str = "tiny") -> Dict:
    """Sec. 2.3.3: shortest-path diversity statistics per topology."""
    rows = []
    stats = []
    for config in configs_for_scale(scale):
        topo = config.topology()
        st = path_diversity_stats(topo)
        stats.append(st)
        rows.append([st.topology, st.num_pairs, st.mean, st.max,
                     st.mean_distance2, st.max_distance2])
    return {
        "stats": stats,
        "report": ascii_table(
            ["topology", "pairs", "mean", "max", "mean d2", "max d2"],
            rows,
            title="Sec. 2.3.3: minimal-path diversity between endpoint routers",
        ),
    }


# --------------------------------------------------------------------------
# Collective workloads (repro.workload): closed-loop completion times.
# --------------------------------------------------------------------------


def _run_workload_tasks(
    tasks: Sequence[Tuple[str, ExperimentConfig, Callable, Tuple[str, Dict[str, object]],
                          Tuple[str, Dict[str, object]]]],
    orchestrator: Optional["Orchestrator"],
    seed: int,
) -> Dict[str, Dict[str, object]]:
    """Workload-figure engine: run named collectives, parallel if possible.

    Each task is ``(key, config, routing_factory, routing_spec,
    workload_spec)``; returns the driver result dict per key.  Mirrors
    :func:`_run_exchange_tasks`: workloads are rebuilt per run from
    their declarative spec in both paths, so serial and orchestrated
    results match bit-for-bit.
    """
    use_orchestrator = orchestrator is not None and all(t[1].spec for t in tasks)
    out: Dict[str, Dict[str, object]] = {}
    if not use_orchestrator:
        from repro.experiments.runner import run_workload
        from repro.orchestrate.job import _build_workload  # shared builder

        topo_cache: Dict[str, object] = {}
        for key, config, rfactory, _rspec, (wname, wkwargs) in tasks:
            topo = topo_cache.setdefault(config.key, config.topology())
            workload = _build_workload(wname, dict(wkwargs), topo)
            out[key] = run_workload(topo, rfactory, workload, seed=seed)
        return out

    from repro.orchestrate import workload_job

    jobs = [
        workload_job(config.spec, rspec, wspec, seed=seed, tag=key)
        for key, config, _rfactory, rspec, wspec in tasks
    ]
    result = orchestrator.run(jobs)
    for (key, *_), job_id in zip(tasks, result.order):
        outcome = result.outcomes[job_id]
        if not outcome.ok or outcome.result is None:
            raise RuntimeError(f"workload job {job_id} ({key}) failed: {outcome.error}")
        out[key] = outcome.result.payload
    return out


def collectives_data(scale: str = "tiny", seed: int = 0,
                     collective: str = "ring-allreduce",
                     sizes: Optional[Sequence[int]] = None,
                     routings: Sequence[str] = ("MIN", "ADAPT"),
                     configs: Optional[Sequence[ExperimentConfig]] = None,
                     orchestrator: Optional["Orchestrator"] = None) -> Dict:
    """Collective completion time vs message size, per topology x routing.

    The closed-loop counterpart of Figs. 13/14: instead of a one-shot
    exchange's effective throughput, this measures how long a
    dependency-DAG collective (default: ring all-reduce over all nodes)
    takes to *complete* as the vector size grows -- the metric that
    separates low-diameter topologies on real workloads.  Also reports
    the DAG critical-path bound, the contention stretch (measured /
    bound) and the observed link-load skew.
    """
    configs = list(configs) if configs is not None else configs_for_scale(scale)
    if sizes is None:
        # Span latency-bound through bandwidth-bound regimes.  Ring
        # chunks are size/R bytes, so sizes must straddle multiples of
        # R * packet_bytes or adjacent points collapse onto the same
        # per-step packet count (and hence identical completion times).
        n = max(c.build().num_nodes for c in configs)
        step = n * 256  # one extra packet per ring step
        sizes = (step // 2, 2 * step, 8 * step)
    tasks = []
    for config in configs:
        for rname in routings:
            rspec = config.routing_spec(rname)
            rfactory = {"MIN": config.minimal, "INR": config.indirect,
                        "ADAPT": config.adaptive}[rname]
            for size in sizes:
                wspec = (collective, {"message_bytes": int(size)})
                tasks.append((f"{config.key}/{rname}/B{size}", config,
                              rfactory, rspec, wspec))
    by_key = _run_workload_tasks(tasks, orchestrator, seed)
    rows: List[List[object]] = []
    results: Dict[str, Dict[str, object]] = {}
    for key, config, *_ in tasks:
        res = by_key[key]
        results[key] = res
        _, rname, blabel = key.split("/")
        rows.append([
            config.key, rname, int(blabel[1:]), res["completion_ns"],
            res["critical_path_ideal_ns"], res["contention_stretch"],
            res["link_load_skew"],
        ])
    return {
        "collective": collective,
        "sizes": list(int(s) for s in sizes),
        "results": results,
        "rows": rows,
        "report": ascii_table(
            ["config", "routing", "msg bytes", "completion ns",
             "critical path ns", "stretch", "link skew"],
            rows,
            title=f"Collective completion time: {collective} (closed loop)",
        ),
    }
