"""The benchmark's workloads: what one repetition builds, runs and returns.

A repetition drives the simulator only through its public entry points
(``configs_for_scale``, the topology and routing constructors,
``Network``, ``Network.run_synthetic``, ``build_workload`` and
``WorkloadDriver.run``) and returns the simulated result, which the
caller compares with the committed reference.  Host-time fields are
never part of the result.  The workloads themselves are defined in
``catalog.py``.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, Optional

from catalog import LOAD, WORKLOADS
from repro.experiments.configs import configs_for_scale
from repro.sim import Network, SimConfig
from repro.traffic import UniformRandom
from repro.workload import WorkloadDriver, build_workload


def _timed(tracer, name: str, fn, *args, **kwargs):
    """Call *fn*, inside a span when a tracer is given."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


class Repetition:
    """One workload: built on construction, simulated by :meth:`run`."""

    def __init__(self, workload: str, size: str, seed: int, tracer=None):
        spec = WORKLOADS[workload]
        params = spec[size]
        self.kind = spec["kind"]
        self.params = params
        self.seed = seed
        config = next(c for c in configs_for_scale(params["scale"])
                      if c.key == params["config"])
        faults = ()
        if self.kind == "collective":
            # The collective's result does not depend on the routing
            # seed, so the seed also picks which links fail.
            faults = (f"drip@{params['fault_at_ns']:g}:n={params['faults']},"
                      f"every={params['fault_every_ns']:g},seed={seed}",)
        sim_config = SimConfig(backend=spec["backend"], faults=faults)

        #: Host time at the first constructor call, and the process's CPU
        #: time then.
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()
        topo = _timed(tracer, "topology.build", config.topology)
        routing = _timed(tracer, "routing.build", config.adaptive, topo, seed=seed)
        net = _timed(tracer, "sim.network.build", Network, topo, routing, sim_config)
        self.net = net
        if tracer is not None:
            tracer.instrument(net)
        if self.kind == "synthetic":
            self.pattern = _timed(tracer, "traffic.setup", UniformRandom,
                                  topo.num_nodes)
        else:
            ranks = params["ranks"] or topo.num_nodes
            packet_bytes = sim_config.packet_bytes

            def build():
                # One packet per message: the vector is R packet-sized chunks.
                wl = build_workload("ring-allreduce", topo.num_nodes,
                                    packet_bytes * ranks, ranks=ranks)
                return WorkloadDriver(net, wl)

            self.driver = _timed(tracer, "workload.build", build)
        #: Host and CPU time when the run entry point is called: the end
        #: of set-up as untraced repetitions see it (see README.md).
        self.t_call = time.perf_counter()
        self.c_call = time.process_time()

    def run(self) -> None:
        """Simulate, and keep the result in its JSON form in ``result``."""
        if self.kind == "synthetic":
            stats = self.net.run_synthetic(
                self.pattern, load=LOAD, warmup_ns=self.params["warmup_ns"],
                measure_ns=self.params["measure_ns"], seed=self.seed)
            result = synthetic_result(stats)
        else:
            result = collective_result(self.driver.run())
        #: The simulated result in its JSON form (what references hold).
        self.result = json.loads(json.dumps(result, sort_keys=True))

    def kernel_stats(self) -> Optional[dict]:
        """``KernelEngine.kernel_stats()``, or None off the kernel."""
        stats = getattr(self.net.engine, "kernel_stats", None)
        return stats() if stats is not None else None


def synthetic_result(stats) -> Dict[str, Any]:
    """The simulated fields of a ``WindowStats``."""
    return {
        "throughput": stats.throughput,
        "mean_latency_ns": stats.mean_latency_ns,
        "p99_latency_ns": stats.p99_latency_ns,
        "ejected_packets": stats.ejected_packets,
        "ejected_bytes": stats.ejected_bytes,
        "injected_packets": stats.injected_packets,
        "window_ns": stats.window_ns,
        "kind_counts": stats.kind_counts,
        "mean_hops": stats.mean_hops,
    }


#: ``WorkloadDriver.run`` fields that are host time or engine
#: bookkeeping rather than simulated behaviour.
_NOT_SIMULATED = ("driver_wall_s", "events")


def collective_result(out: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated fields of a ``WorkloadDriver.run`` result."""
    return {k: v for k, v in out.items() if k not in _NOT_SIMULATED}
