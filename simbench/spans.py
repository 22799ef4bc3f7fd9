"""Spans for the traced run, and the per-layer metrics derived from them.

Only traced repetitions create a :class:`Tracer`; untraced ones install
nothing.  Spans are recorded around calls into each layer: the
benchmark's own constructor calls, plus wrappers this module puts on the
layer functions the simulator calls internally.  Each span is
``[name, start, end, parent]`` (``parent`` is an index, -1 for none),
kept in memory and written out once, after the repetition.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import json
import resource
import time
from typing import Dict, List

from repro.resilience.manager import FaultManager
from repro.routing.cache import RouteCache
from repro.sim.engine import Engine
from repro.sim.nic import NIC
from repro.sim.stats import StatsCollector
from repro.sim.vec.engine import BatchedEngine
from repro.sim.vec.kernel import KernelEngine
from repro.sim.vec.state import BatchedNIC

KERNEL_OPS = ("RECV", "ENTER", "PWAKE", "NWAKE", "GEN", "DELIVER", "CALL")
KERNEL_ESCAPES = ("make_packet", "deliver", "call", "fault_divert", "stats_flush")


def rss_kb() -> int:
    """Current resident set of this process, in KiB."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() // 1024


def peak_rss_kb() -> int:
    """Peak resident set of this process so far, in KiB (Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.rss_loop_start_kb = 0

    def open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        i = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        """*fn* with every call recorded as a span called *name*."""
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return traced

    # -- instrumentation -------------------------------------------------------

    def patch_classes(self) -> None:
        """Wrap the layer functions the simulator calls internally.

        Done at class level, before anything is constructed, because
        the routing algorithms bind the cache's fill methods when they
        are built and the NICs and engines have ``__slots__``.  Each
        traced repetition runs in a fresh process, so nothing leaks.
        """
        for cls, attr, name in (
            (RouteCache, "minimal_fill", "routing.cache.fill"),
            (RouteCache, "leg_fill", "routing.cache.fill"),
            (RouteCache, "compose", "routing.cache.fill"),
            (NIC, "submit", "sim.nic.submit"),
            (BatchedNIC, "submit", "sim.nic.submit"),
            # The fault manager's handler for one scheduled fault event;
            # it has no public per-fault entry point.
            (FaultManager, "_fire", "resilience.fail_link"),
            (StatsCollector, "absorb_kernel", "sim.stats.flush"),
            (StatsCollector, "window_stats", "sim.stats.window"),
            (BatchedEngine, "setup_synthetic", "traffic.setup"),
        ):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
        for cls in (Engine, KernelEngine):
            setattr(cls, "run", self._wrap_run(cls.run))

    def _wrap_run(self, run):
        traced = self.wrap("sim.engine.run", run)

        def run_with_rss(*args, **kwargs):
            self.rss_loop_start_kb = rss_kb()
            return traced(*args, **kwargs)
        return run_with_rss

    def instrument(self, net) -> None:
        """Wrap what hangs off one built network: its routing entry
        point and the delivery listeners registered on it."""
        net.routing.route = self.wrap("routing.route", net.routing.route)
        add = net.add_delivery_listener
        net.add_delivery_listener = lambda fn: add(self.wrap("workload.listener", fn))

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f, separators=(",", ":"))


def layer_metrics(tracer: Tracer, rep, root: int) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition.

    *root* is the span covering the whole repetition; its self time is
    the time no layer span accounts for.
    """
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
    total: Dict[str, float] = {}
    count: Dict[str, int] = {}
    self_time: Dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[0]
        total[name] = total.get(name, 0.0) + dur[i]
        count[name] = count.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur[i] - child_time[i]
    run_spans = {i for i, s in enumerate(spans) if s[0] == "sim.engine.run"}
    # Fills the C loop calls directly, not from inside a Python escape.
    fill_from_c = sum(dur[i] for i, s in enumerate(spans)
                      if s[0] == "routing.cache.fill" and s[3] in run_spans)

    net = rep.net
    engine = net.engine
    events = engine.events_executed
    loop_s = self_time.get("sim.engine.run", 0.0)
    m: Dict[str, float] = {
        "topology.build_s": total.get("topology.build", 0.0),
        "routing.build_s": total.get("routing.build", 0.0),
        "sim.network.build_s": total.get("sim.network.build", 0.0),
        "traffic.setup_s": total.get("traffic.setup", 0.0),
        "workload.build_s": total.get("workload.build", 0.0),
        "routing.cache.fill.calls": count.get("routing.cache.fill", 0),
        "routing.cache.fill_s": total.get("routing.cache.fill", 0.0),
        "sim.engine.events": events,
        "sim.engine.loop_s": loop_s,
        "sim.engine.ns_per_event": loop_s * 1e9 / events if events else 0.0,
        "routing.route.calls": count.get("routing.route", 0),
        "routing.route_s": total.get("routing.route", 0.0),
        "sim.nic.submit.calls": count.get("sim.nic.submit", 0),
        "sim.nic.submit_s": total.get("sim.nic.submit", 0.0),
        "workload.listener.calls": count.get("workload.listener", 0),
        "workload.listener_s": self_time.get("workload.listener", 0.0),
        "resilience.fail_link_s": total.get("resilience.fail_link", 0.0),
        "sim.stats.flush_s": total.get("sim.stats.flush", 0.0),
        "sim.stats.window_s": total.get("sim.stats.window", 0.0),
        "run.unattributed_s": dur[root] - child_time[root],
    }
    cache = net.routing.cache.stats()
    m["routing.cache.minimal_pairs"] = cache["minimal_pairs"]
    m["routing.cache.composed_routes"] = cache["composed_routes"]
    fm = net.fault_manager
    m["resilience.faults_fired"] = fm.fired if fm is not None else 0
    m["resilience.reroutes"] = fm.reroutes if fm is not None else 0
    m["sim.nic.credit_stalls"] = sum(nic.credit_stalls for nic in net.nics)

    ks = rep.kernel_stats() or {
        "events": 0, "run_ns": 0.0, "escape_ns": 0.0,
        "op_counts": {op: 0 for op in KERNEL_OPS},
        "escapes": {e: {"count": 0, "ns": 0.0} for e in KERNEL_ESCAPES},
        "fast_path": {"make_packet": {"count": 0}, "deliver": {"count": 0}},
    }
    k_events = ks["events"]
    k_loop = ((ks["run_ns"] - ks["escape_ns"]) / 1e9 - fill_from_c
              if k_events else 0.0)
    m["sim.vec.kernel.events"] = k_events
    m["sim.vec.kernel.loop_s"] = k_loop
    m["sim.vec.kernel.ns_per_event"] = k_loop * 1e9 / k_events if k_events else 0.0
    for op in KERNEL_OPS:
        m[f"sim.vec.kernel.op.{op}.count"] = ks["op_counts"][op]
    for esc in KERNEL_ESCAPES:
        m[f"sim.vec.kernel.escape.{esc}.count"] = ks["escapes"][esc]["count"]
        m[f"sim.vec.kernel.escape.{esc}.s"] = ks["escapes"][esc]["ns"] / 1e9
    fast = sum(v["count"] for v in ks["fast_path"].values())
    slow = ks["escapes"]["make_packet"]["count"] + ks["escapes"]["deliver"]["count"]
    m["sim.vec.kernel.fastpath_share"] = fast / (fast + slow) if fast + slow else 0.0

    start_kb = tracer.rss_loop_start_kb
    injected = net.stats.injected_total
    m["mem.rss_after_setup_mb"] = start_kb / 1024
    m["mem.rss_per_packet_kb"] = (
        (peak_rss_kb() - start_kb) / injected if injected else 0.0)
    return m
