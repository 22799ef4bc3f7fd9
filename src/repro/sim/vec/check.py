"""Invariant checking for the kernel backend.

The object backend's :class:`~repro.sim.invariants.InvariantChecker`
shadows every router/NIC transition through Checked* subclasses; the
kernel backend has no per-transition callbacks to hook, so its checker
works from the two seams both backends share -- packet creation and
delivery -- plus *full-state audits* that reconcile the SoA arrays, the
pending-event heap and the statistics counters against each other.

Checked invariants:

- **Route legality** (at ``make_packet``): route endpoints match the
  packet's source/destination routers, every hop uses an existing
  channel and the topology's port table, the ejection port is the
  destination node's, and VC labels are within budget and legal under
  the routing's VC policy.  Identical rules to the object checker.
- **Latency floor** (at ``deliver``): no packet arrives earlier than
  the zero-load latency of its hop count allows.
- **Conservation** (audits): ``injected - delivered`` equals the
  packets found in input queues, output queues and in-flight heap
  events; the per-port ``queued`` counter behind UGAL-L's congestion
  signal matches a recount; ``oq_occ`` matches queue contents plus
  in-switch packets.
- **Credit loops** (audits): for every channel VC,
  ``credits + pending credit arrivals + downstream buffered + on-link``
  sums to the VC capacity (pending arrivals are the kernel's
  lazily-drained representation of the object engine's in-flight
  credits); NIC injection loops likewise sum to the port capacity.

Violations raise :class:`~repro.sim.invariants.InvariantViolation` with
a state snapshot.  Audits run every ``AUDIT_PERIOD`` deliveries and at
experiment end (``audit`` / ``verify_quiescent``, the same entry points
the object checker exposes); they walk live state only and schedule no
events, so checking cannot perturb event order -- a checked kernel run
produces the same fingerprint as an unchecked one.

An attached checker also gates the kernel's C fast paths off
(``KernelEngine._fastpath_spec`` requires ``net.checker is None``
because the checker wraps both seams): checked kernel runs take the
per-packet make_packet/deliver escapes, and the goldens pin that both
routes produce identical fingerprints.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.sim.invariants import InvariantViolation
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = ["BatchedChecker"]

#: Deliveries between two full-state audits.
AUDIT_PERIOD = 256

# Opcodes of in-flight packet-carrying events (mirrors vec.engine).
_RECV, _ENTER, _DELIVER = 0, 1, 3


class _DeliveryLog:
    """Minimal stand-in for the object checker's transition history:
    counts observed packet events (the CLI summary reports it)."""

    __slots__ = ("appended",)

    def __init__(self) -> None:
        self.appended = 0


class BatchedChecker:
    """Audit-based invariant checker for ``backend="kernel"``."""

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.injected = 0
        self.delivered = 0
        self.audits = 0
        self.history = _DeliveryLog()
        self._since_audit = 0
        self._vc_capacity = net.config.buffer_packets_per_vc(net.num_vcs)
        self._nic_capacity = net.config.buffer_packets_per_port
        self._orig_make_packet = None
        self._orig_deliver = None

    # -- wiring ----------------------------------------------------------------

    def attach(self) -> None:
        """Hook packet creation/delivery; called once the engine is built."""
        net = self.net
        self._orig_make_packet = net.make_packet
        self._orig_deliver = net.deliver
        net.make_packet = self._checked_make_packet
        net.deliver = self._checked_deliver

    def fail(self, rule: str, message: str, **where) -> None:
        raise InvariantViolation(
            rule, message, time_ns=self.net.engine.now,
            snapshot={"backend": "kernel"}, **where,
        )

    # -- packet creation -------------------------------------------------------

    def _checked_make_packet(self, src_node, dst_node, size, msg_id, gen_time):
        pkt = self._orig_make_packet(src_node, dst_node, size, msg_id, gen_time)
        st = self.net._vec.st
        if len(st.k_obj) != pkt.pid:
            self.fail("conservation", f"packet SoA holds {len(st.k_obj)} "
                      f"entries at injection of pid {pkt.pid} (arrays and "
                      f"pid allocation desynchronized)", pid=pkt.pid)
        self.validate_route(pkt)
        self.injected += 1
        self.history.appended += 1
        return pkt

    def validate_route(self, pkt: Packet) -> None:
        """Topology, port-table and VC-policy legality of one route
        (the object checker's rules, see its ``validate_route``)."""
        net = self.net
        topo = net.topology
        routers = pkt.routers
        hops = len(routers) - 1
        if routers[0] != topo.router_of(pkt.src_node):
            self.fail("route-legality", f"route starts at router {routers[0]}, "
                      f"but node {pkt.src_node} attaches to "
                      f"{topo.router_of(pkt.src_node)}", pid=pkt.pid)
        if routers[-1] != topo.router_of(pkt.dst_node):
            self.fail("route-legality", f"route ends at router {routers[-1]}, "
                      f"but node {pkt.dst_node} attaches to "
                      f"{topo.router_of(pkt.dst_node)}", pid=pkt.pid)
        if len(pkt.ports) != hops + 1 or len(pkt.vcs) != hops:
            self.fail("route-legality",
                      f"route of {hops} hops carries {len(pkt.ports)} ports "
                      f"and {len(pkt.vcs)} VC labels", pid=pkt.pid)
        for i in range(hops):
            u, v = routers[i], routers[i + 1]
            if not topo.is_edge(u, v):
                self.fail("route-legality", f"hop {i} uses non-existent "
                          f"channel ({u}, {v})", router=u, pid=pkt.pid)
            if pkt.ports[i] != topo.port(u, v):
                self.fail("route-legality", f"hop {i} ({u}->{v}) uses port "
                          f"{pkt.ports[i]}, expected {topo.port(u, v)}",
                          router=u, port=pkt.ports[i], pid=pkt.pid)
        if pkt.ports[-1] != net._eject_ports[pkt.dst_node]:
            self.fail("route-legality", f"ejection port {pkt.ports[-1]} is "
                      f"not node {pkt.dst_node}'s port "
                      f"{net._eject_ports[pkt.dst_node]}",
                      router=routers[-1], pid=pkt.pid)
        num_vcs = net.num_vcs
        for h, vc in enumerate(pkt.vcs):
            if not (0 <= vc < num_vcs):
                self.fail("vc-legality", f"hop {h} uses VC {vc}, outside the "
                          f"provisioned 0..{num_vcs - 1}", vc=vc, pid=pkt.pid)
        policy = getattr(net.routing, "vc_policy", None)
        if policy is not None:
            problem = policy.check_legal(pkt.vcs, pkt.kind)
            if problem is not None:
                self.fail("vc-legality", problem, pid=pkt.pid)

    # -- delivery --------------------------------------------------------------

    def _checked_deliver(self, pkt: Packet) -> None:
        now = self.net.engine.now
        floor = self.net.config.zero_load_latency_ns(len(pkt.routers) - 1)
        elapsed = now - pkt.send_time
        if elapsed < floor * (1.0 - 1e-9) - 1e-9:
            self.fail("latency-floor", f"packet {pkt.pid} delivered "
                      f"{elapsed:.3f}ns after transmission, below the "
                      f"{floor:.3f}ns zero-load floor for "
                      f"{len(pkt.routers) - 1} hops (time travel: lost "
                      f"serialization or switch delay)",
                      router=pkt.routers[-1], pid=pkt.pid)
        self.delivered += 1
        self.history.appended += 1
        if self.delivered > self.injected:
            self.fail("conservation", f"delivered {self.delivered} packets "
                      f"but only {self.injected} were injected", pid=pkt.pid)
        self._orig_deliver(pkt)
        self._since_audit += 1
        if self._since_audit >= AUDIT_PERIOD:
            self._since_audit = 0
            self.audit()

    # -- audits ----------------------------------------------------------------

    def audit(self) -> None:
        """Reconcile SoA arrays, the event heap and the stats counters."""
        self.audits += 1
        net = self.net
        eng = net._vec
        st = eng.st
        V = st.V
        if self.injected != net.stats.injected_total:
            self.fail("conservation", f"checker saw {self.injected} "
                      f"injections, StatsCollector recorded "
                      f"{net.stats.injected_total}")
        if self.delivered != net.stats.ejected_total:
            self.fail("conservation", f"checker saw {self.delivered} "
                      f"deliveries, StatsCollector recorded "
                      f"{net.stats.ejected_total}")

        # One pass over the pending event set: packet-carrying events
        # are in-flight packets; RECV events are additionally the
        # on-link population of their target input (credit-loop term).
        heap_pkts = 0
        enter_by_pv = {}
        enter_by_gid = {}
        recv_by_iv = {}
        for ev in eng.iter_pending():
            op = ev[2]
            if op == _RECV:
                heap_pkts += 1
                key = ev[3] * V + ev[4]
                recv_by_iv[key] = recv_by_iv.get(key, 0) + 1
            elif op == _ENTER:
                heap_pkts += 1
                enter_by_pv[ev[3]] = enter_by_pv.get(ev[3], 0) + 1
                enter_by_gid[ev[5]] = enter_by_gid.get(ev[5], 0) + 1
            elif op == _DELIVER:
                heap_pkts += 1

        buffered = sum(len(q) for q in st.iv_q)
        queued = sum(len(q) for q in st.pv_oq)
        in_flight = heap_pkts + buffered + queued
        fm = net.fault_manager
        dropped = fm.dropped if fm is not None else 0
        if self.injected != self.delivered + in_flight + dropped:
            self.fail("conservation", f"injected {self.injected} != "
                      f"delivered {self.delivered} + in-flight {in_flight} "
                      f"+ dropped {dropped} (on-link/in-switch {heap_pkts}, "
                      f"input-buffered {buffered}, output-queued {queued})")

        # Per-port occupancy counters vs. a recount.
        for gid in range(st.NP):
            base = gid * V
            occ_total = 0
            for vc in range(V):
                pv = base + vc
                expect = len(st.pv_oq[pv]) + enter_by_pv.get(pv, 0)
                if st.pv_occ[pv] != expect:
                    self.fail("conservation", f"oq_occ[{vc}] is "
                              f"{st.pv_occ[pv]}, recount holds {expect} "
                              f"packets in/entering that queue",
                              port=gid, vc=vc)
                occ_total += len(st.pv_oq[pv])
            occ_total += enter_by_gid.get(gid, 0)
            # p_queued additionally counts packets still in this
            # router's input buffers that route to this output.
            if st.p_queued[gid] < occ_total:
                self.fail("conservation", f"output `queued` counter "
                          f"{st.p_queued[gid]} is below its own queue "
                          f"population {occ_total} (UGAL congestion "
                          f"signal corrupt)", port=gid)

        # UGAL `queued` recount: every waiting packet charged to the
        # output it will take at its current router.
        queued_recount = [0] * st.NP
        for igid in range(st.NI):
            base_p = st.p_off[st.in_rid[igid]]
            for vc in range(V):
                for pid in st.iv_q[igid * V + vc]:
                    queued_recount[base_p + pid_port(st, pid)] += 1
        for gid, cnt in enter_by_gid.items():
            queued_recount[gid] += cnt
        for pv, q in enumerate(st.pv_oq):
            queued_recount[pv // V] += len(q)
        for gid in range(st.NP):
            if st.p_queued[gid] != queued_recount[gid]:
                self.fail("conservation", f"output `queued` counter is "
                          f"{st.p_queued[gid]}, recount holds "
                          f"{queued_recount[gid]} packets bound for it "
                          f"(UGAL congestion signal corrupt)", port=gid)

        # Credit loops: materialised credits + undrained arrivals +
        # downstream buffered + on-link == capacity, per channel VC.
        for gid in range(st.NP):
            if not st.p_has_cred[gid]:
                continue
            din = st.p_dest_in[gid]
            for vc in range(V):
                pv = gid * V + vc
                div = din * V + vc
                total = (st.pv_cred[pv] + len(st.pv_arr[pv])
                         + len(st.iv_q[div]) + recv_by_iv.get(div, 0))
                if total != self._vc_capacity:
                    self.fail("credit-loop", f"channel credit loop does not "
                              f"sum to capacity: credits {st.pv_cred[pv]} + "
                              f"in-flight {len(st.pv_arr[pv])} + buffered "
                              f"{len(st.iv_q[div])} + on-link "
                              f"{recv_by_iv.get(div, 0)} = {total}, "
                              f"expected {self._vc_capacity}",
                              port=gid, vc=vc)
        for node in range(st.NN):
            div = st.n_in[node] * V
            total = (st.n_cred[node] + len(st.n_arr[node])
                     + len(st.iv_q[div]) + recv_by_iv.get(div, 0))
            if total != self._nic_capacity:
                self.fail("credit-loop", f"NIC {node} injection loop does "
                          f"not sum to capacity: credits {st.n_cred[node]} "
                          f"+ in-flight {len(st.n_arr[node])} + buffered "
                          f"{len(st.iv_q[div])} + on-link "
                          f"{recv_by_iv.get(div, 0)} = {total}, expected "
                          f"{self._nic_capacity}")

    def verify_quiescent(self) -> None:
        """After a drained run: nothing in flight, every credit home."""
        self.audit()
        st = self.net._vec.st
        fm = self.net.fault_manager
        dropped = fm.dropped if fm is not None else 0
        in_flight = self.injected - self.delivered - dropped
        if in_flight:
            self.fail("conservation", f"{in_flight} packets still in "
                      f"flight after drain")
        for gid in range(st.NP):
            if st.p_pend[gid]:
                self.fail("starvation", f"inputs {list(st.p_pend[gid])} "
                          f"still pending on an idle output", port=gid)
            if not st.p_has_cred[gid]:
                continue
            for vc in range(st.V):
                pv = gid * st.V + vc
                home = st.pv_cred[pv] + len(st.pv_arr[pv])
                if home != self._vc_capacity:
                    self.fail("credit-loop", f"credits {home} not fully "
                              f"restored after drain (capacity "
                              f"{self._vc_capacity})", port=gid, vc=vc)
        for node in range(st.NN):
            home = st.n_cred[node] + len(st.n_arr[node])
            if home != self._nic_capacity:
                self.fail("credit-loop", f"NIC {node} ended with "
                          f"{home}/{self._nic_capacity} credits")


def pid_port(st, pid: int) -> int:
    """Output port index a buffered packet will request next."""
    return st.k_ports[pid][st.k_hop[pid]]
