"""Struct-of-arrays simulation state for the kernel backend.

:class:`SoAState` flattens the object model (routers owning
``OutputPort``/input-queue objects, per-node ``NIC`` objects) into
parallel arrays indexed by dense integer ids:

- **ports** get a global id ``gid`` (``port_offset[router] + out_idx``);
  per-port scalars (busy key, round-robin pointer, UGAL ``queued``
  counter, sent counter, ...) live in one list each;
- **port x VC** state (output-queue deques, occupancy, credits, pending
  credit arrivals) is indexed by ``gid * num_vcs + vc``;
- **inputs** (router input ports, including injection inputs) get a
  global id with per-input-VC packet queues and upstream credit targets;
- **packets** are parallel arrays keyed by pid (route ports/VCs, hop
  cursor, and the :class:`~repro.sim.packet.Packet` object reused by
  stats/delivery so measurement code stays backend-neutral).

Arrays holding counters that the audit path reduces over (occupancy,
credits, sent counts) are plain Python lists, which the C kernel
indexes directly and the Python escapes index cheaply, while the
invariant audits view them through numpy for whole-array reductions
(see :mod:`repro.sim.vec.check`).

The state is *built from* an assembled object-mode network, so the
wiring (neighbor ports, credit sinks, ejection ports) has exactly one
source of truth and cannot drift between backends.

Laziness contracts (shared with :mod:`repro.sim.vec.engine`):

- A port/NIC is **busy** at event key ``(t, seq)`` iff
  ``(t, seq) < (busy_t, busy_seq)`` -- the link-free callback the object
  engine would run *at* the busy key is elided, so busyness ends
  exactly at (and including) that reserved key.
- A credit count is ``credits[i]`` **plus** every entry of the pending
  arrival deque with key ``<= (t, seq)``; arrivals are drained on
  demand.  The deque entry *is* the elided credit-return event: its
  reserved ``(time, seq)`` key is allocated when the upstream transfer
  schedules it, keeping global event order exact.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Optional, TYPE_CHECKING

from repro.sim.nic import Descriptor

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network
    from repro.sim.vec.engine import BatchedEngine

__all__ = ["SoAState", "BatchedNIC", "make_queue_len"]


class SoAState:
    """Flat simulation state; see the module docstring for the layout."""

    __slots__ = (
        # dimensions / physics constants
        "V", "NN", "NR", "NP", "NI", "OQ_CAP", "SER", "LINK", "SWITCH", "SL",
        # router/port geometry
        "p_off", "in_off", "in_rid", "in_pbase", "in_up_port", "in_up_node",
        # per-port state (len NP)
        "p_busy_t", "p_busy_s", "p_wake", "p_queued", "p_rr", "p_sent",
        "p_oqtot", "p_pend", "p_dest_in", "p_eject", "p_has_cred", "p_dead",
        # per port-VC state (len NP*V)
        "pv_oq", "pv_occ", "pv_cred", "pv_arr",
        # per input-VC packet queues (len NI*V)
        "iv_q",
        # NIC state (len NN)
        "n_q", "n_src", "n_cred", "n_arr", "n_busy_t", "n_busy_s",
        "n_wake", "n_stalls", "n_qp", "n_in", "n_rid", "n_cred_cap",
        # packet SoA (index = pid; slot 0 is a placeholder)
        "k_ports", "k_vcs", "k_hop", "k_obj",
        # UGAL congestion row table (flat, stride NR):
        # row_port[r * NR + neighbor] -> port gid
        "row_port",
        # object-mode ports in gid order (for utilization sync/debug)
        "obj_ports",
        # pregenerated synthetic traffic (set by setup_synthetic)
        "g_t", "g_d", "g_i", "g_pkt_bytes",
    )

    @classmethod
    def from_network(cls, net: "Network") -> "SoAState":
        st = cls()
        topo = net.topology
        cfg = net.config
        V = st.V = net.num_vcs
        st.NN = topo.num_nodes
        NR = st.NR = topo.num_routers
        st.SER = cfg.packet_time_ns
        st.LINK = cfg.link_latency_ns
        st.SWITCH = cfg.switch_latency_ns
        st.SL = st.SER + st.LINK
        st.OQ_CAP = cfg.buffer_packets_per_vc(V)
        st.n_cred_cap = cfg.buffer_packets_per_port

        # Port and input id spaces.  Ports and inputs are congruent in
        # this model (every router has degree+p of each), but they are
        # flattened independently so the layout survives asymmetries.
        st.p_off = [0] * NR
        st.in_off = [0] * NR
        np_total = ni_total = 0
        for r, router in enumerate(net.routers):
            st.p_off[r] = np_total
            st.in_off[r] = ni_total
            np_total += len(router.out)
            ni_total += len(router.in_q)
        NP = st.NP = np_total
        NI = st.NI = ni_total

        st.in_rid = [0] * NI
        st.in_up_port = [-1] * NI
        st.in_up_node = [-1] * NI
        st.p_busy_t = [0.0] * NP
        st.p_busy_s = [-1] * NP  # (t, s) < (0.0, -1) is false for any event
        st.p_wake = [False] * NP
        st.p_queued = [0] * NP
        st.p_rr = [0] * NP
        st.p_sent = [0] * NP
        st.p_oqtot = [0] * NP
        st.p_pend = [deque() for _ in range(NP)]
        st.p_dest_in = [-1] * NP
        st.p_eject = [-1] * NP
        st.p_has_cred = [False] * NP
        st.p_dead = [False] * NP  # failed-link markers (repro.resilience)
        st.pv_oq = [deque() for _ in range(NP * V)]
        st.pv_occ = [0] * (NP * V)
        st.pv_cred = [0] * (NP * V)
        st.pv_arr = [deque() for _ in range(NP * V)]
        st.iv_q = [deque() for _ in range(NI * V)]
        st.obj_ports = []

        from repro.sim.nic import NIC
        from repro.sim.switch import _PortCreditSink

        for r, router in enumerate(net.routers):
            base = st.p_off[r]
            for out_idx, port in enumerate(router.out):
                gid = base + out_idx
                st.obj_ports.append(port)
                if port.downstream is None:
                    st.p_eject[gid] = port.eject_node
                else:
                    ds_rid = port.downstream.rid
                    st.p_dest_in[gid] = st.in_off[ds_rid] + port.downstream_in_idx
                if port.credits is not None:
                    st.p_has_cred[gid] = True
                    for vc in range(V):
                        st.pv_cred[gid * V + vc] = port.credits[vc]
            ibase = st.in_off[r]
            for in_idx, upstream in enumerate(router.in_upstream):
                igid = ibase + in_idx
                st.in_rid[igid] = r
                if isinstance(upstream, NIC):
                    st.in_up_node[igid] = upstream.node
                elif isinstance(upstream, _PortCreditSink):
                    st.in_up_port[igid] = (
                        st.p_off[upstream.router.rid] + upstream.port.out_idx
                    )

        # Hot-loop shortcut: input gid -> its router's port-id base.
        st.in_pbase = [st.p_off[st.in_rid[i]] for i in range(NI)]

        NN = st.NN
        st.n_q = [deque() for _ in range(NN)]
        st.n_src: List[Optional[Iterator[Descriptor]]] = [None] * NN
        st.n_cred = [st.n_cred_cap] * NN
        st.n_arr = [deque() for _ in range(NN)]
        st.n_busy_t = [0.0] * NN
        st.n_busy_s = [-1] * NN
        st.n_wake = [False] * NN
        st.n_stalls = [0] * NN
        st.n_qp = [0] * NN
        st.n_in = [0] * NN
        # Node -> router id, for the kernel's in-C route selection
        # (make_packet resolves both endpoints via topology.router_of;
        # the flat list is the array-friendly equivalent).
        st.n_rid = [0] * NN
        for node, nic in enumerate(net.nics):
            st.n_in[node] = st.in_off[nic.router_id] + nic.in_idx
            st.n_rid[node] = nic.router_id

        # Packet SoA; pids are 1-based (Network._pid pre-increments).
        st.k_ports = [()]
        st.k_vcs = [()]
        st.k_hop = [0]
        st.k_obj = [None]

        # Directed-channel row table behind UGAL-L's queue_len: the
        # route cache's flat array export rebased to global port ids
        # (row-major, stride NR -- one multiply-indexed load per probe).
        cache = getattr(net.routing, "cache", None)
        if cache is not None and cache.topology is topo:
            stride, flat = cache.flat_port_row()
        else:  # routing without a shared RouteCache: derive directly
            stride = NR
            flat = [-1] * (NR * NR)
            for r in range(NR):
                base = r * NR
                for out_idx, neighbor in enumerate(topo.neighbors(r)):
                    flat[base + neighbor] = out_idx
        st.row_port = [
            -1 if p < 0 else st.p_off[i // stride] + p
            for i, p in enumerate(flat)
        ]

        st.g_t = st.g_d = st.g_i = None
        st.g_pkt_bytes = 0
        return st

    # -- cold-path views -----------------------------------------------------

    def sync_ports(self) -> None:
        """Write live per-port counters back into the object-mode
        ``OutputPort`` instances, so cold-path readers (utilization
        maps, debugging) see one representation."""
        p_sent = self.p_sent
        p_queued = self.p_queued
        for gid, port in enumerate(self.obj_ports):
            port.sent_packets = p_sent[gid]
            port.queued = p_queued[gid]

    def reset_sent(self) -> None:
        """Zero transmission counters in place (warm-up boundary).

        In-place: the running event loop holds a reference to the list.
        """
        sent = self.p_sent
        for gid in range(len(sent)):
            sent[gid] = 0


def make_queue_len(st: SoAState):
    """A closure implementing the UGAL-L congestion signal over SoA
    state -- bound as ``Network.queue_len`` on the kernel backend
    (instance attributes shadow class methods, so object mode pays
    nothing)."""
    p_queued = st.p_queued
    row_port = st.row_port
    stride = st.NR

    def queue_len(router: int, neighbor: int) -> int:
        return p_queued[row_port[router * stride + neighbor]]

    return queue_len


class BatchedNIC:
    """Driver-facing NIC shim over SoA state.

    Implements the object :class:`~repro.sim.nic.NIC`'s driver interface
    (``submit`` / ``set_source`` plus the observability counters) so
    workload drivers, exchanges and tests address NICs identically under
    both backends.  Mutations go straight into the arrays; the busy test
    is the lazy key comparison documented in :mod:`repro.sim.vec.state`.
    """

    __slots__ = ("eng", "node")

    def __init__(self, eng: "BatchedEngine", node: int):
        self.eng = eng
        self.node = node

    def submit(self, dst_node: int, size: int, msg_id: Optional[int] = None) -> None:
        """Queue one packet for transmission (time-driven traffic)."""
        eng = self.eng
        st = eng.st
        node = self.node
        t = eng.now
        s = eng._cs
        st.n_q[node].append((dst_node, size, msg_id, t))
        st.n_qp[node] += 1
        bt = st.n_busy_t[node]
        if t < bt or (t == bt and s < st.n_busy_s[node]):
            if not st.n_wake[node]:
                eng._push(bt, st.n_busy_s[node], eng.OP_NWAKE, node, 0, 0)
                st.n_wake[node] = True
        else:
            eng._nic_try_send(node, t, s)

    def set_source(self, source: Iterator[Descriptor]) -> None:
        """Attach a pull-source of descriptors (finite exchanges)."""
        eng = self.eng
        st = eng.st
        node = self.node
        st.n_src[node] = source
        t = eng.now
        s = eng._cs
        bt = st.n_busy_t[node]
        if t < bt or (t == bt and s < st.n_busy_s[node]):
            if not st.n_wake[node]:
                eng._push(bt, st.n_busy_s[node], eng.OP_NWAKE, node, 0, 0)
                st.n_wake[node] = True
        else:
            eng._nic_try_send(node, t, s)

    # -- observability (mirrors the object NIC's counters) -------------------

    @property
    def queued_packets(self) -> int:
        return self.eng.st.n_qp[self.node]

    @property
    def credit_stalls(self) -> int:
        return self.eng.st.n_stalls[self.node]

    @property
    def credits(self) -> int:
        """Credits materialised so far (pending arrivals not drained)."""
        return self.eng.st.n_cred[self.node]

    @property
    def source(self):
        return self.eng.st.n_src[self.node]
