"""Struct-of-arrays event model shared by the compiled kernel.

:class:`BatchedEngine` holds the parts of the kernel backend that live
in Python: the struct-of-arrays state (:mod:`repro.sim.vec.state`), the
driver-facing NIC shims, synthetic-traffic pregeneration, the NIC send
path the kernel escapes to, and the cold-path mirrors the fault manager
drains through.  The event queue and the dispatch loop are
:class:`~repro.sim.vec.kernel.KernelEngine`'s (a C binary heap and C
opcode handlers); every push here goes through its ``_push``.  Events
are ``(time, seq, op, a, b, c)`` records; ``seq`` is the same global
tie-breaker the object engine uses, which makes same-timestamp
execution order deterministic and -- crucially -- *identical* across
backends.

Exactness model
===============

The object engine executes ~13 heap events per delivered packet.  Five
of them (NIC/port link-free, NIC/port credit-return) only flip a flag
or bump a counter and then *maybe* re-attempt a send.  The kernel
elides them: busyness is a stored ``(busy_t, busy_seq)`` key compared
lazily, credits are a count plus a deque of in-flight arrival keys
drained on demand.  Two invariants make the elision exact rather than
merely plausible:

1. **Sequence reservation.**  Every ``engine.schedule()`` call the
   object engine would make is mirrored -- in the same order inside
   each handler -- by incrementing the sequence counter, whether or not
   an event record is queued.  An elided event's reserved
   ``(time, seq)`` key is stored with the lazy state it represents.

2. **Reserved-key wake-ups.**  When an elided event *would* have done
   real work (the link-free retry that finds a queued packet, the
   credit arrival that unblocks a stalled VC), a wake event is pushed
   *at the reserved key*, so it executes exactly where the object
   engine's callback would have.  Wake rules are conservative: a
   spurious wake re-checks state and no-ops, exactly like the object
   handlers it replaces (``try_send``/``_try_transmit`` on a busy or
   credit-less port), so duplicates cannot change behaviour.

Because every surviving event carries the key it would have had in the
object engine, the global event order -- and with it the shared routing
RNG draw order, every float addition producing a timestamp, and every
round-robin/FIFO arbitration decision -- is reproduced bit-for-bit.
The golden conformance suite and the cross-backend fuzz harness assert
exactly that; they, not any second implementation, are the
specification the C handlers are held to.

Packet generation for ``run_synthetic`` is pregenerated per node
(:meth:`BatchedEngine.setup_synthetic`): each node's traffic pattern
and inter-arrival draws come from a *private* per-node RNG, so playing
a node's draws forward at setup consumes the identical stream the
object engine draws one event at a time.

Arbitrary callbacks (``schedule(delay, fn, *args)``) remain supported
via a CALL op -- the workload driver's closed-loop completion events
and the warm-up utilization reset use it -- so the drivers in
:mod:`repro.sim.network` and :mod:`repro.workload.driver` run unchanged
on either backend.
"""

from __future__ import annotations

import random
from typing import Any, Callable, TYPE_CHECKING

from repro.sim.vec.state import BatchedNIC, SoAState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = ["BatchedEngine"]

# Event opcodes (the C kernel's OP_* enum).
_RECV = 0     # a=input gid, b=vc, c=pid   -- packet arrives at an input buffer
_ENTER = 1    # a=port-vc id, b=pid, c=port gid -- packet enters an output queue
_PWAKE = 2    # a=port gid                 -- elided link-free/credit retry
_DELIVER = 3  # c=pid                      -- packet reaches its NIC
_NWAKE = 4    # a=node                     -- elided NIC link-free/credit retry
_GEN = 5      # a=node                     -- pregenerated synthetic injection
_CALL = 6     # a=callable, b=args         -- generic scheduled callback


class BatchedEngine:
    """SoA state and Python-side paths of the kernel engine (see module
    docstring).  Subclasses own the event queue: ``_push``,
    ``pending``, ``iter_pending`` and ``run``."""

    OP_NWAKE = _NWAKE

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.now: float = 0.0
        self._seq: int = 0
        self._cs: int = 0  # seq of the event currently executing
        self.events_executed: int = 0
        self.st = SoAState.from_network(net)
        self.nic_shims = [BatchedNIC(self, node) for node in range(self.st.NN)]

    # -- engine API ----------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` *delay* ns after the current time."""
        self._seq += 1
        self._push(self.now + delay, self._seq, _CALL, fn, args, 0)

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at absolute time *when* (>= now)."""
        if when < self.now:
            raise ValueError(
                f"schedule_at(when={when!r}) is in the past (now={self.now!r}); "
                f"events cannot be scheduled before the current simulated time"
            )
        self._seq += 1
        self._push(when, self._seq, _CALL, fn, args, 0)

    def clear(self) -> None:
        """Reset clock and counters (SoA state is per-Network and
        rebuilt with it; subclasses empty their queue)."""
        self.now = 0.0
        self._seq = 0
        self._cs = 0
        self.events_executed = 0

    # -- synthetic-traffic pregeneration --------------------------------------

    def setup_synthetic(
        self,
        pattern,
        mean_ia: float,
        horizon: float,
        seed: int,
        arrival: str,
        packet_bytes: int,
    ) -> None:
        """Pregenerate every node's injection stream and seed GEN events.

        Exactness: the object engine draws, per node and per event,
        ``pick_destination(node, rng)`` then ``expovariate`` from a
        *private* per-node RNG seeded off one master stream.  Playing
        each node's draws forward here consumes the identical per-node
        stream (patterns are pure functions of ``(node, rng)``), and the
        per-node timestamps accumulate with the same float additions.
        The trailing entry is the object engine's final past-horizon
        generate event (which fires and does nothing); it is kept so
        event and sequence accounting stay aligned.
        """
        st = self.st
        master = random.Random(seed)
        poisson = arrival == "poisson"
        pick = pattern.pick_destination
        g_t = []
        g_d = []
        seq = self._seq
        for node in range(st.NN):
            rng = random.Random(master.getrandbits(64))
            t = rng.uniform(0.0, mean_ia)
            expo = rng.expovariate
            times = []
            dsts = []
            while t < horizon:
                dst = pick(node, rng)
                if dst is None:
                    dst = -1
                elif dst == node:
                    raise ValueError(f"pattern sent node {node} traffic to itself")
                times.append(t)
                dsts.append(dst)
                t = t + (expo(1.0 / mean_ia) if poisson else mean_ia)
            times.append(t)  # past-horizon sentinel event
            dsts.append(-2)
            g_t.append(times)
            g_d.append(dsts)
            seq += 1
            self._push(times[0], seq, _GEN, node, 0, 0)
        self._seq = seq
        st.g_t = g_t
        st.g_d = g_d
        st.g_i = [0] * st.NN
        st.g_pkt_bytes = packet_bytes

    # -- NIC send path ---------------------------------------------------------

    def _nic_try_send(self, node: int, t: float, s: int) -> None:
        """The object NIC's ``try_send`` over SoA state.

        Callers guarantee the NIC is idle at ``(t, s)``.  Credits drain
        lazily from the pending-arrival deque; a credit stall pushes a
        wake at the earliest in-flight arrival key (the elided
        ``credit_return`` event that resumes the object NIC).

        The kernel escapes here when its route fast path is off, and
        runs a C port of this method (``fast_nic_send`` in
        ``_kernel.c``) when it is on; mid-run Python sends go through
        ``KernelEngine._nic_try_send``'s RNG/packet-id state handoff.
        Behavioural changes here must be mirrored in C (the goldens and
        the fuzz harness compare both against the object engine).
        """
        st = self.st
        c = st.n_cred[node]
        arr = st.n_arr[node]
        if c <= 0 and arr:
            k = (t, s)
            while arr and arr[0] <= k:
                arr.popleft()
                c += 1
            st.n_cred[node] = c
        q = st.n_q[node]
        if c <= 0:
            if q or st.n_src[node] is not None:
                st.n_stalls[node] += 1
                if arr:
                    at, aseq = arr[0]
                    self._push(at, aseq, _NWAKE, node, 0, 0)
            return
        if q:
            dst_node, size, msg_id, gen_time = q.popleft()
            st.n_qp[node] -= 1
        else:
            src = st.n_src[node]
            if src is None:
                return
            try:
                dst_node, size, msg_id = next(src)
            except StopIteration:
                st.n_src[node] = None
                return
            gen_time = t
        net = self.net
        pkt = net.make_packet(node, dst_node, size, msg_id, gen_time)
        pkt.send_time = t
        net.stats.record_inject(pkt)
        st.k_ports.append(pkt.ports)
        st.k_vcs.append(pkt.vcs + (0,))  # padded: hop h reads [h] unconditionally
        st.k_hop.append(0)
        st.k_obj.append(pkt)
        st.n_cred[node] = c - 1
        seq = self._seq + 1  # reserved: the elided NIC link-free event
        bt = t + st.SER
        st.n_busy_t[node] = bt
        st.n_busy_s[node] = seq
        seq += 1
        self._seq = seq
        self._push(t + st.SL, seq, _RECV, st.n_in[node], 0, pkt.pid)
        if q or st.n_src[node] is not None:
            # Work already waiting: the link-free retry would send, so
            # wake at its reserved key.
            self._push(bt, st.n_busy_s[node], _NWAKE, node, 0, 0)
            st.n_wake[node] = True
        else:
            st.n_wake[node] = False

    # -- cold-path transfer mirrors (fault handling) ---------------------------
    #
    # Python mirrors of the kernel's admit_pending / try_transfer /
    # transfer_one handlers, for use from inside a CALL escape (the
    # fault manager's fail-time drain).  During an escape the kernel
    # has written now/_cs/_seq out and reads _seq back afterwards, so
    # these consume sequence numbers and push events exactly as the C
    # handlers would -- keeping cross-backend event order identical.

    def _transfer_one_cold(self, in_gid: int, vc: int, gid: int, pid: int,
                           t: float, s: int) -> None:
        st = self.st
        V = st.V
        upp = st.in_up_port[in_gid]
        if upp >= 0:
            self._seq += 1
            at = t + st.LINK
            upv = upp * V + vc
            st.pv_arr[upv].append((at, self._seq))
            if st.pv_cred[upv] == 0 and st.pv_oq[upv]:
                bt = st.p_busy_t[upp]
                if not (t < bt or (t == bt and s < st.p_busy_s[upp])):
                    self._push(at, self._seq, _PWAKE, upp, 0, 0)
        else:
            upn = st.in_up_node[in_gid]
            if upn >= 0:
                self._seq += 1
                at = t + st.LINK
                st.n_arr[upn].append((at, self._seq))
                if st.n_cred[upn] == 0 and (
                    st.n_q[upn] or st.n_src[upn] is not None
                ):
                    self._push(at, self._seq, _NWAKE, upn, 0, 0)
        self._seq += 1
        pv = gid * V + st.k_vcs[pid][st.k_hop[pid]]
        self._push(t + st.SWITCH, self._seq, _ENTER, pv, pid, gid)

    def _try_transfer_cold(self, in_gid: int, vc: int, t: float, s: int) -> None:
        st = self.st
        V = st.V
        q = st.iv_q[in_gid * V + vc]
        base = st.in_pbase[in_gid]
        k_ports = st.k_ports
        k_vcs = st.k_vcs
        k_hop = st.k_hop
        while q:
            pid = q[0]
            gid = base + k_ports[pid][k_hop[pid]]
            ovc = k_vcs[pid][k_hop[pid]]
            pv = gid * V + ovc
            if st.pv_occ[pv] >= st.OQ_CAP:
                st.p_pend[gid].append((in_gid, vc))
                return
            st.pv_occ[pv] += 1
            q.popleft()
            self._transfer_one_cold(in_gid, vc, gid, pid, t, s)

    def _admit_pending_cold(self, gid: int, freed_vc: int, t: float, s: int) -> None:
        st = self.st
        V = st.V
        pending = st.p_pend[gid]
        iv_q = st.iv_q
        k_vcs = st.k_vcs
        k_hop = st.k_hop
        i = 0
        for in_gid, vc in pending:
            pid = iv_q[in_gid * V + vc][0]
            if k_vcs[pid][k_hop[pid]] == freed_vc:
                if i:
                    pending.rotate(-i)
                pending.popleft()
                self._try_transfer_cold(in_gid, vc, t, s)
                return
            i += 1
