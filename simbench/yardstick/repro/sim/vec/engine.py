"""Flat typed-event loop for the batched backend.

:class:`BatchedEngine` is drop-in engine-compatible (``schedule``,
``schedule_at``, ``run``, ``now``, ``events_executed``, ``pending``,
``clear``) but dispatches *typed integer events* over the
struct-of-arrays state (:mod:`repro.sim.vec.state`) instead of Python
callbacks over router/NIC objects.  Events are
``(time, seq, op, a, b, c)`` tuples; ``seq`` is the same global
tie-breaker the object engine uses, which makes same-timestamp
execution order deterministic and -- crucially -- *identical* across
backends.

Exactness model
===============

The object engine executes ~13 heap events per delivered packet.  Five
of them (NIC/port link-free, NIC/port credit-return) only flip a flag
or bump a counter and then *maybe* re-attempt a send.  This loop elides
them: busyness is a stored ``(busy_t, busy_seq)`` key compared lazily,
credits are a count plus a deque of in-flight arrival keys drained on
demand.  Two invariants make the elision exact rather than merely
plausible:

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
The golden conformance suite asserts exactly that.

The pending-event set is a **bucketed calendar queue**, not a binary
heap.  Simulated traffic is dense in time (tens of events per
nanosecond of simulated time at moderate load), so events are binned by
``int(time / packet_time)`` into append-only future buckets; a bucket
is sorted once -- by the identical ``(time, seq)`` key a heap would
order on -- when the clock enters it.  Appending is O(1) against
``heappush``'s O(log n) sift, and draining a sorted bucket is an index
walk against ``heappop``'s O(log n) re-sift, which is where the object
engine's queue spends most of its time.  The rare push *into* the
current bucket (a wake at an imminent reserved key, a sub-serialization
generator gap) bisects into the sorted remainder, preserving exact
order.

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

import gc
import random
from bisect import insort
from typing import Any, Callable, Iterator, Optional, TYPE_CHECKING

from repro.sim.vec.state import BatchedNIC, SoAState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.network import Network

__all__ = ["BatchedEngine"]

# Event opcodes.
_RECV = 0     # a=input gid, b=vc, c=pid   -- packet arrives at an input buffer
_ENTER = 1    # a=port-vc id, b=pid, c=port gid -- packet enters an output queue
_PWAKE = 2    # a=port gid                 -- elided link-free/credit retry
_DELIVER = 3  # c=pid                      -- packet reaches its NIC
_NWAKE = 4    # a=node                     -- elided NIC link-free/credit retry
_GEN = 5      # a=node                     -- pregenerated synthetic injection
_CALL = 6     # a=callable, b=args         -- generic scheduled callback

#: Consecutive empty calendar buckets scanned linearly before jumping
#: straight to the next populated one (sparse tails, e.g. drain runs).
_MISS_LIMIT = 64


class BatchedEngine:
    """Engine-compatible batched event loop (see module docstring)."""

    OP_NWAKE = _NWAKE

    def __init__(self, net: "Network") -> None:
        self.net = net
        self.now: float = 0.0
        self._seq: int = 0
        self._cs: int = 0  # seq of the event currently executing
        self.events_executed: int = 0
        self.st = SoAState.from_network(net)
        self.nic_shims = [BatchedNIC(self, node) for node in range(self.st.NN)]
        # Calendar queue: future buckets (unsorted append-only lists
        # keyed by bucket index) + the current bucket (sorted, drained
        # by index).  One bucket per serialization time.
        self._inv_w: float = 1.0 / self.st.SER
        self._buckets: dict = {}
        self._cur: list = []
        self._idx: int = 0
        self._curb: int = -1
        self._qsize: int = 0

    # -- engine API ----------------------------------------------------------

    def _push(self, t: float, s: int, op: int, a, b, c) -> None:
        """Queue one event record (cold-path sites; the run loop's
        closures inline the same binning)."""
        ev = (t, s, op, a, b, c)
        bi = int(t * self._inv_w)
        if bi > self._curb:
            bl = self._buckets.get(bi)
            if bl is None:
                self._buckets[bi] = [ev]
            else:
                bl.append(ev)
        else:
            # Into the sorted remainder of the current bucket; pushes
            # are never in the past, so lo bounds at the drain index.
            insort(self._cur, ev, self._idx)
        self._qsize += 1

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
        """Reset queue, clock and counters (SoA state is per-Network and
        rebuilt with it, so only event-loop state needs clearing)."""
        self.now = 0.0
        self._seq = 0
        self._cs = 0
        self.events_executed = 0
        self._buckets = {}
        self._cur = []
        self._idx = 0
        self._curb = -1
        self._qsize = 0

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return self._qsize

    def iter_pending(self) -> Iterator[tuple]:
        """All queued event records, in no particular order (audits)."""
        for i in range(self._idx, len(self._cur)):
            yield self._cur[i]
        for bl in self._buckets.values():
            yield from bl

    def _next_time(self) -> Optional[float]:
        """Timestamp of the earliest queued event (cold path)."""
        if self._idx < len(self._cur):
            return self._cur[self._idx][0]
        if self._buckets:
            return min(min(bl)[0] for bl in self._buckets.values())
        return None

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

        The kernel backend ports this method line-for-line to C for
        its route fast path (``fast_nic_send`` in ``_kernel.c``) and
        wraps it with an RNG/packet-id state handoff for mid-run
        Python sends (``KernelEngine._nic_try_send``); behavioural
        changes here must be mirrored there.
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
    # Exact method-form mirrors of the run loop's admit_pending /
    # try_transfer / transfer_one closures, for use from inside a CALL
    # escape (the fault manager's fail-time drain).  During an escape
    # self._seq/_qsize/_idx/_cur/_curb are synchronised, so these
    # consume sequence numbers and push events exactly as the closures
    # would -- keeping cross-backend event order identical.

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

    # -- the event loop --------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Execute events in ``(time, seq)`` order; same contract as
        :meth:`repro.sim.engine.Engine.run`.

        The loop hoists every array into a local and defines the
        transfer/transmit/arbitrate helpers as closures over shared
        ``seq``/queue cells, so the hot path touches no ``self``
        attributes.  Instance state is synchronised around every escape
        into Python callbacks (deliveries, CALL events, NIC sends that
        run routing), which may re-enter ``schedule``/``submit``.
        """
        st = self.st
        net = self.net
        seq = self._seq

        V = st.V
        OQ_CAP = st.OQ_CAP
        SER = st.SER
        LINK = st.LINK
        SWITCH = st.SWITCH
        SL = st.SL
        in_pbase = st.in_pbase
        in_up_port = st.in_up_port
        in_up_node = st.in_up_node
        p_busy_t = st.p_busy_t
        p_busy_s = st.p_busy_s
        p_wake = st.p_wake
        p_queued = st.p_queued
        p_rr = st.p_rr
        p_sent = st.p_sent
        p_oqtot = st.p_oqtot
        p_pend = st.p_pend
        p_dest_in = st.p_dest_in
        p_has_cred = st.p_has_cred
        p_dead = st.p_dead
        fault_mgr = getattr(net, "fault_manager", None)
        fm_divert = fault_mgr.divert_tail if fault_mgr is not None else None
        pv_oq = st.pv_oq
        pv_occ = st.pv_occ
        pv_cred = st.pv_cred
        pv_arr = st.pv_arr
        iv_q = st.iv_q
        n_q = st.n_q
        n_src = st.n_src
        n_cred = st.n_cred
        n_arr = st.n_arr
        n_busy_t = st.n_busy_t
        n_busy_s = st.n_busy_s
        n_wake = st.n_wake
        n_qp = st.n_qp
        k_ports = st.k_ports
        k_vcs = st.k_vcs
        k_hop = st.k_hop
        k_obj = st.k_obj
        g_t = st.g_t
        g_d = st.g_d
        g_i = st.g_i
        PKTB = st.g_pkt_bytes
        net_deliver = net.deliver
        nic_send = self._nic_try_send

        # Calendar-queue cells, shared with the push closure below.
        inv_w = self._inv_w
        buckets = self._buckets
        buckets_get = buckets.get
        buckets_pop = buckets.pop
        cur = self._cur
        idx = self._idx
        curb = self._curb
        qsize = self._qsize

        def push(ev) -> None:
            # The calendar insert; hot enough to matter, called with a
            # prebuilt record.  Never in the past (see _push).
            nonlocal qsize
            bi = int(ev[0] * inv_w)
            if bi > curb:
                bl = buckets_get(bi)
                if bl is None:
                    buckets[bi] = [ev]
                else:
                    bl.append(ev)
            else:
                insort(cur, ev, idx)
            qsize += 1

        def try_transmit(gid: int, t: float, s: int) -> None:
            # The object Router._try_transmit; callers guarantee the
            # port is idle at (t, s).  One packet per invocation.
            nonlocal seq
            vc = p_rr[gid]
            base = gid * V
            has_cred = p_has_cred[gid]
            best_at = None
            for _ in range(V):
                if vc >= V:
                    vc -= V
                pv = base + vc
                oq = pv_oq[pv]
                if not oq:
                    vc += 1
                    continue
                if has_cred:
                    cr = pv_cred[pv]
                    if cr <= 0:
                        arr = pv_arr[pv]
                        if arr:
                            k = (t, s)
                            while arr and arr[0] <= k:
                                arr.popleft()
                                cr += 1
                            pv_cred[pv] = cr
                        if cr <= 0:
                            # Blocked on credits: remember the earliest
                            # in-flight arrival as a wake candidate.
                            if arr:
                                a0 = arr[0]
                                if best_at is None or a0 < best_at:
                                    best_at = a0
                            vc += 1
                            continue
                    pv_cred[pv] = cr - 1
                pid = oq.popleft()
                p_oqtot[gid] -= 1
                pv_occ[pv] -= 1
                p_queued[gid] -= 1
                p_sent[gid] += 1
                nvc = vc + 1
                p_rr[gid] = nvc if nvc < V else 0
                seq += 1  # reserved: the elided port link-free event
                bt = t + SER
                bs = seq
                p_busy_t[gid] = bt
                p_busy_s[gid] = bs
                seq += 1
                din = p_dest_in[gid]
                if din < 0:
                    push((t + SL, seq, _DELIVER, 0, 0, pid))
                else:
                    k_hop[pid] += 1
                    push((t + SL, seq, _RECV, din, vc, pid))
                if p_oqtot[gid] > 0:
                    # More output-queue work: the link-free retry would
                    # transmit, so wake at its reserved key.
                    push((bt, bs, _PWAKE, gid, 0, 0))
                    p_wake[gid] = True
                else:
                    p_wake[gid] = False
                admit_pending(gid, vc, t, s)
                return
            if best_at is not None:
                # Idle with every queued VC credit-blocked: retry at the
                # first elided credit arrival.
                push((best_at[0], best_at[1], _PWAKE, gid, 0, 0))

        def transfer_one(in_gid: int, vc: int, gid: int, pid: int,
                         t: float, s: int) -> None:
            # One admitted input->output move: the credit upstream (a
            # reserved lazily-drained key) then the switch traversal.
            nonlocal seq
            upp = in_up_port[in_gid]
            if upp >= 0:
                seq += 1
                at = t + LINK
                upv = upp * V + vc
                pv_arr[upv].append((at, seq))
                if pv_cred[upv] == 0 and pv_oq[upv]:
                    bt = p_busy_t[upp]
                    if not (t < bt or (t == bt and s < p_busy_s[upp])):
                        # Idle upstream port blocked on this credit:
                        # its credit_return would transmit.
                        push((at, seq, _PWAKE, upp, 0, 0))
            else:
                upn = in_up_node[in_gid]
                if upn >= 0:
                    seq += 1
                    at = t + LINK
                    n_arr[upn].append((at, seq))
                    if n_cred[upn] == 0 and (n_q[upn] or n_src[upn] is not None):
                        push((at, seq, _NWAKE, upn, 0, 0))
            seq += 1
            pv = gid * V + k_vcs[pid][k_hop[pid]]
            push((t + SWITCH, seq, _ENTER, pv, pid, gid))

        def try_transfer(in_gid: int, vc: int, t: float, s: int) -> None:
            # The object Router._try_transfer: drain an input VC queue
            # into output queues while space lasts.
            q = iv_q[in_gid * V + vc]
            base = in_pbase[in_gid]
            while q:
                pid = q[0]
                gid = base + k_ports[pid][k_hop[pid]]
                ovc = k_vcs[pid][k_hop[pid]]
                pv = gid * V + ovc
                if pv_occ[pv] >= OQ_CAP:
                    p_pend[gid].append((in_gid, vc))
                    return
                pv_occ[pv] += 1
                q.popleft()
                transfer_one(in_gid, vc, gid, pid, t, s)

        def admit_pending(gid: int, freed_vc: int, t: float, s: int) -> None:
            # Single-pass scan with the object version's exact rotate
            # semantics (skipped entries move to the back on a match).
            pending = p_pend[gid]
            i = 0
            for in_gid, vc in pending:
                pid = iv_q[in_gid * V + vc][0]
                if k_vcs[pid][k_hop[pid]] == freed_vc:
                    if i:
                        pending.rotate(-i)
                    pending.popleft()
                    try_transfer(in_gid, vc, t, s)
                    return
                i += 1

        cap = until if until is not None else float("inf")
        rem = max_events if max_events is not None else -1
        executed = 0
        t = self.now
        # The loop allocates heavily (event records, credit-arrival
        # keys) but never creates reference cycles, so the cyclic GC
        # only burns time tracing the large young containers.  Disable
        # it for the duration; callbacks that do create cycles get them
        # collected after re-enable.
        gc_was = gc.isenabled()
        if gc_was:
            gc.disable()
        try:
            while qsize:
                while idx >= len(cur):
                    # Advance the calendar to the next populated bucket
                    # and sort it -- the only ordering work in the loop.
                    curb += 1
                    nxt = buckets_pop(curb, None)
                    if nxt is None:
                        if len(buckets) == 0:
                            raise RuntimeError(
                                "batched engine queue accounting broken: "
                                f"{qsize} events pending but no buckets"
                            )
                        if curb % _MISS_LIMIT == 0:
                            curb = min(buckets) - 1
                        continue
                    nxt.sort()
                    cur = nxt
                    idx = 0
                    self._cur = nxt
                    self._curb = curb
                ev = cur[idx]
                nt = ev[0]
                if nt > cap or rem == 0:
                    break
                t = nt
                rem -= 1
                idx += 1
                qsize -= 1
                executed += 1
                s = ev[1]
                op = ev[2]
                a = ev[3]
                if op == _RECV:
                    c = ev[5]
                    hop = k_hop[c]
                    gid = in_pbase[a] + k_ports[c][hop]
                    p_queued[gid] += 1
                    b = ev[4]
                    q = iv_q[a * V + b]
                    if q:
                        q.append(c)  # behind others: no transfer attempt
                    else:
                        # Head-of-queue fast path (the common case):
                        # attempt the transfer without touching the
                        # deque, falling back to queueing on a full
                        # output VC -- state-identical to append +
                        # _try_transfer on a one-element queue.
                        pv = gid * V + k_vcs[c][hop]
                        if pv_occ[pv] >= OQ_CAP:
                            q.append(c)
                            p_pend[gid].append((a, b))
                        else:
                            pv_occ[pv] += 1
                            transfer_one(a, b, gid, c, t, s)
                elif op == _ENTER:
                    gid = ev[5]
                    if p_dead[gid]:
                        # Failed link: divert (reroute or drop) at this
                        # router, mirroring the object backend's
                        # _enter_oq dead branch (repro.resilience).
                        self.now = t
                        self._cs = s
                        self._seq = seq
                        self._qsize = qsize
                        self._idx = idx
                        res = fm_divert(a, ev[4], gid)
                        seq = self._seq
                        qsize = self._qsize
                        admit_pending(gid, a - gid * V, t, s)
                        if res is None:
                            continue
                        a, gid = res
                    pv_oq[a].append(ev[4])
                    p_oqtot[gid] += 1
                    bt = p_busy_t[gid]
                    if t < bt or (t == bt and s < p_busy_s[gid]):
                        if not p_wake[gid]:
                            push((bt, p_busy_s[gid], _PWAKE, gid, 0, 0))
                            p_wake[gid] = True
                    else:
                        try_transmit(gid, t, s)
                elif op == _GEN:
                    i = g_i[a]
                    g_i[a] = i + 1
                    dst = g_d[a][i]
                    if dst != -2:
                        if dst >= 0:
                            # Inlined NIC.submit(dst, packet_bytes).
                            n_q[a].append((dst, PKTB, None, t))
                            n_qp[a] += 1
                            bt = n_busy_t[a]
                            if t < bt or (t == bt and s < n_busy_s[a]):
                                if not n_wake[a]:
                                    push((bt, n_busy_s[a], _NWAKE, a, 0, 0))
                                    n_wake[a] = True
                            else:
                                self.now = t
                                self._seq = seq
                                self._qsize = qsize
                                self._idx = idx
                                nic_send(a, t, s)
                                seq = self._seq
                                qsize = self._qsize
                        seq += 1
                        push((g_t[a][i + 1], seq, _GEN, a, 0, 0))
                elif op == _PWAKE:
                    bt = p_busy_t[a]
                    if not (t < bt or (t == bt and s < p_busy_s[a])):
                        try_transmit(a, t, s)
                elif op == _DELIVER:
                    self.now = t
                    self._cs = s
                    self._seq = seq
                    self._qsize = qsize
                    self._idx = idx
                    net_deliver(k_obj[ev[5]])
                    seq = self._seq
                    qsize = self._qsize
                elif op == _NWAKE:
                    bt = n_busy_t[a]
                    if not (t < bt or (t == bt and s < n_busy_s[a])):
                        self.now = t
                        self._seq = seq
                        self._qsize = qsize
                        self._idx = idx
                        nic_send(a, t, s)
                        seq = self._seq
                        qsize = self._qsize
                else:  # _CALL
                    self.now = t
                    self._cs = s
                    self._seq = seq
                    self._qsize = qsize
                    self._idx = idx
                    a(*ev[4])
                    seq = self._seq
                    qsize = self._qsize
        finally:
            if gc_was:
                gc.enable()
            self.now = t
            self._seq = seq
            self._qsize = qsize
            self._idx = idx
            self._curb = curb
            self._cur = cur
            self.events_executed += executed
        if until is not None and self.now < until:
            nt = self._next_time()
            if nt is None or nt > until:
                # Advance the clock to the horizon even if the queue ran
                # dry (but not when the event budget cut the run short).
                self.now = until
        return executed
