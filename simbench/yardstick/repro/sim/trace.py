"""Per-packet trace collection.

An optional, bounded recorder of completed-packet summaries (route,
kind, timestamps).  Kept out of the simulator hot path: the only cost
when enabled is one append per *delivered* packet.  Useful for
debugging routing decisions and for fine-grained latency analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.packet import Packet

__all__ = ["PacketRecord", "PacketTracer", "EventRing"]


@dataclass(frozen=True)
class PacketRecord:
    """Summary of one delivered packet."""

    pid: int
    src_node: int
    dst_node: int
    kind: str
    routers: Tuple[int, ...]
    vcs: Tuple[int, ...]
    gen_time: float
    send_time: float
    eject_time: float

    @property
    def latency_ns(self) -> float:
        """Generation-to-ejection delay."""
        return self.eject_time - self.gen_time

    @property
    def queueing_ns(self) -> float:
        """Time spent waiting in the source NIC before transmission."""
        return self.send_time - self.gen_time

    @property
    def num_hops(self) -> int:
        return len(self.routers) - 1


class PacketTracer:
    """Bounded recorder of :class:`PacketRecord` entries.

    Records the first *capacity* delivered packets (optionally only
    those ejected at/after *start_ns*); further deliveries increment
    :attr:`dropped` so the truncation is visible rather than silent.
    """

    def __init__(self, capacity: int = 10_000, start_ns: float = 0.0):
        if capacity < 1:
            raise ValueError(f"PacketTracer: capacity {capacity} must be >= 1")
        self.capacity = capacity
        self.start_ns = start_ns
        self.records: List[PacketRecord] = []
        self.dropped = 0

    def record(self, pkt: Packet) -> None:
        """Called by the network on delivery (when tracing is enabled)."""
        if pkt.eject_time < self.start_ns:
            return
        if len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(
            PacketRecord(
                pid=pkt.pid,
                src_node=pkt.src_node,
                dst_node=pkt.dst_node,
                kind=pkt.kind,
                routers=pkt.routers,
                vcs=pkt.vcs,
                gen_time=pkt.gen_time,
                send_time=pkt.send_time,
                eject_time=pkt.eject_time,
            )
        )

    def latencies(self) -> List[float]:
        """Latency of every recorded packet, in record order."""
        return [r.latency_ns for r in self.records]

    def by_kind(self) -> dict:
        """Record counts per route kind."""
        out: dict = {}
        for r in self.records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out


class EventRing:
    """Bounded ring of recent simulator events (time, label) pairs.

    The invariant checker (:mod:`repro.sim.invariants`) appends one entry
    per hooked state transition; when a violation is raised the ring's
    tail becomes the "recent history" section of the report, giving the
    events that led up to the inconsistency without unbounded memory.

    Labels are %-style format strings whose arguments are kept raw and
    only interpolated by :meth:`tail` -- appends sit on the checker's
    per-transition hot path, rendering happens once per report.
    """

    __slots__ = ("_ring", "appended")

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"EventRing: capacity {capacity} must be >= 1")
        self._ring: deque = deque(maxlen=capacity)
        self.appended = 0  # total appends, so truncation is visible

    def append(self, time_ns: float, label: str, *args) -> None:
        self._ring.append((time_ns, label, args))
        self.appended += 1

    def tail(self, count: int = 32) -> List[Tuple[float, str]]:
        """The most recent *count* entries, oldest first, rendered."""
        entries = list(self._ring)
        if count < len(entries):
            entries = entries[-count:]
        return [(t, label % args if args else label) for t, label, args in entries]

    def __len__(self) -> int:
        return len(self._ring)
