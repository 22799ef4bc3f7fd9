"""Packet representation.

A packet's route is fully resolved at injection time (source routing):
``routers`` is the router sequence, ``ports`` the output-port index used
at each router (the last entry being the ejection port at the
destination router), ``vcs`` the virtual channel used on each
router-to-router hop.  ``hop`` tracks the position: the packet currently
resides at ``routers[hop]`` (once it has entered the network).
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = ["Packet"]


class Packet:
    """One simulated packet (the credit/flow-control unit)."""

    __slots__ = (
        "pid",
        "src_node",
        "dst_node",
        "size",
        "routers",
        "ports",
        "vcs",
        "hop",
        "kind",
        "gen_time",
        "send_time",
        "eject_time",
        "msg_id",
    )

    def __init__(
        self,
        pid: int,
        src_node: int,
        dst_node: int,
        size: int,
        routers: Tuple[int, ...],
        ports: Tuple[int, ...],
        vcs: Tuple[int, ...],
        kind: str,
        gen_time: float,
        msg_id: Optional[int] = None,
    ):
        self.pid = pid
        self.src_node = src_node
        self.dst_node = dst_node
        self.size = size
        self.routers = routers
        self.ports = ports
        self.vcs = vcs
        self.hop = 0
        self.kind = kind
        self.gen_time = gen_time
        self.send_time = -1.0
        self.eject_time = -1.0
        self.msg_id = msg_id

    @property
    def num_hops(self) -> int:
        """Router-to-router links on the route."""
        return len(self.routers) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.pid} {self.src_node}->{self.dst_node} "
            f"{self.kind} hop={self.hop}/{self.num_hops}>"
        )
