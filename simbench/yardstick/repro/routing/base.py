"""Routing abstractions: routes, congestion context, algorithm interface.

Routing in this library is *source routing*: the complete hop list
(router sequence plus a virtual channel per hop) is chosen when a packet
is injected, which matches the paper's UGAL formulation (the adaptive
decision is taken "at the moment of the packet's injection", Sec. 3.3)
and keeps the simulated routers simple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Tuple

__all__ = [
    "Route",
    "CongestionContext",
    "NullCongestion",
    "NULL_CONGESTION",
    "RoutingAlgorithm",
    "ROUTE_MINIMAL",
    "ROUTE_INDIRECT",
]

ROUTE_MINIMAL = "minimal"
ROUTE_INDIRECT = "indirect"


@dataclass(frozen=True)
class Route:
    """A fully resolved route.

    Attributes
    ----------
    routers:
        Router sequence, source router first, destination router last.
    vcs:
        Virtual channel for each router-to-router hop
        (``len(vcs) == len(routers) - 1``).
    kind:
        ``"minimal"`` or ``"indirect"``.
    intermediate:
        For indirect routes, the index *within* ``routers`` of the
        Valiant intermediate; ``None`` for minimal routes.
    ports:
        Optional precompiled output-port index per router-to-router hop
        (``len(ports) == len(routers) - 1``, ejection port *not*
        included).  Filled by :class:`repro.routing.cache.RouteCache`
        so the simulator's packet construction needs no per-packet port
        lookups; derived data, so it does not participate in equality.
    """

    routers: Tuple[int, ...]
    vcs: Tuple[int, ...]
    kind: str = ROUTE_MINIMAL
    intermediate: Optional[int] = None
    ports: Optional[Tuple[int, ...]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.vcs) != len(self.routers) - 1:
            raise ValueError(
                f"Route: {len(self.routers)} routers need {len(self.routers) - 1} "
                f"VC labels, got {len(self.vcs)}"
            )
        if self.ports is not None and len(self.ports) != len(self.routers) - 1:
            raise ValueError(
                f"Route: {len(self.routers)} routers need {len(self.routers) - 1} "
                f"hop ports, got {len(self.ports)}"
            )

    @property
    def num_hops(self) -> int:
        """Number of router-to-router links traversed."""
        return len(self.routers) - 1

    def channels(self) -> Tuple[Tuple[int, int], ...]:
        """The directed channels ``(u, v)`` traversed, in order."""
        return tuple(zip(self.routers[:-1], self.routers[1:]))


class CongestionContext(Protocol):
    """Local congestion knowledge available to adaptive routing.

    The paper's UGAL-L reads "the occupancy of the first output port of
    the path" at the source router (Sec. 3.3).  The simulator implements
    this protocol over live switch state; analyses can pass
    :data:`NULL_CONGESTION`.
    """

    def queue_len(self, router: int, neighbor: int) -> int:
        """Packets currently queued at *router* for the output toward *neighbor*."""
        ...

    def queue_capacity(self) -> int:
        """Output-buffer capacity in packets (for threshold comparisons)."""
        ...


class NullCongestion:
    """Congestion context reporting an idle network (all queues empty)."""

    def queue_len(self, router: int, neighbor: int) -> int:
        return 0

    def queue_capacity(self) -> int:
        return 1


NULL_CONGESTION = NullCongestion()


class RoutingAlgorithm:
    """Base class for routing algorithms.

    Subclasses implement :meth:`route`; they are constructed around a
    topology and a VC policy and must declare how many virtual channels
    the simulator needs to provision (:attr:`num_vcs`).
    """

    name: str = "base"

    @property
    def num_vcs(self) -> int:
        """Number of virtual channels this algorithm requires."""
        raise NotImplementedError

    def route(
        self,
        src_router: int,
        dst_router: int,
        congestion: CongestionContext = NULL_CONGESTION,
    ) -> Route:
        """Choose a route for a packet from *src_router* to *dst_router*."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
