"""Virtual-channel assignment policies (deadlock avoidance, Sec. 3.4).

Two schemes cover the paper's topologies:

- :class:`HopIndexVC` (Slim Fly and other flat topologies): the VC equals
  the hop index along the route.  Minimal routes use 2 VCs, indirect
  routes up to 4 -- exactly the Besta & Hoefler scheme the paper adopts.
  The VC strictly increases along every route, so the per-VC channel
  dependency graphs are layered and trivially acyclic.

- :class:`PhaseVC` (the SSPTs: MLFM and OFT): minimal routes are
  inherently deadlock-free because every route is an UP link followed by
  a DOWN link, so one VC suffices; indirect routes use VC 0 while
  heading to the Valiant intermediate and VC 1 afterwards, splitting the
  network into two virtual networks each with the acyclic UP->DOWN
  dependency structure.

:func:`default_vc_policy` picks the right scheme from the topology's
link-class structure.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.topology.base import LINK_FLAT, Topology

__all__ = ["VCPolicy", "HopIndexVC", "PhaseVC", "default_vc_policy"]


class VCPolicy:
    """Maps a router path (plus Valiant-intermediate position) to VC labels."""

    #: VCs needed when only minimal routes are used.
    num_vcs_minimal: int = 1
    #: VCs needed when indirect routes may be used.
    num_vcs_indirect: int = 1

    def assign(self, routers: Tuple[int, ...], intermediate: Optional[int]) -> Tuple[int, ...]:
        """Return one VC label per hop of the route ``routers``."""
        raise NotImplementedError

    def num_vcs(self, uses_indirect: bool) -> int:
        """VCs the simulator must provision for this policy."""
        return self.num_vcs_indirect if uses_indirect else self.num_vcs_minimal

    def check_legal(self, vcs: Tuple[int, ...], kind: str) -> Optional[str]:
        """Deadlock-avoidance legality of a route's VC labels.

        Returns ``None`` when *vcs* (one label per hop, route kind
        ``"minimal"`` or ``"indirect"``) satisfies this policy's ordering
        rules, else a human-readable description of the illegality.
        Used by the runtime invariant checker
        (:mod:`repro.sim.invariants`); the base policy accepts anything.
        """
        return None


class HopIndexVC(VCPolicy):
    """VC = hop index (Slim Fly scheme: 2 VCs minimal, 4 VCs indirect).

    The defaults are the paper's scheme for intact diameter-two
    topologies.  Degraded networks (see :mod:`repro.analysis.faults`)
    can have longer minimal paths; pass larger budgets for those.
    """

    def __init__(self, minimal_vcs: int = 2, indirect_vcs: int = 4):
        if not (1 <= minimal_vcs <= indirect_vcs):
            raise ValueError(
                f"HopIndexVC: need 1 <= minimal_vcs <= indirect_vcs, "
                f"got ({minimal_vcs}, {indirect_vcs})"
            )
        self.num_vcs_minimal = minimal_vcs
        self.num_vcs_indirect = indirect_vcs

    def assign(self, routers: Tuple[int, ...], intermediate: Optional[int]) -> Tuple[int, ...]:
        hops = len(routers) - 1
        budget = self.num_vcs_minimal if intermediate is None else self.num_vcs_indirect
        if hops > budget:
            raise ValueError(
                f"HopIndexVC: {'minimal' if intermediate is None else 'indirect'} route "
                f"of {hops} hops exceeds the {budget}-VC budget (degraded topology? "
                f"use a larger HopIndexVC or repro.analysis.faults.safe_vc_policy)"
            )
        return tuple(range(hops))

    def check_legal(self, vcs: Tuple[int, ...], kind: str) -> Optional[str]:
        expected = tuple(range(len(vcs)))
        if vcs != expected:
            return (
                f"hop-indexed VC order requires strictly increasing VCs "
                f"{expected}, route carries {vcs}"
            )
        budget = self.num_vcs_minimal if kind == "minimal" else self.num_vcs_indirect
        if len(vcs) > budget:
            return f"{kind} route of {len(vcs)} hops exceeds the {budget}-VC budget"
        return None


class PhaseVC(VCPolicy):
    """VC = Valiant phase (SSPT scheme: 1 VC minimal, 2 VCs indirect).

    Hops on or before the Valiant intermediate use VC 0 (the first
    "towards, away" pair of Sec. 3.4); hops after it use VC 1.
    """

    num_vcs_minimal = 1
    num_vcs_indirect = 2

    def assign(self, routers: Tuple[int, ...], intermediate: Optional[int]) -> Tuple[int, ...]:
        hops = len(routers) - 1
        if intermediate is None:
            return (0,) * hops
        if not (0 <= intermediate < len(routers)):
            raise ValueError(f"PhaseVC: intermediate index {intermediate} out of route")
        # Hop h crosses routers[h] -> routers[h+1]; it belongs to phase 1
        # once it *departs* the intermediate.
        return tuple(0 if h < intermediate else 1 for h in range(hops))

    def check_legal(self, vcs: Tuple[int, ...], kind: str) -> Optional[str]:
        if any(vc > 1 for vc in vcs):
            return f"phase VCs must be 0 or 1, route carries {vcs}"
        if kind == "minimal" and any(vc != 0 for vc in vcs):
            return f"minimal phase route must stay on VC 0, carries {vcs}"
        if any(a > b for a, b in zip(vcs, vcs[1:])):
            return f"phase VCs must be non-decreasing along the route, got {vcs}"
        return None


def default_vc_policy(topology: Topology) -> VCPolicy:
    """Pick the paper's VC scheme for *topology*.

    Topologies exposing an UP/DOWN link structure (the SSPTs) get
    :class:`PhaseVC`; flat topologies get :class:`HopIndexVC`.
    """
    for u, v in topology.directed_channels():
        return PhaseVC() if topology.link_class(u, v) != LINK_FLAT else HopIndexVC()
    raise ValueError(f"{topology.name}: no router-router channels")
