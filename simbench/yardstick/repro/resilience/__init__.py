"""Dynamic fault injection and fault-adaptive routing.

The static degradation analysis (:mod:`repro.analysis.faults`) answers
"how much path diversity survives k failures?"; this package answers
the operational question: what happens to traffic *in flight* when a
link dies mid-run, and how quickly does adaptive routing steer around
it?

- :class:`FaultSchedule` -- a declarative, seeded timeline of link and
  router failures/recoveries (``fail@T:U-V``, ``recover@T:U-V``,
  ``fail@T:rR``, ``drip@T:n=N,every=E``), expanded and validated
  against a concrete topology;
- :class:`FaultManager` -- injects the schedule as simulator events on
  both backends, flips ports dead/alive, incrementally invalidates the
  shared :class:`~repro.routing.cache.RouteCache` through its
  link->routes reverse index, and reroutes (or drops) packets headed
  into a dead link at their current router.

Wired in by :class:`repro.sim.network.Network` when
``SimConfig.faults`` is non-empty; fault-free runs never touch any of
this (the golden conformance fingerprints are unchanged).
"""

from repro.resilience.manager import FaultManager
from repro.resilience.schedule import FaultEvent, FaultSchedule

__all__ = ["FaultEvent", "FaultSchedule", "FaultManager"]
