"""Struct-of-arrays state and engine of the kernel backend.

The object engine (:mod:`repro.sim.engine` + switch/NIC objects) pays a
Python callback dispatch, an argument tuple and several attribute hops
for *every* event -- about 13 heap events per delivered packet.  The
``"kernel"`` backend keeps the physics and the event *order*
bit-identical while flattening the simulated state into parallel arrays
indexed by flat ``(router, port, vc)`` ids (:mod:`repro.sim.vec.state`)
and replacing callback events with typed integer records dispatched by
a compiled C loop (:mod:`repro.sim.vec.kernel`), escaping to Python
only for cold paths.

Roughly 40% of the object engine's events (link-free and credit-return
callbacks) exist only to flip one flag or bump one counter; the kernel
elides them entirely and applies their effects lazily, while
*reserving their sequence numbers* so the surviving events execute in
exactly the object engine's order -- including the shared-RNG draw
order that UGAL/Valiant routing depends on
(:mod:`repro.sim.vec.engine`).  The golden conformance suite
(``tests/golden/conformance.json``) and the cross-backend fuzz harness
are the gate.  When no compiler is available the backend degrades to
``"object"`` with one warning.

Select with ``SimConfig(backend="kernel")`` or ``--backend kernel`` on
the CLI; see docs/PERFORMANCE.md ("Choosing a backend").
"""

from repro.sim.vec.engine import BatchedEngine
from repro.sim.vec.state import BatchedNIC, SoAState

__all__ = ["BatchedEngine", "BatchedNIC", "SoAState"]
