"""Batched struct-of-arrays simulator backend (``SimConfig.backend``).

The object engine (:mod:`repro.sim.engine` + switch/NIC objects) pays a
Python callback dispatch, an argument tuple and several attribute hops
for *every* event -- about 13 heap events per delivered packet.  This
backend keeps the physics and the event *order* bit-identical while
flattening the simulated state into parallel arrays indexed by flat
``(router, port, vc)`` ids and replacing callback events with typed
integer records dispatched by one loop (:mod:`repro.sim.vec.engine`).

Roughly 40% of the object engine's events (link-free and credit-return
callbacks) exist only to flip one flag or bump one counter; the batched
backend elides them entirely and applies their effects lazily, while
*reserving their sequence numbers* so the surviving events execute in
exactly the object engine's order -- including the shared-RNG draw
order that UGAL/Valiant routing depends on.  The golden conformance
suite (``tests/golden/conformance.json``) is the gate: the backend is
only selectable because it reproduces every committed fingerprint.

The ``"kernel"`` backend (:mod:`repro.sim.vec.kernel`) is this loop
with the event queue and opcode dispatch compiled to C over the same
SoA state, escaping to Python only at the make_packet/deliver/CALL
boundaries; it degrades to ``"batched"`` with one warning when no
compiler is available.

Select with ``SimConfig(backend="batched")`` / ``backend="kernel"`` or
``--backend`` on the CLI; see docs/PERFORMANCE.md ("Choosing a
backend").
"""

from repro.sim.vec.engine import BatchedEngine
from repro.sim.vec.state import BatchedNIC, SoAState

__all__ = ["BatchedEngine", "BatchedNIC", "SoAState"]
