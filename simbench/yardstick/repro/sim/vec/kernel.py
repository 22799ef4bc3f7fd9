"""Compiled event kernel for the batched backend.

:class:`KernelEngine` subclasses :class:`~repro.sim.vec.engine.BatchedEngine`
and replaces the pending-event calendar plus the CPython dispatch loop
with a C extension (``repro/sim/vec/_kernel.c``): a binary heap of typed
event structs and C opcode handlers over the *same* ``SoAState`` lists
and deques the Python loop uses.  Everything else -- the SoA flattening,
the NIC shims, synthetic pregeneration, the audit-based checker, the
fault manager's cold-path mirrors -- is inherited unchanged, which is
what keeps the kernel bit-identical to the other two backends (the
golden conformance suite asserts it).

Ordering equivalence
====================

The calendar queue and the heap pop in the same global ``(time, seq)``
order: every push the handlers make is strictly after the currently
executing key (sequence numbers only grow, timestamps are now + a
positive latency), so a global-min pop sequence is unique up to ties --
and the only same-key ties are duplicate wake records, which re-check
state and no-op regardless of which copy runs first.

Loading
=======

:func:`load_kernel` first tries a prebuilt ``repro.sim.vec._kernel``
module (``pip install`` with a compiler present), then falls back to
compiling the shipped C source at first use with ``cc -O2`` into a
source-hash-keyed cache directory (``REPRO_KERNEL_CACHE``, default
``~/.cache/repro-kernel``).  Set ``REPRO_NO_KERNEL=1`` to skip both and
force the pure-Python batched engine -- CI uses this to keep the
no-compiler fallback path green.  Any build/load failure is recorded in
:data:`load_error` and surfaces as a single ``RuntimeWarning`` from
:class:`~repro.sim.network.Network`, which then runs the batched
backend instead.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import SimpleNamespace
from typing import Iterator, Optional

from repro.routing.minimal import MinimalRouting
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import IndirectRandomRouting
from repro.sim.packet import Packet
from repro.sim.vec.engine import BatchedEngine

__all__ = ["KernelEngine", "load_kernel", "load_error"]

_SRC = Path(__file__).with_name("_kernel.c")

#: Why the kernel failed to load (None until an attempt fails).
load_error: Optional[str] = None

_mod = None
_attempted = False


def _jit_build_and_load():
    """Compile the shipped C source into a cached extension and load it."""
    source = _SRC.read_bytes()
    tag = hashlib.sha256(
        source + sys.implementation.cache_tag.encode()
    ).hexdigest()[:16]
    cache = Path(
        os.environ.get("REPRO_KERNEL_CACHE")
        or Path.home() / ".cache" / "repro-kernel"
    )
    ext = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    so = cache / f"_kernel-{tag}{ext}"
    if not so.exists():
        cache.mkdir(parents=True, exist_ok=True)
        cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
        cmd = shlex.split(cc)[:1] + [
            "-O2",
            "-fPIC",
            "-shared",
            f"-I{sysconfig.get_paths()['include']}",
            f"-I{sysconfig.get_paths()['platinclude']}",
        ]
        if sys.platform == "darwin":
            cmd += ["-undefined", "dynamic_lookup"]
        tmp = so.with_name(f".{so.name}.{os.getpid()}.tmp")
        cmd += [str(_SRC), "-o", str(tmp)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise RuntimeError(
                f"kernel build failed ({' '.join(cmd[:1])} exited "
                f"{proc.returncode}): {proc.stderr.strip()[-500:]}"
            )
        os.replace(tmp, so)  # atomic: concurrent builders race safely
    name = "repro.sim.vec._kernel"
    loader = importlib.machinery.ExtensionFileLoader(name, str(so))
    spec = importlib.util.spec_from_file_location(name, str(so), loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


def load_kernel():
    """Return the compiled ``_kernel`` module, or None (see module doc).

    The first failure is cached: one process attempts one build.
    """
    global _mod, _attempted, load_error
    if _attempted:
        return _mod
    _attempted = True
    if os.environ.get("REPRO_NO_KERNEL"):
        load_error = "disabled by REPRO_NO_KERNEL"
        return None
    try:
        try:
            _mod = importlib.import_module("repro.sim.vec._kernel")
        except ImportError:
            _mod = _jit_build_and_load()
    except Exception as exc:  # noqa: BLE001 -- any failure means fallback
        load_error = f"{type(exc).__name__}: {exc}"
        _mod = None
    return _mod


def _reset_for_tests() -> None:
    """Forget a cached load attempt (test hook)."""
    global _mod, _attempted, load_error
    _mod = None
    _attempted = False
    load_error = None


class KernelEngine(BatchedEngine):
    """BatchedEngine with the event queue and dispatch loop in C."""

    backend_name = "kernel"

    def __init__(self, net) -> None:
        super().__init__(net)
        mod = load_kernel()
        if mod is None:
            raise RuntimeError(f"compiled kernel unavailable: {load_error}")
        self._k = mod.Kernel()
        #: Fast-path spec for the C side (recomputed per run; None = off).
        self._fp = None

    # -- fast-path spec --------------------------------------------------------

    def _fastpath_spec(self):
        """Bindings for the C fast paths, or ``None`` when ineligible.

        Two independently-gated tiers (the C side reads this via
        ``eng._fp`` at run start):

        * ``route_mode >= 0`` moves the entire NIC send -- routing
          candidate selection (with a C replica of the ``random.Random``
          draw stream), ``Packet`` construction and inject accounting --
          behind the C boundary.  Requires compiled routing of a known
          type and no checker (the checker wraps ``net.make_packet``).
        * ``deliver_fast`` accumulates the per-packet eject statistics
          in C arrays, flushed via ``StatsCollector.absorb_kernel``.
          Requires no checker/tracer/listener/message-tracking observer.

        Escapes remain for cold paths only: cache-row misses (BFS refill
        under faults) call back into ``RouteCache``, scheduled CALLs and
        fault diverts run in Python with the RNG/packet-id state handed
        off around them (see ``_nic_try_send``), and unknown routing
        setups keep the full Python escape.  Set
        ``REPRO_KERNEL_NO_FASTPATH=1`` to force escapes everywhere.
        """
        if os.environ.get("REPRO_KERNEL_NO_FASTPATH"):
            return None
        net = self.net
        if net.checker is not None:
            return None
        routing = net.routing
        cache = getattr(routing, "cache", None)
        route_mode = -1
        rngs = []
        if getattr(routing, "compiled", False) and cache is not None:
            # Strict type checks: a subclass could override route(), so
            # only the exact implementations ported to C are eligible.
            rtype = type(routing)
            if rtype is MinimalRouting:
                if routing.selection == "random":
                    route_mode, rngs = 0, [routing._rng]
                else:
                    route_mode = 1
            elif rtype is IndirectRandomRouting:
                route_mode, rngs = 2, [routing._rng]
            elif (
                rtype is UGALRouting
                and routing._local
                and routing._minimal_random
            ):
                route_mode = 3
                rngs = [routing._minimal._rng, routing._indirect._rng]
        deliver_fast = int(
            net.tracer is None
            and not net._delivery_listeners
            and net._msg_track is None
        )
        if route_mode < 0 and not deliver_fast:
            return None
        stats = net.stats
        threshold = getattr(routing, "threshold", None)
        pool = getattr(routing, "_pool", None)
        return SimpleNamespace(
            route_mode=route_mode,
            deliver_fast=deliver_fast,
            stats_absorb=stats.absorb_kernel,
            win_start=stats.window_start,
            win_end=stats.window_end,
            rngs=rngs,
            packet_cls=Packet,
            eject_ports=net._eject_ports,
            min_rows=cache.minimal_rows if cache is not None else None,
            leg_rows=cache.leg_rows if cache is not None else None,
            composed=cache._composed if cache is not None else None,
            selfs=cache._self if cache is not None else None,
            minimal_fill=cache.minimal_fill if cache is not None else None,
            leg_fill=cache.leg_fill if cache is not None else None,
            compose=cache.compose if cache is not None else None,
            compose_or_none=(
                cache.compose_or_none if cache is not None else None
            ),
            self_route=cache.self_route if cache is not None else None,
            pool=pool,
            n_indirect=getattr(routing, "num_indirect", 0),
            sf_mode=int(getattr(routing, "_sf_mode", False)),
            c=float(getattr(routing, "c", 0.0)),
            c_sf=float(getattr(routing, "c_sf", 0.0)),
            thr_cap=(
                threshold * net.queue_capacity()
                if threshold is not None
                else None
            ),
        )

    def _nic_try_send(self, node, t, s) -> None:
        # Mid-run Python sends (BatchedNIC.submit / set_source from
        # inside a CALL escape) draw from the routing RNGs and allocate
        # packet ids while those live in the kernel: hand the state out,
        # run the Python path, and pull it back so the C fast path
        # resumes the identical streams.
        k = self._k
        if k.resident():
            k.handoff_out()
            try:
                super()._nic_try_send(node, t, s)
            finally:
                k.handoff_in()
        else:
            super()._nic_try_send(node, t, s)

    # Cold-path pushes (schedule/schedule_at, _nic_try_send, the fault
    # manager's drain, setup_synthetic) all funnel through _push, so
    # overriding it routes every event into the C heap -- including
    # re-entrant scheduling from inside a Python escape.
    def _push(self, t, s, op, a, b, c) -> None:
        self._k.push(t, s, op, a, b, c)

    def clear(self) -> None:
        super().clear()
        self._k.clear()

    @property
    def pending(self) -> int:
        return self._k.pending()

    def iter_pending(self) -> Iterator[tuple]:
        return iter(self._k.events())

    def _next_time(self) -> Optional[float]:
        return self._k.peek_time()

    def kernel_stats(self) -> dict:
        """In-kernel event counts and the Python-escape time split."""
        return self._k.stats()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        # Same GC fencing as the Python loop: the kernel allocates event
        # keys and credit tuples heavily but never cycles.
        self._fp = self._fastpath_spec()
        gc_was = gc.isenabled()
        if gc_was:
            gc.disable()
        try:
            executed = self._k.run(self, until, max_events)
        finally:
            if gc_was:
                gc.enable()
        if until is not None and self.now < until:
            nt = self._k.peek_time()
            if nt is None or nt > until:
                # Advance the clock to the horizon even if the queue ran
                # dry (but not when the event budget cut the run short).
                self.now = until
        return executed
