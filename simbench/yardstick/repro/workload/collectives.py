"""Collective-communication schedule generators.

Each generator lays a standard collective algorithm out as a
:class:`~repro.workload.dag.Workload` over *ranks* ``0..R-1``.  Ranks
map contiguously onto nodes (the paper's Sec. 4.4 placement); pass the
result through :meth:`Workload.remap` for other placements.

Implemented schedules:

- :func:`ring_allreduce` -- reduce-scatter ring followed by an
  all-gather ring, ``2(R-1)`` steps of ``size/R``-byte chunks (the
  bandwidth-optimal schedule used by NCCL/Horovod-style frameworks);
- :func:`recursive_doubling_allreduce` -- ``log2 R`` butterfly rounds
  of full-vector exchanges (latency-optimal for small messages);
- :func:`ring_allgather` -- ``R-1`` steps circulating each rank's
  contribution;
- :func:`halo_exchange_3d` -- iterated six-direction stencil exchange
  on the same torus geometry as
  :class:`repro.traffic.NearestNeighbor3D`;
- :func:`phased_alltoall` -- the linear-shift phase schedule of the
  paper's all-to-all exchange (Sec. 4.4), optionally with global
  barriers between phases.

``build_workload`` is the string registry used by the CLI and by
:mod:`repro.orchestrate` job specs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.traffic.mapping import best_torus_dims, torus_coords, torus_rank
from repro.workload.dag import Workload

__all__ = [
    "ring_allreduce",
    "recursive_doubling_allreduce",
    "ring_allgather",
    "halo_exchange_3d",
    "phased_alltoall",
    "WORKLOAD_GENERATORS",
    "build_workload",
    "largest_power_of_two",
]


def _check_ranks(ranks: int, minimum: int = 2) -> None:
    if ranks < minimum:
        raise ValueError(f"collective needs >= {minimum} ranks, got {ranks}")


def _check_bytes(message_bytes: int) -> None:
    if message_bytes < 1:
        raise ValueError(f"message_bytes={message_bytes} must be >= 1")


def largest_power_of_two(n: int) -> int:
    """The largest ``2**m <= n`` (``n >= 1``)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 1 << (n.bit_length() - 1)


def ring_allreduce(ranks: int, message_bytes: int) -> Workload:
    """Ring all-reduce: reduce-scatter then all-gather (2(R-1) steps).

    The *message_bytes* vector is split into ``R`` chunks.  At
    reduce-scatter step ``s``, rank ``i`` sends to ``i+1`` the chunk it
    finished combining at step ``s-1`` -- hence a send depends on the
    send that delivered that chunk to it.  The all-gather half
    circulates the fully reduced chunks the rest of the way around.
    """
    _check_ranks(ranks)
    _check_bytes(message_bytes)
    chunk = max(1, -(-message_bytes // ranks))
    w = Workload(f"ring-allreduce[R={ranks},B={message_bytes}]")
    prev_step: Dict[int, int] = {}  # rank -> mid of the send it last received
    for half, label, steps in (
        (0, "reduce-scatter", ranks - 1),
        (1, "all-gather", ranks - 1),
    ):
        for s in range(steps):
            step_mids: Dict[int, int] = {}
            for i in range(ranks):
                deps = []
                # The chunk rank i forwards now is the one delivered to
                # it by rank i-1 in the previous step.
                if half > 0 or s > 0:
                    deps.append(prev_step[(i - 1) % ranks])
                step_mids[i] = w.add(
                    src=i, dst=(i + 1) % ranks, size=chunk, deps=deps, phase=label
                )
            prev_step = step_mids
    return w


def recursive_doubling_allreduce(ranks: int, message_bytes: int) -> Workload:
    """Recursive-doubling all-reduce: ``log2 R`` pairwise exchange rounds.

    Requires a power-of-two rank count (use
    :func:`largest_power_of_two` to trim).  In round ``r`` every rank
    exchanges the full vector with its partner ``i XOR 2^r``; a round
    ``r`` send waits on both the rank's own round ``r-1`` send and the
    delivery it needed from its previous partner (the butterfly
    synchronization pattern).
    """
    _check_ranks(ranks)
    _check_bytes(message_bytes)
    if ranks & (ranks - 1):
        raise ValueError(
            f"recursive doubling needs a power-of-two rank count, got {ranks} "
            f"(largest fitting power of two: {largest_power_of_two(ranks)})"
        )
    w = Workload(f"rd-allreduce[R={ranks},B={message_bytes}]")
    rounds = ranks.bit_length() - 1
    prev: Dict[int, int] = {}
    for r in range(rounds):
        label = f"round{r}"
        cur: Dict[int, int] = {}
        for i in range(ranks):
            partner = i ^ (1 << r)
            deps = []
            if r > 0:
                prev_partner = i ^ (1 << (r - 1))
                deps = [prev[i], prev[prev_partner]]
            cur[i] = w.add(
                src=i, dst=partner, size=message_bytes, deps=deps, phase=label
            )
        prev = cur
    return w


def ring_allgather(ranks: int, message_bytes: int) -> Workload:
    """Ring all-gather: R-1 steps circulating each rank's block.

    *message_bytes* is the per-rank contribution; every rank forwards
    at step ``s`` the block it received at step ``s-1``.
    """
    _check_ranks(ranks)
    _check_bytes(message_bytes)
    w = Workload(f"ring-allgather[R={ranks},B={message_bytes}]")
    prev_step: Dict[int, int] = {}
    for s in range(ranks - 1):
        label = f"step{s}"
        cur: Dict[int, int] = {}
        for i in range(ranks):
            deps = [prev_step[(i - 1) % ranks]] if s > 0 else []
            cur[i] = w.add(
                src=i, dst=(i + 1) % ranks, size=message_bytes, deps=deps, phase=label
            )
        prev_step = cur
    return w


def halo_exchange_3d(
    ranks: int,
    message_bytes: int,
    iterations: int = 1,
    dims: Optional[Tuple[int, int, int]] = None,
) -> Workload:
    """Iterated 3D-stencil halo exchange on a periodic torus.

    Geometry mirrors :class:`repro.traffic.NearestNeighbor3D`: the
    largest torus fitting *ranks* (or explicit *dims*), six-direction
    neighbourhoods with duplicate/self targets elided on degenerate
    dimensions.  Iteration ``t`` models the next stencil sweep: a rank
    may send only after *all* its iteration ``t-1`` halos arrived
    (every neighbour's send toward it completed).
    """
    _check_bytes(message_bytes)
    if iterations < 1:
        raise ValueError(f"iterations={iterations} must be >= 1")
    dims = dims if dims is not None else best_torus_dims(ranks)
    dx, dy, dz = dims
    volume = dx * dy * dz
    if volume > ranks:
        raise ValueError(f"torus {dims} larger than rank count {ranks}")

    def neighbors(rank: int):
        x, y, z = torus_coords(rank, dims)
        seen = set()
        for cand in (
            torus_rank(((x + 1) % dx, y, z), dims),
            torus_rank(((x - 1) % dx, y, z), dims),
            torus_rank((x, (y + 1) % dy, z), dims),
            torus_rank((x, (y - 1) % dy, z), dims),
            torus_rank((x, y, (z + 1) % dz), dims),
            torus_rank((x, y, (z - 1) % dz), dims),
        ):
            if cand != rank and cand not in seen:
                seen.add(cand)
                yield cand

    w = Workload(f"halo3d[{dx}x{dy}x{dz},B={message_bytes},T={iterations}]")
    nbrs = {rank: tuple(neighbors(rank)) for rank in range(volume)}
    if all(not n for n in nbrs.values()):
        raise ValueError(f"degenerate torus {dims}: no exchange partners")
    # inbound[i] = mids of the previous iteration's sends arriving at i.
    inbound: Dict[int, list] = {i: [] for i in range(volume)}
    for t in range(iterations):
        label = f"iter{t}"
        nxt: Dict[int, list] = {i: [] for i in range(volume)}
        for i in range(volume):
            deps = inbound[i]
            for j in nbrs[i]:
                mid = w.add(src=i, dst=j, size=message_bytes, deps=deps, phase=label)
                nxt[j].append(mid)
        inbound = nxt
    return w


def phased_alltoall(
    ranks: int, message_bytes: int, barrier: bool = False
) -> Workload:
    """Linear-shift all-to-all: phase ``ph`` sends ``i -> i+ph``.

    This is the staged schedule of the paper's Sec. 4.4 exchange
    (Kumar et al. [12]): in any phase no destination is targeted twice.
    By default each rank pipelines through its own phases (a send waits
    only on that rank's previous send) -- the paper's staggered,
    barrier-free NIC behaviour.  With ``barrier=True`` a phase starts
    only after *every* phase ``ph-1`` message delivered, modelling a
    bulk-synchronous implementation.
    """
    _check_ranks(ranks)
    _check_bytes(message_bytes)
    w = Workload(
        f"phased-a2a[R={ranks},B={message_bytes}{',barrier' if barrier else ''}]"
    )
    prev_per_rank: Dict[int, int] = {}
    prev_all: list = []
    for ph in range(1, ranks):
        label = f"phase{ph}"
        cur_all: list = []
        for i in range(ranks):
            if barrier:
                deps = prev_all
            else:
                deps = [prev_per_rank[i]] if ph > 1 else []
            mid = w.add(
                src=i, dst=(i + ph) % ranks, size=message_bytes, deps=deps, phase=label
            )
            prev_per_rank[i] = mid
            cur_all.append(mid)
        prev_all = cur_all
    return w


# --------------------------------------------------------------------------
# String registry (CLI / orchestrate job specs).
# --------------------------------------------------------------------------

WORKLOAD_GENERATORS = {
    "ring-allreduce": ring_allreduce,
    "rd-allreduce": recursive_doubling_allreduce,
    "allgather": ring_allgather,
    "halo3d": halo_exchange_3d,
    "phased-a2a": phased_alltoall,
}


def build_workload(
    name: str,
    num_nodes: int,
    message_bytes: int,
    ranks: Optional[int] = None,
    **kwargs,
) -> Workload:
    """Build a registered collective sized for a *num_nodes* machine.

    ``ranks`` defaults to every node (trimmed to the largest power of
    two for ``rd-allreduce``, and to the largest fitting torus for
    ``halo3d`` -- mirroring how real jobs size themselves to the
    allocation).  Extra keyword arguments are forwarded to the
    generator (e.g. ``iterations`` for ``halo3d``, ``barrier`` for
    ``phased-a2a``).
    """
    name = name.lower()
    gen = WORKLOAD_GENERATORS.get(name)
    if gen is None:
        raise ValueError(
            f"unknown workload {name!r} (choose from "
            f"{', '.join(sorted(WORKLOAD_GENERATORS))})"
        )
    r = int(ranks) if ranks is not None else num_nodes
    if r > num_nodes:
        raise ValueError(f"ranks={r} exceeds node count {num_nodes}")
    if name == "rd-allreduce" and r & (r - 1):
        r = largest_power_of_two(r)
    w = gen(r, int(message_bytes), **kwargs)
    w.validate(num_nodes=num_nodes)
    return w
