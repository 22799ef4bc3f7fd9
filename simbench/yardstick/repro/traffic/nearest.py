"""Nearest-neighbour exchange on a 3D torus (paper Sec. 4.4, Fig. 14).

Processes are arranged in the largest 3D torus that fits the topology's
node count and each process sends one message to each of its six torus
neighbours (X+/X-, Y+/Y-, Z+/Z-, in that order).  With the contiguous
mapping, X exchanges stay inside a router, Y exchanges inside a
layer/column, and Z exchanges cross the network -- the structure behind
the paper's Fig. 14 discussion.

The paper uses 512 KB messages; reduced-scale runs use smaller ones.
Nodes beyond the torus volume stay idle (the paper's tori also leave a
remainder, e.g. 12 x 14 x 19 = 3192 exactly for the OFT).
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.traffic.mapping import best_torus_dims, torus_coords, torus_rank

__all__ = ["NearestNeighbor3D"]


class NearestNeighbor3D:
    """Six-direction nearest-neighbour exchange on a periodic 3D grid.

    ``interleave`` is honoured by :meth:`repro.sim.Network.run_exchange`
    and models the standard non-blocking implementation: all six sends
    are posted concurrently, so packets interleave across neighbours.
    """

    #: Exchange messages are sent concurrently (non-blocking sends).
    interleave = True

    def __init__(
        self,
        num_nodes: int,
        message_bytes: int = 524_288,
        dims: Optional[Tuple[int, int, int]] = None,
        node_map: Optional[Sequence[int]] = None,
    ):
        self.dims = dims if dims is not None else best_torus_dims(num_nodes)
        dx, dy, dz = self.dims
        if dx * dy * dz > num_nodes:
            raise ValueError(f"torus {self.dims} larger than node count {num_nodes}")
        if min(self.dims) < 1:
            raise ValueError(f"bad torus dims {self.dims}")
        if message_bytes < 1:
            raise ValueError(f"message_bytes={message_bytes} must be >= 1")
        self.num_nodes = num_nodes
        self.message_bytes = message_bytes
        self.volume = dx * dy * dz
        # Optional process-to-node mapping: node_map[rank] = node id.
        # Default is the paper's contiguous mapping (rank == node).
        if node_map is None:
            self.node_map: Optional[Tuple[int, ...]] = None
            self._node_rank: Optional[dict] = None
        else:
            node_map = tuple(int(n) for n in node_map)
            if len(node_map) != self.volume:
                raise ValueError(
                    f"node_map has {len(node_map)} entries, torus volume is {self.volume}"
                )
            if len(set(node_map)) != len(node_map):
                raise ValueError("node_map contains duplicate nodes")
            if any(not (0 <= n < num_nodes) for n in node_map):
                raise ValueError("node_map entry out of range")
            self.node_map = node_map
            self._node_rank = {n: r for r, n in enumerate(node_map)}

    def neighbors(self, rank: int) -> Iterator[int]:
        """The six torus neighbours of *rank*, X first, +1 before -1."""
        x, y, z = torus_coords(rank, self.dims)
        dx, dy, dz = self.dims
        yield torus_rank(((x + 1) % dx, y, z), self.dims)
        yield torus_rank(((x - 1) % dx, y, z), self.dims)
        yield torus_rank((x, (y + 1) % dy, z), self.dims)
        yield torus_rank((x, (y - 1) % dy, z), self.dims)
        yield torus_rank((x, y, (z + 1) % dz), self.dims)
        yield torus_rank((x, y, (z - 1) % dz), self.dims)

    def node_messages(self, node: int) -> Iterator[Tuple[int, int]]:
        """Messages of *node*: one per torus neighbour (idle if off-torus).

        Degenerate dimensions of size <= 2 would make +1 and -1 the same
        neighbour (or self); such duplicate/self targets are emitted once
        or skipped, keeping the pattern well-formed on small tori.
        """
        if self._node_rank is None:
            rank = node
            if rank >= self.volume:
                return
        else:
            maybe = self._node_rank.get(node)
            if maybe is None:
                return
            rank = maybe
        seen = set()
        for neighbor in self.neighbors(rank):
            if neighbor == rank or neighbor in seen:
                continue
            seen.add(neighbor)
            dst = neighbor if self.node_map is None else self.node_map[neighbor]
            yield (dst, self.message_bytes)

    @property
    def total_bytes(self) -> int:
        """Aggregate volume of the exchange."""
        participants = (
            range(self.volume) if self.node_map is None else self.node_map
        )
        total = 0
        for node in participants:
            for _ in self.node_messages(node):
                total += self.message_bytes
        return total
