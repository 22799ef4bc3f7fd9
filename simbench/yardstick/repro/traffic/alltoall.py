"""All-to-all exchange (paper Sec. 4.4, Fig. 13).

Each process sends one message to every other process (``N^2 - N``
messages total).  The exchange is staged in the style of Kumar et al.
[12]: at phase ``ph`` every process ``i`` targets process
``(i + ph) mod N``, so no destination is hit by two sources in the same
phase.  Our NICs send each node's message list in order without global
barriers, which reproduces that pipelined/staggered behaviour.

The paper uses 7.5 KB messages (30 packets of 256 B); the default here
is configurable because reduced-scale runs use proportionally smaller
messages (see DESIGN.md §4).
"""

from __future__ import annotations

import random
from typing import Iterator, Tuple

__all__ = ["AllToAll"]


class AllToAll:
    """All-to-all exchange with a configurable destination schedule.

    ``schedule="random"`` (default) gives every node an independent
    random permutation of its destinations -- the randomized injection
    order of optimized A2A implementations (Kumar et al.), which
    decorrelates the instantaneous traffic into a near-uniform load.
    ``schedule="staggered"`` uses the synchronous phase order
    ``dst = node + phase``; kept as the naive baseline (in lockstep it
    degenerates into a sequence of shift permutations, which is exactly
    the hotspot the optimized schedule avoids).
    """

    def __init__(
        self,
        num_nodes: int,
        message_bytes: int = 7_680,
        schedule: str = "random",
        seed: int = 0,
    ):
        if num_nodes < 2:
            raise ValueError(f"AllToAll: need >= 2 nodes, got {num_nodes}")
        if message_bytes < 1:
            raise ValueError(f"AllToAll: message_bytes={message_bytes} must be >= 1")
        if schedule not in ("random", "staggered"):
            raise ValueError(f"AllToAll: unknown schedule {schedule!r}")
        self.num_nodes = num_nodes
        self.message_bytes = message_bytes
        self.schedule = schedule
        self.seed = seed

    def node_messages(self, node: int) -> Iterator[Tuple[int, int]]:
        """Ordered messages of *node*, one per other process."""
        n = self.num_nodes
        size = self.message_bytes
        if self.schedule == "staggered":
            for phase in range(1, n):
                yield ((node + phase) % n, size)
        else:
            order = [(node + phase) % n for phase in range(1, n)]
            random.Random((self.seed << 32) ^ node).shuffle(order)
            for dst in order:
                yield (dst, size)

    @property
    def total_bytes(self) -> int:
        """Aggregate volume of the exchange."""
        return self.num_nodes * (self.num_nodes - 1) * self.message_bytes
