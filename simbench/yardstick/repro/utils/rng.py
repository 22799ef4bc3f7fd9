"""Deterministic seed derivation.

Experiments involve many independent random streams (one per node, per
sweep point, per restart); deriving them all from one master seed keeps
every run exactly reproducible.
"""

from __future__ import annotations

import random
from typing import List

__all__ = ["spawn_seeds"]


def spawn_seeds(master_seed: int, count: int) -> List[int]:
    """Derive *count* independent 64-bit seeds from *master_seed*."""
    if count < 0:
        raise ValueError(f"spawn_seeds: count={count} must be non-negative")
    rng = random.Random(master_seed)
    return [rng.getrandbits(64) for _ in range(count)]
