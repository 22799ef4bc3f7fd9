"""Small shared utilities."""

from repro.utils.rng import spawn_seeds

__all__ = ["spawn_seeds"]
