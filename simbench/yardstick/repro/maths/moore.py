"""The Moore bound for the degree/diameter problem.

Sec. 2.1.2 of the paper notes that MMS graphs (the Slim Fly router graph)
reach approximately 88% of the Moore bound for diameter 2.  These helpers
compute the bound so that tests and analyses can verify the claim.
"""

from __future__ import annotations

__all__ = ["moore_bound", "moore_fraction"]


def moore_bound(degree: int, diameter: int) -> int:
    """Maximum number of vertices of a graph with given *degree*/*diameter*.

    .. math:: M(d, k) = 1 + d \\sum_{i=0}^{k-1} (d-1)^i

    For diameter 2 this is ``1 + d^2``.
    """
    if degree < 0 or diameter < 0:
        raise ValueError("moore_bound: degree and diameter must be non-negative")
    if diameter == 0 or degree == 0:
        return 1
    if degree == 1:
        return 2
    total = 1
    term = degree
    for _ in range(diameter):
        total += term
        term *= degree - 1
    return total


def moore_fraction(num_vertices: int, degree: int, diameter: int) -> float:
    """Fraction of the Moore bound achieved by a graph of *num_vertices*."""
    return num_vertices / moore_bound(degree, diameter)
