"""Scalability analysis: end-nodes vs router radix (Fig. 3).

For every topology family this module enumerates the feasible
configurations up to a radix bound and reports ``(radix, N)`` points,
plus closed-form scale evaluation.  The paper's headline numbers (with
radix-64 routers: OFT ~63.5 K, MLFM ~36 K, SF ~33.7 K end-nodes) fall
out of :func:`scalability_points` / :func:`nodes_at_radix`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.maths.primes import is_prime
from repro.topology.ml3b import valid_oft_k
from repro.topology.slimfly import slim_fly_delta, valid_slim_fly_q

__all__ = ["scalability_points", "nodes_at_radix", "FAMILIES"]

FAMILIES = ("SF", "SF-ceil", "MLFM", "OFT", "HyperX2D", "FT2", "FT3")


def _sf_radix_nodes(q: int, ceil_p: bool) -> Tuple[int, int]:
    delta = slim_fly_delta(q)
    network_radix = (3 * q - delta) // 2
    p = math.ceil(network_radix / 2) if ceil_p else network_radix // 2
    return network_radix + p, 2 * q * q * p


def scalability_points(family: str, max_radix: int) -> List[Tuple[int, int]]:
    """Feasible ``(router radix, N)`` points of *family* with radix <= bound.

    Families: ``"SF"`` (p = floor(r'/2)), ``"SF-ceil"``, ``"MLFM"``
    (h-MLFM, radix 2h), ``"OFT"`` (radix 2k, k-1 a prime power), ``"HyperX2D"``
    (balanced, radix divisible by 3), ``"FT2"`` and ``"FT3"`` (even
    radix).
    """
    points: List[Tuple[int, int]] = []
    if family in ("SF", "SF-ceil"):
        ceil_p = family == "SF-ceil"
        q = 4
        while True:
            if valid_slim_fly_q(q):
                radix, nodes = _sf_radix_nodes(q, ceil_p)
                if radix > max_radix:
                    break
                points.append((radix, nodes))
            q += 1
            if q > 4 * max_radix:  # pragma: no cover - safety
                break
    elif family == "MLFM":
        for h in range(1, max_radix // 2 + 1):
            points.append((2 * h, h**3 + h**2))
    elif family == "OFT":
        for k in range(3, max_radix // 2 + 1):
            if valid_oft_k(k):
                points.append((2 * k, 2 * k**3 - 2 * k**2 + 2 * k))
    elif family == "HyperX2D":
        for r in range(3, max_radix + 1, 3):
            third = r // 3
            points.append((r, third * (third + 1) ** 2))
    elif family == "FT2":
        for r in range(2, max_radix + 1, 2):
            points.append((r, r * r // 2))
    elif family == "FT3":
        for r in range(2, max_radix + 1, 2):
            points.append((r, r**3 // 4))
    else:
        raise ValueError(f"unknown family {family!r} (choose from {FAMILIES})")
    return points


def nodes_at_radix(family: str, radix: int) -> int:
    """Largest N achievable by *family* using routers of radix <= *radix*."""
    points = scalability_points(family, radix)
    if not points:
        raise ValueError(f"{family}: no feasible configuration with radix <= {radix}")
    return max(n for _, n in points)


def scalability_table(max_radix: int = 64) -> Dict[str, int]:
    """Fig. 3 summary: best N per family at the given radix budget."""
    return {family: nodes_at_radix(family, max_radix) for family in FAMILIES}
