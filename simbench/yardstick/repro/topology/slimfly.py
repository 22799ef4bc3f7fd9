"""Diameter-two Slim Fly topology (McKay--Miller--Siran graphs).

Implements the construction of paper Sec. 2.1.2 (following Besta &
Hoefler, SC '14).  Given a prime power ``q = 4w + delta`` with
``delta in {-1, 0, +1}``:

- compute a primitive element ``xi`` of ``GF(q)``,
- build the generator sets ``X`` (intra-column set of subgraph 0) and
  ``X'`` (intra-column set of subgraph 1),
- arrange ``R = 2 q^2`` routers in two subgraphs of ``q`` columns by
  ``q`` rows, connected by

  - ``(0, x, y) ~ (0, x, y')``  iff  ``y - y' in X``
  - ``(1, m, c) ~ (1, m, c')``  iff  ``c - c' in X'``
  - ``(0, x, y) ~ (1, m, c)``   iff  ``y = m*x + c``      (all over GF(q)).

The network radix is ``r' = (3q - delta)/2`` and the paper studies both
``p = floor(r'/2)`` and ``p = ceil(r'/2)`` attached end-nodes per router
(Sec. 2.1.2 discusses the cost/performance trade-off of that rounding).

Router numbering follows the paper's morphology order (Sec. 4.4): nodes
are ordered intra-router, then intra-column, then by subgraph, i.e.
router ``(s, a, b)`` has id ``s*q^2 + a*q + b`` where ``a`` is the column
(``x`` resp. ``m``) and ``b`` the row (``y`` resp. ``c``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.maths.galois import GaloisField
from repro.maths.primes import is_prime_power
from repro.topology.base import Topology

__all__ = ["SlimFly", "slim_fly_delta", "slim_fly_generator_sets", "valid_slim_fly_q"]


def slim_fly_delta(q: int) -> int:
    """Return ``delta in {-1, 0, +1}`` such that ``q = 4w + delta``.

    Raises ``ValueError`` if *q* is not of that form (i.e. ``q % 4 == 2``)
    or not a prime power.
    """
    if not is_prime_power(q):
        raise ValueError(f"Slim Fly: q={q} is not a prime power")
    rem = q % 4
    if rem == 1:
        return 1
    if rem == 3:
        return -1
    if rem == 0:
        return 0
    raise ValueError(f"Slim Fly: q={q} is not of the form 4w + delta, delta in {{-1,0,1}}")


def valid_slim_fly_q(q: int) -> bool:
    """``True`` iff *q* is a usable Slim Fly parameter."""
    try:
        slim_fly_delta(q)
    except ValueError:
        return False
    return q >= 4


def slim_fly_generator_sets(q: int) -> Tuple[Set[int], Set[int]]:
    """Build the MMS generator sets ``(X, X')`` over ``GF(q)``.

    Both sets are symmetric (``X == -X``), which makes the intra-column
    Cayley graphs undirected; this is asserted.
    """
    delta = slim_fly_delta(q)
    field = GaloisField(q)
    xi = field.primitive_element

    def powers(exponents) -> Set[int]:
        return {field.pow(xi, e) for e in exponents}

    if delta == 1:
        # q = 4w + 1: X = even powers (quadratic residues), X' = odd powers.
        x_set = powers(range(0, q - 1, 2))
        xp_set = powers(range(1, q - 1, 2))
    elif delta == 0:
        # q = 4w (char 2): X = {xi^0, xi^2, ..., xi^(q-2)},
        # X' = {xi^1, xi^3, ..., xi^(q-1)}; note xi^(q-1) == 1.  Symmetry is
        # automatic since -a == a in characteristic 2.
        x_set = powers(range(0, q - 1, 2))
        xp_set = powers(range(1, q, 2))
    else:
        # q = 4w - 1: mixed even/odd split (paper Sec. 2.1.2).
        w = (q + 1) // 4
        x_set = powers(range(0, 2 * w - 1, 2)) | powers(range(2 * w - 1, 4 * w - 2, 2))
        xp_set = powers(range(1, 2 * w, 2)) | powers(range(2 * w, 4 * w - 1, 2))

    for name, s in (("X", x_set), ("X'", xp_set)):
        negated = {field.neg(v) for v in s}
        if negated != s:
            raise AssertionError(f"Slim Fly q={q}: generator set {name} is not symmetric")
        if 0 in s:
            raise AssertionError(f"Slim Fly q={q}: generator set {name} contains 0")
    expected = (q - delta) // 2
    if len(x_set) != expected or len(xp_set) != expected:
        raise AssertionError(
            f"Slim Fly q={q}: generator set sizes {len(x_set)}/{len(xp_set)} != {expected}"
        )
    return x_set, xp_set


class SlimFly(Topology):
    """Slim Fly (MMS) topology with ``R = 2 q^2`` routers.

    Parameters
    ----------
    q:
        Prime power of the form ``4w + delta``, ``delta in {-1, 0, 1}``.
    p:
        End-nodes per router.  Default ``floor(r'/2)``; pass ``"ceil"``
        (or an int) for the alternative studied in the paper.
    """

    def __init__(self, q: int, p: int | str = "floor"):
        delta = slim_fly_delta(q)
        field = GaloisField(q)
        x_set, xp_set = slim_fly_generator_sets(q)
        network_radix = q + len(x_set)
        assert network_radix == (3 * q - delta) // 2

        if p == "floor":
            p_val = network_radix // 2
        elif p == "ceil":
            p_val = math.ceil(network_radix / 2)
        else:
            p_val = int(p)
        if p_val < 0:
            raise ValueError(f"Slim Fly: p={p_val} must be non-negative")

        num_routers = 2 * q * q

        def rid(s: int, a: int, b: int) -> int:
            return s * q * q + a * q + b

        adjacency: List[List[int]] = [[] for _ in range(num_routers)]
        # Intra-column links, subgraph 0: (0, x, y) ~ (0, x, y + g), g in X.
        for x in range(q):
            for y in range(q):
                me = rid(0, x, y)
                for g in x_set:
                    adjacency[me].append(rid(0, x, field.add(y, g)))
        # Intra-column links, subgraph 1.
        for m in range(q):
            for c in range(q):
                me = rid(1, m, c)
                for g in xp_set:
                    adjacency[me].append(rid(1, m, field.add(c, g)))
        # Inter-subgraph links: (0, x, y) ~ (1, m, c) iff y = m*x + c.
        for x in range(q):
            for y in range(q):
                me = rid(0, x, y)
                for m in range(q):
                    c = field.sub(y, field.mul(m, x))
                    other = rid(1, m, c)
                    adjacency[me].append(other)
                    adjacency[other].append(me)

        super().__init__(
            name=f"SF(q={q},p={p_val})",
            adjacency=adjacency,
            nodes_per_router=[p_val] * num_routers,
            params={"q": q, "delta": delta, "p": p_val, "network_radix": network_radix},
        )
        self.q = q
        self.delta = delta
        self.p = p_val
        self.network_radix = network_radix
        self.field = field
        self.generator_sets = (frozenset(x_set), frozenset(xp_set))
        self._coords: List[Tuple[int, int, int]] = [
            (s, a, b) for s in range(2) for a in range(q) for b in range(q)
        ]
        self._coord_to_id: Dict[Tuple[int, int, int], int] = {
            coord: i for i, coord in enumerate(self._coords)
        }

    # -- coordinates --------------------------------------------------------

    def coords(self, router: int) -> Tuple[int, int, int]:
        """``(subgraph, column, row)`` of a router id."""
        return self._coords[router]

    def router_id(self, subgraph: int, column: int, row: int) -> int:
        """Inverse of :meth:`coords`."""
        return self._coord_to_id[(subgraph, column, row)]

    # -- routing hooks -------------------------------------------------------

    def valiant_intermediates(self) -> List[int]:
        """Any router may serve as a Valiant intermediate (paper Sec. 3.2)."""
        return list(range(self.num_routers))

    # -- analysis helpers ----------------------------------------------------

    @staticmethod
    def expected_num_routers(q: int) -> int:
        """``R = 2 q^2``."""
        return 2 * q * q

    @staticmethod
    def expected_network_radix(q: int) -> int:
        """``r' = (3q - delta) / 2``."""
        return (3 * q - slim_fly_delta(q)) // 2
