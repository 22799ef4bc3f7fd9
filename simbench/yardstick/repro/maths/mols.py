"""Latin squares and Mutually Orthogonal Latin Squares (MOLS).

The tabular representation of the ``k``-ML3B building block of the
Orthogonal Fat-Tree (paper Sec. 2.2.4) is constructed from the complete
family of ``n - 1`` MOLS of prime order ``n = k - 1``.  For prime *n* the
classical construction

.. math:: L_a(i, j) = i + a \\cdot j \\pmod n, \\qquad a = 1, \\ldots, n - 1

yields ``n - 1`` pairwise-orthogonal Latin squares.  (The paper's Table 2
is reproduced exactly by this convention combined with the column shift
described in Sec. 2.2.4 -- see :mod:`repro.topology.ml3b`.)
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.maths.primes import is_prime, is_prime_power

__all__ = [
    "latin_square",
    "mols_prime",
    "mols_prime_power",
    "galois_latin_square",
    "is_latin_square",
    "are_orthogonal",
]


def latin_square(n: int, a: int) -> np.ndarray:
    """Return the order-*n* Latin square ``L_a(i, j) = i + a*j mod n``.

    ``a`` must be invertible mod *n* (for prime *n*: any ``a != 0``) for
    the result to be a Latin square; ``a = 0`` gives the degenerate square
    whose rows are constant in ``j`` (still useful as a building block:
    its columns are permutations).
    """
    if n < 1:
        raise ValueError(f"latin_square: order must be positive, got {n}")
    i = np.arange(n).reshape(n, 1)
    j = np.arange(n).reshape(1, n)
    return (i + a * j) % n


def mols_prime(n: int) -> List[np.ndarray]:
    """Return the complete family of ``n - 1`` MOLS of prime order *n*.

    Raises ``ValueError`` if *n* is not prime (the general prime-power
    construction is not needed by the paper: the OFT requires ``k - 1``
    prime).
    """
    if not is_prime(n):
        raise ValueError(f"mols_prime: order {n} is not prime")
    return [latin_square(n, a) for a in range(1, n)]


def galois_latin_square(q: int, a: int) -> np.ndarray:
    """Latin square ``L_a(i, j) = i + a * j`` over ``GF(q)``.

    Generalises :func:`latin_square` from prime to prime-power order
    (elements are the canonical integer encoding of the field).  For
    prime ``q`` the result coincides with ``latin_square(q, a)``.
    """
    from repro.maths.galois import get_field

    field = get_field(q)
    square = np.empty((q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            square[i, j] = field.add(i, field.mul(a, j))
    return square


def mols_prime_power(q: int) -> List[np.ndarray]:
    """The complete family of ``q - 1`` MOLS of prime-power order *q*.

    Classical construction over ``GF(q)``: ``L_a(i, j) = i + a*j`` for
    every nonzero ``a``.  This is what lets the ``k``-ML3B (and hence
    the OFT) extend beyond the paper's ``k - 1`` prime cases to any
    prime power (e.g. ``k = 5, 9, 10``).
    """
    if not is_prime_power(q):
        raise ValueError(f"mols_prime_power: order {q} is not a prime power")
    return [galois_latin_square(q, a) for a in range(1, q)]


def is_latin_square(square: np.ndarray) -> bool:
    """Check that every row and every column is a permutation of ``0..n-1``."""
    square = np.asarray(square)
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        return False
    n = square.shape[0]
    want = np.arange(n)
    rows_ok = all(np.array_equal(np.sort(square[i, :]), want) for i in range(n))
    cols_ok = all(np.array_equal(np.sort(square[:, j]), want) for j in range(n))
    return rows_ok and cols_ok


def are_orthogonal(a: np.ndarray, b: np.ndarray) -> bool:
    """Check orthogonality: the pairs ``(a[i,j], b[i,j])`` are all distinct."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2:
        return False
    n = a.shape[0]
    pairs = {(int(x), int(y)) for x, y in zip(a.ravel(), b.ravel())}
    return len(pairs) == n * n
