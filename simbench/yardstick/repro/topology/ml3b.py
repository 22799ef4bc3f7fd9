"""The Maximal Leaves Basic Building Block (k-ML3B) of the OFT.

Paper Sec. 2.2.4: the interconnection pattern of the Single-Path Tree
that generates the two-level Orthogonal Fat-Tree is the ``k``-ML3B, an
``RL x k`` table (``RL = 1 + k(k-1)``) whose *i*-th row lists the level-1
routers adjacent to level-0 router *i*.  The construction is defined for
``k = prime + 1`` and is built from the complete family of Mutually
Orthogonal Latin Squares of order ``k - 1``:

1. row 0 holds ``RL-k .. RL-1``;
2. the first column of the remaining rows holds ``k-1`` copies of each of
   ``RL-k .. RL-1``;
3. the remaining ``k(k-1) x (k-1)`` area is split into ``k`` squares of
   size ``(k-1) x (k-1)``: the first is ``0 .. (k-1)^2 - 1`` row-major,
   the second its transpose, and the remaining ``k-2`` are the MOLS
   ``L_a(i,j) = i + a*j mod (k-1)`` with column ``j`` shifted by
   ``j * (k-1)``.

The resulting table is the incidence structure of a projective plane of
order ``k - 1``: any two rows share exactly one value and every value
appears in exactly ``k`` rows -- this is what gives the SPT its
single-path property.  :func:`verify_ml3b` checks these invariants.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.maths.mols import galois_latin_square
from repro.maths.primes import is_prime_power

__all__ = ["ml3b_table", "verify_ml3b", "valid_oft_k"]


def valid_oft_k(k: int) -> bool:
    """``True`` iff the ``k``-ML3B is constructible.

    The paper describes the algorithm for ``k - 1`` prime; our MOLS
    substrate is built over ``GF(k - 1)``, which extends the identical
    construction to any *prime power* ``k - 1`` (e.g. ``k = 5, 9, 10``)
    -- the projective-plane argument only needs a complete MOLS family.
    """
    return k >= 3 and is_prime_power(k - 1)


def ml3b_table(k: int) -> np.ndarray:
    """Return the ``RL x k`` tabular representation of the ``k``-ML3B.

    Reproduces the paper's Table 2 exactly for ``k = 4``.
    """
    if not valid_oft_k(k):
        raise ValueError(f"ml3b_table: k={k} requires k-1 a prime power and k >= 3")
    n = k - 1  # prime-power order of the underlying MOLS / projective plane
    rl = 1 + k * n
    table = np.empty((rl, k), dtype=np.int64)

    top = np.arange(rl - k, rl)  # the k "top" values
    table[0, :] = top
    # First column: k-1 copies of each top value, in order.
    for t in range(k):
        table[1 + t * n : 1 + (t + 1) * n, 0] = top[t]

    col_shift = np.arange(n) * n  # the "+ (i-1)(k-1) per column" transform

    # Square 0: 0 .. n^2-1 row-major.
    square = np.arange(n * n).reshape(n, n)
    table[1 : 1 + n, 1:] = square
    # Square 1: its transpose == L_0(i, j) = i, plus the column shift.
    table[1 + n : 1 + 2 * n, 1:] = square.T
    # Squares 2 .. k-1: the k-2 MOLS L_a(i,j) = i + a*j over GF(n)
    # (a = 1 .. n-1; for prime n this is plain modular arithmetic and
    # reproduces the paper's Table 2 exactly), column j shifted by j*n.
    for idx, a in enumerate(range(1, n), start=1):
        block = galois_latin_square(n, a) + col_shift[np.newaxis, :]
        start = 1 + (idx + 1) * n
        table[start : start + n, 1:] = block
    return table


def verify_ml3b(table: np.ndarray) -> List[str]:
    """Return a list of violated invariants (empty == valid).

    Checks the projective-plane properties that underpin the SPT
    single-path guarantee:

    - every row holds ``k`` distinct values in ``[0, RL)``;
    - every value appears in exactly ``k`` rows;
    - any two distinct rows share exactly one common value.
    """
    table = np.asarray(table)
    problems: List[str] = []
    rl, k = table.shape
    if rl != 1 + k * (k - 1):
        problems.append(f"shape {table.shape} inconsistent: RL != 1 + k(k-1)")
        return problems
    if table.min() < 0 or table.max() >= rl:
        problems.append("values out of range [0, RL)")
    rows = [set(map(int, table[i])) for i in range(rl)]
    for i, row in enumerate(rows):
        if len(row) != k:
            problems.append(f"row {i} has repeated values")
    counts = np.bincount(table.ravel(), minlength=rl)
    bad_values = np.nonzero(counts != k)[0]
    if bad_values.size:
        problems.append(f"values {bad_values[:5].tolist()} do not appear exactly k times")
    for i in range(rl):
        for j in range(i + 1, rl):
            inter = len(rows[i] & rows[j])
            if inter != 1:
                problems.append(f"rows {i},{j} share {inter} values (want 1)")
                if len(problems) > 10:
                    return problems
    return problems
