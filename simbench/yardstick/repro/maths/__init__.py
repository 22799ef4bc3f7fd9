"""Mathematical substrates used by the topology constructions.

This subpackage is self-contained (no dependency on the rest of
:mod:`repro`) and provides:

- :mod:`repro.maths.primes` -- primality testing, factorisation, and
  prime-power decomposition,
- :mod:`repro.maths.galois` -- finite-field arithmetic ``GF(p^n)`` with
  primitive-element search (required by the Slim Fly / MMS construction),
- :mod:`repro.maths.mols` -- Mutually Orthogonal Latin Squares (required by
  the ``k``-ML3B construction of the Orthogonal Fat-Tree),
- :mod:`repro.maths.moore` -- the Moore bound for the degree/diameter
  problem.
"""

from repro.maths.galois import GaloisField
from repro.maths.mols import latin_square, mols_prime, are_orthogonal, is_latin_square
from repro.maths.moore import moore_bound
from repro.maths.primes import (
    is_prime,
    is_prime_power,
    factorize,
    prime_power_decomposition,
    primes_up_to,
    next_prime,
)

__all__ = [
    "GaloisField",
    "latin_square",
    "mols_prime",
    "are_orthogonal",
    "is_latin_square",
    "moore_bound",
    "is_prime",
    "is_prime_power",
    "factorize",
    "prime_power_decomposition",
    "primes_up_to",
    "next_prime",
]
