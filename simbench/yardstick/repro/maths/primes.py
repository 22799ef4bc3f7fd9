"""Primality, factorisation and prime-power utilities.

The Slim Fly construction (Sec. 2.1.2 of the paper) is parameterised by a
prime power ``q = 4w + delta`` and the ``k``-ML3B construction of the OFT
(Sec. 2.2.4) requires ``k - 1`` prime.  These helpers keep that number
theory in one place.

All functions are deterministic and exact for the 64-bit range used by
realistic network sizes (router radices are at most a few hundred).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "is_prime",
    "primes_up_to",
    "factorize",
    "is_prime_power",
    "prime_power_decomposition",
    "next_prime",
    "next_prime_power",
]

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Return ``True`` iff *n* is prime (deterministic for ``n < 3e24``)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> List[int]:
    """Return all primes ``<= limit`` via a simple sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= limit:
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
        i += 1
    return [i for i in range(limit + 1) if sieve[i]]


def factorize(n: int) -> Dict[int, int]:
    """Return the prime factorisation of *n* as ``{prime: multiplicity}``.

    Trial division; adequate for the small integers appearing in topology
    parameters (radices, node counts of formulas, ...).
    """
    if n < 1:
        raise ValueError(f"factorize() requires a positive integer, got {n}")
    factors: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def prime_power_decomposition(n: int) -> Optional[Tuple[int, int]]:
    """Return ``(p, e)`` with ``n == p**e`` and ``p`` prime, or ``None``.

    >>> prime_power_decomposition(27)
    (3, 3)
    >>> prime_power_decomposition(12) is None
    True
    """
    if n < 2:
        return None
    factors = factorize(n)
    if len(factors) != 1:
        return None
    (p, e), = factors.items()
    return p, e


def is_prime_power(n: int) -> bool:
    """Return ``True`` iff ``n = p**e`` for a prime ``p`` and ``e >= 1``."""
    return prime_power_decomposition(n) is not None


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than *n*."""
    candidate = max(n + 1, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def next_prime_power(n: int) -> int:
    """Return the smallest prime power strictly greater than *n*."""
    candidate = max(n + 1, 2)
    while not is_prime_power(candidate):
        candidate += 1
    return candidate
