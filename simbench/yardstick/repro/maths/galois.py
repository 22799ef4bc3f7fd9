"""Finite-field (Galois field) arithmetic ``GF(p^n)``.

The McKay--Miller--Siran construction behind the Slim Fly topology
(Sec. 2.1.2 of the paper) requires arithmetic over ``GF(q)`` for a prime
power ``q`` together with a *primitive element* ``xi`` (a generator of the
multiplicative group).  This module implements both from scratch:

- for ``q`` prime, arithmetic is plain modular arithmetic;
- for ``q = p^n`` with ``n > 1``, elements are polynomials of degree
  ``< n`` over ``GF(p)`` reduced modulo an irreducible monic polynomial
  found by exhaustive search.  Elements are encoded as integers in
  ``[0, q)`` whose base-``p`` digits are the polynomial coefficients
  (least significant digit = constant term).

Multiplication, inversion and powers are served from precomputed
exp/log tables (discrete logarithm w.r.t. the primitive element), which
makes every operation O(1) after an O(q) setup -- ample for the field
sizes appearing in realistic networks (``q`` up to a few hundred).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List, Tuple

from repro.maths.primes import factorize, prime_power_decomposition

__all__ = ["GaloisField"]


def _poly_from_int(value: int, p: int, n: int) -> Tuple[int, ...]:
    """Decode an integer into base-``p`` digits (length *n*, little-endian)."""
    coeffs = []
    for _ in range(n):
        coeffs.append(value % p)
        value //= p
    return tuple(coeffs)


def _poly_to_int(coeffs: Tuple[int, ...], p: int) -> int:
    """Encode little-endian base-``p`` digits into an integer."""
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _poly_mul_mod(a: Tuple[int, ...], b: Tuple[int, ...], modulus: Tuple[int, ...], p: int) -> Tuple[int, ...]:
    """Multiply polynomials *a*, *b* over GF(p), reduce mod monic *modulus*.

    ``modulus`` is given with its leading coefficient 1 included and has
    degree ``n = len(modulus) - 1``; *a* and *b* have length ``n``.
    """
    n = len(modulus) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # Reduce: for every coefficient at degree >= n, subtract
    # coeff * x^(deg-n) * modulus.
    for deg in range(2 * n - 2, n - 1, -1):
        c = prod[deg]
        if c == 0:
            continue
        prod[deg] = 0
        shift = deg - n
        for k in range(n):
            prod[shift + k] = (prod[shift + k] - c * modulus[k]) % p
    return tuple(prod[:n])


def _is_irreducible(candidate: Tuple[int, ...], p: int) -> bool:
    """Check irreducibility of a monic polynomial over GF(p).

    Exhaustive trial division by every monic polynomial of degree
    ``1 .. n // 2``; fine for the tiny degrees used here (n <= 6).
    """
    n = len(candidate) - 1

    def poly_mod(dividend: List[int], divisor: Tuple[int, ...]) -> List[int]:
        dividend = list(dividend)
        d = len(divisor) - 1
        inv_lead = pow(divisor[-1], p - 2, p)
        for deg in range(len(dividend) - 1, d - 1, -1):
            c = dividend[deg]
            if c == 0:
                continue
            factor = c * inv_lead % p
            shift = deg - d
            for k in range(d + 1):
                dividend[shift + k] = (dividend[shift + k] - factor * divisor[k]) % p
        return dividend[:d] if d > 0 else []

    def gen_monic(degree: int) -> Iterator[Tuple[int, ...]]:
        total = p**degree
        for v in range(total):
            coeffs = list(_poly_from_int(v, p, degree)) + [1]
            yield tuple(coeffs)

    for deg in range(1, n // 2 + 1):
        for divisor in gen_monic(deg):
            remainder = poly_mod(list(candidate), divisor)
            if all(c == 0 for c in remainder):
                return False
    return True


def _find_irreducible(p: int, n: int) -> Tuple[int, ...]:
    """Find the lexicographically-smallest monic irreducible poly of degree *n*."""
    for v in range(p**n):
        candidate = tuple(list(_poly_from_int(v, p, n)) + [1])
        if _is_irreducible(candidate, p):
            return candidate
    raise ArithmeticError(f"no irreducible polynomial of degree {n} over GF({p})")  # pragma: no cover


class GaloisField:
    """Arithmetic in ``GF(q)`` for a prime power ``q``.

    Elements are integers in ``[0, q)``.  For prime ``q`` the encoding is
    the natural residue; for ``q = p^n`` the base-``p`` digits of the
    integer are the polynomial coefficients.

    Examples
    --------
    >>> F = GaloisField(13)
    >>> F.mul(7, 8)
    4
    >>> F = GaloisField(9)          # GF(3^2)
    >>> F.mul(F.primitive_element, F.inv(F.primitive_element))
    1
    """

    def __init__(self, q: int):
        decomposition = prime_power_decomposition(q)
        if decomposition is None:
            raise ValueError(f"GF({q}): order must be a prime power")
        self.q = q
        self.p, self.n = decomposition
        if self.n == 1:
            self._modulus: Tuple[int, ...] | None = None
        else:
            self._modulus = _find_irreducible(self.p, self.n)
        self._exp: List[int] = []
        self._log: List[int] = []
        self._primitive = self._find_primitive_element()
        self._build_tables()

    # -- encoding ------------------------------------------------------

    def coefficients(self, a: int) -> Tuple[int, ...]:
        """Return the base-``p`` (polynomial) coefficient tuple of *a*."""
        self._check(a)
        return _poly_from_int(a, self.p, self.n)

    def element_from_coefficients(self, coeffs: Tuple[int, ...]) -> int:
        """Inverse of :meth:`coefficients`."""
        if len(coeffs) != self.n or any(not (0 <= c < self.p) for c in coeffs):
            raise ValueError(f"GF({self.q}): bad coefficient vector {coeffs!r}")
        return _poly_to_int(tuple(coeffs), self.p)

    def elements(self) -> Iterator[int]:
        """Iterate over all field elements, 0 first."""
        return iter(range(self.q))

    # -- additive group --------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition."""
        self._check(a)
        self._check(b)
        if self.n == 1:
            return (a + b) % self.p
        ca = _poly_from_int(a, self.p, self.n)
        cb = _poly_from_int(b, self.p, self.n)
        return _poly_to_int(tuple((x + y) % self.p for x, y in zip(ca, cb)), self.p)

    def neg(self, a: int) -> int:
        """Additive inverse."""
        self._check(a)
        if self.n == 1:
            return (-a) % self.p
        ca = _poly_from_int(a, self.p, self.n)
        return _poly_to_int(tuple((-x) % self.p for x in ca), self.p)

    def sub(self, a: int, b: int) -> int:
        """Field subtraction ``a - b``."""
        return self.add(a, self.neg(b))

    # -- multiplicative group --------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Field multiplication."""
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ``ZeroDivisionError`` for 0."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"GF({self.q}): 0 has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``."""
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        """Field exponentiation ``a**e`` (``e`` may be negative if ``a != 0``)."""
        self._check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError(f"GF({self.q}): 0**{e}")
            return 0 if e != 0 else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    @property
    def primitive_element(self) -> int:
        """A generator ``xi`` of the multiplicative group ``GF(q)*``."""
        return self._primitive

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"GF({self.q}): 0 has no multiplicative order")
        la = self._log[a]
        from math import gcd

        return (self.q - 1) // gcd(la, self.q - 1)

    # -- internals ---------------------------------------------------------

    def _check(self, a: int) -> None:
        if not (0 <= a < self.q):
            raise ValueError(f"GF({self.q}): element {a} out of range")

    def _raw_mul(self, a: int, b: int) -> int:
        """Multiplication without tables (used during setup)."""
        if self.n == 1:
            return a * b % self.p
        assert self._modulus is not None
        ca = _poly_from_int(a, self.p, self.n)
        cb = _poly_from_int(b, self.p, self.n)
        return _poly_to_int(_poly_mul_mod(ca, cb, self._modulus, self.p), self.p)

    def _raw_pow(self, a: int, e: int) -> int:
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._raw_mul(result, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return result

    def _find_primitive_element(self) -> int:
        order = self.q - 1
        prime_divisors = list(factorize(order)) if order > 1 else []
        for g in range(2, self.q) if self.q > 2 else range(1, self.q):
            if all(self._raw_pow(g, order // r) != 1 for r in prime_divisors):
                return g
        if self.q == 2:
            return 1
        raise ArithmeticError(f"GF({self.q}): no primitive element found")  # pragma: no cover

    def _build_tables(self) -> None:
        self._exp = [1] * (self.q - 1)
        self._log = [0] * self.q
        acc = 1
        for i in range(self.q - 1):
            self._exp[i] = acc
            self._log[acc] = i
            acc = self._raw_mul(acc, self._primitive)
        if acc != 1:  # pragma: no cover - guarded by primitive-element search
            raise ArithmeticError(f"GF({self.q}): {self._primitive} is not primitive")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.n == 1:
            return f"GaloisField({self.q})"
        return f"GaloisField({self.q} = {self.p}^{self.n})"


@lru_cache(maxsize=None)
def get_field(q: int) -> GaloisField:
    """Memoised :class:`GaloisField` factory (fields are immutable)."""
    return GaloisField(q)
