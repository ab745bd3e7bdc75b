"""Classical (non-degenerate) oracles that only the tests read.

Textbook recurrences over exact rationals, sharing no code with the
degenerate implementations: the lambda -> 0 limits of the degenerate
families are compared against them.  The classical Stirling numbers of the
second kind and Bernoulli polynomials stay in degenmath.classical, which
the C15 check reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from degenmath.algebra import Poly


def is_zero(p: Poly) -> bool:
    return not p.coeffs


def harmonic(n: int) -> Fraction:
    """1 + 1/2 + ... + 1/n (0 for n == 0)."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def hyperharmonic(n: int, r: int) -> Fraction:
    """Closed form binom(n+r-1, r-1) * (H(n+r-1) - H(r-1)); 0 at n == 0."""
    if r < 1:
        raise ValueError("hyperharmonic order r must be >= 1")
    if n == 0:
        return Fraction(0)
    return comb(n + r - 1, r - 1) * (harmonic(n + r - 1) - harmonic(r - 1))


def stirling1_rows(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Signed Stirling numbers of the first kind, s(n+1,k) = s(n,k-1) - n*s(n,k)."""
    rows = [(1,)]
    for n in range(nmax):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            left = prev[k - 1] if 1 <= k <= n + 1 else 0
            up = prev[k] if k <= n else 0
            row.append(left - n * up)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def euler_poly(n: int) -> Poly:
    """E_n(x) = x**n - (1/2) sum_{k<n} binom(n,k) E_k(x)."""
    xn = Poly([0] * n + [1])
    acc = Poly()
    for k in range(n):
        acc = acc + euler_poly(k) * comb(n, k)
    return xn - acc * Fraction(1, 2)


@lru_cache(maxsize=None)
def bell_number(n: int) -> int:
    """B(n+1) = sum binom(n,k) B(k), B(0) = 1."""
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell_number(k) for k in range(n))


@lru_cache(maxsize=None)
def fubini_number(n: int) -> int:
    """Ordered Bell numbers: a(n) = sum_{k=1..n} binom(n,k) a(n-k), a(0) = 1."""
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini_number(n - k) for k in range(1, n + 1))
