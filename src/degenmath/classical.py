"""Classical (non-degenerate) combinatorial sequences.

Textbook recurrences over exact rationals, deliberately sharing no code
with the degenerate implementations: the C15 registry check reads its
Stirling numbers of the second kind from here, and the classical Bernoulli
polynomials are the oracle for the lambda = 0 limit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import Poly


def stirling2_rows(nmax: int) -> tuple[tuple[int, ...], ...]:
    """Stirling numbers of the second kind, S(n+1,k) = S(n,k-1) + k*S(n,k)."""
    rows = [(1,)]
    for n in range(nmax):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            left = prev[k - 1] if 1 <= k <= n + 1 else 0
            up = prev[k] if k <= n else 0
            row.append(left + k * up)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """B_n with B_1 = -1/2, from sum_{k<=n} binom(n+1,k) B_k = 0."""
    if n == 0:
        return Fraction(1)
    acc = sum(comb(n + 1, k) * bernoulli_number(k) for k in range(n))
    return -acc / (n + 1)


def bernoulli_poly(n: int) -> Poly:
    """B_n(x) = sum binom(n,k) B_k x**(n-k)."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = comb(n, k) * bernoulli_number(k)
    return Poly(coeffs)
