"""Classical (non-degenerate) combinatorial sequences.

Textbook recurrences over exact rationals, deliberately sharing no code
with the degenerate implementations: the C15 registry check reads its
Stirling numbers of the second kind from here, and the classical Bernoulli
polynomials are the oracle for the lambda = 0 limit.
"""

from __future__ import annotations

from fractions import Fraction
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


def bernoulli_poly(n: int) -> Poly:
    """B_n(x) = sum binom(n,k) B_k x**(n-k), with B_1 = -1/2 and the B_k
    from sum_{j<=k} binom(k+1,j) B_j = 0."""
    numbers = [Fraction(1)]
    for k in range(1, n + 1):
        numbers.append(-sum(comb(k + 1, j) * b for j, b in enumerate(numbers)) / (k + 1))
    return Poly([comb(n, i) * numbers[n - i] for i in range(n + 1)])
