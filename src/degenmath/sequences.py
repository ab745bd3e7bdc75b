"""Degenerate number and polynomial families over exact rationals.

Each family has a primary computation path (a recurrence or a finite
formula) and, where one exists, an independent generating-function path
that the test suite uses as an oracle.

The primary paths share one store of per-lambda tables, keyed by
(family, lambda).  A Stirling triangle grows: asking for more rows than
are stored computes only the missing rows from the last stored one, and a
hit returns the stored triangle itself, which may hold more rows than were
asked for.  The series-extracted Bernoulli and Euler families are rebuilt
at max(n, 16) when n outgrows them.  The store keeps at most
STORE_CAPACITY entries and drops the oldest when full.  Stored values are
immutable and an entry is only ever replaced wholesale, so a reader never
sees a partial table.  The oracles keep their own memo, apart from the
code they check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import Poly, X, gfact_falling
from .series import Series, dexp, dlog, ser_mul, ser_reciprocal, ser_shift_down

STORE_CAPACITY = 128

# (family, lambda) -> StirlingTriangle or tuple of Poly, oldest first; reads
# are single dict lookups, writes take the lock so eviction cannot race
_STORE: dict[tuple[str, Fraction], object] = {}
_STORE_LOCK = threading.Lock()


def _put(key, value):
    with _STORE_LOCK:
        if key not in _STORE and len(_STORE) >= STORE_CAPACITY:
            del _STORE[next(iter(_STORE))]
        _STORE[key] = value
    return value


@dataclass(frozen=True)
class StirlingTriangle:
    """Lower-triangular table of degenerate Stirling numbers for one lambda."""

    kind: str  # "first" or "second"
    lam: Fraction
    nmax: int
    rows: tuple[tuple[Fraction, ...], ...]

    def entry(self, n: int, k: int) -> Fraction:
        """Table value; zero outside 0 <= k <= n <= nmax."""
        if 0 <= k <= n <= self.nmax:
            return self.rows[n][k]
        return Fraction(0)

    def row(self, n: int) -> tuple[Fraction, ...]:
        return self.rows[n]


def s2_triangle(nmax: int, lam) -> StirlingTriangle:
    """Second-kind triangle from the recurrence
    S(n+1,k) = S(n,k-1) + (k - n*lam) * S(n,k), S(0,0) = 1."""
    return _triangle("second", int(nmax), Fraction(lam))


def s1_triangle(nmax: int, lam) -> StirlingTriangle:
    """First-kind triangle from the recurrence
    S(n+1,k) = S(n,k-1) + (k*lam - n) * S(n,k), S(0,0) = 1.

    The recurrence follows from (x)_{n+1} = (x)_n (x - n) together with
    x*(x)_{k,lam} = (x)_{k+1,lam} + k*lam*(x)_{k,lam}; the test suite
    cross-checks it entrywise against the generating-function extraction.
    """
    return _triangle("first", int(nmax), Fraction(lam))


_WEIGHTS = {
    "second": lambda n, k, lam: k - n * lam,
    "first": lambda n, k, lam: k * lam - n,
}


def _triangle(kind: str, nmax: int, lam: Fraction) -> StirlingTriangle:
    key = (kind, lam)
    tri = _STORE.get(key)
    if tri is not None and tri.nmax >= nmax:
        return tri
    weight = _WEIGHTS[kind]
    rows = list(tri.rows) if tri is not None else [(Fraction(1),)]
    for n in range(len(rows) - 1, nmax):
        prev = rows[-1]
        row = []
        for k in range(n + 2):
            left = prev[k - 1] if 1 <= k <= n + 1 else Fraction(0)
            up = prev[k] if k <= n else Fraction(0)
            row.append(left + weight(n, k, lam) * up)
        rows.append(tuple(row))
    return _put(key, StirlingTriangle(kind, lam, nmax, tuple(rows)))


def stirling_series_oracle(kind: str, n: int, k: int, lam, order: int) -> Fraction:
    """n! * [t**n] of the k-th divided power of the base series.

    The base is log_lam(1+t) for the first kind and e_lam(t)-1 for the
    second; dividing the k-th power by k! gives the column generating
    function, so the extracted coefficient is the (n, k) triangle entry.
    """
    if kind not in ("first", "second"):
        raise ValueError(f"unknown triangle kind: {kind!r}")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if order < n:
        raise ValueError("truncation too small")
    power = _gf_power(kind, Fraction(lam), k, order)
    return power.coeffs[n] * factorial(n) / factorial(k)


@lru_cache(maxsize=None)
def _gf_power(kind: str, lam: Fraction, k: int, order: int) -> Series:
    if k == 0:
        return Series((Fraction(1),), order)
    base = dlog(lam, order) if kind == "first" else dexp(Fraction(1), lam, order) - 1
    return _gf_power(kind, lam, k - 1, order) * base


def dharmonic(n: int, lam) -> Fraction:
    """Degenerate harmonic number: partial sums of (-1)**(k-1) dfact(k-1,lam)/k!.

    The summand is the singularity-free rewriting of (1/lam) binom(lam, k)
    (-1)**(k-1), so lam == 0 is legal and yields the classical 1 + 1/2 + ... + 1/n.
    """
    lam = Fraction(lam)
    total = Fraction(0)
    acc = Fraction(1)
    sign = 1
    for k in range(1, n + 1):
        total += sign * acc / factorial(k)
        acc *= lam - k
        sign = -sign
    return total


def dhyperharmonic(n: int, r: int, lam) -> Fraction:
    """Degenerate hyperharmonic number: r-1 cumulative summations of dharmonic."""
    if r < 1:
        raise ValueError("hyperharmonic order r must be >= 1")
    lam = Fraction(lam)
    row = [Fraction(0)]
    acc = Fraction(1)
    sign = 1
    total = Fraction(0)
    for k in range(1, n + 1):
        total += sign * acc / factorial(k)
        row.append(total)
        acc *= lam - k
        sign = -sign
    for _ in range(r - 1):
        run = Fraction(0)
        nxt = [Fraction(0)]
        for k in range(1, n + 1):
            run += row[k]
            nxt.append(run)
        row = nxt
    return row[n]


def _as_poly(value) -> Poly:
    return value if isinstance(value, Poly) else Poly((value,))


def _require_index(n: int) -> int:
    # a negative n would index the stored table from its end
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return n


def _series_family(family: str, n: int, lam, build) -> Poly:
    _require_index(n)
    lam = Fraction(lam)
    polys = _STORE.get((family, lam))
    if polys is None or n >= len(polys):
        polys = _put((family, lam), build(lam, max(n, 16)))
    return polys[n]


def _bernoulli_polys(lam: Fraction, nmax: int) -> tuple[Poly, ...]:
    base = ser_shift_down(dexp(Fraction(1), lam, nmax + 1) - 1)
    gen = ser_mul(ser_reciprocal(base), dexp(X, lam, nmax))
    return tuple(_as_poly(gen.coeffs[i] * factorial(i)) for i in range(nmax + 1))


def _euler_polys(lam: Fraction, nmax: int) -> tuple[Poly, ...]:
    gen = ser_mul(ser_reciprocal(dexp(Fraction(1), lam, nmax) + 1), dexp(X, lam, nmax)) * 2
    return tuple(_as_poly(gen.coeffs[i] * factorial(i)) for i in range(nmax + 1))


def dbernoulli_poly(n: int, lam) -> Poly:
    """Degenerate Bernoulli polynomial, extracted from t/(e_lam(t)-1) * e_lam^x(t)."""
    return _series_family("bernoulli", n, lam, _bernoulli_polys)


def dbernoulli_poly_stirling(n: int, lam) -> Poly:
    """Alternate route to the same polynomial: a factorial-weighted double sum
    over the second-kind triangle with dfact coefficients.

    Kept as an independent code path; the acceptance suite requires it to
    agree with the series extraction exactly.
    """
    from .algebra import binom_poly, dfact  # local import keeps module deps one-way

    tri = s2_triangle(n, lam)
    lam = Fraction(lam)
    total = Poly()
    for k in range(n + 1):
        inner = Poly()
        for j in range(k + 1):
            inner = inner + binom_poly(j) * (dfact(k - j, lam) / factorial(k - j + 1))
        total = total + inner * (factorial(k) * tri.entry(n, k))
    return total


def deuler_poly(n: int, lam) -> Poly:
    """Degenerate Euler polynomial, extracted from 2/(e_lam(t)+1) * e_lam^x(t)."""
    return _series_family("euler", n, lam, _euler_polys)


def bell_from_triangle(tri: StirlingTriangle, n: int) -> Poly:
    """Row n of a second-kind triangle read as a polynomial in x."""
    return Poly(tri.row(n))


def fubini_from_triangle(tri: StirlingTriangle, n: int) -> Poly:
    """Row n of a second-kind triangle with k! weights, as a polynomial in x."""
    return Poly(tuple(c * factorial(k) for k, c in enumerate(tri.row(n))))


def dbell_poly(n: int, lam) -> Poly:
    """Degenerate Bell polynomial: sum of S2 row entries times x**k."""
    return bell_from_triangle(s2_triangle(_require_index(n), lam), n)


def dfubini_poly(n: int, lam) -> Poly:
    """Degenerate Fubini polynomial: S2 row entries times k! x**k."""
    return fubini_from_triangle(s2_triangle(_require_index(n), lam), n)


def dfubini_series_oracle(n: int, lam) -> Poly:
    """Independent route: n! * [t**n] of 1/(1 - x*(e_lam(t)-1)) over Poly coefficients."""
    inner = (dexp(Fraction(1), Fraction(lam), n) - 1) * X
    gen = ser_reciprocal(1 - inner)
    return _as_poly(gen.coeffs[n] * factorial(n))


def power_sum(p: int, n: int, lam) -> Fraction:
    """Direct sum of (k - lam)_{p,lam} for k = 1..n."""
    if p < 0:
        raise ValueError("power-sum exponent must be >= 0")
    lam = Fraction(lam)
    return sum((gfact_falling(k - lam, p, lam) for k in range(1, n + 1)), Fraction(0))
