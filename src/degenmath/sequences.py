"""Degenerate number and polynomial families over exact rationals.

Each family has a primary computation path (a recurrence or a finite
formula) and, where one exists, an independent generating-function path
that the test suite uses as an oracle.

The primary paths share one store of per-lambda tables, keyed by
(family, lambda), and every stored family grows by one rule: entry m is
computed once, by the family's step, from the entries before it.  A miss
computes only the missing entries, up to at least GROW_MIN_N, and a hit
returns the stored table itself, which may hold more entries than were
asked for.  The floor is fixed: a caller that asks n = 0, 1, 2, ... in
turn for each new lambda (perfbench's lambda_stream) misses on every
query under a rule that never overshoots n, and a geometric rule builds
entries far past the n asked for.  The store keeps at most
STORE_CAPACITY entries and drops the oldest when full.  Stored values
are immutable and an entry is only ever replaced wholesale, so a reader
never sees a partial table.  The harmonic numbers are a stored family;
hyperharmonic numbers are cumulative sums of its entries.  The oracles
keep their own memo, bounded at STORE_CAPACITY entries, apart from the
code they check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .algebra import Poly, X, binom_poly, dfact, gfact_falling
from .series import Series, dexp, dlog, ser_reciprocal

STORE_CAPACITY = 128
GROW_MIN_N = 16

# (family, lambda) -> tuple of entries 0..n, oldest first; reads are single
# dict lookups, writes take the lock so eviction cannot race
_STORE: dict[tuple[str, Fraction], object] = {}
_STORE_LOCK = threading.Lock()


def _put(key, value):
    with _STORE_LOCK:
        if key not in _STORE and len(_STORE) >= STORE_CAPACITY:
            del _STORE[next(iter(_STORE))]
        _STORE[key] = value
    return value


def _grown(family: str, n: int, lam: Fraction, step) -> tuple:
    """Stored entries 0..n or more of family at lam; a miss appends
    step(entries, m, lam) for each missing m up to max(n, GROW_MIN_N)."""
    if n < 0:
        # a negative n would index the stored table from its end
        raise ValueError(f"n must be >= 0, got {n}")
    entries = _STORE.get((family, lam), ())
    if n < len(entries):
        return entries
    grown = list(entries)
    for m in range(len(grown), max(n, GROW_MIN_N) + 1):
        grown.append(step(grown, m, lam))
    return _put((family, lam), tuple(grown))


@dataclass(frozen=True)
class StirlingTriangle:
    """Lower-triangular table of degenerate Stirling numbers for one lambda."""

    rows: tuple[tuple[Fraction, ...], ...]

    def entry(self, n: int, k: int) -> Fraction:
        """Table value; zero outside 0 <= k <= n < len(rows)."""
        if 0 <= k <= n < len(self.rows):
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


def _row_step(weight):
    def step(rows, m, lam):
        if m == 0:
            return (Fraction(1),)
        # the zero past the end of row m-1 is also read as S(m-1, -1)
        prev = rows[m - 1] + (Fraction(0),)
        return tuple(prev[k - 1] + weight(m - 1, k, lam) * prev[k] for k in range(m + 1))

    return step


# row m from row m-1: S(m,k) = S(m-1,k-1) + weight(m-1, k, lam) * S(m-1,k)
_ROW_STEPS = {
    "second": _row_step(lambda n, k, lam: k - n * lam),
    "first": _row_step(lambda n, k, lam: k * lam - n),
}


def _triangle(kind: str, nmax: int, lam: Fraction) -> StirlingTriangle:
    return StirlingTriangle(_grown(kind, nmax, lam, _ROW_STEPS[kind]))


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


@lru_cache(maxsize=STORE_CAPACITY)
def _gf_power(kind: str, lam: Fraction, k: int, order: int) -> Series:
    if k == 0:
        return Series((Fraction(1),), order)
    base = dlog(lam, order) if kind == "first" else dexp(Fraction(1), lam, order) - 1
    return _gf_power(kind, lam, k - 1, order) * base


def _harmonic_step(sums, m, lam):
    # H_m = H_{m-1} + (-1)**(m-1) dfact(m-1,lam)/m!, H_0 = 0
    return sums[m - 1] + (-1) ** (m - 1) * dfact(m - 1, lam) / factorial(m) if m else Fraction(0)


def dharmonic(n: int, lam) -> Fraction:
    """Degenerate harmonic number: partial sums of (-1)**(k-1) dfact(k-1,lam)/k!.

    The summand is the singularity-free rewriting of (1/lam) binom(lam, k)
    (-1)**(k-1), so lam == 0 is legal and yields the classical 1 + 1/2 + ... + 1/n.
    """
    return _grown("harmonic", n, Fraction(lam), _harmonic_step)[n]


def dhyperharmonic_row(n: int, r: int, lam) -> tuple[Fraction, ...]:
    """Degenerate hyperharmonic numbers 0..n: r-1 cumulative summations of dharmonic."""
    if r < 1:
        raise ValueError("hyperharmonic order r must be >= 1")
    sums = _grown("harmonic", n, Fraction(lam), _harmonic_step)[: n + 1]
    for _ in range(r - 1):
        sums = tuple(accumulate(sums))
    return sums


def dhyperharmonic(n: int, r: int, lam) -> Fraction:
    """Degenerate hyperharmonic number, entry n of dhyperharmonic_row."""
    return dhyperharmonic_row(n, r, lam)[n]


def _falling_step(polys, m, lam):
    # (x)_{m,lam} = (x)_{m-1,lam} * (x - (m-1)*lam)
    return polys[m - 1] * (X - (m - 1) * lam) if m else Poly.constant(1)


def _appell_step(weight):
    """Step for the P_n(x) generated by e_lam^x(t) / W(t): weight(j, ones) is
    the t**j/j! coefficient w_j of W (w_0 == 1), from ones[i] = (1)_{i,lam}.
    The constant terms c_n of 1/W solve sum_j C(n,j) w_j c_{n-j} = [n == 0],
    and P_n(x) = sum_k C(n,k) c_k (x)_{n-k,lam}."""

    def step(polys, n, lam):
        ones = [Fraction(1)]
        for i in range(n + 1):
            ones.append(ones[-1] * (1 - i * lam))
        consts = [p.coeff(0) for p in polys]
        consts.append(int(n == 0) - sum(comb(n, j) * weight(j, ones) * consts[n - j] for j in range(1, n + 1)))
        falling = _grown("falling", n, lam, _falling_step)
        coeffs = [Fraction(0)] * (n + 1)
        for k, c in enumerate(consts):
            if c:
                c *= comb(n, k)
                for i, a in enumerate(falling[n - k].coeffs):
                    coeffs[i] += c * a
        return Poly(coeffs)

    return step


_BERNOULLI_STEP = _appell_step(lambda j, ones: ones[j + 1] / (j + 1))  # W = (e_lam(t) - 1)/t
_EULER_STEP = _appell_step(lambda j, ones: ones[j] / 2)  # W = (e_lam(t) + 1)/2


def dbernoulli_poly(n: int, lam) -> Poly:
    """Degenerate Bernoulli polynomial, the t**n/n! coefficient of t/(e_lam(t)-1) * e_lam^x(t)."""
    return _grown("bernoulli", n, Fraction(lam), _BERNOULLI_STEP)[n]


def dbernoulli_poly_stirling(n: int, lam) -> Poly:
    """Alternate route to the same polynomial: bernoulli_from_triangle on S2.

    Kept as an independent code path; the acceptance suite requires it to
    agree with dbernoulli_poly exactly.
    """
    return bernoulli_from_triangle(s2_triangle(n, lam), n, lam)


def deuler_poly(n: int, lam) -> Poly:
    """Degenerate Euler polynomial, the t**n/n! coefficient of 2/(e_lam(t)+1) * e_lam^x(t)."""
    return _grown("euler", n, Fraction(lam), _EULER_STEP)[n]


def bell_from_triangle(tri: StirlingTriangle, n: int) -> Poly:
    """Row n of a second-kind triangle read as a polynomial in x."""
    return Poly(tri.row(n))


def fubini_from_triangle(tri: StirlingTriangle, n: int) -> Poly:
    """Row n of a second-kind triangle with k! weights, as a polynomial in x."""
    return Poly(tuple(c * factorial(k) for k, c in enumerate(tri.row(n))))


def binomial_sum(row, weights) -> Poly:
    """sum over k of k! row[k] * sum_{j<=k} binom(x, j) weights[k-j], for
    row[0..n] and weights[0..n].

    Summed over k first: for each j one scalar inner sum
    sum_{k>=j} k! row[k] weights[k-j], then one binom_poly(j) scaling.  The
    swap is exact for any row, a mutated triangle's included.
    """
    scaled = [factorial(k) * c for k, c in enumerate(row)]
    # map stops at the end of scaled[j:], pairing row[k] with weights[k-j]
    return sum(
        (binom_poly(j) * sum(map(mul, scaled[j:], weights)) for j in range(len(row))), Poly()
    )


def bernoulli_weights(n: int, lam) -> list[Fraction]:
    """dfact(i, lam)/(i+1)! for i = 0..n, the inner weights of the Bernoulli sum."""
    return [dfact(i, lam) / factorial(i + 1) for i in range(n + 1)]


def euler_weights(n: int) -> list[Fraction]:
    """(-1/2)**i for i = 0..n, the inner weights of the Euler sum."""
    return [Fraction(-1, 2) ** i for i in range(n + 1)]


def bernoulli_from_triangle(tri: StirlingTriangle, n: int, lam) -> Poly:
    """sum_k k! S2(n,k) sum_{j<=k} binom(x,j) dfact(k-j,lam)/(k-j+1)! over row n of tri."""
    return binomial_sum(tri.row(n), bernoulli_weights(n, lam))


def euler_from_triangle(tri: StirlingTriangle, n: int) -> Poly:
    """sum_k k! S2(n,k) sum_{j<=k} binom(x,j) (-1/2)**(k-j) over row n of tri."""
    return binomial_sum(tri.row(n), euler_weights(n))


def dbell_poly(n: int, lam) -> Poly:
    """Degenerate Bell polynomial: sum of S2 row entries times x**k."""
    return bell_from_triangle(s2_triangle(n, lam), n)


def dfubini_poly(n: int, lam) -> Poly:
    """Degenerate Fubini polynomial: S2 row entries times k! x**k."""
    return fubini_from_triangle(s2_triangle(n, lam), n)


def dfubini_series_oracle(n: int, lam) -> Poly:
    """Independent route: n! * [t**n] of 1/(1 - x*(e_lam(t)-1)) over Poly coefficients."""
    inner = (dexp(Fraction(1), Fraction(lam), n) - 1) * X
    gen = ser_reciprocal(1 - inner)
    return gen.coeffs[n] * factorial(n)


def power_sum(p: int, n: int, lam) -> Fraction:
    """Direct sum of (k - lam)_{p,lam} for k = 1..n."""
    if p < 0:
        raise ValueError("power-sum exponent must be >= 0")
    lam = Fraction(lam)
    return sum((gfact_falling(k - lam, p, lam) for k in range(1, n + 1)), Fraction(0))
