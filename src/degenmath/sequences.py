"""Degenerate number and polynomial families over exact rationals.

Each family has a primary computation path (a recurrence or a finite
formula) and, where one exists, an independent generating-function path
that the test suite uses as an oracle.

The primary paths share one store of per-lambda tables, keyed by
(family, lambda), and every stored family grows by one rule.  _EXTENDS,
the one place a stored family is declared, maps it to its extend.  An
entry holds the family's entries and the integer state its extend ended
with, and a miss makes one call extend(entries, state, upto, lam) of the
family's extend, which returns entries 0..upto or more and the state they
end with, so a miss starts from the stored state instead of rebuilding it.
Every family but the harmonic numerators keeps its stored entries as the
same objects, so each entry is computed once.  upto is at least
GROW_MIN_N, and a hit returns the stored table itself, which may hold more
entries than were asked for.  The floor is fixed: a caller that asks
n = 0, 1, 2, ... in turn for each new lambda (perfbench's lambda_stream)
misses on every query under a rule that never overshoots n, and a
geometric rule builds entries far past the n asked for.  The store keeps
at most STORE_CAPACITY entries and drops the oldest, state and all, when
full.  Stored values are immutable and an entry is only ever replaced
wholesale, so a reader never sees a partial table.  Every extend works on
integers.  The harmonic numbers are a stored family, with the last
unreduced sum as state, so a new entry touches no stored one.  The
harmonic numerators are a family of their own: every stored harmonic
entry as an integer over d, the lcm of their denominators, which is the
state.  Hyperharmonic numbers are not stored, but read as cumulative sums
of those integers, so a read takes no lcm.  The triangle rows are stored
as Polys, row n being sum_k S(n,k) x**k, which for the second kind is the
degenerate Bell polynomial.  A row holds its Fractions, and its integer
form is derived only when a kernel first reads it.  For lam = p/q,
q**(n-k) S(n,k) is an integer: the state is the last row's integers, which
the extend carries from row to row, reducing each new entry over its power
of q with gcds against q alone.  The Bernoulli and Euler constants c_n are
stored families of their own, with the constants and the weights they are
solved from as integers over one denominator each as state.  The
polynomial extends read them and sum in the basis of the falling
factorials (x)_{m,lam} by Horner's scheme on integers, so no falling
factorial is stored, and each polynomial is made once, in Poly's integer
form, by algebra._poly; dbernoulli_value and deuler_value run the same sum
on a scalar x0, building no polynomial.
The oracles keep their own memo, bounded at STORE_CAPACITY entries, apart
from the code they check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, lcm, prod
from operator import mul

from .algebra import (
    Poly,
    X,
    _ZERO,
    _frac,
    _fraction_poly,
    _need_int,
    _over_power,
    _poly,
    _rat,
    _scaled,
    binom_poly,
    dfact,
    poly_combination,
    rational_dot,
)
from .series import Series, dexp, dlog

STORE_CAPACITY = 128
GROW_MIN_N = 16

# (family, lambda) -> (entries, state): the tuple of entries 0..n, oldest
# first, and the integer state the family's extend ended with, which the next
# miss starts from; reads are single dict lookups, writes take the lock so
# eviction cannot race
_STORE: dict[tuple[str, Fraction], tuple[tuple, object]] = {}
_STORE_LOCK = threading.Lock()


def _put(key, value):
    with _STORE_LOCK:
        if key not in _STORE and len(_STORE) >= STORE_CAPACITY:
            del _STORE[next(iter(_STORE))]
        _STORE[key] = value
    return value


def _grown(family: str, n: int, lam: Fraction) -> tuple[tuple, object]:
    """(entries, state) stored for family at lam, with entries 0..n or more;
    a miss stores _EXTENDS[family](entries, state, max(n, GROW_MIN_N), lam),
    the entries 0..that bound or more and the state they end with.  An empty
    table has state None."""
    _need_int("n", n, 0)  # a negative n would index the stored table from its end
    entries, state = _STORE.get((family, lam), ((), None))
    if n < len(entries):
        return entries, state
    return _put((family, lam), _EXTENDS[family](entries, state, max(n, GROW_MIN_N), lam))


@dataclass(frozen=True)
class StirlingTriangle:
    """Lower-triangular table of degenerate Stirling numbers for one lambda.

    Row n is stored as the Poly sum_k S(n,k) x**k, which for the second kind
    is the degenerate Bell polynomial.  It holds its Fractions, and the
    checkers' sums over it read its integer form, which the first such read
    derives and the row keeps; row and entry read the Fractions."""

    rows: tuple[Poly, ...]

    def entry(self, n: int, k: int) -> Fraction:
        """Table value; zero for k outside 0..n, IndexError for a row n that row(n) refuses."""
        _need_int("k", k)
        row = self.row(n)
        return row[k] if 0 <= k < len(row) else _ZERO

    def row(self, n: int) -> tuple[Fraction, ...]:
        """Row n's entries as Fractions; IndexError for n outside 0 <= n < len(rows).
        How many rows are stored depends on how far the store has grown, so a
        row past them is unknown, not zero, and a negative n would index from
        the end."""
        _need_int("n", n)
        if not 0 <= n < len(self.rows):
            raise IndexError(f"row {n} is not in a table of {len(self.rows)} rows")
        return self.rows[n].coeffs


def s2_triangle(nmax: int, lam) -> StirlingTriangle:
    """Second-kind triangle from the recurrence
    S(n+1,k) = S(n,k-1) + (k - n*lam) * S(n,k), S(0,0) = 1."""
    return StirlingTriangle(_grown("second", nmax, _rat(lam))[0])


def s1_triangle(nmax: int, lam) -> StirlingTriangle:
    """First-kind triangle from the recurrence
    S(n+1,k) = S(n,k-1) + (k*lam - n) * S(n,k), S(0,0) = 1.

    The recurrence follows from (x)_{n+1} = (x)_n (x - n) together with
    x*(x)_{k,lam} = (x)_{k+1,lam} + k*lam*(x)_{k,lam}; the test suite
    cross-checks it entrywise against the generating-function extraction.
    """
    return StirlingTriangle(_grown("first", nmax, _rat(lam))[0])


def _row_extend(weight):
    """Extend for S(m,k) = S(m-1,k-1) + weight * S(m-1,k), run on integers.

    For lam = p/q, S(n,k) is a polynomial of degree at most n-k in lam with
    integer coefficients, so T(n,k) = q**(n-k) S(n,k) is an integer and
    T(m,k) = T(m-1,k-1) + weight(m-1, k, p, q) * T(m-1,k), where the weight
    is the old one times q.  The state is the last row's integers, so a miss
    carries the integer rows on from the last stored row, and each entry of a
    new row m goes over q**(m-k).  That scale, not q**m, keeps the integers
    small.  Every prime of q**(m-k) divides q, so _over_power reduces the
    entry with gcds against q, never against q**(m-k): an entry coprime to q
    costs one small gcd, and the zero T(m,0) none.  Each row is a Poly that
    holds the new Fractions as they are; T(m,m) = 1, so no row ends in a
    zero."""

    def extend(rows, ints, upto, lam):
        p, q = lam.numerator, lam.denominator
        scale = list(accumulate(repeat(q, upto), mul, initial=1))  # q**0 .. q**upto
        rows = list(rows) or [_fraction_poly((Fraction(1),))]
        ints = list(ints or (1,))
        for m in range(len(rows), upto + 1):
            # the zero past the end of row m-1 is also read as T(m-1, -1)
            ints.append(0)
            ints = [ints[k - 1] + weight(m - 1, k, p, q) * ints[k] for k in range(m + 1)]
            row = tuple(_over_power(t, scale[m - k], q) for k, t in enumerate(ints))
            rows.append(_fraction_poly(row))
        return tuple(rows), tuple(ints)

    return extend


def stirling_series_oracle(kind: str, n: int, k: int, lam, order: int) -> Fraction:
    """n! * [t**n] of the k-th divided power of the base series.

    The base is log_lam(1+t) for the first kind and e_lam(t)-1 for the
    second; dividing the k-th power by k! gives the column generating
    function, so the extracted coefficient is the (n, k) triangle entry.
    """
    if kind not in ("first", "second"):
        raise ValueError(f"unknown triangle kind: {kind!r}")
    _need_int("k", k, 0)
    _need_int("n", n, k)
    _need_int("order", order, n)
    power = _gf_power(kind, _rat(lam), k, order)
    return power.coeffs[n] * factorial(n) / factorial(k)


@lru_cache(maxsize=STORE_CAPACITY)
def _gf_power(kind: str, lam: Fraction, k: int, order: int) -> Series:
    if k == 0:
        return Series((Fraction(1),), order)
    base = dlog(lam, order) if kind == "first" else dexp(Fraction(1), lam, order) - 1
    return _gf_power(kind, lam, k - 1, order) * base


def _harmonic_extend(sums, state, upto, lam):
    """Extend for H_m = H_{m-1} + (-1)**(m-1) dfact(m-1,lam)/m!, H_0 = 0, run
    on integers.

    For lam = p/q the term is f_m/(q**(m-1) m!) with the integer
    f_m = prod_{0<j<m} (j*q - p), which carries the sign (-1)**(m-1), so
    H_m = N_m/D_m with D_m = q**m m! and N_m = q*(m*N_{m-1} + f_m): each new
    entry costs a few products by small integers and one _frac, and no dfact
    is built.  The state is the last N, D and next f, so a miss carries the
    sum on from the last stored entry and touches no stored one."""
    p, q = lam.numerator, lam.denominator
    num, den, fall = state or (0, 1, 1)
    sums = list(sums) or [Fraction(0)]
    for m in range(len(sums), upto + 1):
        num = q * (m * num + fall)
        den *= q * m
        sums.append(_frac(num, den))
        fall *= m * q - p
    return tuple(sums), (num, den, fall)


def _harmonic_numerators_extend(nums, d, upto, lam):
    """Extend for the harmonic entries as integers over d, the lcm of their
    denominators, which is the state.  A miss takes every harmonic entry
    stored at lam, not only 0..upto, so reads after a harmonic table take
    one miss."""
    sums = _grown("harmonic", upto, lam)[0]
    nums, d = _over_lcm(sums[len(nums):], nums, d or 1)
    return tuple(nums), d


def dharmonic(n: int, lam) -> Fraction:
    """Degenerate harmonic number: partial sums of (-1)**(k-1) dfact(k-1,lam)/k!.

    The summand is the singularity-free rewriting of (1/lam) binom(lam, k)
    (-1)**(k-1), so lam == 0 is legal and yields the classical 1 + 1/2 + ... + 1/n.
    """
    return _grown("harmonic", n, _rat(lam))[0][n]


def _hyperharmonic_numerators(n: int, r: int, lam) -> tuple[list[int], int]:
    """(numerators, d): hyperharmonic entries 0..n as integers over one d.

    The stored harmonic numerators are the harmonic entries as integers over
    one d, the lcm of their denominators, and the r-1 cumulative sums run on
    the first n+1 of them, so a read takes no lcm."""
    _need_int("r", r, 1)
    nums, d = _grown("harmonic numerators", n, _rat(lam))
    sums = nums[: n + 1]
    for _ in range(r - 1):
        sums = list(accumulate(sums))
    return sums, d


def dhyperharmonic_row(n: int, r: int, lam) -> tuple[Fraction, ...]:
    """Degenerate hyperharmonic numbers 0..n: r-1 cumulative summations of dharmonic."""
    sums, d = _hyperharmonic_numerators(n, r, lam)
    return tuple([_frac(a, d) for a in sums])


def dhyperharmonic(n: int, r: int, lam) -> Fraction:
    """Degenerate hyperharmonic number, entry n of dhyperharmonic_row."""
    sums, d = _hyperharmonic_numerators(n, r, lam)
    return _frac(sums[n], d)


def _over_lcm(fracs, nums=(), d=1) -> tuple[list[int], int]:
    """(numerators, e): the integers nums over d followed by the Fractions
    fracs, all as integers over e, the lcm of d and the denominators of fracs.

    The same scaling as algebra._scaled, kept apart because the oracles of
    its callers (the Poly kernels of dbernoulli_poly_stirling and the series
    kernels of identities.hyperharmonic_gf) run on that one."""
    e = lcm(d, *[f.denominator for f in fracs])
    return [a * (e // d) for a in nums] + [f.numerator * (e // f.denominator) for f in fracs], e


def _constants_extend(weight):
    """Extend for the constant terms c_n of 1/W(t) = sum_n c_n t**n/n!, where
    weight(j, ones, q) is the t**j/j! coefficient w_j of W (w_0 == 1), from
    the integers ones[i] = (1)_{i,lam} * q**i with lam = p/q.  The c_n solve
    sum_j C(n,j) w_j c_{n-j} = [n == 0].

    The state is (cs, d, ws, dw, ones): the constants as integers over one
    denominator d, the weights as integers over the lcm dw of theirs, and
    ones, so a miss builds only the new ones and weights.  Each new c_n is
    one Fraction, and d is raised to the lcm when c_n's denominator needs
    it."""

    def extend(consts, state, upto, lam):
        p, q = lam.numerator, lam.denominator
        cs, d, ws, dw, ones = state or ((), 1, (), 1, (1,))
        ones = list(ones)
        for i in range(len(ones) - 1, upto + 1):
            ones.append(ones[-1] * (q - i * p))
        ws, dw = _over_lcm([weight(j, ones, q) for j in range(len(ws) + 1, upto + 1)], ws, dw)
        consts, cs = list(consts), list(cs)
        for n in range(len(consts), upto + 1):
            dot = sum(comb(n, j) * ws[j - 1] * cs[n - j] for j in range(1, n + 1))
            consts.append(_frac(int(n == 0) * dw * d - dot, dw * d))
            cs, d = _over_lcm(consts[n:], cs, d)
        return tuple(consts), (tuple(cs), d, tuple(ws), dw, tuple(ones))

    return extend


def _appell_extend(constants):
    """Extend for the P_n(x) generated by e_lam^x(t) / W(t), whose constant
    terms c_n are the stored family constants.

    P_n(x) = sum_m C(n,m) c_{n-m} (x)_{m,lam} is summed by Horner's scheme in
    the falling-factorial basis: from acc = c_0, for m = n-1 down to 0,
    acc <- (x - m lam) acc + C(n,m) c_{n-m}.  The sum runs on the stored
    constants' integers over their one denominator d, with acc kept over
    d*q**(n-m) for lam = p/q, so that each pass multiplies by q*x - m*p, and
    the integers over d*q**n are the Poly's integer form, reduced once by
    algebra._poly.  The extend scales by itself,
    apart from the Poly kernels that its oracle dbernoulli_poly_stirling runs
    on, and needs no state of its own."""

    def extend(polys, state, upto, lam):
        p, q = lam.numerator, lam.denominator
        cs, d = _grown(constants, upto, lam)[1][:2]
        polys = list(polys)
        for n in range(len(polys), upto + 1):
            acc, scale = [cs[0]], 1
            for m in range(n - 1, -1, -1):
                scale *= q
                r = m * p
                acc = [q * a - r * b for a, b in zip([0] + acc, acc + [0])]
                acc[0] += comb(n, m) * cs[n - m] * scale
            den = d * scale
            polys.append(_poly(acc, den))
        return tuple(polys), None

    return extend


def _appell_value(constants, n: int, lam, x0) -> Fraction:
    """P_n(x0) = sum_m C(n,m) c_{n-m} (x0)_{m,lam} for the Appell family whose
    stored constants are constants, as one integer sum over one denominator.

    The same Horner pass as _appell_extend on the scalar x0 = a/b: acc is kept
    over d*(b*q)**(n-m), so that each pass multiplies by a*q - m*p*b, and the
    value is built once.  It builds no polynomial."""
    lam, x0 = _rat(lam), _rat(x0)
    cs, d = _grown(constants, n, lam)[1][:2]
    p, q, a, b = lam.numerator, lam.denominator, x0.numerator, x0.denominator
    acc, scale, binom = cs[0], 1, 1
    for m in range(n - 1, -1, -1):
        scale *= b * q
        binom = binom * (m + 1) // (n - m)  # C(n, m) from C(n, m+1)
        acc = (a * q - m * p * b) * acc + binom * cs[n - m] * scale
    return _frac(acc, d * scale)


# stored family -> its extend, which _grown calls on a miss
_EXTENDS = {
    # row m from row m-1 with lam = p/q: the weights k*lam - n and k - n*lam, times q
    "first": _row_extend(lambda n, k, p, q: k * p - n * q),
    "second": _row_extend(lambda n, k, p, q: k * q - n * p),
    "harmonic": _harmonic_extend,
    "harmonic numerators": _harmonic_numerators_extend,
    # W = (e_lam(t) - 1)/t and W = (e_lam(t) + 1)/2
    "bernoulli constants": _constants_extend(lambda j, ones, q: Fraction(ones[j + 1], (j + 1) * q ** (j + 1))),
    "euler constants": _constants_extend(lambda j, ones, q: Fraction(ones[j], 2 * q**j)),
    "bernoulli": _appell_extend("bernoulli constants"),
    "euler": _appell_extend("euler constants"),
}


def dbernoulli_poly(n: int, lam) -> Poly:
    """Degenerate Bernoulli polynomial, the t**n/n! coefficient of t/(e_lam(t)-1) * e_lam^x(t)."""
    return _grown("bernoulli", n, _rat(lam))[0][n]


def dbernoulli_value(n: int, lam, x0) -> Fraction:
    """dbernoulli_poly(n, lam) at x0, summed from the stored constants in O(n)."""
    return _appell_value("bernoulli constants", n, lam, x0)


def dbernoulli_poly_stirling(n: int, lam) -> Poly:
    """Alternate route to the same polynomial:
    sum_k k! S2(n,k) sum_{j<=k} binom(x,j) dfact(k-j,lam)/(k-j+1)!.

    Kept as an independent code path; the acceptance suite requires it to
    agree with dbernoulli_poly exactly.
    """
    return binomial_sum(dbell_poly(n, lam), bernoulli_weights(n, lam))


def deuler_poly(n: int, lam) -> Poly:
    """Degenerate Euler polynomial, the t**n/n! coefficient of 2/(e_lam(t)+1) * e_lam^x(t)."""
    return _grown("euler", n, _rat(lam))[0][n]


def deuler_value(n: int, lam, x0) -> Fraction:
    """deuler_poly(n, lam) at x0, summed from the stored constants in O(n)."""
    return _appell_value("euler constants", n, lam, x0)


def binomial_sum(row: Poly, weights) -> Poly:
    """sum over k of k! r_k * sum_{j<=k} binom(x, j) weights[k-j], for the
    row r_0..r_n, the coefficients of the Poly row, and weights[0..n].

    Summed over k first: for each j one scalar inner sum
    sum_{k>=j} k! r_k weights[k-j], a rational_dot, then one
    poly_combination over the binom_poly(j).  The k! r_k are one Poly, made
    from row's integer form, and the weights another, so every inner sum
    reads the same two integer forms.  The swap is exact for any row, a
    mutated triangle's included.
    """
    nums, d = row._form or _scaled(row)
    scaled = _poly([factorial(k) * v for k, v in enumerate(nums)], d)
    weights = Poly(weights)
    # rational_dot pairs like zip, so weights[0..n-j] meet k! r_k from k = j
    return poly_combination(
        (rational_dot(weights, scaled, j), binom_poly(j)) for j in range(len(nums))
    )


def bernoulli_weights(n: int, lam) -> list[Fraction]:
    """dfact(i, lam)/(i+1)! for i = 0..n, the inner weights of the Bernoulli sum."""
    return [dfact(i, lam) / factorial(i + 1) for i in range(n + 1)]


def euler_weights(n: int) -> list[Fraction]:
    """(-1/2)**i for i = 0..n, the inner weights of the Euler sum."""
    return [Fraction(-1, 2) ** i for i in range(n + 1)]


def dbell_poly(n: int, lam) -> Poly:
    """Degenerate Bell polynomial: sum of S2 row entries times x**k, the stored row itself."""
    return _grown("second", n, _rat(lam))[0][n]


def dfubini_poly(n: int, lam) -> Poly:
    """Degenerate Fubini polynomial: S2 row entries times k! x**k.

    Built from the row's Fractions, so a Fubini table derives no integer
    form of the rows and keeps no integer copy beside them."""
    return Poly([c * factorial(k) for k, c in enumerate(s2_triangle(n, lam).row(n))])


def dfubini_series_oracle(n: int, lam) -> Poly:
    """Independent route: n! * [t**n] of 1/(1 - x*(e_lam(t)-1)), by its reciprocal recurrence.

    G_m = x * sum_{j=1..m} C(m,j) (1)_{j,lam} G_{m-j} with G_0 = 1, where
    (1)_{j,lam} is j! times coefficient j of dexp(1, lam, n).
    """
    _need_int("n", n, 0)
    e = dexp(1, lam, n).coeffs
    g = [Poly.constant(1)]
    for m in range(1, n + 1):
        acc = Poly()
        for j in range(1, m + 1):
            acc = acc + g[m - j] * (comb(m, j) * factorial(j) * e[j])
        g.append(acc * X)
    return g[n]


def power_sum(p: int, n: int, lam) -> Fraction:
    """Direct sum of (k - lam)_{p,lam} for k = 1..n, as one integer sum.

    With lam = a/q, q**p (k - lam)_{p,lam} is the integer
    prod_j (k*q - (j+1)*a), so the sum is one integer sum over q**p.
    """
    _need_int("p", p, 0)
    _need_int("n", n)
    lam = _rat(lam)
    a, q = lam.numerator, lam.denominator
    return _frac(sum(prod(k * q - (j + 1) * a for j in range(p)) for k in range(1, n + 1)), q**p)
