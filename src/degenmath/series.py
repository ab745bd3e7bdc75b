"""Truncated formal power series in t over Fraction.

A coefficient is an int or a Fraction (or another value Fraction() reads
exactly); a float, a bool or a Poly raises TypeError, as a coefficient or
as a scalar in arithmetic.  Every series carries
its truncation order explicitly, and a product of two series re-truncates
to the smaller order, so an equality between two Series always states the
exact order to which it was verified.

The kernels work on integer numerators, one path each: a product or a
reciprocal scales to one common denominator and builds each output
coefficient once, with algebra._frac.  Composition picks its path by the
shape of the inner series: a Mobius inner a*t/(1 - b*t) replaces each
Horner step's Cauchy product with an O(order) recurrence.  dexp holds the
one coefficient loop of the three generating functions: dlog is read off
dexp(lam-1, 1, order), since dfact(m, lam) is (lam-1)_{m,1}, and
dpolylog off dlog.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable

from .algebra import _ZERO, _cauchy_product, _frac, _integer_numerators, _is_scalar, _need_int, _rat


class Series:
    """Coefficients c_0..c_N of a power series truncated at order N."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable, order: int | None = None) -> None:
        cs = [c if type(c) is Fraction else _rat(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(cs) - 1
        _need_int("order", order, 0)
        if len(cs) < order + 1:
            cs.extend([_ZERO] * (order + 1 - len(cs)))
        else:
            del cs[order + 1 :]
        self.coeffs = tuple(cs)
        self.order = order

    def truncate(self, order: int) -> "Series":
        _need_int("order", order, 0)
        if order > self.order:
            raise ValueError("cannot extend a series beyond its truncation order")
        return Series(self.coeffs[: order + 1], order)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def __add__(self, other):
        if _is_scalar(other):
            return Series((self.coeffs[0] + other,) + self.coeffs[1:], self.order)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Series(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        if _is_scalar(other):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            return Series(_cauchy_product(self.coeffs[: n + 1], other.coeffs[: n + 1], n), n)
        if _is_scalar(other):
            return Series(tuple(c * other for c in self.coeffs), self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        _need_int("exponent", exponent, 0)
        out = Series((Fraction(1),), self.order)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __str__(self):
        return f"Series(order={self.order}, [{', '.join(str(c) for c in self.coeffs)}])"

    __repr__ = __str__


def ser_reciprocal(a: Series) -> Series:
    """Multiplicative inverse: b with a*b == 1 to order a.order.

    The constant term must be nonzero.  With a scaled to integers A over
    D, C_n = A_0**(n+1) [t**n](1/A) is an integer with C_0 = 1 and
    C_n = -sum_{j=1..n} A_j A_0**(j-1) C_{n-j}, and the result is
    D*C_n / A_0**(n+1).
    """
    if a.coeffs[0] == 0:
        raise ValueError("unit required: constant term is not invertible")
    ia, den = _integer_numerators(a.coeffs)
    w = [ia[j] * ia[0] ** (j - 1) for j in range(1, a.order + 1)]
    cs = [1]
    for n in range(1, a.order + 1):
        # w[j-1] pairs with cs[n-j] for j = 1..n
        cs.append(-sum(map(mul, w[:n], reversed(cs))))
    # A_0 may be negative, so the denominator A_0**(n+1) may be too
    return Series([_frac(den * c, ia[0] ** (n + 1)) for n, c in enumerate(cs)], a.order)


def _mobius(inner: Series):
    """(a, b) when inner is exactly a*t/(1 - b*t) to its order, else None."""
    cs = inner.coeffs
    if len(cs) < 2 or cs[1] == 0:
        return None
    a = cs[1]
    b = cs[2] / a if len(cs) > 2 else _ZERO
    for m in range(2, len(cs)):
        if cs[m] != cs[m - 1] * b:
            return None
    return a, b


def ser_compose(outer: Series, inner: Series) -> Series:
    """outer(inner(t)) by Horner evaluation over series.

    inner must have valuation >= 1.  The result order is the largest order
    the two truncations determine: min(inner.order, v*(outer.order+1) - 1)
    where v is inner's valuation, which reduces to min(orders) for v == 1.

    When inner is a Mobius series a*t/(1 - b*t), multiplying by inner is a
    shift and a one-term recurrence, p_m = a*acc_{m-1} + b*p_{m-1}, so each
    Horner step is O(order) instead of a Cauchy product.  With L the lcm of
    the denominators of a and b, the Horner loop runs over integers on
    R(t) = D*outer(inner(L*t)), where D scales outer to integers, and
    coefficient m of the result is R_m / (D * L**m).
    """
    if inner.coeffs[0] != 0:
        raise ValueError("composition needs valuation >= 1")
    v = inner.valuation()
    if v is None:
        return Series((outer.coeffs[0],), inner.order)
    order = min(inner.order, v * (outer.order + 1) - 1)
    inner = inner.truncate(order)
    mobius = _mobius(inner)
    if mobius is None:
        acc = Series((outer.coeffs[outer.order],), order)
        for k in range(outer.order - 1, -1, -1):
            acc = acc * inner + outer.coeffs[k]
        return acc
    (ai, bi), scale = _integer_numerators(mobius)
    # v == 1, so outer's terms past t**order vanish from the result
    cs, den = _integer_numerators(outer.coeffs[: order + 1])
    acc = [cs[-1]] + [0] * order
    for k in range(len(cs) - 2, -1, -1):
        p = 0
        step = [cs[k]]
        for m in range(1, order + 1):
            p = ai * acc[m - 1] + bi * p
            step.append(p)
        acc = step
    return Series([_frac(r, den * scale**m) for m, r in enumerate(acc)], order)


def dexp(x0, lam, order: int) -> Series:
    """Degenerate exponential: coefficient of t**k is (x0)_{k,lam} / k!.

    x0 is a rational.  At lam == 0 this is the classical exp(x0*t).
    """
    _need_int("order", order, 0)
    x0, lam = _rat(x0), _rat(lam)
    # x0 = a/b, lam = p/q: coefficient k+1 is coefficient k times the small
    # (a*q - k*p*b) / ((k+1)*b*q), so each product reduces by gcds against it
    a, b, p, q = x0.numerator, x0.denominator, lam.numerator, lam.denominator
    acc, out = Fraction(1), []
    for k in range(order + 1):
        out.append(acc)
        acc *= _frac(a * q - k * p * b, (k + 1) * b * q)
    return Series(out, order)


def dlog(lam, order: int) -> Series:
    """Degenerate logarithm of 1+t: the compositional inverse of dexp(1,lam)-1.

    Coefficient of t**k is dfact(k-1, lam) / k!; lam == 0 gives log(1+t).
    dfact(m, lam) is (lam-1)_{m,1}, so the coefficient is coefficient k-1
    of dexp(lam-1, 1, order), over k.
    """
    _need_int("order", order, 0)
    e = dexp(_rat(lam) - 1, 1, order).coeffs
    return Series([_ZERO] + [c / k for k, c in enumerate(e[:order], 1)], order)


def dpolylog(k: int, lam, order: int) -> Series:
    """Degenerate polylogarithm of weight k.

    Coefficient of t**n (n >= 1) is (-1)**(n-1) * dfact(n-1,lam) / ((n-1)! n**k),
    which is coefficient n of dlog(lam, order) times (-1)**(n-1) / n**(k-1);
    weight 1 is -log_lam(1-t), and lam == 0, k == 2 is the classical dilogarithm.
    """
    _need_int("k", k)
    cs = dlog(lam, order).coeffs
    return Series([_ZERO] + [c * ((-1) ** (n - 1) * Fraction(n) ** (1 - k)) for n, c in enumerate(cs[1:], 1)], order)
