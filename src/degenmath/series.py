"""Truncated formal power series in t with exact rational coefficients.

A coefficient is an int or a Fraction (or another value Fraction() reads
exactly); a float, a bool or a Poly raises TypeError, as a coefficient or
as a scalar in arithmetic, also past the truncation order.  Every series
carries its truncation order explicitly, and a product of two series
re-truncates to the smaller order, so an equality between two Series
always states the exact order to which it was verified.

A Series is a Poly and an order: it holds the Poly of its coefficients
through t**order, and the kernels read and write that Poly's integer form
(algebra.Poly), so no kernel builds a Fraction; they are built when coeffs
is read.  A product is Poly's integer convolution, cut at the smaller
order; +, - and * by a scalar and unary - are Poly's operators; a
reciprocal runs its recurrence on the integers and writes the result over
one denominator.  Composition picks its path by the shape of the inner
series: a Mobius inner a*t/(1 - b*t) replaces each Horner step's Cauchy
product with an O(order) recurrence on integers.  dexp holds the one
coefficient loop of the three generating functions: dlog is read off
dexp(lam-1, 1, order), since dfact(m, lam) is (lam-1)_{m,1}, and dpolylog
off dlog.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable

from .algebra import _ZERO, Poly, _convolution, _frac, _is_scalar, _need_int, _poly, _rat, _scaled


class Series:
    """Coefficients c_0..c_N of a power series truncated at order N.

    A Series holds the Poly of its coefficients through t**N and N itself,
    and ``coeffs`` is that Poly's tuple of Fractions padded with zeros to
    length N + 1.  Instances are immutable: assigning or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ("_p", "order")

    def __init__(self, coeffs: Iterable, order: int | None = None) -> None:
        # every coefficient is checked, also those past the order
        cs = [c if type(c) is Fraction else _rat(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("an empty coefficient list needs an explicit order")
            order = len(cs) - 1
        _need_int("order", order, 0)
        # the one write of each slot; __setattr__ refuses every later one
        object.__setattr__(self, "_p", Poly(cs[: order + 1]))
        object.__setattr__(self, "order", order)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c_0..c_N as Fractions: the Poly's, built on their first read, padded with zeros."""
        return self._p.coeffs + (_ZERO,) * (self.order + 1 - len(self._p.coeffs))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a Series is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Series is immutable")

    def truncate(self, order: int) -> "Series":
        _need_int("order", order, 0)
        if order > self.order:
            raise ValueError("cannot extend a series beyond its truncation order")
        nums, d = self._p._form or _scaled(self._p)
        return _series(_poly(nums[: order + 1], d), order)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all vanish."""
        nums = (self._p._form or _scaled(self._p))[0]
        return next((i for i, v in enumerate(nums) if v), None)

    def __add__(self, other):
        if _is_scalar(other):
            return _series(self._p + other, self.order)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _series(-self._p, self.order)

    def __sub__(self, other):
        if _is_scalar(other):
            return self + (-other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.order, other.order)
            a, da = self._p._form or _scaled(self._p)
            b, db = other._p._form or _scaled(other._p)
            return _series(_poly(_convolution(a, b, min(n, len(a) + len(b) - 2)), da * db), n)
        if _is_scalar(other):
            return _series(self._p * other, self.order)
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


def _series(p: Poly, order: int) -> Series:
    """The Series of p truncated at order, for a Poly p of degree at most order."""
    out = object.__new__(Series)
    object.__setattr__(out, "_p", p)
    object.__setattr__(out, "order", order)
    return out


def ser_reciprocal(a: Series) -> Series:
    """Multiplicative inverse: b with a*b == 1 to order a.order.

    The constant term must be nonzero.  With a's integer form A over D,
    C_n = A_0**(n+1) [t**n](1/A) is an integer with C_0 = 1 and
    C_n = -sum_{j=1..n} A_j A_0**(j-1) C_{n-j}, and coefficient n of the
    result is D*C_n / A_0**(n+1), so the result is the integers
    D*C_n*A_0**(N-n) over A_0**(N+1), for N the order.
    """
    ia, den = a._p._form or _scaled(a._p)
    if not ia or not ia[0]:
        raise ValueError("unit required: constant term is not invertible")
    a0, order = ia[0], a.order
    w = [ia[j] * a0 ** (j - 1) for j in range(1, len(ia))]
    cs = [1]
    for n in range(1, order + 1):
        # w[j-1] pairs with cs[n-j] for j = 1..n; A_j vanishes past w's end
        cs.append(-sum(map(mul, w[:n], reversed(cs))))
    # A_0 may be negative, so the denominator may be too; _poly moves the sign
    return _series(_poly([den * c * a0 ** (order - n) for n, c in enumerate(cs)], a0 ** (order + 1)), order)


def _mobius(inner: Series):
    """(a, b, s) when inner is exactly (a/s)*t/(1 - (b/s)*t) to its order,
    for ints a, b and the least s > 0 that makes both integers, else None."""
    nums, d = inner._p._form or _scaled(inner._p)
    if len(nums) < 2 or not nums[1]:
        return None
    # the coefficients are A*r**(m-1)/d for m >= 1, with A = nums[1] and the
    # ratio r = B/A, B = nums[2]; a nonzero r leaves no coefficient zero
    a, b = nums[1], nums[2] if len(nums) > 2 else 0
    if (b and len(nums) <= inner.order) or any(nums[m] * a != nums[m - 1] * b for m in range(3, len(nums))):
        return None
    # A/d and B/A over their least common denominator s
    s = lcm(d // gcd(a, d), a // gcd(a, b))
    return a * s // d, b * s // a, s


def ser_compose(outer: Series, inner: Series) -> Series:
    """outer(inner(t)) by Horner evaluation over series.

    inner must have valuation >= 1.  The result order is the largest order
    the two truncations determine: min(inner.order, v*(outer.order+1) - 1)
    where v is inner's valuation, which reduces to min(orders) for v == 1.

    When inner is a Mobius series a*t/(1 - b*t), multiplying by inner is a
    shift and a one-term recurrence, p_m = a*acc_{m-1} + b*p_{m-1}, so each
    Horner step is O(order) instead of a Cauchy product.  With s the lcm of
    the denominators of a and b, the Horner loop runs over integers on
    R(t) = D*outer(inner(s*t)), where D is the denominator of outer's integer
    form, and coefficient m of the result is R_m / (D * s**m): the integers
    R_m * s**(N-m) over D * s**N, for N the result order.
    """
    v = inner.valuation()
    if v == 0:
        raise ValueError("composition needs valuation >= 1")
    cs, den = outer._p._form or _scaled(outer._p)
    if v is None:
        return _series(_poly(cs[:1], den), inner.order)
    order = min(inner.order, v * (outer.order + 1) - 1)
    inner = inner.truncate(order)
    mobius = _mobius(inner)
    if mobius is None:
        # Horner on outer's integers, put over den once at the end
        acc = _series(_poly((), 1), order)
        for c in reversed(cs):
            acc = acc * inner + c
        nums, d = acc._p._form
        return _series(_poly(nums, d * den), order)
    ai, bi, scale = mobius
    # v == 1, so outer's terms past t**order vanish from the result
    cs = cs[: order + 1]
    acc = [cs[-1] if cs else 0] + [0] * order
    for k in range(len(cs) - 2, -1, -1):
        p = 0
        step = [cs[k]]
        for m in range(1, order + 1):
            p = ai * acc[m - 1] + bi * p
            step.append(p)
        acc = step
    return _series(_poly([r * scale ** (order - m) for m, r in enumerate(acc)], den * scale**order), order)


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
