"""Exact rational scalars and dense polynomials in one variable.

Everything downstream (series, triangles, identity checks) runs over these
types, so every value the package produces is exact.  Scalars are
fractions.Fraction; polynomials are immutable dense coefficient tuples over
Fraction.  There is no floating point anywhere in the computational core.

The hot kernels keep Fraction at their boundary only: a polynomial product
scales each factor to integers over one common denominator and normalises
each output coefficient once.  poly_combination sums c * P over many
(scalar, Poly) pairs the same way: each P goes over the lcm of its
denominators, the integer numerators are summed over one common
denominator, and each output coefficient is normalised once.
rational_dot is its scalar twin: the sum of x * y over paired scalars is
one integer dot product of the two sides' numerators, each side over the
lcm of its denominators, and one Fraction.  poly_eval is integer Horner,
with one Fraction per call.  Every generalized falling factorial, the
rising one and dfact included, is a call into gfact_falling, which makes
a scalar one integer product over one denominator.  binom(x, k) is
memoised in a tuple of its own.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with an optional leading sign.

    Only exact integer or integer/integer strings are accepted; decimal
    and exponent notation are rejected so that a typo can never silently
    change the mathematical object being computed.
    """
    s = text.strip()
    if not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not an exact rational: {text!r}")
    num, _, den = s.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


class Poly:
    """Dense univariate polynomial over Fraction.

    ``coeffs[i]`` is the coefficient of x**i.  Instances are immutable.
    The coefficient tuple never ends in a zero; the zero polynomial is the
    empty tuple, and its degree is None rather than -1 so that degree
    arithmetic can never be silently wrong.

    Scalars (int, Fraction) coerce in arithmetic and comparisons, which is
    what lets generic "Rational-or-Poly" code run unchanged over either
    coefficient ring.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls((value,))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero outside the stored range)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        a, b = self.coeffs, other.coeffs
        return Poly(_cauchy_product(a, b, len(a) + len(b) - 2))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # constants hash like the scalar they equal
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else Fraction(0))
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xs
                elif c == -1:
                    term = "-" + xs
                else:
                    term = f"{c}*{xs}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


#: the polynomial variable, for building symbolic-x expressions
X = Poly((0, 1))


def _integer_numerators(cs) -> tuple[list[int], int]:
    """(numerators, d): the Fractions cs as integers over d, the lcm of their denominators."""
    # a list, not a generator: CPython builds a generator's argument tuple at
    # a guessed size and resizes it, and the resized tuples pile up on its
    # per-size tuple free lists (about 1 MiB after check --all)
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _cauchy_product(a, b, n: int) -> list[Fraction]:
    """c_m = sum over i + j == m of a_i * b_j, for m = 0..n, over Fraction a and b.

    Each factor is scaled to integers over the lcm of its denominators, the
    integers are convolved, and each c_m is normalised once, in the spirit of
    fraction-free elimination (Bareiss, Math. Comp. 22, 1968).
    """
    ia, da = _integer_numerators(a)
    ib, db = _integer_numerators(b)
    rb = ib[::-1]
    lb, den = len(b), da * db
    out = []
    for m in range(n + 1):
        lo = max(0, m - lb + 1)
        # rb[lb-1-j] is b_j, so the second slice runs b_{m-lo} down to b_0;
        # map stops at the end of the shorter slice
        out.append(Fraction(sum(map(mul, ia[lo : m + 1], rb[lb - 1 - m + lo :])), den))
    return out


def gfact_falling(x0, n: int, lam) -> "Fraction | Poly":
    """Generalized falling factorial x0*(x0-lam)*(x0-2*lam)*...*(x0-(n-1)*lam).

    The empty product (n == 0) is the multiplicative identity of the ring
    x0 lives in.  x0 may be a scalar or a Poly; at lam == 0 this is x0**n.
    """
    if n < 0:
        raise ValueError("length of the falling-factorial product must be >= 0")
    lam = Fraction(lam)
    if not isinstance(x0, Poly):
        # x0 = a/b, lam = p/q: the product is prod_j (a*q - j*p*b) / (b*q)**n
        x0 = Fraction(x0)
        a, b, p, q = x0.numerator, x0.denominator, lam.numerator, lam.denominator
        return Fraction(prod(a * q - j * p * b for j in range(n)), (b * q) ** n)
    acc = Poly.constant(1)
    for j in range(n):
        acc = acc * (x0 - j * lam)
    return acc


def gfact_rising(x0, n: int, lam) -> "Fraction | Poly":
    """Rising analogue x0*(x0+lam)*...*(x0+(n-1)*lam); 1 when n == 0."""
    return gfact_falling(x0, n, -Fraction(lam))


# binom(x, k) for k = 0..len-1; grown by rebinding a longer tuple, never in
# place, so a reader racing a grower still indexes a complete prefix
_BINOMS: tuple[Poly, ...] = (Poly((1,)),)


def binom_poly(k: int) -> Poly:
    """binom(x, k) as an exact polynomial of degree k, memoised.

    Entry k is C(x, k-1) * (x - k + 1) / k.
    """
    global _BINOMS
    if k < 0:
        raise ValueError("binomial index must be >= 0")
    binoms = _BINOMS
    if k >= len(binoms):
        grown = list(binoms)
        for m in range(len(grown), k + 1):
            grown.append(grown[m - 1] * (X - (m - 1)) * Fraction(1, m))
        binoms = _BINOMS = tuple(grown)
    return binoms[k]


def dfact(k: int, lam) -> Fraction:
    """Product (lam-1)(lam-2)...(lam-k), the falling factorial (lam-1)_{k,1}; 1 when k == 0.

    This is the singularity-free form of the coefficient products that
    otherwise carry a literal 1/lam: for lam != 0,
    dfact(k-1, lam) == lam**(k-1) * (1)_{k, 1/lam}, and at lam == 0 it
    degenerates continuously to (-1)**k * k!.
    """
    return gfact_falling(Fraction(lam) - 1, k, 1)


def poly_derivative(p: Poly) -> Poly:
    """Formal derivative."""
    return Poly(tuple(c * i for i, c in enumerate(p.coeffs) if i >= 1))


def poly_int_over_t(p: Poly) -> Poly:
    """Integral of p(t)/t from 0 to x: sum of c_k x**k / k.

    The constant coefficient must vanish; otherwise the integral has a
    logarithmic term and is not a polynomial.
    """
    if p.coeff(0) != 0:
        raise ValueError("logarithmic divergence: nonzero constant term")
    return Poly((Fraction(0),) + tuple(c / k for k, c in enumerate(p.coeffs) if k >= 1))


def poly_combination(terms) -> Poly:
    """sum of c * P over the (scalar, Poly) pairs in terms.

    Each P goes over the lcm d of its denominators, so c * P is the integer
    numerators of P times c.numerator, over c.denominator * d.  The terms
    are summed on integers over the lcm of those denominators and each
    output coefficient is normalised once.
    """
    scaled = []
    for c, p in terms:
        if c and p.coeffs:
            nums, d = _integer_numerators(p.coeffs)
            scaled.append((c.numerator, c.denominator * d, nums))
    if not scaled:
        return Poly()
    den = lcm(*(d for _, d, _ in scaled))
    acc = [0] * max(len(nums) for _, _, nums in scaled)
    for a, d, nums in scaled:
        a *= den // d
        for i, v in enumerate(nums):
            acc[i] += a * v
    return Poly([Fraction(v, den) for v in acc])


def rational_dot(xs, ys) -> Fraction:
    """sum of x * y over the paired ints or Fractions of xs and ys.

    The sides pair like zip: the longer one's tail is ignored, and an empty
    side gives 0.  Each side goes over the lcm of its denominators, the
    integer numerators are multiplied pairwise and summed, and the sum is
    normalised once.
    """
    xs, ys = list(xs), list(ys)
    n = min(len(xs), len(ys))
    ix, dx = _integer_numerators(xs[:n])
    iy, dy = _integer_numerators(ys[:n])
    return Fraction(sum(map(mul, ix, iy)), dx * dy)


def poly_eval(p: Poly, x0) -> Fraction:
    """Exact evaluation by integer Horner.

    With x0 = a/b and the coefficients c_i as integers over d, the value is
    sum_i c_i a**i b**(deg-i) over d b**deg, normalised once.
    """
    x0 = Fraction(x0)
    if not p.coeffs:
        return Fraction(0)
    a, b = x0.numerator, x0.denominator
    nums, d = _integer_numerators(p.coeffs)
    acc, bpow = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * bpow
        bpow *= b
    return Fraction(acc, d * b ** (len(nums) - 1))
