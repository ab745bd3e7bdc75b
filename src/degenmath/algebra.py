"""Exact rational scalars and dense polynomials in one variable.

Everything downstream (series, triangles, identity checks) runs over these
types, so every value the package produces is exact.  Scalars are
fractions.Fraction.  A polynomial is immutable and holds one canonical
integer form: integer numerators over one positive denominator, with no
trailing zero and the gcd of denominator and numerators equal to 1.
Fractions are built from it only where a value leaves the library, on the
first read of Poly.coeffs.  There is no floating point anywhere in the
computational core.

The Poly kernels read and write that form, in the spirit of fraction-free
elimination (Bareiss, Math. Comp. 22, 1968).  A product is one integer
convolution over the product of the two denominators.  poly_combination
sums c * P over many (scalar, Poly) pairs on integers over the lcm of
their denominators, and Poly's +, -, unary - and * by a scalar are each
one call of it.  poly_eval is integer Horner, with one Fraction per call;
poly_derivative and poly_int_over_t scale the numerators.  _poly, the one
constructor of the form, reduces each output once by one gcd.
rational_dot is the scalar twin of poly_combination: the sum of x * y over
the paired coefficients of two Polys is one integer dot product of their
integer forms, the second read from a start index, and one Fraction.  So a
Stirling row, which sequences stores as a Poly, or a weight list made into
one, is scaled once however many sums read it.  A Series holds a Poly, and
its product is the same integer convolution, cut at the smaller order.
_scaled, which derives a form from a Poly's Fractions, is the one place in
this module and series where Fractions become integers.  Every generalized
falling factorial, the rising one and dfact included, is a call into
gfact_falling, which makes a scalar one integer product over one
denominator.  binom(x, k) is memoised in a tuple of its own.

Where a kernel of this module, series or sequences has an integer
numerator and denominator, _frac builds the Fraction from them: one gcd,
and the two slots written by _coprime, the one function that writes them,
without the type dispatch of Fraction(n, d).  _over_power does the same
for an integer over a power of a small base, reducing it with gcds against
the base alone.  A scalar input goes through _rat, which returns a
Fraction as it is, since a Fraction is immutable and already in lowest
terms, and refuses a float (already rounded) or a bool.  _need_int is the
one check of a size argument (a length, index, order or exponent).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Union

Scalar = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/\d+)?")

#: the one zero the kernels pad with; a Fraction is immutable, so it is shared
_ZERO = Fraction(0)


def _coprime(n: int, d: int) -> Fraction:
    """n/d for coprime ints n and d > 0, not checked and not reduced again.

    The one place that writes Fraction's two slots, as
    Fraction._from_coprime_ints does on 3.12+; CPython 3.10 to 3.13 all have
    exactly the slots _numerator and _denominator."""
    out = object.__new__(Fraction)
    out._numerator, out._denominator = n, d
    return out


def _frac(n: int, d: int) -> Fraction:
    """n/d in lowest terms for ints n and d, equal to Fraction(n, d) in value and form.

    The sign moves to the numerator and one gcd reduces the pair; d == 0
    raises ZeroDivisionError, as Fraction does."""
    if d < 0:
        n, d = -n, -d
    elif not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _coprime(n, d)


def _rat(x) -> Fraction:
    """x as a Fraction: a Fraction is returned itself, anything else goes
    through Fraction(x); a float, already rounded, and a bool raise TypeError."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (float, bool)):
        raise TypeError(f"an exact rational is needed, not {type(x).__name__} {x!r}")
    return Fraction(x)


def _need_int(name: str, value, least: int | None = None) -> None:
    """TypeError, naming name, unless value's type is int (a bool would be read
    as 0 or 1, a float truncated or used as an index); ValueError, naming
    name, if value is below least."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__} {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _is_scalar(x) -> bool:
    """Whether Poly and Series arithmetic takes x as a scalar: an int or a Fraction, not a bool."""
    return isinstance(x, (int, Fraction)) and type(x) is not bool


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
    """Dense univariate polynomial with rational coefficients.

    ``coeffs[i]`` is the coefficient of x**i, a Fraction.  Instances are
    immutable: ``coeffs`` is a read-only view, and assigning to it raises
    AttributeError.  The coefficient tuple never ends in a zero; the zero
    polynomial is the empty tuple, and its degree is None rather than -1 so
    that degree arithmetic can never be silently wrong.

    The kernels read one canonical integer form: a tuple of integer
    numerators over one positive denominator, with no trailing zero and
    gcd(den, *nums) == 1, stored as one tuple (nums, den) in one slot.
    _poly is the one place that form is made.  A kernel output holds only
    the form, and its Fractions are built on the first read of ``coeffs``;
    Poly(coeffs) holds only the Fractions, and its form is derived on first
    kernel use.  Either is filled by one store of a whole tuple, so a racing
    reader sees nothing or all of it.

    Scalars (int, Fraction, not bool) coerce in arithmetic, so a polynomial
    and a rational mix in one expression, as in X - k*lam.  Equality is by
    value: a constant equals the int or Fraction it holds.  Two polynomials
    compare their integer forms when both have one, which is exact because
    the form is canonical, and their coefficients otherwise, so a comparison
    derives no form.
    """

    __slots__ = ("_coeffs", "_form")

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if type(c) is Fraction else _rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)
        self._form = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built from the integer form on first read."""
        cs = self._coeffs
        if cs is None:
            nums, den = self._form
            cs = self._coeffs = tuple([_frac(v, den) for v in nums])
        return cs

    @classmethod
    def constant(cls, value: Scalar) -> "Poly":
        return cls((value,))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero outside the stored range)."""
        _need_int("i", i)
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if _is_scalar(other):
            return _poly((other.numerator,), other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else poly_combination(((1, self), (1, other)))

    __radd__ = __add__

    def __neg__(self):
        return poly_combination(((-1, self),))

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else poly_combination(((1, self), (-1, other)))

    def __mul__(self, other):
        if _is_scalar(other):
            return poly_combination(((other, self),))
        if not isinstance(other, Poly):
            return NotImplemented
        a, da = self._form or _scaled(self)
        b, db = other._form or _scaled(other)
        # a zero factor convolves to no coefficient or to zeros that _poly strips
        return _poly(_convolution(a, b, len(a) + len(b) - 2), da * db)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Poly):
            a, b = self._form, other._form
            if a is not None and b is not None:
                return a == b
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        # constants hash like the scalar they equal
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else _ZERO)
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


def _poly(nums, den: int) -> Poly:
    """The Poly with coefficients nums[i]/den, for ints nums and den != 0.

    The one constructor of the integer form: the sign moves to the
    numerators, trailing zeros are stripped and one gcd reduces the whole
    form, so gcd(den, *nums) == 1 with den > 0.  No lcm is needed: the lcm
    of the reduced coefficients' denominators is exactly den // gcd(den,
    *nums)."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if n < len(nums):
        nums = nums[:n]
    # a g of den's sign also moves the sign to the numerators
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    if g != 1:
        nums, den = [v // g for v in nums], den // g
    out = object.__new__(Poly)
    out._coeffs = None
    out._form = (tuple(nums), den)
    return out


def _fraction_poly(cs: tuple) -> Poly:
    """The Poly whose coefficients are the tuple cs itself, for Fractions cs
    with no trailing zero: no copy is made, and the integer form is derived
    on the first kernel read, as for Poly(coeffs)."""
    out = object.__new__(Poly)
    out._coeffs = cs
    out._form = None
    return out


def _scaled(p: Poly) -> tuple[tuple[int, ...], int]:
    """p's integer form, derived once from its Fractions and stored.

    The one place in algebra and series where Fractions become integers.
    Over d, the lcm of the coefficients' reduced denominators, the form is
    already canonical: for each prime of d, some coefficient's denominator
    holds the prime's whole power in d, so that coefficient's integer, its
    numerator times d // its denominator, is prime to it."""
    cs = p._coeffs
    # a list, not a generator: CPython builds a generator's argument tuple at
    # a guessed size and resizes it, and the resized tuples pile up on its
    # per-size tuple free lists (about 1 MiB after check --all)
    d = lcm(*[c.denominator for c in cs])
    form = p._form = (tuple([c.numerator * (d // c.denominator) for c in cs]), d)
    return form


#: the polynomial variable, for building symbolic-x expressions
X = Poly((0, 1))


def _over_power(t: int, s: int, base: int) -> Fraction:
    """t/s in lowest terms, for s > 0 a power of base.

    Every prime that divides s divides base, so t and s share a factor
    exactly when t, s and base do.  If t is 0 the value is 0/1; if s is 1
    it is t/1.  Otherwise s = base**e with e >= 1, so gcd(s, base) = base
    and the first g = gcd(t, base) is gcd(t, s, base).  Each pass divides t
    and s by g > 1, a common divisor of both, so t/s keeps its value, s
    stays a positive divisor of base**e and strictly falls, and the next g
    is again gcd(t, s, base).  The loop therefore ends, and it ends when t
    and s are coprime.  Every gcd has base or a divisor of it as one operand,
    so none pairs two large integers, and a t coprime to base costs one gcd.
    The Fraction is built by _coprime, so it is not reduced a second time;
    s > 0 keeps the sign on the numerator.
    """
    if not t:
        s = 1
    elif s > 1:
        g = gcd(t, base)
        while g > 1:
            t //= g
            s //= g
            g = gcd(t, gcd(s, base))
    return _coprime(t, s)


def _convolution(a, b, n: int) -> list[int]:
    """c_m = sum over i + j == m of a_i * b_j, for m = 0..n, over int sequences a and b."""
    rb = b[::-1]
    lb = len(b)
    out = []
    for m in range(n + 1):
        lo = max(0, m - lb + 1)
        # rb[lb-1-j] is b_j, so the second slice runs b_{m-lo} down to b_0;
        # map stops at the end of the shorter slice
        out.append(sum(map(mul, a[lo : m + 1], rb[lb - 1 - m + lo :])))
    return out


def gfact_falling(x0, n: int, lam) -> "Fraction | Poly":
    """Generalized falling factorial x0*(x0-lam)*(x0-2*lam)*...*(x0-(n-1)*lam).

    The empty product (n == 0) is the multiplicative identity of the ring
    x0 lives in.  x0 may be a scalar or a Poly; at lam == 0 this is x0**n.
    """
    _need_int("n", n, 0)
    lam = _rat(lam)
    if not isinstance(x0, Poly):
        # x0 = a/b, lam = p/q: the product is prod_j (a*q - j*p*b) / (b*q)**n
        x0 = _rat(x0)
        a, b, p, q = x0.numerator, x0.denominator, lam.numerator, lam.denominator
        return _frac(prod(a * q - j * p * b for j in range(n)), (b * q) ** n)
    acc = Poly.constant(1)
    for j in range(n):
        acc = acc * (x0 - j * lam)
    return acc


def gfact_rising(x0, n: int, lam) -> "Fraction | Poly":
    """Rising analogue x0*(x0+lam)*...*(x0+(n-1)*lam); 1 when n == 0."""
    return gfact_falling(x0, n, -_rat(lam))


# binom(x, k) for k = 0..len-1; grown by rebinding a longer tuple, never in
# place, so a reader racing a grower still indexes a complete prefix
_BINOMS: tuple[Poly, ...] = (Poly((1,)),)


def binom_poly(k: int) -> Poly:
    """binom(x, k) as an exact polynomial of degree k, memoised.

    Entry k is C(x, k-1) * (x - k + 1) / k.
    """
    global _BINOMS
    _need_int("k", k, 0)
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
    _need_int("k", k, 0)
    return gfact_falling(_rat(lam) - 1, k, 1)


def poly_derivative(p: Poly) -> Poly:
    """Formal derivative."""
    nums, d = p._form or _scaled(p)
    return _poly([i * nums[i] for i in range(1, len(nums))], d)


def poly_int_over_t(p: Poly) -> Poly:
    """Integral of p(t)/t from 0 to x: sum of c_k x**k / k.

    The constant coefficient must vanish; otherwise the integral has a
    logarithmic term and is not a polynomial.  With the c_k as integers over
    d and m the lcm of 1..deg, c_k/k is c_k * (m/k) over d*m.
    """
    nums, d = p._form or _scaled(p)
    if nums and nums[0]:
        raise ValueError("logarithmic divergence: nonzero constant term")
    m = lcm(*range(1, len(nums)))
    return _poly([0] + [nums[k] * (m // k) for k in range(1, len(nums))], d * m)


def poly_combination(terms) -> Poly:
    """sum of c * P over the (scalar, Poly) pairs in terms.

    With P's integer form nums over d, c * P is nums times c.numerator, over
    c.denominator * d.  The terms are summed on integers over the lcm of
    those denominators, and _poly reduces the sum once.
    """
    scaled = []
    for c, p in terms:
        if c:
            nums, d = p._form or _scaled(p)
            if nums:
                scaled.append((c.numerator, c.denominator * d, nums))
    den = lcm(*[d for _, d, _ in scaled])
    acc = [0] * max([len(nums) for _, _, nums in scaled], default=0)
    for a, d, nums in scaled:
        a *= den // d
        for i, v in enumerate(nums):
            acc[i] += a * v
    return _poly(acc, den)


def rational_dot(xs: Poly, p: Poly, start: int = 0) -> Fraction:
    """sum of x_i * p_{start+i} over the coefficients x_i of xs and p_k of p.

    The sides pair like zip: the longer one's tail is ignored, and an empty
    side gives 0.  Both are read through their integer forms, which a Poly
    derives once and keeps, so a stored Stirling row or a list of weights
    made into one Poly is scaled once however many sums read it.  The
    integer numerators are multiplied pairwise and summed, and the sum is
    built once, over the product of the two denominators.
    """
    _need_int("start", start, 0)
    ix, dx = xs._form or _scaled(xs)
    ip, dp = p._form or _scaled(p)
    return _frac(sum(map(mul, ix, ip[start : start + len(ix)])), dx * dp)


def poly_eval(p: Poly, x0) -> Fraction:
    """Exact evaluation by integer Horner.

    With x0 = a/b and p's integer form c_i over d, the value is
    sum_i c_i a**i b**(deg-i) over d b**deg, built once.
    """
    x0 = _rat(x0)
    nums, d = p._form or _scaled(p)
    if not nums:
        return _ZERO
    a, b = x0.numerator, x0.denominator
    acc, bpow = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * bpow
        bpow *= b
    return _frac(acc, d * b ** (len(nums) - 1))
