"""Registry of machine-checkable identities and the grid sweep runner.

Each checker is declared with `@identity(id, params, description)`.  The
params map each parameter name to a Param: its kind, its domain, and the
Grid axis it sweeps.  An identity's bindings over a Grid are the product
of its axes, so no identity has a hand-written enumerator.

A checker takes its bound values positionally in declared order (lambda
spelled lam, symbolic params omitted), as in `_check_t2(n, r, lam)`.  It
reads every family, the two Stirling triangles included, by (n, lam) from
sequences.  It returns `(lhs, rhs)`, or `(lhs, rhs, note)`, or
`(lhs, rhs, note, passed)` when the verdict is not lhs == rhs.
IdentitySpec.check builds every CheckResult, stamping the id and binding.

All checks except E67 compare exact objects (Fraction, Poly, or Series);
identities with a free variable x are compared as polynomials, coefficient
by coefficient, never by sampling.  E67 is the one numeric check: an
exact-rational partial sum is compared against an exact polynomial value
within an explicit, certified geometric tail bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import comb, factorial, prod
from operator import mul
from typing import Callable, Iterable, Iterator

from . import classical, sequences
from .algebra import (
    Poly,
    X,
    _need_int,
    dfact,
    gfact_falling,
    gfact_rising,
    poly_combination,
    poly_derivative,
    poly_eval,
    poly_int_over_t,
    rational_dot,
)
from .series import Series, dlog, dpolylog, ser_compose, ser_reciprocal

DEFAULT_LAMBDAS = tuple(
    Fraction(s) for s in ("0", "1/2", "-1/2", "1", "-1", "2/3", "-3/7", "3", "1/5")
)


@dataclass(frozen=True)
class Grid:
    """Parameter sweep for run_suite; the defaults are the acceptance grid.

    Each field is checked when the Grid is built, whatever identities it is
    swept for, so a Grid that exists is valid: a bound must reach the least
    value any identity takes on its axis, the lambdas must be distinct exact
    rationals, and the E67 tolerance a positive rational.  BindingError names
    the field.  The lambdas and the tolerance are stored as Fractions.
    """

    nmax: int = 12
    rmax: int = 4
    pmax: int = 6
    lambdas: tuple[Fraction, ...] = DEFAULT_LAMBDAS
    order: int = 24
    e67_tol: Fraction = Fraction(1, 10**30)

    def __post_init__(self):
        for name, param in (("nmax", N0), ("rmax", R1), ("pmax", P0), ("order", ORDER)):
            param.validate(name, getattr(self, name))
        # a str is an iterable of one-character lambdas
        if isinstance(self.lambdas, str):
            raise BindingError("lambdas must be a sequence of rationals, not a str")
        lambdas = tuple(LAM.validate("lambdas", lam) for lam in self.lambdas)
        # a repeated value would check, and count, each of its bindings twice
        for i, lam in enumerate(lambdas):
            if lam in lambdas[:i]:
                raise BindingError(f"lambdas: {lam} appears more than once")
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "e67_tol", TOL.validate("e67_tol", self.e67_tol))


class UnknownIdentityError(KeyError):
    """Raised for an identity id not present in the registry."""


class BindingError(ValueError):
    """Raised when a binding does not satisfy an identity's parameter schema."""


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity instance, with both sides rendered exactly."""

    id: str
    binding: dict
    lhs: object
    rhs: object
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class Param:
    """One parameter of an identity: its kind ("int", "rational" or
    "symbolic"), its domain, and the values it takes on a Grid (None for a
    symbolic parameter, which is never bound)."""

    kind: str
    min: int | None = None
    positive: bool = False
    axis: Callable[[Grid], Iterable] | None = None

    def describe(self) -> str:
        if self.kind == "int":
            return f"int >= {self.min}"
        if self.kind == "rational":
            return "rational > 0" if self.positive else "rational"
        return "symbolic"

    def validate(self, label: str, value):
        """The value as the checker receives it; BindingError, naming label,
        if outside the domain."""
        if self.kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise BindingError(f"{label} must be an integer")
            if value < self.min:
                raise BindingError(f"{label} = {value} outside schema ({self.describe()})")
            return value
        # a float is already rounded, and a bool is not a number
        if isinstance(value, (float, bool)):
            raise BindingError(f"{label} must be rational, not {type(value).__name__}")
        try:
            value = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise BindingError(f"{label} must be rational") from exc
        if self.positive and value <= 0:
            raise BindingError(f"{label} must be positive")
        return value


def _n_from(low: int) -> Param:
    return Param("int", low, axis=lambda g: range(low, g.nmax + 1))


N0, N1, N2 = _n_from(0), _n_from(1), _n_from(2)
R1 = Param("int", 1, axis=lambda g: range(1, g.rmax + 1))
P0 = Param("int", 0, axis=lambda g: range(g.pmax + 1))
LAM = Param("rational", axis=lambda g: g.lambdas)
# a series identity is checked at two truncation orders to show it does not
# depend on where the series is cut
ORDERS = Param("int", 1, axis=lambda g: (g.order, g.order + 5))
ORDER = Param("int", 1, axis=lambda g: (g.order,))
TOL = Param("rational", positive=True, axis=lambda g: (g.e67_tol,))
SYM = Param("symbolic")

DEFAULT_GRID = Grid()

# axes nest in this order, outermost first, whatever order the params are
# declared in; a binding's keys keep the declared order
_NESTING = ("lambda", "r", "p", "n", "order", "tol")


@dataclass(frozen=True)
class IdentitySpec:
    """One registry entry: description, parameter schema, and checker."""

    id: str
    description: str
    params: dict[str, Param]
    checker: Callable[..., tuple]

    def param_summary(self) -> dict[str, str]:
        return {name: param.describe() for name, param in self.params.items()}

    def bindings(self, grid: Grid) -> Iterator[dict]:
        """Every binding of this identity on grid, in sweep order."""
        declared = [name for name, param in self.params.items() if param.axis]
        swept = sorted(declared, key=_NESTING.index)
        for values in product(*(self.params[name].axis(grid) for name in swept)):
            point = dict(zip(swept, values))
            yield {name: point[name] for name in declared}

    def check(self, binding: dict) -> CheckResult:
        """The checker's result at binding: the one place a CheckResult is built."""
        lhs, rhs, *rest = self.checker(*binding.values())
        note = rest[0] if rest else ""
        passed = rest[1] if len(rest) > 1 else lhs == rhs
        return CheckResult(self.id, dict(binding), lhs, rhs, passed, note)


REGISTRY: dict[str, IdentitySpec] = {}


def identity(ident: str, params: dict[str, Param], description: str):
    """Register the decorated checker as identity ident; it is returned unchanged.

    TypeError if the checker's parameters are not the declared non-symbolic
    params, in order, with lambda spelled lam.
    """
    bound = [name for name, param in params.items() if param.kind != "symbolic"]
    declared = ["lam" if name == "lambda" else name for name in bound]

    def register(checker):
        code = checker.__code__
        taken = list(code.co_varnames[: code.co_argcount])
        if taken != declared:
            raise TypeError(f"{ident}: checker takes {taken}, the schema declares {declared}")
        REGISTRY[ident] = IdentitySpec(ident, description, params, checker)
        return checker

    return register


class Tables:
    """Former Stirling-triangle source of the checkers; nothing in the package uses it.

    Checkers call sequences.s1_triangle and s2_triangle directly.  Only
    __init__, its default builders and _DEFAULT_TABLES are left, because the
    benchmark harness's smoke test pins them; ROADMAP item 11 deletes the rest.
    """

    def __init__(self, s1_builder=sequences.s1_triangle, s2_builder=sequences.s2_triangle):
        self._builders = {"first": s1_builder, "second": s2_builder}


_DEFAULT_TABLES = Tables()


# ---------------------------------------------------------------------------
# checkers


def hyperharmonic_gf(lam, r: int, order: int) -> Series:
    """-log_lam(1-t)/(1-t)^r, the generating function of the hyperharmonic numbers."""
    _need_int("r", r, 1)
    minus_log = -ser_compose(dlog(lam, order), Series((0, -1), order))
    return minus_log * ser_reciprocal(Series([(-1) ** k * comb(r, k) for k in range(r + 1)], order))


@identity("T1", {"r": R1, "lambda": LAM, "order": ORDERS},
          "series -log_lam(1-t)/(1-t)^r generates the degenerate hyperharmonic numbers")
def _check_t1(r, lam, order):
    lhs = hyperharmonic_gf(lam, r, order)
    rhs = Series(sequences.dhyperharmonic_row(order, r, lam), order)
    return lhs, rhs


@identity("T2", {"n": N1, "r": R1, "lambda": LAM},
          "alternating k!-weighted hyperharmonic sum over the second-kind row equals (-1)^n <r>_{n-1} n")
def _check_t2(n, r, lam):
    tri = sequences.s2_triangle(n, lam)
    hyper = sequences.dhyperharmonic_row(n, r, lam)
    signed = [(-1) ** k * factorial(k) * tri.entry(n, k) for k in range(1, n + 1)]
    lhs = rational_dot(hyper[1:], signed)
    rhs = Fraction((-1) ** n) * gfact_rising(Fraction(r), n - 1, lam) * n
    return lhs, rhs


@identity("T3", {"n": N1, "r": R1, "lambda": LAM},
          "hyperharmonic numbers recovered from the first-kind triangle and rising factorials")
def _check_t3(n, r, lam):
    tri = sequences.s1_triangle(n, lam)
    lhs = sequences.dhyperharmonic(n, r, lam)
    rising = [(-1) ** (n - k) * k * gfact_rising(Fraction(r), k - 1, lam) for k in range(1, n + 1)]
    rhs = rational_dot(rising, tri.row(n)[1:]) / factorial(n)
    return lhs, rhs


@identity("T4a", {"n": N0, "lambda": LAM, "x": SYM},
          "first-kind transform of the Euler-family polynomials equals n! sum binom(x,k)(-1/2)^(n-k)")
def _check_t4a(n, lam):
    tri = sequences.s1_triangle(n, lam)
    lhs = poly_combination((tri.entry(n, k), sequences.deuler_poly(k, lam)) for k in range(n + 1))
    # the k = n term alone of T4b's right-hand side: a unit row
    rhs = sequences.binomial_sum((0,) * n + (1,), sequences.euler_weights(n))
    return lhs, rhs


@identity("T4b", {"n": N0, "lambda": LAM, "x": SYM},
          "Euler-family polynomial as a k! S2(n,k)-weighted double binomial sum")
def _check_t4b(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = sequences.deuler_poly(n, lam)
    rhs = sequences.binomial_sum(tri.row(n), sequences.euler_weights(n))
    return lhs, rhs


@identity("E32", {"n": N0, "lambda": LAM},
          "Euler-family polynomial at x=1/2 via central binomial coefficients")
def _check_e32(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = sequences.deuler_value(n, lam, Fraction(1, 2))
    # the inner sum over j <= k is 2**-k P_k, with P_k the prefix sums of
    # C(2j,j)/((1-2j) 2**j), which do not depend on lam
    prefix = accumulate(Fraction(comb(2 * j, j), (1 - 2 * j) * 2**j) for j in range(n + 1))
    weights = [Fraction((-1) ** k * factorial(k), 2**k) * pk for k, pk in enumerate(prefix)]
    rhs = rational_dot(weights, tri.row(n))
    return lhs, rhs


@identity("T5", {"n": N0, "lambda": LAM, "x": SYM},
          "Bernoulli-family polynomial as a dfact-weighted double sum with falling factorials")
def _check_t5(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = sequences.dbernoulli_poly(n, lam)
    # sum_j w_j sum_{k>=j} C(n,k) S2(k,j) (x)_{n-k,lam}, summed over j first:
    # one scalar per k, then one poly_combination over the falling factorials
    weights = [dfact(j, lam) / (j + 1) for j in range(n + 1)]
    falling = list(accumulate((X - m * lam for m in range(n)), mul, initial=Poly.constant(1)))
    rhs = poly_combination(
        (comb(n, k) * rational_dot(weights, tri.row(k)), falling[n - k]) for k in range(n + 1)
    )
    return lhs, rhs


@identity("T6", {"n": N0, "lambda": LAM, "x": SYM},
          "first-kind transform of the Bernoulli-family polynomials equals a binomial dfact sum")
def _check_t6(n, lam):
    tri = sequences.s1_triangle(n, lam)
    lhs = poly_combination((tri.entry(n, k), sequences.dbernoulli_poly(k, lam)) for k in range(n + 1))
    # the k = n term alone of T7's right-hand side: a unit row
    rhs = sequences.binomial_sum((0,) * n + (1,), sequences.bernoulli_weights(n, lam))
    return lhs, rhs


@identity("T7", {"n": N0, "lambda": LAM, "x": SYM},
          "Bernoulli-family polynomial as a k! S2(n,k)-weighted double sum (x=0 instance included)")
def _check_t7(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = sequences.dbernoulli_poly(n, lam)
    rhs = sequences.dbernoulli_poly_stirling(n, lam)
    # the x = 0 instance in its own right: the constant terms against the
    # single sum of k! S2(n,k) dfact(k)/(k+1)!, with k! cancelled
    const_lhs = poly_eval(lhs, 0)
    const_rhs = rational_dot(tri.row(n), [dfact(k, lam) / (k + 1) for k in range(n + 1)])
    if const_lhs != const_rhs:
        return lhs, rhs, f"x=0 instance differs: {const_lhs} vs {const_rhs}", False
    return lhs, rhs, "x=0 instance checked"


@identity("T8", {"n": N1, "lambda": LAM},
          "(n-1)! H_{n,-lam} from Bernoulli-family values at 1-lam through the first-kind triangle at -lam")
def _check_t8(n, lam):
    tri = sequences.s1_triangle(n, -lam)
    lhs = factorial(n - 1) * sequences.dharmonic(n, -lam)
    values = [sequences.dbernoulli_value(k - 1, lam, 1 - lam) for k in range(1, n + 1)]
    signed = [(-1) ** (n - k) * v for k, v in enumerate(values, 1)]
    rhs = rational_dot(signed, tri.row(n)[1:])
    return lhs, rhs


@identity("T9", {"n": N1, "lambda": LAM},
          "Bernoulli-family value at 2*lam+1 from harmonic numbers through the second-kind triangle")
def _check_t9(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = sequences.dbernoulli_value(n - 1, -lam, 2 * lam + 1)
    weighted = [(-1) ** (n - k) * factorial(k - 1) * sequences.dharmonic(k, -lam) for k in range(1, n + 1)]
    rhs = rational_dot(weighted, tri.row(n)[1:])
    return lhs, rhs


@identity("T10", {"n": N1, "lambda": LAM},
          "dfact(n-1)/n as a first-kind transform of Bernoulli-family values at 1-lam")
def _check_t10(n, lam):
    tri = sequences.s1_triangle(n, lam)
    lhs = dfact(n - 1, lam) / n
    values = [sequences.dbernoulli_value(k - 1, lam, 1 - lam) for k in range(1, n + 1)]
    rhs = rational_dot(values, tri.row(n)[1:])
    return lhs, rhs


@identity("T11a", {"n": N1, "lambda": LAM, "x": SYM},
          "Bell-family recurrence phi_{n+1} = x phi_n + (x d/dx - n lam) phi_n")
def _check_t11a(n, lam):
    phi_n = sequences.dbell_poly(n, lam)
    lhs = sequences.dbell_poly(n + 1, lam)
    rhs = X * phi_n + (X * poly_derivative(phi_n) - phi_n * (n * lam))
    return lhs, rhs


@identity("T11b", {"n": N1, "lambda": LAM, "x": SYM},
          "Bell-family recurrence as x times a binomial convolution with (1-lam)_{k,lam}")
def _check_t11b(n, lam):
    lhs = sequences.dbell_poly(n + 1, lam)
    conv = poly_combination(
        (comb(n, k) * gfact_falling(1 - lam, n - k, lam), sequences.dbell_poly(k, lam))
        for k in range(n + 1)
    )
    rhs = X * conv
    return lhs, rhs


@identity("T12", {"n": N1, "lambda": LAM, "x": SYM},
          "second-kind sum x^k/k as a Bernoulli-Bell convolution with 1/n prefactor")
def _check_t12(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = Poly(
        [Fraction(0)] + [tri.entry(n, k) / k for k in range(1, n + 1)]
    )
    conv = poly_combination(
        (comb(n, j) * sequences.dbernoulli_value(j, lam, 1 - lam), sequences.dbell_poly(n - j, lam))
        for j in range(n)
    )
    rhs = conv * Fraction(1, n)
    # the x = 1 specialization that the general statement implies carries a
    # 1/n prefactor; the variant with a 1/n! prefactor is evaluated and
    # documented here, never enforced (the two agree only for n <= 2)
    at_one = poly_eval(lhs, 1)
    printed = poly_eval(conv, 1) / factorial(n)
    if at_one == printed:
        note = "x=1 variant with 1/n! prefactor matches"
    else:
        note = f"x=1 variant with 1/n! prefactor differs: {at_one} vs {printed}"
    return lhs, rhs, note


@identity("E61", {"n": N1, "lambda": LAM, "x": SYM},
          "second-kind sum x^k/k^2 as a nested Bernoulli-Bell convolution")
def _check_e61(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = Poly(
        [Fraction(0)] + [tri.entry(n, k) / (k * k) for k in range(1, n + 1)]
    )
    # beta[i] is the Bernoulli-family value at 1-lam
    beta = [sequences.dbernoulli_value(i, lam, 1 - lam) for i in range(n)]
    # (1/n) sum_j C(n,j) beta_j/(n-j) sum_{m>=1} C(n-j,m) beta_{n-j-m} Bell_m,
    # summed over j first: one scalar per Bell_m, then one poly_combination
    # beta[n-m::-1] runs beta[n-j-m] for j = 0..n-m
    rhs = poly_combination(
        (
            rational_dot(
                [Fraction(comb(n, j) * comb(n - j, m), n * (n - j)) * beta[j] for j in range(n - m + 1)],
                beta[n - m :: -1],
            ),
            sequences.dbell_poly(m, lam),
        )
        for m in range(1, n + 1)
    )
    return lhs, rhs


def _weighted_row_poly(tri, n: int) -> Poly:
    """sum_{k>=1} S2(n,k) (k-1)! x**k."""
    return Poly(
        [Fraction(0)] + [tri.entry(n, k) * factorial(k - 1) for k in range(1, n + 1)]
    )


@identity("T13", {"n": N1, "lambda": LAM, "x": SYM},
          "(1+x) F_n against (k-1)!-weighted second-kind rows, plus its integral restatement")
def _check_t13(n, lam):
    tri = sequences.s2_triangle(n + 1, lam)
    f_n = sequences.dfubini_poly(n, lam)
    lhs = (X + 1) * f_n
    rhs = _weighted_row_poly(tri, n + 1) + _weighted_row_poly(tri, n) * (n * lam)
    f_n1 = sequences.dfubini_poly(n + 1, lam)
    integral_rhs = poly_int_over_t(f_n1) + poly_int_over_t(f_n) * (n * lam)
    if lhs != integral_rhs:
        return lhs, rhs, f"integral restatement differs: {integral_rhs}", False
    return lhs, rhs, "integral restatement agrees"


@identity("T13r", {"n": N0, "lambda": LAM},
          "(k-1)!-weighted row sums equal 2 F_n(1) for n >= 1 and 1 at n = 0")
def _check_t13r(n, lam):
    tri = sequences.s2_triangle(n + 1, lam)
    # factorials[k-1] is (k-1)!, paired with row entries k = 1, 2, ...
    factorials = list(accumulate(range(1, n + 1), mul, initial=1))
    lhs = rational_dot(tri.row(n + 1)[1:], factorials)
    lhs += n * lam * rational_dot(tri.row(n)[1:], factorials)
    if n >= 1:
        rhs = 2 * poly_eval(sequences.dfubini_poly(n, lam), 1)
    else:
        rhs = Fraction(1)
    return lhs, rhs


@identity("T14", {"n": N1, "lambda": LAM, "x": SYM},
          "Fubini-family recurrence F_{n+1} = (x - n lam) F_n + (x + x^2) F_n'")
def _check_t14(n, lam):
    lhs = sequences.dfubini_poly(n + 1, lam)
    f_n = sequences.dfubini_poly(n, lam)
    rhs = (X - n * lam) * f_n + (X + X * X) * poly_derivative(f_n)
    return lhs, rhs


@identity("T15", {"n": N2, "lambda": LAM},
          "dfact-weighted second-kind row sum equals (n-1)(1)_{n-1,lam}")
def _check_t15(n, lam):
    tri = sequences.s2_triangle(n, lam)
    lhs = rational_dot([dfact(k - 2, lam) for k in range(2, n + 1)], tri.row(n)[2:])
    rhs = (n - 1) * gfact_falling(Fraction(1), n - 1, lam)
    return lhs, rhs


@identity("C15", {"n": N2},
          "classical limit of the dfact-weighted row sum, against classical Stirling numbers")
def _check_c15(n):
    rows = classical.stirling2_rows(n)
    lhs = Fraction(sum((-1) ** k * factorial(k - 2) * rows[n][k] for k in range(2, n + 1)))
    rhs = Fraction(n - 1)
    return lhs, rhs


@identity("E44", {"lambda": LAM, "order": ORDERS},
          "weight-2 polylogarithm at -t/(1-t) has coefficients -H_{n,-lam}/n")
def _check_e44(lam, order):
    inner = Series([Fraction(0)] + [Fraction(-1)] * order, order)
    lhs = ser_compose(dpolylog(2, lam, order), inner)
    rhs = Series(
        [Fraction(0)]
        + [-(sequences.dharmonic(n, -lam) / n) for n in range(1, order + 1)],
        order,
    )
    return lhs, rhs


@identity("E59", {"p": P0, "n": N1, "lambda": LAM},
          "power sums of shifted falling factorials via Bernoulli-family differences")
def _check_e59(p, n, lam):
    lhs = sequences.power_sum(p, n, lam)
    upper = sequences.dbernoulli_value(p + 1, lam, n + 1 - lam)
    rhs = (upper - sequences.dbernoulli_value(p + 1, lam, 1 - lam)) / (p + 1)
    return lhs, rhs


@identity("E66", {"n": N0, "lambda": LAM, "order": ORDER},
          "geometric transform of the Fubini-family polynomial generates (k)_{n,lam}")
def _check_e66(n, lam, order):
    f_n = sequences.dfubini_poly(n, lam)
    outer = Series(f_n.coeffs or (Fraction(0),), order)
    inner = Series([Fraction(0)] + [Fraction(1)] * order, order)  # x/(1-x)
    lhs = ser_compose(outer, inner) * ser_reciprocal(Series((1, -1), order))
    rhs = Series(
        [gfact_falling(Fraction(k), n, lam) for k in range(order + 1)], order
    )
    return lhs, rhs


def _e67_cutoff(n: int, lam: Fraction, tol: Fraction) -> tuple[int, Fraction]:
    """Smallest K with a certified bound on the dropped tail.

    |(k)_{n,lam}| <= (k + c)**n with c = n|lam|, and past K the majorant
    terms shrink by at least rho = ((K+1+c)/(K+c))**n / 2, so the tail from
    K is at most b_K / (1 - rho) with b_K = (K+c)**n / 2**(K+1).  With
    c = u/v, A = (vK+u)**n and B = (v(K+1)+u)**n, rho < 1 is B < 2A and the
    bound is 2A**2 / (v**n 2**(K+1) (2A - B)), so both tests are integer
    inequalities.
    """
    c = n * abs(lam)
    u, v = c.numerator, c.denominator
    tol_num, tol_den = tol.numerator, tol.denominator
    vn = v**n
    k = 1
    a = (v * k + u) ** n
    while True:
        b = (v * (k + 1) + u) ** n
        if b < 2 * a:
            num, den = 2 * a * a, vn * 2 ** (k + 1) * (2 * a - b)
            if num * tol_den <= tol_num * den:
                return k, Fraction(num, den)
        k += 1
        a = b


def _e67_partial(n: int, lam: Fraction, cutoff: int) -> Fraction:
    """sum over k < cutoff of (k)_{n,lam} / 2**(k+1), as one integer sum.

    With lam = p/q, q**n (k)_{n,lam} is the integer prod_j (k*q - j*p), so
    the sum is sum_k prod_j (k*q - j*p) * 2**(cutoff-k-1) over q**n 2**cutoff.
    """
    p, q = lam.numerator, lam.denominator
    total = sum(prod(k * q - j * p for j in range(n)) << (cutoff - k - 1) for k in range(cutoff))
    return Fraction(total, q**n << cutoff)


@identity("E67", {"n": N0, "lambda": LAM, "tol": TOL},
          "F_n(1) as a tail-bounded exact-rational binary sum")
def _check_e67(n, lam, tol):
    exact = poly_eval(sequences.dfubini_poly(n, lam), 1)
    cutoff, bound = _e67_cutoff(n, lam, tol)
    partial = _e67_partial(n, lam, cutoff)
    note = f"partial sum over k < {cutoff}; certified tail bound {float(bound):.3e}"
    return exact, partial, note, abs(partial - exact) <= tol


def _validated(spec: IdentitySpec, binding: dict) -> dict:
    known = [name for name, param in spec.params.items() if param.kind != "symbolic"]
    extra = set(binding) - set(known)
    if extra:
        raise BindingError(f"{spec.id}: unexpected parameters {sorted(extra)}")
    out = {}
    for name in known:
        if name not in binding:
            raise BindingError(f"{spec.id}: missing parameter {name!r}")
        out[name] = spec.params[name].validate(f"{spec.id}: {name}", binding[name])
    return out


def run_identity(identity_id: str, binding: dict) -> CheckResult:
    """Check one identity at one binding; pure for a fixed binding."""
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise UnknownIdentityError(identity_id)
    return spec.check(_validated(spec, binding))


def list_identities() -> list[IdentitySpec]:
    """Registry entries in their stable order."""
    return list(REGISTRY.values())


@dataclass(frozen=True)
class IdentityResult:
    """Aggregate over one identity's sub-grid."""

    id: str
    pass_count: int
    fail_count: int
    failures: tuple[CheckResult, ...]


@dataclass(frozen=True)
class SuiteReport:
    grid: Grid
    results: tuple[IdentityResult, ...]
    all_pass: bool


def selected_ids(grid: Grid, ids: Iterable[str] | None = None) -> list[str]:
    """The ids that run_suite(grid, ids) sweeps, in registry order; ids=None
    selects every identity.

    UnknownIdentityError names an id not in the registry.  BindingError
    refuses an id named more than once in ids, as Grid refuses a repeated
    lambda, an id named in ids whose sweep is empty, as its check would pass
    vacuously, and a selection in which no identity has a binding, ids=None
    included.  No checker runs.
    """
    if ids is None:
        selected = list(REGISTRY)
    else:
        # a str is an iterable of one-letter ids
        if isinstance(ids, str):
            raise TypeError(f"ids must be an iterable of identity ids, not the str {ids!r}")
        wanted = list(ids)
        for ident in wanted:
            if ident not in REGISTRY:
                raise UnknownIdentityError(ident)
        for i, ident in enumerate(wanted):
            if ident in wanted[:i]:
                raise BindingError(f"ids: {ident} appears more than once")
        empty = [ident for ident in wanted if next(REGISTRY[ident].bindings(grid), None) is None]
        if empty:
            raise BindingError(f"no bindings checked for {', '.join(empty)}; widen the grid")
        selected = [ident for ident in REGISTRY if ident in set(wanted)]
    if all(next(REGISTRY[ident].bindings(grid), None) is None for ident in selected):
        raise BindingError("no bindings checked for any selected identity; widen the grid")
    return selected


def run_suite(grid: Grid = DEFAULT_GRID, ids: Iterable[str] | None = None) -> SuiteReport:
    """Sweep every selected identity over its applicable sub-grid.

    Failures are data, not errors: each one is kept as a full CheckResult so
    a counterexample can be inspected without re-running.  Results are
    reported in registry order with bindings in enumeration order, so the
    report content is deterministic.

    The ids are selected by selected_ids(grid, ids), which raises before any
    checker runs.
    """
    results = []
    for ident in selected_ids(grid, ids):
        spec = REGISTRY[ident]
        passes = 0
        failures = []
        for binding in spec.bindings(grid):
            res = spec.check(binding)
            if res.passed:
                passes += 1
            else:
                failures.append(res)
        results.append(IdentityResult(ident, passes, len(failures), tuple(failures)))
    return SuiteReport(grid, tuple(results), all(r.fail_count == 0 for r in results))


# ---------------------------------------------------------------------------
# JSON rendering (runtime is intentionally not part of the report schema so
# that output for a fixed configuration is byte-for-byte reproducible)


def _value_json(value):
    if isinstance(value, Poly):
        return {"kind": "poly", "coeffs": [str(c) for c in value.coeffs]}
    if isinstance(value, Series):
        return {"kind": "series", "order": value.order, "coeffs": [str(c) for c in value.coeffs]}
    return {"kind": "rational", "value": str(value)}


def _binding_json(binding: dict) -> dict:
    out = {}
    for key, value in binding.items():
        out[key] = value if isinstance(value, int) else str(value)
    return out


def check_result_json(res: CheckResult) -> dict:
    return {
        "id": res.id,
        "binding": _binding_json(res.binding),
        "lhs": _value_json(res.lhs),
        "rhs": _value_json(res.rhs),
        "pass": res.passed,
        "note": res.note,
    }


def grid_json(grid: Grid) -> dict:
    return {
        "nmax": grid.nmax,
        "rmax": grid.rmax,
        "pmax": grid.pmax,
        "lambdas": [str(lam) for lam in grid.lambdas],
        "order": grid.order,
        "e67_tolerance": str(grid.e67_tol),
    }


def suite_report_json(report: SuiteReport) -> dict:
    return {
        "grid": grid_json(report.grid),
        "results": [
            {
                "id": r.id,
                "pass_count": r.pass_count,
                "fail_count": r.fail_count,
                "failures": [check_result_json(f) for f in r.failures],
            }
            for r in report.results
        ],
        "all_pass": report.all_pass,
    }
