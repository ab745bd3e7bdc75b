"""Registry of machine-checkable identities and the grid sweep runner.

Each checker is declared with `@identity(id, params, description)`.  The
params map each parameter name to a Param: its kind, its domain, and the
Grid axis it sweeps.  An identity's bindings over a Grid are the product
of its axes, so no identity has a hand-written enumerator.  All checks
except E67 compare exact objects (Fraction, Poly, or Series); identities
with a free variable x are compared as polynomials, coefficient by
coefficient, never by sampling.  E67 is the one numeric check: an
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
    """Parameter sweep for run_suite; the defaults are the acceptance grid."""

    nmax: int = 12
    rmax: int = 4
    pmax: int = 6
    lambdas: tuple[Fraction, ...] = DEFAULT_LAMBDAS
    order: int = 24
    e67_tol: Fraction = Fraction(1, 10**30)


DEFAULT_GRID = Grid()


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

    def validate(self, ident: str, name: str, value):
        """The value as the checker receives it; BindingError if outside the domain."""
        if self.kind == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise BindingError(f"{ident}: {name} must be an integer")
            if value < self.min:
                raise BindingError(f"{ident}: {name} = {value} outside schema ({self.describe()})")
            return value
        try:
            value = Fraction(value)
        except (TypeError, ValueError) as exc:
            raise BindingError(f"{ident}: {name} must be rational") from exc
        if self.positive and value <= 0:
            raise BindingError(f"{ident}: {name} must be positive")
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

# axes nest in this order, outermost first, whatever order the params are
# declared in; a binding's keys keep the declared order
_NESTING = ("lambda", "r", "p", "n", "order", "tol")


@dataclass(frozen=True)
class IdentitySpec:
    """One registry entry: description, parameter schema, and checker."""

    id: str
    description: str
    params: dict[str, Param]
    checker: Callable[[dict, "Tables"], CheckResult]

    def param_summary(self) -> dict[str, str]:
        return {name: param.describe() for name, param in self.params.items()}

    def bindings(self, grid: Grid) -> Iterator[dict]:
        """Every binding of this identity on grid, in sweep order.

        Each axis value is validated here, when this is called, so a bad
        grid value raises BindingError before any binding is produced.
        """
        declared = [name for name, param in self.params.items() if param.axis]
        swept = sorted(declared, key=_NESTING.index)
        axes = [
            [self.params[name].validate(self.id, name, v) for v in self.params[name].axis(grid)]
            for name in swept
        ]

        def expand():
            for values in product(*axes):
                point = dict(zip(swept, values))
                yield {name: point[name] for name in declared}

        return expand()


REGISTRY: dict[str, IdentitySpec] = {}


def identity(ident: str, params: dict[str, Param], description: str):
    """Register the decorated checker as identity ident; it is returned unchanged."""

    def register(checker):
        REGISTRY[ident] = IdentitySpec(ident, description, params, checker)
        return checker

    return register


class Tables:
    """Stirling-triangle source for a run of checks.

    The builders are injectable so tests can verify the checks really
    depend on the recurrences (mutation sensitivity); the default builders
    are the honest ones from the sequences module, whose store caches the
    triangles; Tables itself holds no state.
    """

    def __init__(self, s1_builder=sequences.s1_triangle, s2_builder=sequences.s2_triangle):
        self._builders = {"first": s1_builder, "second": s2_builder}

    def s1(self, nmax: int, lam) -> sequences.StirlingTriangle:
        return self._builders["first"](nmax, lam)

    def s2(self, nmax: int, lam) -> sequences.StirlingTriangle:
        return self._builders["second"](nmax, lam)

    def bell(self, n: int, lam) -> Poly:
        return sequences.bell_from_triangle(self.s2(n, lam), n)

    def fubini(self, n: int, lam) -> Poly:
        return sequences.fubini_from_triangle(self.s2(n, lam), n)


_DEFAULT_TABLES = Tables()


def _result(ident: str, binding: dict, lhs, rhs, note: str = "") -> CheckResult:
    return CheckResult(ident, dict(binding), lhs, rhs, lhs == rhs, note)


# ---------------------------------------------------------------------------
# checkers


def hyperharmonic_gf(lam, r: int, order: int) -> Series:
    """-log_lam(1-t)/(1-t)^r, the generating function of the hyperharmonic numbers."""
    minus_log = -ser_compose(dlog(lam, order), Series((0, -1), order))
    return minus_log * ser_reciprocal(Series([(-1) ** k * comb(r, k) for k in range(r + 1)], order))


@identity("T1", {"r": R1, "lambda": LAM, "order": ORDERS},
          "series -log_lam(1-t)/(1-t)^r generates the degenerate hyperharmonic numbers")
def _check_t1(b, tab):
    lam, r, order = b["lambda"], b["r"], b["order"]
    lhs = hyperharmonic_gf(lam, r, order)
    rhs = Series(sequences.dhyperharmonic_row(order, r, lam), order)
    return _result("T1", b, lhs, rhs)


@identity("T2", {"n": N1, "r": R1, "lambda": LAM},
          "alternating k!-weighted hyperharmonic sum over the second-kind row equals (-1)^n <r>_{n-1} n")
def _check_t2(b, tab):
    n, r, lam = b["n"], b["r"], b["lambda"]
    tri = tab.s2(n, lam)
    hyper = sequences.dhyperharmonic_row(n, r, lam)
    signed = [(-1) ** k * factorial(k) * tri.entry(n, k) for k in range(1, n + 1)]
    lhs = rational_dot(hyper[1:], signed)
    rhs = Fraction((-1) ** n) * gfact_rising(Fraction(r), n - 1, lam) * n
    return _result("T2", b, lhs, rhs)


@identity("T3", {"n": N1, "r": R1, "lambda": LAM},
          "hyperharmonic numbers recovered from the first-kind triangle and rising factorials")
def _check_t3(b, tab):
    n, r, lam = b["n"], b["r"], b["lambda"]
    tri = tab.s1(n, lam)
    lhs = sequences.dhyperharmonic(n, r, lam)
    rising = [(-1) ** (n - k) * k * gfact_rising(Fraction(r), k - 1, lam) for k in range(1, n + 1)]
    rhs = rational_dot(rising, tri.row(n)[1:]) / factorial(n)
    return _result("T3", b, lhs, rhs)


@identity("T4a", {"n": N0, "lambda": LAM, "x": SYM},
          "first-kind transform of the Euler-family polynomials equals n! sum binom(x,k)(-1/2)^(n-k)")
def _check_t4a(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s1(n, lam)
    lhs = poly_combination((tri.entry(n, k), sequences.deuler_poly(k, lam)) for k in range(n + 1))
    # the k = n term alone of euler_from_triangle: a unit row
    rhs = sequences.binomial_sum((0,) * n + (1,), sequences.euler_weights(n))
    return _result("T4a", b, lhs, rhs)


@identity("T4b", {"n": N0, "lambda": LAM, "x": SYM},
          "Euler-family polynomial as a k! S2(n,k)-weighted double binomial sum")
def _check_t4b(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
    lhs = sequences.deuler_poly(n, lam)
    rhs = sequences.euler_from_triangle(tri, n)
    return _result("T4b", b, lhs, rhs)


@identity("E32", {"n": N0, "lambda": LAM},
          "Euler-family polynomial at x=1/2 via central binomial coefficients")
def _check_e32(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
    lhs = sequences.deuler_value(n, lam, Fraction(1, 2))
    # the inner sum over j <= k is 2**-k P_k, with P_k the prefix sums of
    # C(2j,j)/((1-2j) 2**j), which do not depend on lam
    prefix = accumulate(Fraction(comb(2 * j, j), (1 - 2 * j) * 2**j) for j in range(n + 1))
    weights = [Fraction((-1) ** k * factorial(k), 2**k) * pk for k, pk in enumerate(prefix)]
    rhs = rational_dot(weights, tri.row(n))
    return _result("E32", b, lhs, rhs)


@identity("T5", {"n": N0, "lambda": LAM, "x": SYM},
          "Bernoulli-family polynomial as a dfact-weighted double sum with falling factorials")
def _check_t5(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
    lhs = sequences.dbernoulli_poly(n, lam)
    # sum_j w_j sum_{k>=j} C(n,k) S2(k,j) (x)_{n-k,lam}, summed over j first:
    # one scalar per k, then one poly_combination over the falling factorials
    weights = [dfact(j, lam) / (j + 1) for j in range(n + 1)]
    falling = list(accumulate((X - m * lam for m in range(n)), mul, initial=Poly.constant(1)))
    rhs = poly_combination(
        (comb(n, k) * rational_dot(weights, tri.row(k)), falling[n - k]) for k in range(n + 1)
    )
    return _result("T5", b, lhs, rhs)


@identity("T6", {"n": N0, "lambda": LAM, "x": SYM},
          "first-kind transform of the Bernoulli-family polynomials equals a binomial dfact sum")
def _check_t6(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s1(n, lam)
    lhs = poly_combination((tri.entry(n, k), sequences.dbernoulli_poly(k, lam)) for k in range(n + 1))
    # the k = n term alone of bernoulli_from_triangle: a unit row
    rhs = sequences.binomial_sum((0,) * n + (1,), sequences.bernoulli_weights(n, lam))
    return _result("T6", b, lhs, rhs)


@identity("T7", {"n": N0, "lambda": LAM, "x": SYM},
          "Bernoulli-family polynomial as a k! S2(n,k)-weighted double sum (x=0 instance included)")
def _check_t7(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
    lhs = sequences.dbernoulli_poly(n, lam)
    rhs = sequences.bernoulli_from_triangle(tri, n, lam)
    # the x = 0 instance in its own right: the constant terms against the
    # single sum of k! S2(n,k) dfact(k)/(k+1)!, with k! cancelled
    const_lhs = poly_eval(lhs, 0)
    const_rhs = rational_dot(tri.row(n), [dfact(k, lam) / (k + 1) for k in range(n + 1)])
    res = _result("T7", b, lhs, rhs, note="x=0 instance checked")
    if const_lhs != const_rhs:
        return CheckResult(
            "T7", dict(b), lhs, rhs, False, f"x=0 instance differs: {const_lhs} vs {const_rhs}"
        )
    return res


@identity("T8", {"n": N1, "lambda": LAM},
          "(n-1)! H_{n,-lam} from Bernoulli-family values at 1-lam through the first-kind triangle at -lam")
def _check_t8(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s1(n, -lam)
    lhs = factorial(n - 1) * sequences.dharmonic(n, -lam)
    values = [sequences.dbernoulli_value(k - 1, lam, 1 - lam) for k in range(1, n + 1)]
    signed = [(-1) ** (n - k) * v for k, v in enumerate(values, 1)]
    rhs = rational_dot(signed, tri.row(n)[1:])
    return _result("T8", b, lhs, rhs)


@identity("T9", {"n": N1, "lambda": LAM},
          "Bernoulli-family value at 2*lam+1 from harmonic numbers through the second-kind triangle")
def _check_t9(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
    lhs = sequences.dbernoulli_value(n - 1, -lam, 2 * lam + 1)
    weighted = [(-1) ** (n - k) * factorial(k - 1) * sequences.dharmonic(k, -lam) for k in range(1, n + 1)]
    rhs = rational_dot(weighted, tri.row(n)[1:])
    return _result("T9", b, lhs, rhs)


@identity("T10", {"n": N1, "lambda": LAM},
          "dfact(n-1)/n as a first-kind transform of Bernoulli-family values at 1-lam")
def _check_t10(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s1(n, lam)
    lhs = dfact(n - 1, lam) / n
    values = [sequences.dbernoulli_value(k - 1, lam, 1 - lam) for k in range(1, n + 1)]
    rhs = rational_dot(values, tri.row(n)[1:])
    return _result("T10", b, lhs, rhs)


@identity("T11a", {"n": N1, "lambda": LAM, "x": SYM},
          "Bell-family recurrence phi_{n+1} = x phi_n + (x d/dx - n lam) phi_n")
def _check_t11a(b, tab):
    n, lam = b["n"], b["lambda"]
    phi_n = tab.bell(n, lam)
    lhs = tab.bell(n + 1, lam)
    rhs = X * phi_n + (X * poly_derivative(phi_n) - phi_n * (n * lam))
    return _result("T11a", b, lhs, rhs)


@identity("T11b", {"n": N1, "lambda": LAM, "x": SYM},
          "Bell-family recurrence as x times a binomial convolution with (1-lam)_{k,lam}")
def _check_t11b(b, tab):
    n, lam = b["n"], b["lambda"]
    lhs = tab.bell(n + 1, lam)
    conv = poly_combination(
        (comb(n, k) * gfact_falling(1 - lam, n - k, lam), tab.bell(k, lam)) for k in range(n + 1)
    )
    rhs = X * conv
    return _result("T11b", b, lhs, rhs)


@identity("T12", {"n": N1, "lambda": LAM, "x": SYM},
          "second-kind sum x^k/k as a Bernoulli-Bell convolution with 1/n prefactor")
def _check_t12(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
    lhs = Poly(
        [Fraction(0)] + [tri.entry(n, k) / k for k in range(1, n + 1)]
    )
    conv = poly_combination(
        (comb(n, j) * sequences.dbernoulli_value(j, lam, 1 - lam), tab.bell(n - j, lam))
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
    return _result("T12", b, lhs, rhs, note=note)


@identity("E61", {"n": N1, "lambda": LAM, "x": SYM},
          "second-kind sum x^k/k^2 as a nested Bernoulli-Bell convolution")
def _check_e61(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
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
            tab.bell(m, lam),
        )
        for m in range(1, n + 1)
    )
    return _result("E61", b, lhs, rhs)


def _weighted_row_poly(tri, n: int) -> Poly:
    """sum_{k>=1} S2(n,k) (k-1)! x**k."""
    return Poly(
        [Fraction(0)] + [tri.entry(n, k) * factorial(k - 1) for k in range(1, n + 1)]
    )


@identity("T13", {"n": N1, "lambda": LAM, "x": SYM},
          "(1+x) F_n against (k-1)!-weighted second-kind rows, plus its integral restatement")
def _check_t13(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n + 1, lam)
    f_n = sequences.fubini_from_triangle(tri, n)
    lhs = (X + 1) * f_n
    rhs = _weighted_row_poly(tri, n + 1) + _weighted_row_poly(tri, n) * (n * lam)
    res = _result("T13", b, lhs, rhs, note="integral restatement agrees")
    f_n1 = sequences.fubini_from_triangle(tri, n + 1)
    integral_rhs = poly_int_over_t(f_n1) + poly_int_over_t(f_n) * (n * lam)
    if lhs != integral_rhs:
        return CheckResult(
            "T13", dict(b), lhs, rhs, False, f"integral restatement differs: {integral_rhs}"
        )
    return res


@identity("T13r", {"n": N0, "lambda": LAM},
          "(k-1)!-weighted row sums equal 2 F_n(1) for n >= 1 and 1 at n = 0")
def _check_t13r(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n + 1, lam)
    # factorials[k-1] is (k-1)!, paired with row entries k = 1, 2, ...
    factorials = list(accumulate(range(1, n + 1), mul, initial=1))
    lhs = rational_dot(tri.row(n + 1)[1:], factorials)
    lhs += n * lam * rational_dot(tri.row(n)[1:], factorials)
    if n >= 1:
        rhs = 2 * poly_eval(sequences.fubini_from_triangle(tri, n), 1)
    else:
        rhs = Fraction(1)
    return _result("T13r", b, lhs, rhs)


@identity("T14", {"n": N1, "lambda": LAM, "x": SYM},
          "Fubini-family recurrence F_{n+1} = (x - n lam) F_n + (x + x^2) F_n'")
def _check_t14(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n + 1, lam)
    lhs = sequences.fubini_from_triangle(tri, n + 1)
    f_n = sequences.fubini_from_triangle(tri, n)
    rhs = (X - n * lam) * f_n + (X + X * X) * poly_derivative(f_n)
    return _result("T14", b, lhs, rhs)


@identity("T15", {"n": N2, "lambda": LAM},
          "dfact-weighted second-kind row sum equals (n-1)(1)_{n-1,lam}")
def _check_t15(b, tab):
    n, lam = b["n"], b["lambda"]
    tri = tab.s2(n, lam)
    lhs = rational_dot([dfact(k - 2, lam) for k in range(2, n + 1)], tri.row(n)[2:])
    rhs = (n - 1) * gfact_falling(Fraction(1), n - 1, lam)
    return _result("T15", b, lhs, rhs)


@identity("C15", {"n": N2},
          "classical limit of the dfact-weighted row sum, against classical Stirling numbers")
def _check_c15(b, tab):
    n = b["n"]
    rows = classical.stirling2_rows(n)
    lhs = Fraction(sum((-1) ** k * factorial(k - 2) * rows[n][k] for k in range(2, n + 1)))
    rhs = Fraction(n - 1)
    return _result("C15", b, lhs, rhs)


@identity("E44", {"lambda": LAM, "order": ORDERS},
          "weight-2 polylogarithm at -t/(1-t) has coefficients -H_{n,-lam}/n")
def _check_e44(b, tab):
    lam, order = b["lambda"], b["order"]
    inner = Series([Fraction(0)] + [Fraction(-1)] * order, order)
    lhs = ser_compose(dpolylog(2, lam, order), inner)
    rhs = Series(
        [Fraction(0)]
        + [-(sequences.dharmonic(n, -lam) / n) for n in range(1, order + 1)],
        order,
    )
    return _result("E44", b, lhs, rhs)


@identity("E59", {"p": P0, "n": N1, "lambda": LAM},
          "power sums of shifted falling factorials via Bernoulli-family differences")
def _check_e59(b, tab):
    p, n, lam = b["p"], b["n"], b["lambda"]
    lhs = sequences.power_sum(p, n, lam)
    upper = sequences.dbernoulli_value(p + 1, lam, n + 1 - lam)
    rhs = (upper - sequences.dbernoulli_value(p + 1, lam, 1 - lam)) / (p + 1)
    return _result("E59", b, lhs, rhs)


@identity("E66", {"n": N0, "lambda": LAM, "order": ORDER},
          "geometric transform of the Fubini-family polynomial generates (k)_{n,lam}")
def _check_e66(b, tab):
    n, lam, order = b["n"], b["lambda"], b["order"]
    f_n = tab.fubini(n, lam)
    outer = Series(f_n.coeffs or (Fraction(0),), order)
    inner = Series([Fraction(0)] + [Fraction(1)] * order, order)  # x/(1-x)
    lhs = ser_compose(outer, inner) * ser_reciprocal(Series((1, -1), order))
    rhs = Series(
        [gfact_falling(Fraction(k), n, lam) for k in range(order + 1)], order
    )
    return _result("E66", b, lhs, rhs)


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
def _check_e67(b, tab):
    n, lam, tol = b["n"], b["lambda"], b["tol"]
    exact = poly_eval(tab.fubini(n, lam), 1)
    cutoff, bound = _e67_cutoff(n, lam, tol)
    partial = _e67_partial(n, lam, cutoff)
    passed = abs(partial - exact) <= tol
    note = f"partial sum over k < {cutoff}; certified tail bound {float(bound):.3e}"
    return CheckResult("E67", dict(b), exact, partial, passed, note)


ALL_IDENTITY_IDS = tuple(REGISTRY)


def _validated(spec: IdentitySpec, binding: dict) -> dict:
    known = [name for name, param in spec.params.items() if param.kind != "symbolic"]
    extra = set(binding) - set(known)
    if extra:
        raise BindingError(f"{spec.id}: unexpected parameters {sorted(extra)}")
    out = {}
    for name in known:
        if name not in binding:
            raise BindingError(f"{spec.id}: missing parameter {name!r}")
        out[name] = spec.params[name].validate(spec.id, name, binding[name])
    return out


def run_identity(identity_id: str, binding: dict, tables: Tables | None = None) -> CheckResult:
    """Check one identity at one binding; pure for a fixed binding."""
    spec = REGISTRY.get(identity_id)
    if spec is None:
        raise UnknownIdentityError(identity_id)
    return spec.checker(_validated(spec, binding), tables if tables is not None else _DEFAULT_TABLES)


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


def run_suite(
    grid: Grid = DEFAULT_GRID,
    ids: Iterable[str] | None = None,
    tables: Tables | None = None,
) -> SuiteReport:
    """Sweep every selected identity over its applicable sub-grid.

    Failures are data, not errors: each one is kept as a full CheckResult so
    a counterexample can be inspected without re-running.  Results are
    reported in registry order with bindings in enumeration order, so the
    report content is deterministic.
    """
    if ids is None:
        selected = list(REGISTRY)
    else:
        wanted = list(ids)
        for ident in wanted:
            if ident not in REGISTRY:
                raise UnknownIdentityError(ident)
        selected = [ident for ident in REGISTRY if ident in set(wanted)]
    tables = tables if tables is not None else _DEFAULT_TABLES
    # a bound below every domain on its axis would pass on the other identities
    for bound, param in (("nmax", N0), ("rmax", R1), ("pmax", P0)):
        value = getattr(grid, bound)
        if value < param.min:
            raise BindingError(f"{bound} = {value} is below {param.min}, the least value any identity takes")
    # bindings() validates every axis value, so a bad grid value is reported
    # before any checker runs
    sweeps = [(ident, REGISTRY[ident].bindings(grid)) for ident in selected]
    results = []
    for ident, bindings in sweeps:
        checker = REGISTRY[ident].checker
        passes = 0
        failures = []
        for binding in bindings:
            res = checker(binding, tables)
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
        return {
            "kind": "series",
            "order": value.order,
            "coeffs": [
                [str(c) for c in v.coeffs] if isinstance(v, Poly) else str(v)
                for v in value.coeffs
            ],
        }
    return {"kind": "rational", "value": str(Fraction(value))}


def _binding_json(binding: dict) -> dict:
    out = {}
    for key, value in binding.items():
        out[key] = value if isinstance(value, int) else str(Fraction(value))
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
