"""Truncated power series engine."""

import operator
import random
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st

from degenmath import series
from degenmath.algebra import Poly, X, dfact, gfact_falling
from degenmath.series import (
    Series,
    dexp,
    dlog,
    dpolylog,
    ser_compose,
    ser_reciprocal,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)

INVERSION_LAMBDAS = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 7)]


class TestConstruction:
    def test_padding_and_truncation(self):
        s = Series((1, 2), 4)
        assert s.coeffs == (1, 2, 0, 0, 0)
        assert Series((1, 2, 3, 4), 1).coeffs == (1, 2)
        assert Series((1, 2, 3), 2).truncate(1) == Series((1, 2), 1)
        with pytest.raises(ValueError, match="cannot extend"):
            Series((1, 2, 3), 2).truncate(3)

    def test_order_recorded(self):
        assert Series((1,), 7).order == 7
        with pytest.raises(ValueError):
            Series((), None)
        with pytest.raises(ValueError, match="^order must be >= 0, got -1"):
            Series((1,), -1)

    def test_equality_needs_matching_order(self):
        assert Series((1, 2), 3) != Series((1, 2), 2)
        assert Series((1, 2), 3) == Series((1, 2, 0, 0), 3)

    def test_poly_coefficient_is_rejected(self):
        with pytest.raises(TypeError):
            Series((1, X))
        with pytest.raises(TypeError):
            Series((Poly((2,)),), 0)
        # a coefficient past the order is checked too, a float or a bool as a Poly
        for bad in (X, 1.5, True):
            with pytest.raises(TypeError):
                Series((1, 2, bad), 1)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_bool_scalar_is_refused(self, op):
        with pytest.raises(TypeError):
            op(Series((1, 2)), True)
        with pytest.raises(TypeError):
            op(False, Series((1, 2)))

    def test_scalar_minus_series_is_refused(self):
        # as 1 - poly is; Series.__sub__ still takes a scalar on the right
        with pytest.raises(TypeError):
            1 - Series((1, 2))
        assert Series((1, 2)) - 1 == Series((0, 2))


class TestMul:
    def test_basic(self):
        one_plus = Series((1, 1), 2)
        one_minus = Series((1, -1), 2)
        assert one_plus * one_minus == Series((1, 0, -1), 2)

    def test_truncation_drops_products(self):
        t = Series((0, 1), 1)
        assert t * t == Series((0, 0), 1)

    def test_min_order(self):
        assert (Series((1,), 5) * Series((1,), 3)).order == 3

    def test_power(self):
        # (1 - t)**3 has coefficients (-1)**k C(3, k), which vanish past t**3
        assert Series((1, -1), 6) ** 3 == Series([(-1) ** k * comb(3, k) for k in range(7)], 6)
        assert Series((1, -1), 6) ** 0 == Series((1,), 6)
        with pytest.raises(ValueError, match="^exponent must be >= 0, got -1"):
            Series((1, -1), 6) ** -1


class TestReciprocal:
    def test_geometric(self):
        assert ser_reciprocal(Series((1, -1), 3)) == Series((1, 1, 1, 1), 3)

    def test_shifted(self):
        assert ser_reciprocal(Series((2, 1), 1)) == Series((Fraction(1, 2), Fraction(-1, 4)), 1)

    def test_requires_unit(self):
        with pytest.raises(ValueError, match="unit required"):
            ser_reciprocal(Series((0, 1, 1), 4))

    @settings(max_examples=100)
    @given(coeffs=st.lists(rationals, min_size=1, max_size=8).filter(lambda cs: cs[0] != 0))
    def test_roundtrip(self, coeffs):
        s = Series(coeffs)
        assert s * ser_reciprocal(s) == Series((1,), s.order)


def hand_horner(outer: Series, inner: Series) -> Series:
    """outer(inner(t)) by Horner steps written out coefficient by coefficient."""
    n = inner.order
    acc = [outer.coeffs[-1]] + [Fraction(0)] * n
    for k in range(outer.order - 1, -1, -1):
        prod = [sum((acc[i] * inner.coeffs[m - i] for i in range(m + 1)), Fraction(0)) for m in range(n + 1)]
        acc = [prod[0] + outer.coeffs[k]] + prod[1:]
    return Series(acc, n)


def mobius_inner(a, b, order: int) -> Series:
    """a*t/(1 - b*t) to the given order."""
    return Series([Fraction(0)] + [a * b ** (m - 1) for m in range(1, order + 1)], order)


class TestCompose:
    def test_polynomial_case(self):
        outer = Series((1, 1, 1), 2)
        inner = Series((0, 0, 1), 4)  # t^2 known to order 4
        assert ser_compose(outer, inner) == Series((1, 0, 1, 0, 1), 4)

    def test_requires_valuation(self):
        with pytest.raises(ValueError, match="valuation"):
            ser_compose(Series((1, 1), 3), Series((1, 1), 3))

    @pytest.mark.parametrize("lam", INVERSION_LAMBDAS)
    def test_dlog_inverts_dexp(self, lam):
        n = 24
        assert ser_compose(dlog(lam, n), dexp(1, lam, n) - 1) == Series((0, 1), n)

    @pytest.mark.parametrize("lam", INVERSION_LAMBDAS)
    def test_comp_inverse_recovers_dlog(self, lam):
        # dlog is also a right inverse: (dexp - 1) o dlog = t
        n = 24
        assert ser_compose(dexp(1, lam, n) - 1, dlog(lam, n)) == Series((0, 1), n)

    @settings(max_examples=60)
    @given(
        a=rationals.filter(lambda q: q != 0),
        b=rationals,
        outer=st.lists(rationals, min_size=1, max_size=9),
        order=st.integers(min_value=0, max_value=8),
    )
    def test_random_mobius_inners(self, a, b, outer, order):
        inner = mobius_inner(a, b, order)
        out = Series(outer)
        assert ser_compose(out, inner) == hand_horner(out, inner.truncate(min(order, out.order)))

    @pytest.mark.parametrize("a, b", [(-1, 0), (1, 1), (-1, 1), (1, -1), (-1, -1), (Fraction(2, 3), -1)])
    def test_unit_inners(self, a, b):
        inner = mobius_inner(Fraction(a), Fraction(b), 12)
        # a and b as integers over their least common denominator
        ai, bi, scale = series._mobius(inner)
        assert (Fraction(ai, scale), Fraction(bi, scale)) == (a, b)
        assert scale == lcm(Fraction(a).denominator, Fraction(b).denominator)
        for lam in INVERSION_LAMBDAS:
            outer = dlog(lam, 12)
            assert ser_compose(outer, inner) == hand_horner(outer, inner)

    def test_near_mobius_inner_takes_the_generic_loop(self):
        rng = random.Random(20261018)
        for _ in range(20):
            inner = mobius_inner(Fraction(rng.choice((-1, 1))), Fraction(rng.randint(-2, 2)), 10)
            cs = list(inner.coeffs)
            m = rng.randint(2, 10)
            cs[m] += Fraction(rng.choice((-1, 1)), rng.randint(1, 5))
            near = Series(cs, 10)
            assert series._mobius(near) is None
            outer = Series([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(11)])
            assert ser_compose(outer, near) == hand_horner(outer, near)


class TestCompInverse:
    def test_identity(self):
        t = Series((0, 1), 5)
        assert ser_compose(t, t) == t

    def test_quadratic(self):
        # b = t/2 - t^2/8 solves 2b + b^2 = t to order 2
        b = Series((0, Fraction(1, 2), Fraction(-1, 8)), 2)
        assert ser_compose(Series((0, 2, 1), 2), b) == Series((0, 1), 2)


class TestGeneratingFunctions:
    def test_dexp_classical_limit(self):
        assert dexp(1, 0, 3) == Series((1, 1, Fraction(1, 2), Fraction(1, 6)), 3)

    def test_dexp_generic(self):
        lam = Fraction(3, 5)
        assert dexp(1, lam, 2) == Series((1, 1, (1 - lam) / 2), 2)

    @pytest.mark.parametrize("order", [0, 3])
    def test_dexp_takes_a_rational_exponent_only(self, order):
        with pytest.raises(TypeError):
            dexp(X, Fraction(1, 2), order)

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(-3, 7)])
    def test_dexp_defining_coefficients(self, lam):
        # the defining identity k! c_k = (x0)_{k,lam}; multiplicativity in x
        # is deliberately not asserted here
        x0 = Fraction(2, 3)
        s = dexp(x0, lam, 10)
        for k in range(11):
            assert s.coeffs[k] * factorial(k) == gfact_falling(x0, k, lam)

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 7), Fraction(57, 89), 3])
    def test_dlog_defining_coefficients(self, lam):
        # k! c_k = dfact(k-1, lam), with dfact's own product as the reference
        s = dlog(lam, 12)
        assert s.coeffs[0] == 0
        for k in range(1, 13):
            assert s.coeffs[k] * factorial(k) == dfact(k - 1, lam)

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 7), Fraction(57, 89), 3])
    @pytest.mark.parametrize("k", range(-3, 4))
    def test_dpolylog_defining_coefficients(self, lam, k):
        # (-1)**(n-1) (n-1)! n**k c_n = dfact(n-1, lam)
        s = dpolylog(k, lam, 12)
        assert s.coeffs[0] == 0
        for n in range(1, 13):
            assert (-1) ** (n - 1) * factorial(n - 1) * Fraction(n) ** k * s.coeffs[n] == dfact(n - 1, lam)

    def test_dlog_classical_limit(self):
        assert dlog(0, 3) == Series((0, 1, Fraction(-1, 2), Fraction(1, 3)), 3)

    def test_dlog_generic(self):
        lam = Fraction(5, 9)
        assert dlog(lam, 2) == Series((0, 1, (lam - 1) / 2), 2)
        assert dlog(Fraction(1, 2), 2) == Series((0, 1, Fraction(-1, 4)), 2)

    def test_binom_series(self):
        # at lam = 1 the degenerate exponential is the binomial series (1+t)**x0
        assert dexp(1, 1, 3) == Series((1, 1, 0, 0), 3)
        assert dexp(Fraction(1, 2), 1, 2) == Series(
            (1, Fraction(1, 2), Fraction(-1, 8)), 2
        )

    def test_dpolylog_weight_one_is_minus_log(self):
        lam = Fraction(2, 3)
        n = 12
        flipped = ser_compose(dlog(lam, n), Series((0, -1), n))
        assert dpolylog(1, lam, n) == -flipped

    def test_dpolylog_classical_dilog(self):
        assert dpolylog(2, 0, 3) == Series((0, 1, Fraction(1, 4), Fraction(1, 9)), 3)

    def test_dpolylog_generic_weight_two(self):
        lam = Fraction(4, 7)
        assert dpolylog(2, lam, 2).coeffs[2] == (1 - lam) / 4

