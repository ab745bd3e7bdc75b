"""Exact scalar and polynomial layer."""

import random
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from classical_oracles import is_zero
from degenmath import algebra
from degenmath.algebra import (
    Poly,
    X,
    binom_poly,
    dfact,
    gfact_falling,
    gfact_rising,
    parse_rational,
    poly_derivative,
    poly_eval,
    poly_int_over_t,
)
from degenmath.identities import CheckResult, check_result_json

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


class TestRationalText:
    def test_parse_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-3/4") == Fraction(-3, 4)
        assert parse_rational("42") == Fraction(42)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational("6/4") == Fraction(3, 2)

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "1/2/3", "", "a/b", "1/0", "1 / 0"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_format_reduced(self):
        # the report serializers write rationals as reduced "p/q" or "p"
        res = CheckResult("T15", {"lambda": Fraction(6, 4)}, Fraction(-6, 4), Fraction(5), False)
        doc = check_result_json(res)
        assert doc["binding"] == {"lambda": "3/2"}
        assert doc["lhs"] == {"kind": "rational", "value": "-3/2"}
        assert doc["rhs"] == {"kind": "rational", "value": "5"}

    @given(q=rationals)
    def test_roundtrip(self, q):
        assert parse_rational(str(q)) == q


class TestRationalField:
    @given(a=rationals, b=rationals, c=rationals)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(a=rationals.filter(lambda q: q != 0))
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1


class TestGeneralizedFactorials:
    def test_falling_empty_product(self):
        assert gfact_falling(X, 0, Fraction(1, 2)) == Poly((1,))
        assert gfact_falling(Fraction(7), 0, Fraction(1, 2)) == 1

    def test_falling_symbolic_two_steps(self):
        lam = Fraction(2, 3)
        assert gfact_falling(X, 2, lam) == Poly((0, -lam, 1))  # x^2 - lam x

    def test_falling_scalar(self):
        assert gfact_falling(3, 3, Fraction(1, 2)) == Fraction(3) * Fraction(5, 2) * 2

    def test_rising(self):
        assert gfact_rising(Fraction(1), 0, Fraction(1, 3)) == 1
        assert gfact_rising(Fraction(1), 1, Fraction(5, 7)) == 1
        assert gfact_rising(Fraction(1), 3, Fraction(1, 2)) == Fraction(1) * Fraction(3, 2) * 2

    def test_ordinary_falling(self):
        assert gfact_falling(X, 2, 1) == Poly((0, -1, 1))
        assert gfact_falling(Fraction(5), 3, 1) == 60
        assert gfact_falling(X, 0, 1) == Poly((1,))

    @pytest.mark.parametrize("n", range(6))
    def test_lambda_zero_degenerates_to_powers(self, n):
        x0 = Fraction(5, 3)
        assert gfact_falling(x0, n, 0) == x0**n
        assert gfact_rising(x0, n, 0) == x0**n

    @given(x0=rationals, lam=rationals, n=st.integers(min_value=0, max_value=8))
    def test_falling_one_step_extension(self, x0, lam, n):
        assert gfact_falling(x0, n, lam) * (x0 - n * lam) == gfact_falling(x0, n + 1, lam)


class TestDfact:
    def test_values(self):
        assert dfact(0, Fraction(9, 7)) == 1
        assert dfact(2, Fraction(1, 2)) == Fraction(-1, 2) * Fraction(-3, 2)
        assert dfact(3, 0) == -6  # (-1)^3 * 3!

    @given(lam=rationals, k=st.integers(min_value=1, max_value=12))
    def test_one_step_recurrence(self, lam, k):
        assert dfact(k, lam) == dfact(k - 1, lam) * (lam - k)

    @pytest.mark.parametrize("num", range(-4, 5))
    @pytest.mark.parametrize("den", [1, 2, 3, 5])
    def test_matches_raw_product_form(self, num, den):
        # dfact(k-1, lam) against the literal lam^(k-1) * prod(1 - j/lam)
        lam = Fraction(num, den)
        if lam == 0:
            return
        for k in range(1, 13):
            raw = lam ** (k - 1)
            for j in range(k):
                raw *= 1 - Fraction(j) / lam
            assert dfact(k - 1, lam) == raw


class TestBinomPoly:
    def test_values(self):
        assert binom_poly(0) == Poly((1,))
        assert binom_poly(2) == Poly((0, Fraction(-1, 2), Fraction(1, 2)))
        assert poly_eval(binom_poly(2), Fraction(1, 2)) == Fraction(-1, 8)

    @given(k=st.integers(min_value=0, max_value=10), x=st.integers(min_value=0, max_value=20))
    def test_integer_points(self, k, x):
        from math import comb

        assert poly_eval(binom_poly(k), x) == comb(x, k)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            binom_poly(-1)

    def test_memo_matches_falling_factorial_in_any_order(self, monkeypatch):
        monkeypatch.setattr(algebra, "_BINOMS", algebra._BINOMS[:1])
        ks = list(range(41))
        random.Random(20261018).shuffle(ks)
        for k in ks:
            assert binom_poly(k) == gfact_falling(X, k, 1) * Fraction(1, factorial(k))
        assert len(algebra._BINOMS) == 41

    def test_concurrent_cold_growers(self, monkeypatch):
        expected = [gfact_falling(X, k, 1) * Fraction(1, factorial(k)) for k in range(41)]
        monkeypatch.setattr(algebra, "_BINOMS", algebra._BINOMS[:1])
        errors = []

        def work(seed):
            ks = list(range(41)) * 3
            random.Random(seed).shuffle(ks)
            try:
                for k in ks:
                    if binom_poly(k) != expected[k]:
                        errors.append(k)
            except Exception as exc:  # any exception is a lost race
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert list(algebra._BINOMS) == expected[: len(algebra._BINOMS)]


class TestPoly:
    def test_zero_degree_is_none(self):
        assert Poly().degree is None
        assert Poly((0, 0)).degree is None
        assert Poly((0, 1)).degree == 1

    def test_trailing_zeros_trimmed(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)

    @given(
        a=st.lists(rationals, max_size=6),
        b=st.lists(rationals, max_size=6),
    )
    def test_product_degree(self, a, b):
        p, q = Poly(a), Poly(b)
        if is_zero(p) or is_zero(q):
            assert is_zero(p * q)
        else:
            assert (p * q).degree == p.degree + q.degree

    def test_scalar_equality(self):
        assert Poly((3,)) == 3
        assert Poly() == 0
        assert Poly((0, 1)) != 1

    def test_str(self):
        assert str(Poly((Fraction(1, 8), Fraction(1, 2), 1))) == "1/8 + 1/2*x + x^2"
        assert str(Poly((0, -1))) == "-x"
        assert str(Poly()) == "0"


class TestCalculusOps:
    def test_derivative(self):
        assert poly_derivative(Poly((0, 0, 1))) == Poly((0, 2))
        lam = Fraction(1, 2)
        assert poly_derivative(Poly((0, 1 - lam, 2))) == Poly((Fraction(1, 2), 4))
        assert poly_derivative(Poly((5,))) == Poly()

    def test_int_over_t(self):
        assert poly_int_over_t(Poly((0, 1))) == Poly((0, 1))
        lam = Fraction(1, 2)
        assert poly_int_over_t(Poly((0, 1 - lam, 2))) == Poly((0, 1 - lam, 1))
        with pytest.raises(ValueError, match="logarithmic divergence"):
            poly_int_over_t(Poly((1,)))

    @given(coeffs=st.lists(rationals, max_size=6))
    def test_derivative_inverts_int_over_t(self, coeffs):
        p = Poly([0] + coeffs)
        assert poly_derivative(poly_int_over_t(p)) * X == p

    def test_eval(self):
        assert poly_eval(Poly((0, -1, 1)), 3) == 6
        assert poly_eval(Poly(), Fraction(22, 7)) == 0
        assert poly_eval(Poly((0, Fraction(1, 2), 2)), 1) == Fraction(5, 2)
