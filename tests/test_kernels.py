"""Integer-numerator kernels against the plain Fraction loops they replace.

The reference functions below are the straightforward Fraction loops:
every product and sum is a Fraction operation, normalised as it goes.  The
kernels must return exactly the same values.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from degenmath import series
from degenmath.algebra import Poly, dfact, gfact_falling, gfact_rising
from degenmath.identities import _e67_cutoff
from degenmath.series import Series, ser_reciprocal

# signed rationals with a good share of zeros
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
)
polys = st.lists(rationals, max_size=4).map(Poly)
# lambda = 0 and 1 make (lam-1)_{k,1} and the rising product degenerate
lambdas = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-3, 7)]),
    rationals,
    st.integers(min_value=-5, max_value=5),
)


def ref_series_mul(a: Series, b: Series) -> Series:
    n = min(a.order, b.order)
    out = []
    for m in range(n + 1):
        out.append(sum(a.coeffs[i] * b.coeffs[m - i] for i in range(m + 1)))
    return Series(out, n)


def ref_poly_mul(p: Poly, q: Poly) -> Poly:
    if not p.coeffs or not q.coeffs:
        return Poly()
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def ref_reciprocal(a: Series) -> Series:
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for n in range(1, a.order + 1):
        acc = sum(a.coeffs[j] * out[n - j] for j in range(1, n + 1))
        out.append(-(inv0 * acc))
    return Series(out, a.order)


def ref_gfact_falling(x0, n: int, lam) -> Fraction:
    acc = Fraction(1)
    for j in range(n):
        acc = acc * (x0 - j * Fraction(lam))
    return acc


def ref_dfact(k: int, lam) -> Fraction:
    lam = Fraction(lam)
    acc = Fraction(1)
    for j in range(1, k + 1):
        acc *= lam - j
    return acc


def ref_gfact_rising(x0, n: int, lam):
    lam = Fraction(lam)
    acc = Poly.constant(1) if isinstance(x0, Poly) else Fraction(1)
    for j in range(n):
        acc = acc * (x0 + j * lam)
    return acc


def ref_e67_cutoff(n: int, lam: Fraction, tol: Fraction) -> tuple[int, Fraction]:
    c = n * abs(lam)
    k = 1
    while True:
        rho = ((k + 1 + c) / Fraction(k + c)) ** n / 2
        if rho < 1:
            bound = (k + c) ** n * Fraction(1, 2 ** (k + 1)) / (1 - rho)
            if bound <= tol:
                return k, bound
        k += 1


def series_of(coeffs: list) -> Series:
    return Series(coeffs, len(coeffs) - 1)


def exact_types(s: Series) -> list[type]:
    return [type(c) for c in s.coeffs]


class TestSeriesMul:
    @settings(max_examples=100)
    @given(a=st.lists(rationals, min_size=1, max_size=12), b=st.lists(rationals, min_size=1, max_size=12))
    def test_matches_fraction_loop(self, a, b):
        sa, sb = series_of(a), series_of(b)
        got = sa * sb
        want = ref_series_mul(sa, sb)
        assert got == want
        assert got.order == want.order
        assert exact_types(got) == [Fraction] * (got.order + 1)

    @pytest.mark.parametrize("order", [0, 1])
    @given(a=rationals, b=rationals, c=rationals, d=rationals)
    def test_orders_zero_and_one(self, order, a, b, c, d):
        sa, sb = Series((a, b), order), Series((c, d), order)
        assert sa * sb == ref_series_mul(sa, sb)

    @settings(max_examples=50)
    @given(
        a=st.lists(st.one_of(rationals, polys), min_size=1, max_size=6),
        b=st.lists(polys, min_size=1, max_size=6),
    )
    def test_poly_coefficients_take_the_generic_sum(self, a, b):
        sa, sb = series_of(a), series_of(b)
        want = ref_series_mul(sa, sb)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(series, "_cauchy_product", None)  # any use would raise
            assert sa * sb == want
            assert sb * sa == want


class TestPolyMul:
    @settings(max_examples=100)
    @given(p=st.lists(rationals, max_size=10), q=st.lists(rationals, max_size=10))
    def test_matches_fraction_loop(self, p, q):
        got = Poly(p) * Poly(q)
        assert got == ref_poly_mul(Poly(p), Poly(q))
        assert all(type(c) is Fraction for c in got.coeffs)

    @given(a=rationals, b=rationals, c=rationals)
    def test_degree_zero_and_one(self, a, b, c):
        for p, q in [((a,), (b,)), ((a, b), (c,)), ((a, b), (b, c))]:
            assert Poly(p) * Poly(q) == ref_poly_mul(Poly(p), Poly(q))


class TestReciprocal:
    @settings(max_examples=100)
    @given(coeffs=st.lists(rationals, min_size=1, max_size=12).filter(lambda cs: cs[0] != 0))
    def test_matches_fraction_loop(self, coeffs):
        s = series_of(coeffs)
        assert ser_reciprocal(s) == ref_reciprocal(s)

    def test_poly_coefficients_take_the_generic_loop(self):
        s = Series((Poly((2,)), Poly((1, 1)), Poly((0, Fraction(1, 3)))), 2)
        assert ser_reciprocal(s) * s == Series((1,), 2)


class TestGfactFalling:
    @settings(max_examples=100)
    @given(
        x0=st.one_of(rationals, st.integers(min_value=-50, max_value=50)),
        n=st.integers(min_value=0, max_value=14),
        lam=st.one_of(rationals, st.integers(min_value=-5, max_value=5)),
    )
    def test_matches_fraction_loop(self, x0, n, lam):
        got = gfact_falling(x0, n, lam)
        assert got == ref_gfact_falling(x0, n, lam)
        assert type(got) is Fraction


class TestDfact:
    @settings(max_examples=100)
    @given(k=st.integers(min_value=0, max_value=14), lam=lambdas)
    @example(k=0, lam=Fraction(0))
    @example(k=0, lam=Fraction(1))
    @example(k=0, lam=Fraction(-3, 7))
    def test_matches_fraction_loop(self, k, lam):
        got = dfact(k, lam)
        assert got == ref_dfact(k, lam)
        assert type(got) is Fraction


class TestGfactRising:
    @settings(max_examples=100)
    @given(
        x0=st.one_of(rationals, st.integers(min_value=-50, max_value=50), polys),
        n=st.integers(min_value=0, max_value=10),
        lam=lambdas,
    )
    @example(x0=Poly((0, 1)), n=0, lam=Fraction(-3, 7))
    @example(x0=Poly((Fraction(1, 2), 1)), n=4, lam=Fraction(0))
    @example(x0=Poly((Fraction(1, 2), 1)), n=4, lam=Fraction(1))
    def test_matches_fraction_loop(self, x0, n, lam):
        got = gfact_rising(x0, n, lam)
        assert got == ref_gfact_rising(x0, n, lam)
        assert type(got) is (Poly if isinstance(x0, Poly) else Fraction)


class TestE67Cutoff:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=14),
        lam=st.fractions(min_value=-5, max_value=5, max_denominator=50),
        tol_exp=st.integers(min_value=1, max_value=40),
        tol_num=st.integers(min_value=1, max_value=9),
    )
    def test_matches_fraction_search(self, n, lam, tol_exp, tol_num):
        tol = Fraction(tol_num, 10**tol_exp)
        assert _e67_cutoff(n, lam, tol) == ref_e67_cutoff(n, lam, tol)
