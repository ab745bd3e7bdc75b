"""Integer-numerator kernels against the plain Fraction loops they replace.

The reference functions below are the straightforward Fraction loops:
every product and sum is a Fraction operation, normalised as it goes.  The
kernels must return exactly the same values.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from degenmath import sequences, series
from degenmath.algebra import (
    Poly,
    X,
    dfact,
    gfact_falling,
    gfact_rising,
    poly_combination,
    poly_eval,
    rational_dot,
)
from degenmath.identities import _e67_cutoff, _e67_partial
from degenmath.sequences import (
    dbernoulli_poly,
    dbernoulli_value,
    deuler_poly,
    deuler_value,
    dharmonic,
    dhyperharmonic,
    dhyperharmonic_row,
    power_sum,
    s1_triangle,
    s2_triangle,
)
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


def ref_poly_combination(terms) -> Poly:
    out = []
    for c, p in terms:
        for i, a in enumerate(p.coeffs):
            if i == len(out):
                out.append(Fraction(0))
            out[i] += c * a
    return Poly(out)


def ref_rational_dot(xs, ys) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(xs, ys)), Fraction(0))


def ref_poly_eval(p: Poly, x0) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * Fraction(x0) + c
    return acc


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


def ref_e67_partial(n: int, lam: Fraction, cutoff: int) -> Fraction:
    return sum((gfact_falling(k, n, lam) / 2 ** (k + 1) for k in range(cutoff)), Fraction(0))


def ref_power_sum(p: int, n: int, lam) -> Fraction:
    lam = Fraction(lam)
    return sum((gfact_falling(k - lam, p, lam) for k in range(1, n + 1)), Fraction(0))


def ref_appell(weight, n: int, lam) -> list[Poly]:
    """P_0..P_n from the Fraction Appell step: weight(j, ones) with ones[i] = (1)_{i,lam}."""
    lam = Fraction(lam)
    ones = [Fraction(1)]
    for i in range(n + 1):
        ones.append(ones[-1] * (1 - i * lam))
    falling = [Poly.constant(1)]
    for m in range(1, n + 1):
        falling.append(falling[-1] * (X - (m - 1) * lam))
    consts, polys = [], []
    for m in range(n + 1):
        consts.append(int(m == 0) - sum(comb(m, j) * weight(j, ones) * consts[m - j] for j in range(1, m + 1)))
        coeffs = [Fraction(0)] * (m + 1)
        for k, c in enumerate(consts):
            c *= comb(m, k)
            for i, a in enumerate(falling[m - k].coeffs):
                coeffs[i] += c * a
        polys.append(Poly(coeffs))
    return polys


def ref_bernoulli_weight(j, ones):
    return ones[j + 1] / (j + 1)  # W = (e_lam(t) - 1)/t


def ref_euler_weight(j, ones):
    return ones[j] / 2  # W = (e_lam(t) + 1)/2


# lambda = 0 is the classical limit, (1)_{i,1} vanishes from i = 2 on, and
# 17/(10**6 - 7) has a large denominator
appell_lambdas = [Fraction(0), Fraction(1), Fraction(-2), Fraction(-3, 7), Fraction(17, 10**6 - 7)]


def ref_triangle(weight, n: int, lam) -> list[tuple[Fraction, ...]]:
    """Rows 0..n of S(m,k) = S(m-1,k-1) + weight(m-1, k, lam) S(m-1,k), in Fractions."""
    lam = Fraction(lam)
    rows = [(Fraction(1),)]
    for m in range(1, n + 1):
        prev = rows[-1] + (Fraction(0),)
        rows.append(tuple(prev[k - 1] + weight(m - 1, k, lam) * prev[k] for k in range(m + 1)))
    return rows


TRIANGLES = {
    "second": (s2_triangle, lambda n, k, lam: k - n * lam),
    "first": (s1_triangle, lambda n, k, lam: k * lam - n),
}


def ref_hyperharmonic_row(n: int, r: int, lam) -> tuple[Fraction, ...]:
    sums = tuple(dharmonic(m, lam) for m in range(n + 1))
    for _ in range(r - 1):
        sums = tuple(accumulate(sums))
    return sums


# 57/89 is the lambda of perfbench's deep tables
triangle_lambdas = appell_lambdas + [Fraction(57, 89)]


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


scalars = st.one_of(rationals, st.integers(min_value=-50, max_value=50))
terms_lists = st.lists(st.tuples(scalars, st.lists(rationals, max_size=8).map(Poly)), max_size=8)


class TestPolyCombination:
    @settings(max_examples=100)
    @given(terms=terms_lists)
    def test_matches_fraction_loop(self, terms):
        got = poly_combination(iter(terms))
        assert got == ref_poly_combination(terms)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert not got.coeffs or got.coeffs[-1] != 0

    def test_empty_input_is_zero(self):
        assert poly_combination([]).coeffs == ()

    def test_zero_scalars_and_zero_polys(self):
        p = Poly((1, Fraction(2, 3)))
        assert poly_combination([(0, p), (Fraction(0), p), (5, Poly())]).coeffs == ()

    def test_int_scalars(self):
        terms = [(3, Poly((Fraction(1, 2), 1))), (-2, Poly((0, 0, Fraction(1, 3))))]
        got = poly_combination(terms)
        assert got == Poly((Fraction(3, 2), 3, Fraction(-2, 3)))
        assert all(type(c) is Fraction for c in got.coeffs)

    def test_cancellation_leaves_no_trailing_zeros(self):
        p = Poly((Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)))
        assert poly_combination([(Fraction(3, 4), p), (Fraction(-3, 4), p)]).coeffs == ()
        # the leading terms cancel: degree 2 drops to degree 0
        got = poly_combination([(2, p), (-1, Poly((0, Fraction(-4, 7), Fraction(10, 11))))])
        assert got.coeffs == (Fraction(2, 3),)


class TestRationalDot:
    @settings(max_examples=100)
    @given(xs=st.lists(scalars, max_size=12), ys=st.lists(scalars, max_size=12))
    @example(xs=[3, -2, 7], ys=[5, 4, -1])
    @example(xs=[], ys=[])
    @example(xs=[Fraction(1, 2), 0, -4], ys=[Fraction(-3, 7), Fraction(0), Fraction(5, 11)])
    def test_matches_fraction_loop(self, xs, ys):
        got = rational_dot(iter(xs), iter(ys))
        assert got == ref_rational_dot(xs, ys)
        assert type(got) is Fraction

    def test_empty_input_is_zero(self):
        for xs, ys in (([], []), ([], [Fraction(1, 3)]), ((Fraction(2, 5),), ())):
            got = rational_dot(xs, ys)
            assert got == 0 and type(got) is Fraction

    def test_pairs_like_zip(self):
        # the longer side's tail is ignored
        assert rational_dot([2, Fraction(1, 3)], [Fraction(1, 2), 3, Fraction(1, 10**9)]) == 2
        assert rational_dot([Fraction(-1, 2)], [4, 5, 6]) == -2

    def test_cancellation_normalises(self):
        got = rational_dot([Fraction(2, 3), Fraction(-1, 3)], [Fraction(3, 4), Fraction(3, 2)])
        assert got == 0 and got.denominator == 1


class TestPolyEval:
    @settings(max_examples=100)
    @given(p=st.lists(rationals, max_size=10).map(Poly), x0=scalars)
    @example(p=Poly(), x0=Fraction(-3, 7))
    @example(p=Poly((Fraction(2, 3), 1, Fraction(-5, 2))), x0=0)
    @example(p=Poly((Fraction(2, 3), 1, Fraction(-5, 2))), x0=Fraction(-61, 89))
    @example(p=Poly((Fraction(2, 3), 1, Fraction(-5, 2))), x0=-4)
    def test_matches_fraction_horner(self, p, x0):
        got = poly_eval(p, x0)
        assert got == ref_poly_eval(p, x0)
        assert type(got) is Fraction

    @pytest.mark.parametrize("x0", [0, 5, Fraction(-3, 7)])
    def test_zero_polynomial(self, x0):
        got = poly_eval(Poly(), x0)
        assert got == 0 and type(got) is Fraction

    def test_at_zero_is_the_constant_term(self):
        assert poly_eval(Poly((Fraction(-7, 3), 2, 9)), 0) == Fraction(-7, 3)

    def test_negative_rational_and_integer_points(self):
        p = Poly((1, Fraction(1, 2), Fraction(1, 3)))
        assert poly_eval(p, Fraction(-3, 2)) == 1 - Fraction(3, 4) + Fraction(3, 4)
        assert poly_eval(p, -3) == 1 - Fraction(3, 2) + 3
        assert poly_eval(p, 2) == 1 + 1 + Fraction(4, 3)


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


class TestE67Partial:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=14),
        lam=st.fractions(min_value=-5, max_value=5, max_denominator=50),
        cutoff=st.integers(min_value=1, max_value=60),
    )
    @example(n=6, lam=Fraction(0), cutoff=30)
    @example(n=7, lam=Fraction(-3, 7), cutoff=45)
    @example(n=0, lam=Fraction(2, 3), cutoff=12)
    @example(n=0, lam=Fraction(0), cutoff=1)
    def test_matches_fraction_sum(self, n, lam, cutoff):
        got = _e67_partial(n, lam, cutoff)
        assert got == ref_e67_partial(n, lam, cutoff)
        assert type(got) is Fraction


class TestPowerSum:
    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(min_value=0, max_value=10), n=st.integers(min_value=0, max_value=20), lam=lambdas)
    @example(p=3, n=0, lam=Fraction(-3, 7))
    @example(p=0, n=9, lam=Fraction(-3, 7))
    @example(p=5, n=7, lam=Fraction(0))
    @example(p=4, n=6, lam=Fraction(-61, 89))
    @example(p=2, n=5, lam=-2)
    def test_matches_fraction_sum(self, p, n, lam):
        got = power_sum(p, n, lam)
        assert got == ref_power_sum(p, n, lam)
        assert type(got) is Fraction


def appell_examples(test):
    """Run test at n = 24 on each of appell_lambdas as well as the drawn examples."""
    for lam in appell_lambdas:
        test = example(n=24, lam=lam)(test)
    return test


class TestAppellStep:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=24), lam=lambdas)
    @appell_examples
    def test_bernoulli_matches_fraction_step(self, n, lam):
        got = [dbernoulli_poly(m, lam) for m in range(n + 1)]
        assert got == ref_appell(ref_bernoulli_weight, n, lam)
        assert all(type(c) is Fraction for poly in got for c in poly.coeffs)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=24), lam=lambdas)
    @appell_examples
    def test_euler_matches_fraction_step(self, n, lam):
        got = [deuler_poly(m, lam) for m in range(n + 1)]
        assert got == ref_appell(ref_euler_weight, n, lam)
        assert all(type(c) is Fraction for poly in got for c in poly.coeffs)

    @pytest.mark.parametrize("family", ["bernoulli", "euler"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=24), lam=lambdas, x0=rationals)
    @example(n=24, lam=Fraction(0), x0=Fraction(-7, 3))
    @example(n=24, lam=Fraction(1), x0=Fraction(1, 3))
    @example(n=24, lam=Fraction(3), x0=Fraction(0))
    @example(n=24, lam=Fraction(-3, 7), x0=Fraction(57, 89))
    @example(n=0, lam=Fraction(-3, 7), x0=Fraction(5))
    def test_value_equals_the_stored_polynomial_at_x0(self, family, n, lam, x0):
        # x0 and the points the identity checkers read: 0, 1-lam and 2*lam+1
        poly, value = {"bernoulli": (dbernoulli_poly, dbernoulli_value), "euler": (deuler_poly, deuler_value)}[family]
        lam = Fraction(lam)
        for at in (x0, Fraction(0), 1 - lam, 2 * lam + 1):
            got = value(n, lam, at)
            assert got == poly_eval(poly(n, lam), at) and type(got) is Fraction


def triangle_examples(test):
    """Run test at n = 40 on each of triangle_lambdas as well as the drawn examples."""
    for lam in triangle_lambdas:
        test = example(n=40, lam=lam)(test)
    return test


class TestTriangleStep:
    @pytest.mark.parametrize("kind", ["second", "first"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=40), lam=lambdas)
    @triangle_examples
    def test_rows_match_fraction_recurrence(self, kind, n, lam):
        build, weight = TRIANGLES[kind]
        rows = build(n, lam).rows[: n + 1]
        assert list(rows) == ref_triangle(weight, n, lam)
        assert all(type(c) is Fraction for row in rows for c in row)

    @pytest.mark.parametrize("kind", ["second", "first"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=40), lam=lambdas)
    @triangle_examples
    def test_denominators_divide_q_power(self, kind, n, lam):
        q = Fraction(lam).denominator
        tri = TRIANGLES[kind][0](n, lam)
        for m in range(n + 1):
            assert all(q ** (m - k) % c.denominator == 0 for k, c in enumerate(tri.row(m)))

    @pytest.mark.parametrize("kind", ["second", "first"])
    @pytest.mark.parametrize("lam", triangle_lambdas)
    def test_growing_stored_rows_equals_cold_build(self, kind, lam):
        # the extend carries on from the stored rows 0..16 and the integers
        # of the last one, its state
        build = TRIANGLES[kind][0]
        key = (kind, lam)
        sequences._STORE.pop(key, None)
        assert len(build(0, lam).rows) == sequences.GROW_MIN_N + 1
        grown = build(40, lam).rows
        entry = sequences._STORE[key]
        del sequences._STORE[key]
        assert build(40, lam).rows == grown
        assert sequences._STORE[key] == entry
        assert len(grown) == 41


# family -> (a call that grows it, its extend); the constants are grown
# through the value at 0, which is the constant itself
STORED_FAMILIES = {
    "first": (s1_triangle, sequences._ROW_EXTENDS["first"]),
    "second": (s2_triangle, sequences._ROW_EXTENDS["second"]),
    "bernoulli": (dbernoulli_poly, sequences._BERNOULLI_EXTEND),
    "euler": (deuler_poly, sequences._EULER_EXTEND),
    "harmonic": (dharmonic, sequences._harmonic_extend),
    "bernoulli constants": (lambda n, lam: dbernoulli_value(n, lam, 0), sequences._BERNOULLI_CONSTANTS),
    "euler constants": (lambda n, lam: deuler_value(n, lam, 0), sequences._EULER_CONSTANTS),
}


# the weights of the stored integer extends, written out again so that a
# test can count their calls
COUNTED_WEIGHTS = {
    "second": (sequences._row_extend, lambda n, k, p, q: k * q - n * p),
    "first": (sequences._row_extend, lambda n, k, p, q: k * p - n * q),
    "bernoulli constants": (
        sequences._constants_extend, lambda j, ones, q: Fraction(ones[j + 1], (j + 1) * q ** (j + 1))),
    "euler constants": (sequences._constants_extend, lambda j, ones, q: Fraction(ones[j], 2 * q**j)),
}


class TestGrowth:
    @pytest.mark.parametrize("family", list(STORED_FAMILIES))
    @settings(max_examples=15, deadline=None)
    @given(a=st.integers(min_value=0, max_value=24), extra=st.integers(min_value=0, max_value=24), lam=lambdas)
    @example(a=0, extra=30, lam=Fraction(0))
    @example(a=3, extra=1, lam=Fraction(3))
    @example(a=20, extra=9, lam=Fraction(-3, 7))
    @example(a=1, extra=16, lam=Fraction(-2))
    def test_growing_from_any_stored_prefix_equals_cold_build(self, family, a, extra, lam):
        # a short stored prefix (a may be below GROW_MIN_N) makes one extend
        # start from few entries and the state they end with, and raise its
        # common denominators as it goes; the state it ends with is a cold
        # build's
        (build, extend), lam, b = STORED_FAMILIES[family], Fraction(lam), a + extra
        key = (family, lam)
        sequences._STORE.pop(key, None)
        build(b, lam)
        cold = sequences._STORE.pop(key)
        prefix = sequences._put(key, extend((), None, a, lam))
        assert prefix[0] == cold[0][: a + 1]
        build(b, lam)
        grown = sequences._STORE[key]
        assert grown == (cold if b > a else prefix)
        assert all(x is y for x, y in zip(grown[0], prefix[0]))

    @pytest.mark.parametrize("family", list(COUNTED_WEIGHTS))
    def test_a_miss_past_the_floor_starts_from_the_stored_state(self, family):
        # each weight runs once, for the entry it makes, and never again for
        # a stored one: the misses at 17, 18 and 20 start from the state
        make, weight = COUNTED_WEIGHTS[family]
        calls = []

        def counted(i, *args):
            calls.append(i)
            return weight(i, *args)

        lam, name = Fraction(-43, 10**6 - 29), f"counted {family}"
        for n in (0, 16, 17, 18, 5, 20):
            sequences._grown(name, n, lam, make(counted))
        # weight(m-1, k, ...) for k = 0..m makes triangle row m; weight(j, ...) is w_j
        rows = make is sequences._row_extend
        assert calls == ([m - 1 for m in range(1, 21) for _ in range(m + 1)] if rows else list(range(1, 21)))
        assert sequences._STORE.pop((name, lam)) == STORED_FAMILIES[family][1]((), None, 20, lam)


class TestHyperharmonic:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=40), r=st.integers(min_value=1, max_value=5), lam=lambdas)
    @example(n=40, r=5, lam=Fraction(0))
    @example(n=40, r=1, lam=Fraction(1))
    @example(n=40, r=3, lam=Fraction(57, 89))
    @example(n=0, r=4, lam=Fraction(-3, 7))
    def test_matches_fraction_accumulate(self, n, r, lam):
        want = ref_hyperharmonic_row(n, r, lam)
        row = dhyperharmonic_row(n, r, lam)
        assert row == want
        assert all(type(c) is Fraction for c in row)
        for m in range(n + 1):
            got = dhyperharmonic(m, r, lam)
            assert got == want[m] and type(got) is Fraction
