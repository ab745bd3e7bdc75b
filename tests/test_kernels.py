"""Integer-numerator kernels against the plain Fraction loops they replace.

The reference functions below are the straightforward Fraction loops:
every product and sum is a Fraction operation, normalised as it goes.  The
kernels must return exactly the same values.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from degenmath import sequences
from degenmath.algebra import (
    Poly,
    X,
    _frac,
    _over_power,
    _poly,
    _rat,
    _scaled,
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
from degenmath.series import Series, dexp, dlog, dpolylog, ser_reciprocal

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


def ref_poly_add(p: Poly, q: Poly) -> Poly:
    a, b = (p.coeffs, q.coeffs) if len(p.coeffs) >= len(q.coeffs) else (q.coeffs, p.coeffs)
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return Poly(out)


def ref_poly_neg(p: Poly) -> Poly:
    return Poly(tuple(-c for c in p.coeffs))


def ref_poly_scale(p: Poly, c) -> Poly:
    if c == 0:
        return Poly()
    return Poly(tuple(a * c for a in p.coeffs))


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


def ref_dexp(x0, lam, order: int) -> Series:
    acc, out = Fraction(1), []
    for k in range(order + 1):
        out.append(acc / factorial(k))
        acc = acc * (x0 - k * Fraction(lam))
    return Series(out, order)


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


def ref_harmonic(n: int, lam) -> list[Fraction]:
    """H_0..H_n by the Fraction loop: H_m = H_{m-1} + (-1)**(m-1) dfact(m-1,lam)/m!."""
    sums = [Fraction(0)]
    for m in range(1, n + 1):
        sums.append(sums[-1] + (-1) ** (m - 1) * dfact(m - 1, lam) / factorial(m))
    return sums


def ref_hyperharmonic_recurrence(n: int, r: int, lam) -> list[Fraction]:
    """H^(r)_0..H^(r)_n by H^(r)_{m+1} = ((m+r-lam) H^(r)_m + C(m+r-1, m))/(m+1).

    The recurrence follows from T1's generating function -log_lam(1-t)/(1-t)**r,
    so it serves as an oracle only: built from it, T1 would hold by construction."""
    lam = Fraction(lam)
    row = [Fraction(0)]
    for m in range(n):
        row.append(((m + r - lam) * row[-1] + comb(m + r - 1, m)) / (m + 1))
    return row


# 57/89 is the lambda of perfbench's deep tables; 36 and 30 have several
# primes, so an entry can need more than one gcd pass to reduce
triangle_lambdas = appell_lambdas + [Fraction(57, 89), Fraction(-35, 36), Fraction(77, 30)]


def series_of(coeffs: list) -> Series:
    return Series(coeffs, len(coeffs) - 1)


def lcm_form(cs) -> tuple[tuple[int, ...], int]:
    """The Fractions cs as integers over the lcm of their denominators."""
    d = lcm(*[c.denominator for c in cs])
    return tuple(c.numerator * (d // c.denominator) for c in cs), d


def exact_types(s: Series) -> list[type]:
    return [type(c) for c in s.coeffs]


def same_fraction(got, want):
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert type(got) is Fraction


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


class TestPolyArithmetic:
    # +, -, unary - and * by a scalar are each one poly_combination call
    @settings(max_examples=100)
    @given(p=st.lists(rationals, max_size=8).map(Poly), q=st.lists(rationals, max_size=8).map(Poly), c=scalars)
    @example(p=Poly((1, Fraction(2, 3))), q=Poly((-1, Fraction(-2, 3))), c=0)
    @example(p=Poly((Fraction(1, 3), 5, Fraction(-2, 7))), q=Poly((0, 5, Fraction(-2, 7))), c=Fraction(0))
    def test_matches_fraction_loops(self, p, q, c):
        cases = [
            (p + q, ref_poly_add(p, q)),
            (p + c, ref_poly_add(p, Poly((c,)))),
            (c + p, ref_poly_add(p, Poly((c,)))),
            (p - q, ref_poly_add(p, ref_poly_neg(q))),
            (p - c, ref_poly_add(p, Poly((-c,)))),
            (-p, ref_poly_neg(p)),
            (p * c, ref_poly_scale(p, c)),
            (c * p, ref_poly_scale(p, c)),
        ]
        for got, want in cases:
            assert got.coeffs == want.coeffs
            assert all(type(a) is Fraction for a in got.coeffs)
            assert not got.coeffs or got.coeffs[-1] != 0

    def test_cancellation_to_the_zero_polynomial(self):
        p = Poly((Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)))
        assert (p - p).coeffs == () and (p + -p).coeffs == () and (-p + p).coeffs == ()
        assert (p * 0).coeffs == () and (Fraction(0) * p).coeffs == ()
        assert (Poly((Fraction(2, 3),)) - Fraction(2, 3)).coeffs == ()
        # the leading terms cancel: degree 2 drops to degree 0
        assert (p - Poly((0, Fraction(-2, 7), Fraction(5, 11)))).coeffs == (Fraction(1, 3),)


# lambda-sized coefficients: a large numerator over a power of q near 89
lambda_sized = st.builds(
    lambda p, q, n: Fraction(p, q**n),
    st.integers(min_value=-10**40, max_value=10**40),
    st.sampled_from([83, 89, 97]),
    st.integers(min_value=0, max_value=40),
)


class TestPolyForm:
    # a Poly from Fractions and one from _poly over an unreduced, possibly
    # negative denominator hold one value in one canonical integer form
    @settings(max_examples=200)
    @given(
        cs=st.lists(st.one_of(rationals, lambda_sized), max_size=10),
        k=st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    )
    @example(cs=[], k=-3)
    @example(cs=[Fraction(0)] * 4, k=7)
    @example(cs=[Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(0)], k=-4)
    @example(cs=[Fraction(-6, 89**40), Fraction(0), Fraction(5, 83)], k=-89)
    def test_integer_form_is_canonical(self, cs, k):
        den = k * lcm(*[c.denominator for c in cs])
        built, scaled = Poly(cs), _poly([int(c * den) for c in cs], den)
        bumped = Poly(cs + [Fraction(1)])

        def agree():
            assert built.coeffs == scaled.coeffs
            assert all(type(c) is Fraction for c in scaled.coeffs)
            assert built == scaled and scaled == built
            assert built != bumped and bumped != scaled
            assert hash(built) == hash(scaled)
            assert str(built) == str(scaled) and repr(built) == repr(scaled)

        # built holds Fractions only, so == reads the coefficients
        assert built._form is None
        agree()
        nums, d = scaled._form
        assert d > 0 and (not nums or nums[-1] != 0) and gcd(d, *nums) == 1
        assert (nums, d) == lcm_form(scaled.coeffs)
        # with both forms derived, == reads the integer forms
        assert _scaled(built) == scaled._form
        _scaled(bumped)
        agree()

    def test_coeffs_cannot_be_assigned(self):
        # the stored entries are shared by every reader, so they must not change
        lam = Fraction(-57, 89)
        stored, row = dbernoulli_poly(5, lam), deuler_poly(4, lam)
        before = stored.coeffs, hash(stored), row.coeffs
        with pytest.raises(AttributeError):
            stored.coeffs = (Fraction(5),)
        with pytest.raises(AttributeError):
            row.coeffs = ()
        assert dbernoulli_poly(5, lam) is stored and deuler_poly(4, lam) is row
        assert (stored.coeffs, hash(stored), row.coeffs) == before
        series = dexp(1, lam, 6)
        with pytest.raises(AttributeError):
            series.coeffs = (Fraction(5),)
        with pytest.raises(AttributeError):
            series.order = 2
        with pytest.raises(AttributeError):
            del series.coeffs
        with pytest.raises(AttributeError):
            del stored.coeffs
        assert series == dexp(1, lam, 6) and series.order == 6
        assert (stored.coeffs, hash(stored)) == before[:2]


class TestRationalDot:
    @settings(max_examples=100)
    @given(xs=st.lists(scalars, max_size=12), ys=st.lists(scalars, max_size=12))
    @example(xs=[3, -2, 7], ys=[5, 4, -1])
    @example(xs=[], ys=[])
    @example(xs=[Fraction(1, 2), 0, -4], ys=[Fraction(-3, 7), Fraction(0), Fraction(5, 11)])
    def test_matches_fraction_loop(self, xs, ys):
        # the Poly side pairs from each start; past its end it pairs nothing
        for start in range(len(ys) + 2):
            got = rational_dot(Poly(xs), Poly(ys), start)
            assert got == ref_rational_dot(xs, ys[start:])
            assert type(got) is Fraction

    def test_empty_input_is_zero(self):
        for xs, ys in (([], []), ([], [Fraction(1, 3)]), ((Fraction(2, 5),), ())):
            got = rational_dot(Poly(xs), Poly(ys))
            assert got == 0 and type(got) is Fraction

    def test_pairs_like_zip(self):
        # the longer side's tail is ignored
        assert rational_dot(Poly([2, Fraction(1, 3)]), Poly([Fraction(1, 2), 3, Fraction(1, 10**9)])) == 2
        assert rational_dot(Poly([Fraction(-1, 2)]), Poly([4, 5, 6])) == -2
        assert rational_dot(Poly([Fraction(-1, 2), 7]), Poly([4, 5, 6]), 2) == -3

    def test_negative_start_is_refused(self):
        # it would pair the Poly side from its end
        with pytest.raises(ValueError, match="start must be >= 0"):
            rational_dot(Poly([1]), Poly([4, 5, 6]), -1)

    def test_cancellation_normalises(self):
        got = rational_dot(Poly([Fraction(2, 3), Fraction(-1, 3)]), Poly([Fraction(3, 4), Fraction(3, 2)]))
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

    def test_negative_constant_term(self):
        # the denominator A_0**(n+1) is negative for odd n + 1; each
        # coefficient must equal the Fraction the same integers give
        a = Series((Fraction(-3, 2), Fraction(5, 7), 0, Fraction(-1, 3), 2, Fraction(9, 4)), 5)
        got = ser_reciprocal(a)
        den = lcm(*[c.denominator for c in a.coeffs])
        ia = [c.numerator * (den // c.denominator) for c in a.coeffs]
        cs = [1]
        for n in range(1, 6):
            cs.append(-sum(ia[j] * ia[0] ** (j - 1) * cs[n - j] for j in range(1, n + 1)))
        old = [Fraction(den * c, ia[0] ** (n + 1)) for n, c in enumerate(cs)]
        for g, w in zip(got.coeffs, old):
            same_fraction(g, w)
        assert got == ref_reciprocal(a)


class TestOverPower:
    # prime, unit and composite bases; the composite ones reach the loop's
    # later passes, where gcd(s, base) is a proper divisor of base
    @settings(max_examples=200)
    @given(
        base=st.sampled_from([1, 2, 89, 97, 4, 36, 6, 30, 210]),
        e=st.integers(min_value=0, max_value=60),
        c=st.integers(min_value=-10**12, max_value=10**12),
        j=st.integers(min_value=0, max_value=70),
    )
    @example(base=89, e=300, c=0, j=0)
    @example(base=36, e=5, c=-35, j=7)
    @example(base=210, e=60, c=1, j=60)
    @example(base=2, e=0, c=6, j=3)
    def test_matches_fraction(self, base, e, c, j):
        # t = c * base**j runs from 0 through units to high powers of base
        t, s = c * base**j, base**e
        got, want = _over_power(t, s, base), Fraction(t, s)
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
        assert type(got) is Fraction


def test_fraction_has_the_two_slots_the_kernels_write():
    # _coprime writes these two slots; a Python that renames them must fail here
    assert Fraction.__slots__ == ("_numerator", "_denominator")


class TestFrac:
    # n and d share g**min(i, j) and any common factor of c and e
    @settings(max_examples=300)
    @given(
        c=st.integers(min_value=-10**12, max_value=10**12),
        e=st.integers(min_value=1, max_value=10**12),
        sign=st.sampled_from([1, -1]),
        g=st.sampled_from([1, 2, 3, 89, 6, 36, 210]),
        i=st.integers(min_value=0, max_value=80),
        j=st.integers(min_value=0, max_value=80),
    )
    @example(c=0, e=1, sign=-1, g=1, i=0, j=0)
    @example(c=0, e=7, sign=1, g=89, i=0, j=40)
    @example(c=-5, e=10, sign=-1, g=2, i=60, j=60)
    @example(c=1, e=1, sign=-1, g=210, i=0, j=80)
    def test_matches_fraction(self, c, e, sign, g, i, j):
        n, d = c * g**i, sign * e * g**j
        same_fraction(_frac(n, d), Fraction(n, d))

    @pytest.mark.parametrize("n", [0, 5, -3, 10**40])
    def test_zero_denominator_raises(self, n):
        with pytest.raises(ZeroDivisionError):
            _frac(n, 0)


class TestRat:
    def test_fraction_passes_through(self):
        f = Fraction(-61, 89)
        assert _rat(f) is f

    @pytest.mark.parametrize("x", [0, 7, -3, 10**30])
    def test_int_becomes_fraction(self, x):
        same_fraction(_rat(x), Fraction(x))

    @pytest.mark.parametrize("x", [0.5, 0.0, 1.0, True, False])
    def test_float_and_bool_refused(self, x):
        with pytest.raises(TypeError):
            _rat(x)

    def test_poly_coefficient_still_refused(self):
        with pytest.raises(TypeError):
            Series([Poly((1, 2))])

    @pytest.mark.parametrize("bad", [0.1, True])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: s2_triangle(5, v),
            lambda v: s1_triangle(5, v),
            lambda v: dharmonic(3, v),
            lambda v: dhyperharmonic(3, 2, v),
            lambda v: dbernoulli_poly(3, v),
            lambda v: deuler_poly(3, v),
            lambda v: dbernoulli_value(3, Fraction(1, 2), v),
            lambda v: deuler_value(3, v, Fraction(1, 3)),
            lambda v: power_sum(2, 3, v),
            lambda v: gfact_falling(v, 3, Fraction(1, 2)),
            lambda v: gfact_rising(Fraction(1, 3), 3, v),
            lambda v: dfact(3, v),
            lambda v: poly_eval(Poly((1, 2)), v),
            lambda v: dexp(v, Fraction(1, 2), 4),
            lambda v: dlog(v, 4),
            lambda v: dpolylog(2, v, 4),
            lambda v: Series((1, v)),
            lambda v: Poly((1, v)),
        ],
    )
    def test_library_refuses_float_and_bool(self, call, bad):
        # a float is already rounded: s2_triangle(5, 0.1) would run at
        # lambda = 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            call(bad)


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


class TestDexp:
    # dexp is the one coefficient loop of dexp, dlog and dpolylog
    @settings(max_examples=100)
    @given(x0=st.one_of(rationals, st.integers(min_value=-50, max_value=50)), lam=lambdas, order=st.integers(min_value=0, max_value=20))
    @example(x0=Fraction(3, 2), lam=Fraction(1, 2), order=8)  # a factor x0 - k*lam vanishes at k = 3
    def test_matches_fraction_loop(self, x0, lam, order):
        got = dexp(x0, lam, order)
        want = ref_dexp(x0, lam, order)
        assert got.order == want.order
        for g, w in zip(got.coeffs, want.coeffs):
            same_fraction(g, w)


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
        # a fresh build: a row derives its integer form only on a kernel read
        sequences._STORE.pop((kind, Fraction(lam)), None)
        rows = build(n, lam).rows[: n + 1]
        assert all(type(row) is Poly and row._form is None for row in rows)
        coeffs = [row.coeffs for row in rows]
        assert coeffs == ref_triangle(weight, n, lam)
        assert all(type(c) is Fraction for row in coeffs for c in row)
        assert all(gcd(c.numerator, c.denominator) == 1 for row in coeffs for c in row)

    @pytest.mark.parametrize("kind", ["second", "first"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=40), lam=lambdas)
    @example(n=40, lam=Fraction(0))
    @example(n=40, lam=Fraction(1))
    @example(n=40, lam=Fraction(-3, 7))
    @example(n=40, lam=Fraction(31, 10**6 - 17))
    def test_row_form_is_the_canonical_scaling(self, kind, n, lam):
        row = TRIANGLES[kind][0](n, lam).rows[n]
        rational_dot(Poly(), row)  # a kernel read derives the row's integer form
        nums, d = lcm_form(row.coeffs)
        assert row._form == (nums, d)
        assert d > 0 and gcd(d, *nums) == 1 and nums[-1] != 0

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
    "first": (s1_triangle, sequences._EXTENDS["first"]),
    "second": (s2_triangle, sequences._EXTENDS["second"]),
    "bernoulli": (dbernoulli_poly, sequences._EXTENDS["bernoulli"]),
    "euler": (deuler_poly, sequences._EXTENDS["euler"]),
    "harmonic": (dharmonic, sequences._EXTENDS["harmonic"]),
    "bernoulli constants": (lambda n, lam: dbernoulli_value(n, lam, 0), sequences._EXTENDS["bernoulli constants"]),
    "euler constants": (lambda n, lam: deuler_value(n, lam, 0), sequences._EXTENDS["euler constants"]),
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
    def test_a_miss_past_the_floor_starts_from_the_stored_state(self, monkeypatch, family):
        # each weight runs once, for the entry it makes, and never again for
        # a stored one: the misses at 17, 18 and 20 start from the state
        make, weight = COUNTED_WEIGHTS[family]
        calls = []

        def counted(i, *args):
            calls.append(i)
            return weight(i, *args)

        lam, name = Fraction(-43, 10**6 - 29), f"counted {family}"
        monkeypatch.setitem(sequences._EXTENDS, name, make(counted))
        for n in (0, 16, 17, 18, 5, 20):
            sequences._grown(name, n, lam)
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


def _harmonic_from(prefix, lam):
    """Empty the store of the harmonic numbers at lam, or, for an int prefix,
    leave a cold build of the entries 0..prefix there, so that the next read
    grows them from its state."""
    sequences._STORE.pop(("harmonic", lam), None)
    if prefix is not None:
        sequences._put(("harmonic", lam), sequences._EXTENDS["harmonic"]((), None, prefix, lam))


class TestHarmonic:
    # the examples run cold builds and growth from short prefixes at lambda =
    # 1 and -2, where the products (j*q - p) vanish or stay integral, and at
    # 77/30, whose denominator has several primes, so the lcm d rises unevenly
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=60), prefix=st.none() | st.integers(min_value=0, max_value=60), lam=lambdas)
    @example(n=60, prefix=None, lam=Fraction(0))
    @example(n=60, prefix=3, lam=Fraction(1))
    @example(n=40, prefix=0, lam=Fraction(-2))
    @example(n=60, prefix=17, lam=Fraction(-3, 7))
    @example(n=60, prefix=None, lam=Fraction(57, 89))
    @example(n=33, prefix=5, lam=Fraction(77, 30))
    def test_matches_fraction_dfact_loop(self, n, prefix, lam):
        lam = Fraction(lam)
        _harmonic_from(prefix, lam)
        want = ref_harmonic(n, lam)
        got = [dharmonic(m, lam) for m in range(n + 1)]
        for g, w in zip(got, want, strict=True):
            same_fraction(g, w)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=60),
        r=st.integers(min_value=1, max_value=300),
        prefix=st.none() | st.integers(min_value=0, max_value=60),
        lam=lambdas,
    )
    @example(n=12, r=300, prefix=None, lam=Fraction(57, 89))
    @example(n=60, r=1, prefix=2, lam=Fraction(0))
    @example(n=8, r=299, prefix=None, lam=Fraction(1))
    @example(n=20, r=5, prefix=7, lam=Fraction(-2))
    @example(n=60, r=3, prefix=16, lam=Fraction(-3, 7))
    @example(n=10, r=150, prefix=4, lam=Fraction(77, 30))
    def test_matches_first_order_recurrence(self, n, r, prefix, lam):
        lam = Fraction(lam)
        _harmonic_from(prefix, lam)
        assert [dharmonic(m, lam) for m in range(n + 1)] == ref_hyperharmonic_recurrence(n, 1, lam)
        want = ref_hyperharmonic_recurrence(n, r, lam)
        row = dhyperharmonic_row(n, r, lam)
        for g, w in zip(row, want, strict=True):
            same_fraction(g, w)
        same_fraction(dhyperharmonic(n, r, lam), want[n])
        same_fraction(dhyperharmonic(n // 2, r, lam), want[n // 2])
