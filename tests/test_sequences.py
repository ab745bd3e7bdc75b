"""Triangles and number/polynomial families, each against its oracle."""

import random
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest

import classical_oracles as oracles
from degenmath import algebra, classical, identities, sequences, series
from degenmath.algebra import Poly, X, binom_poly, dfact, gfact_falling, poly_eval
from degenmath.identities import hyperharmonic_gf, run_identity
from degenmath.sequences import (
    StirlingTriangle,
    dbell_poly,
    dbernoulli_poly,
    dbernoulli_poly_stirling,
    dbernoulli_value,
    deuler_poly,
    deuler_value,
    dfubini_poly,
    dfubini_series_oracle,
    dharmonic,
    dhyperharmonic,
    dhyperharmonic_row,
    power_sum,
    s1_triangle,
    s2_triangle,
    stirling_series_oracle,
)

LAMBDAS = [
    Fraction(0),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(-3, 7),
    Fraction(1),
    Fraction(3),
]


class TestTriangles:
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_boundary_entries(self, lam):
        for tri in (s1_triangle(8, lam), s2_triangle(8, lam)):
            assert tri.entry(0, 0) == 1
            for n in range(1, 9):
                assert tri.entry(n, 0) == 0
                assert tri.entry(n, n) == 1
            assert tri.entry(3, 5) == 0
            assert tri.entry(3, -1) == 0

    def test_rows_past_the_store_are_refused_not_zero(self):
        # how many rows a triangle holds depends on how far the store grew,
        # so a row it does not hold is unknown, and entry says so as row does
        tri = s2_triangle(3, 0)
        last = len(tri.rows) - 1
        assert tri.entry(last, 1) == 1
        assert tri.entry(last, last + 1) == 0 and tri.entry(last, -1) == 0
        for n in (last + 1, -1):
            with pytest.raises(IndexError, match=f"row {n} is not in a table"):
                tri.entry(n, 1)
            with pytest.raises(IndexError, match=f"row {n} is not in a table"):
                tri.row(n)
        assert s2_triangle(last + 1, 0).entry(last + 1, 1) == 1

    def test_second_kind_small_entries(self):
        lam = Fraction(4, 9)
        tri = s2_triangle(3, lam)
        assert tri.entry(2, 1) == 1 - lam
        assert tri.entry(3, 2) == 3 * (1 - lam)

    def test_second_kind_classical(self):
        assert s2_triangle(4, 0).entry(4, 2) == 7

    def test_first_kind_small_entries(self):
        lam = Fraction(4, 9)
        tri = s1_triangle(3, lam)
        assert tri.entry(2, 1) == lam - 1
        assert tri.entry(3, 1) == (lam - 1) * (lam - 2)

    def test_first_kind_classical(self):
        tri = s1_triangle(3, 0)
        assert tri.entry(3, 1) == 2
        assert tri.entry(3, 2) == -3

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_second_kind_recurrence_everywhere(self, lam):
        tri = s2_triangle(10, lam)
        for n in range(10):
            for k in range(n + 2):
                assert tri.entry(n + 1, k) == tri.entry(n, k - 1) + (k - n * lam) * tri.entry(n, k)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_triangles_match_series_oracle(self, lam):
        # nmax 20 at order 24, entrywise, both kinds
        order = 24
        tri1 = s1_triangle(20, lam)
        tri2 = s2_triangle(20, lam)
        for n in range(21):
            for k in range(n + 1):
                assert tri1.entry(n, k) == stirling_series_oracle("first", n, k, lam, order)
                assert tri2.entry(n, k) == stirling_series_oracle("second", n, k, lam, order)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_matrix_inversion(self, lam):
        nmax = 12
        tri1 = s1_triangle(nmax, lam)
        tri2 = s2_triangle(nmax, lam)
        for n in range(nmax + 1):
            for k in range(nmax + 1):
                both = sum(tri1.entry(n, j) * tri2.entry(j, k) for j in range(nmax + 1))
                assert both == (1 if n == k else 0)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_basis_change_identities(self, lam):
        rng = random.Random(5)
        xs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(3)]
        for n in range(11):
            tri1 = s1_triangle(n, lam)
            tri2 = s2_triangle(n, lam)
            for x0 in xs:
                assert gfact_falling(x0, n, lam) == sum(
                    tri2.entry(n, k) * gfact_falling(x0, k, 1) for k in range(n + 1)
                )
                assert gfact_falling(x0, n, 1) == sum(
                    tri1.entry(n, k) * gfact_falling(x0, k, lam) for k in range(n + 1)
                )

    def test_oracle_errors(self):
        with pytest.raises(ValueError, match="^order must be >= 5, got 4"):
            stirling_series_oracle("first", 5, 2, Fraction(1, 2), 4)
        with pytest.raises(ValueError):
            stirling_series_oracle("third", 2, 1, 0, 8)
        with pytest.raises(ValueError):
            stirling_series_oracle("first", 2, 3, 0, 8)

    def test_oracle_spot_values(self):
        lam = Fraction(5, 8)
        assert stirling_series_oracle("first", 2, 1, lam, 4) == lam - 1
        assert stirling_series_oracle("second", 3, 3, lam, 4) == 1
        assert stirling_series_oracle("second", 2, 1, Fraction(1, 2), 4) == Fraction(1, 2)


class TestHarmonic:
    def test_values(self):
        lam = Fraction(3, 4)
        assert dharmonic(0, lam) == 0
        assert dharmonic(2, lam) == (3 - lam) / 2
        assert dharmonic(3, 0) == Fraction(11, 6)

    def test_hyperharmonic_values(self):
        lam = Fraction(5, 6)
        assert dhyperharmonic(2, 2, lam) == dharmonic(1, lam) + dharmonic(2, lam)
        assert dhyperharmonic(0, 3, Fraction(1, 2)) == 0
        assert dhyperharmonic(3, 2, 0) == Fraction(13, 3)

    def test_hyperharmonic_reduces_to_harmonic(self):
        lam = Fraction(-2, 5)
        for n in range(8):
            assert dhyperharmonic(n, 1, lam) == dharmonic(n, lam)

    def test_hyperharmonic_cumulative(self):
        lam = Fraction(1, 3)
        for r in range(2, 5):
            for n in range(8):
                assert dhyperharmonic(n, r, lam) == sum(
                    dhyperharmonic(k, r - 1, lam) for k in range(1, n + 1)
                )

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            dhyperharmonic(3, 0, 0)
        with pytest.raises(ValueError):
            dhyperharmonic_row(3, 0, 0)

    @pytest.mark.parametrize("r", [1, 2, 4])
    def test_hyperharmonic_row_is_cumulative_sums(self, r):
        lam = Fraction(2, 3)
        sums = [dharmonic(n, lam) for n in range(31)]
        for _ in range(r - 1):
            sums = [sum(sums[: n + 1]) for n in range(31)]
        row = dhyperharmonic_row(30, r, lam)
        assert list(row) == sums
        assert [dhyperharmonic(n, r, lam) for n in range(31)] == sums


def nested_bernoulli_sum(tri, n, lam):
    """sum_k k! T(n,k) sum_{j<=k} binom(x,j) dfact(k-j,lam)/(k-j+1)!, k outermost."""
    total = Poly()
    for k in range(n + 1):
        inner = Poly()
        for j in range(k + 1):
            inner = inner + binom_poly(j) * (dfact(k - j, lam) / factorial(k - j + 1))
        total = total + inner * (factorial(k) * tri.entry(n, k))
    return total


def nested_euler_sum(tri, n):
    """sum_k k! T(n,k) sum_{j<=k} binom(x,j) (-1/2)**(k-j), k outermost."""
    total = Poly()
    for k in range(n + 1):
        inner = Poly()
        for j in range(k + 1):
            inner = inner + binom_poly(j) * Fraction(-1, 2) ** (k - j)
        total = total + inner * (factorial(k) * tri.entry(n, k))
    return total


class TestTriangleSums:
    """Summing over k first is exact for any lower-triangular table, not only
    a Stirling one, so a mutated triangle reaches T4b and T7 as it reaches
    the double sums."""

    @pytest.mark.parametrize("seed", range(4))
    def test_k_first_matches_k_outer_on_any_table(self, seed):
        rng = random.Random(seed)
        rows = tuple(
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1))
            for n in range(11)
        )
        tri = StirlingTriangle(rows)
        lam = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        for n in range(11):
            bernoulli = sequences.bernoulli_weights(n, lam)
            assert sequences.binomial_sum(tri.row(n), bernoulli) == nested_bernoulli_sum(tri, n, lam)
            euler = sequences.euler_weights(n)
            assert sequences.binomial_sum(tri.row(n), euler) == nested_euler_sum(tri, n)


class TestBernoulli:
    def test_small(self):
        lam = Fraction(1, 2)
        assert dbernoulli_poly(0, lam) == Poly((1,))
        assert dbernoulli_poly(1, lam) == Poly(((lam - 1) / 2, 1))
        assert poly_eval(dbernoulli_poly(2, lam), 0) == (1 - lam * lam) / 6

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_dual_path(self, lam):
        for n in range(11):
            assert dbernoulli_poly(n, lam) == dbernoulli_poly_stirling(n, lam)

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(1, 2), Fraction(-3, 7)])
    def test_binomial_convolution(self, lam):
        # beta_n(x) = sum binom(n,k) beta_k * (x)_{n-k,lam} as exact polynomials
        numbers = [poly_eval(dbernoulli_poly(k, lam), 0) for k in range(9)]
        for n in range(9):
            rhs = sum(
                (
                    gfact_falling(X, n - k, lam) * (comb(n, k) * numbers[k])
                    for k in range(n + 1)
                ),
                Poly(),
            )
            assert dbernoulli_poly(n, lam) == rhs


class TestEuler:
    def test_small(self):
        lam = Fraction(1, 2)
        assert deuler_poly(0, lam) == Poly((1,))
        assert deuler_poly(1, lam) == Poly((Fraction(-1, 2), 1))
        assert poly_eval(deuler_poly(1, 0), 0) == Fraction(-1, 2)


class TestGrowthPastStoredMinimum:
    """Entries past n = 16 come from the step alone; check them against
    routes that do not use it."""

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3)])
    def test_bernoulli_matches_stirling_route(self, lam):
        for n in range(17, 25):
            assert dbernoulli_poly(n, lam) == dbernoulli_poly_stirling(n, lam)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3)])
    def test_euler_matches_triangle_sum(self, lam):
        for n in range(17, 25):
            assert run_identity("T4b", {"n": n, "lambda": lam}).passed

    def test_classical_limit(self):
        for n in range(17, 25):
            assert dbernoulli_poly(n, 0) == classical.bernoulli_poly(n)
            assert deuler_poly(n, 0) == oracles.euler_poly(n)


class TestBellFubini:
    def test_bell_small(self):
        lam = Fraction(5, 7)
        assert dbell_poly(0, lam) == Poly((1,))
        assert dbell_poly(2, lam) == Poly((0, 1 - lam, 1))
        assert poly_eval(dbell_poly(3, 0), 1) == 5

    def test_fubini_small(self):
        lam = Fraction(5, 7)
        assert dfubini_poly(1, lam) == X
        assert dfubini_poly(2, lam) == Poly((0, 1 - lam, 2))
        assert poly_eval(dfubini_poly(3, 0), 1) == 13

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_fubini_series_oracle(self, lam):
        for n in range(11):
            assert dfubini_poly(n, lam) == dfubini_series_oracle(n, lam)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_fubini_series_oracle_matches_its_generating_function(self, lam):
        # n + 1 points fix a polynomial of degree n; at each point the
        # generating function is a rational series, so its reciprocal runs
        # through the integer kernel
        for n in range(11):
            oracle = dfubini_series_oracle(n, lam)
            assert oracle.degree == n
            for i in range(n + 1):
                x0 = Fraction(2 * i - n, 3)
                gen = series.ser_reciprocal(-x0 * (series.dexp(1, lam, n) - 1) + 1)
                assert poly_eval(oracle, x0) == factorial(n) * gen.coeffs[n]


class TestClassicalDegeneration:
    """lambda = 0 must reproduce the classical families, n <= 10."""

    def test_stirling(self):
        tri1 = s1_triangle(10, 0)
        tri2 = s2_triangle(10, 0)
        c1 = oracles.stirling1_rows(10)
        c2 = classical.stirling2_rows(10)
        for n in range(11):
            for k in range(n + 1):
                assert tri1.entry(n, k) == c1[n][k]
                assert tri2.entry(n, k) == c2[n][k]

    def test_harmonic(self):
        for n in range(11):
            assert dharmonic(n, 0) == oracles.harmonic(n)

    def test_hyperharmonic_closed_form(self):
        for r in range(1, 5):
            for n in range(11):
                assert dhyperharmonic(n, r, 0) == oracles.hyperharmonic(n, r)

    def test_bernoulli(self):
        for n in range(11):
            assert dbernoulli_poly(n, 0) == classical.bernoulli_poly(n)

    def test_euler(self):
        for n in range(11):
            assert deuler_poly(n, 0) == oracles.euler_poly(n)

    def test_bell_numbers(self):
        for n in range(11):
            assert poly_eval(dbell_poly(n, 0), 1) == oracles.bell_number(n)

    def test_fubini_numbers(self):
        for n in range(11):
            assert poly_eval(dfubini_poly(n, 0), 1) == oracles.fubini_number(n)


# B_0..B_30 with B_1 = -1/2, as the memoised recursion this loop replaced gave them
BERNOULLI_NUMBERS = (
    "1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30", "0", "5/66", "0", "-691/2730", "0",
    "7/6", "0", "-3617/510", "0", "43867/798", "0", "-174611/330", "0", "854513/138", "0",
    "-236364091/2730", "0", "8553103/6", "0", "-23749461029/870", "0", "8615841276005/14322",
)


class TestClassicalBernoulli:
    def test_numbers(self):
        assert [classical.bernoulli_poly(n).coeffs[0] for n in range(31)] == list(map(Fraction, BERNOULLI_NUMBERS))

    def test_polynomials(self):
        for n in range(21):
            want = [comb(n, i) * Fraction(BERNOULLI_NUMBERS[n - i]) for i in range(n + 1)]
            assert classical.bernoulli_poly(n) == Poly(want)


class TestPowerSum:
    def test_values(self):
        lam = Fraction(9, 11)
        assert power_sum(0, 5, lam) == 5
        assert power_sum(1, 2, lam) == (1 - lam) + (2 - lam)
        assert power_sum(1, 2, Fraction(1, 2)) == 2

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            power_sum(-1, 3, 0)


def sized(name, call, ident):
    """A test param for call(value, lam), which passes value as the size argument name."""
    call.size_arg = name
    return pytest.param(call, id=ident)


def bounded(name, least, call, ident):
    """A test param for call(value, lam), whose size argument name must be >= least."""
    return pytest.param(name, least, call, id=ident)


class TestFamilyTypes:
    def test_poly_families_carry_polys(self):
        for family in (dbernoulli_poly, deuler_poly, dbell_poly, dfubini_poly):
            assert isinstance(family(3, Fraction(1, 2)), Poly)

    @pytest.mark.parametrize(
        "family",
        [dbernoulli_poly, deuler_poly, dbell_poly, dfubini_poly, s1_triangle, s2_triangle, dharmonic,
         pytest.param(lambda n, lam: dhyperharmonic(n, 2, lam), id="dhyperharmonic"),
         pytest.param(lambda n, lam: dhyperharmonic_row(n, 2, lam), id="dhyperharmonic_row")],
    )
    def test_poly_families_reject_negative_n(self, family):
        # a negative n must not index a stored table from its end
        with pytest.raises(ValueError, match="n must be >= 0"):
            family(-1, Fraction(0))

    @pytest.mark.parametrize("n", [5.9, True, Fraction(3)], ids=lambda n: type(n).__name__)
    @pytest.mark.parametrize(
        "family",
        [s1_triangle, s2_triangle, dharmonic, dbernoulli_poly, deuler_poly, dbell_poly, dfubini_poly,
         dbernoulli_poly_stirling,
         pytest.param(lambda n, lam: dhyperharmonic(n, 2, lam), id="dhyperharmonic"),
         pytest.param(lambda n, lam: dhyperharmonic_row(n, 2, lam), id="dhyperharmonic_row"),
         pytest.param(lambda n, lam: dbernoulli_value(n, lam, 1), id="dbernoulli_value"),
         pytest.param(lambda n, lam: deuler_value(n, lam, 1), id="deuler_value"),
         # the other size arguments, each taking n in its place
         sized("order", lambda n, lam: series.Series([1, 2], n), "Series-order"),
         sized("n", lambda n, lam: gfact_falling(3, n, lam), "gfact_falling-n"),
         sized("k", lambda n, lam: dfact(n, lam), "dfact-k"),
         sized("k", lambda n, lam: binom_poly(n), "binom_poly-k"),
         sized("r", lambda n, lam: dhyperharmonic(3, n, lam), "dhyperharmonic-r"),
         sized("r", lambda n, lam: dhyperharmonic_row(3, n, lam), "dhyperharmonic_row-r"),
         sized("p", lambda n, lam: power_sum(n, 3, lam), "power_sum-p"),
         sized("n", lambda n, lam: power_sum(2, n, lam), "power_sum-n"),
         sized("k", lambda n, lam: series.dpolylog(n, lam, 3), "dpolylog-k"),
         sized("exponent", lambda n, lam: series.Series([1, 2]) ** n, "Series-pow-exponent"),
         sized("order", lambda n, lam: series.Series([1, 2]).truncate(n), "truncate-order"),
         sized("order", lambda n, lam: series.dexp(1, lam, n), "dexp-order"),
         sized("order", lambda n, lam: series.dlog(lam, n), "dlog-order"),
         sized("order", lambda n, lam: series.dpolylog(2, lam, n), "dpolylog-order"),
         sized("k", lambda n, lam: stirling_series_oracle("second", 3, n, lam, 4), "stirling_series_oracle-k"),
         sized("n", lambda n, lam: stirling_series_oracle("second", n, 0, lam, 4), "stirling_series_oracle-n"),
         sized("order", lambda n, lam: stirling_series_oracle("second", 3, 1, lam, n), "stirling_series_oracle-order"),
         sized("n", dfubini_series_oracle, "dfubini_series_oracle-n"),
         sized("n", lambda n, lam: s2_triangle(6, lam).row(n), "row-n"),
         # an index outside the stored range reads zero, but must still be an int
         sized("k", lambda n, lam: s2_triangle(3, lam).entry(3, n), "entry-k"),
         sized("i", lambda n, lam: Poly((1, 2, 3)).coeff(n), "coeff-i"),
         sized("r", lambda n, lam: hyperharmonic_gf(lam, n, 4), "hyperharmonic_gf-r")],
    )
    def test_families_refuse_a_non_int_n(self, family, n):
        # a float n would be truncated or fail as an index, and True would read as n = 1
        with pytest.raises(TypeError, match=f"^{getattr(family, 'size_arg', 'n')} must be an int"):
            family(n, Fraction(0))

    @pytest.mark.parametrize(
        "name, least, call",
        [bounded("n", 0, lambda n, lam: gfact_falling(3, n, lam), "gfact_falling-n"),
         bounded("k", 0, lambda n, lam: binom_poly(n), "binom_poly-k"),
         bounded("k", 0, dfact, "dfact-k"),
         bounded("order", 0, lambda n, lam: series.Series([1, 2], n), "Series-order"),
         bounded("order", 0, lambda n, lam: series.Series([1, 2]).truncate(n), "truncate-order"),
         bounded("exponent", 0, lambda n, lam: series.Series([1, 2]) ** n, "Series-pow-exponent"),
         bounded("order", 0, lambda n, lam: series.dexp(1, lam, n), "dexp-order"),
         bounded("order", 0, lambda n, lam: series.dlog(lam, n), "dlog-order"),
         bounded("order", 0, lambda n, lam: series.dpolylog(2, lam, n), "dpolylog-order"),
         bounded("r", 1, lambda n, lam: dhyperharmonic(3, n, lam), "dhyperharmonic-r"),
         bounded("r", 1, lambda n, lam: dhyperharmonic_row(3, n, lam), "dhyperharmonic_row-r"),
         bounded("r", 1, lambda n, lam: hyperharmonic_gf(lam, n, 4), "hyperharmonic_gf-r"),
         bounded("p", 0, lambda n, lam: power_sum(n, 3, lam), "power_sum-p"),
         bounded("k", 0, lambda n, lam: stirling_series_oracle("second", 3, n, lam, 4), "stirling_series_oracle-k"),
         # n is bounded by k, and order by n
         bounded("n", 2, lambda n, lam: stirling_series_oracle("second", n, 2, lam, 8), "stirling_series_oracle-n"),
         bounded("order", 3, lambda n, lam: stirling_series_oracle("second", 3, 1, lam, n), "stirling_series_oracle-order"),
         bounded("n", 0, dfubini_series_oracle, "dfubini_series_oracle-n")],
    )
    def test_sizes_refuse_a_value_below_their_least(self, name, least, call):
        with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
            call(least - 1, Fraction(0))

    def test_scalar_families_carry_rationals(self):
        assert isinstance(dharmonic(3, 0), Fraction)
        assert isinstance(dhyperharmonic(3, 2, 0), Fraction)


class TestStore:
    def test_capacity_bounds_the_store(self):
        lams = [Fraction(1, 10**6 + i) for i in range(sequences.STORE_CAPACITY + 20)]
        for lam in lams:
            s2_triangle(3, lam)
            assert len(sequences._STORE) <= sequences.STORE_CAPACITY
        assert ("second", lams[-1]) in sequences._STORE
        assert ("second", lams[0]) not in sequences._STORE  # the oldest went first

    def test_oracle_memo_is_bounded(self):
        for i in range(sequences.STORE_CAPACITY + 20):
            stirling_series_oracle("second", 2, 1, Fraction(1, 3 * 10**6 + i), 2)
        assert sequences._gf_power.cache_info().currsize <= sequences.STORE_CAPACITY

    def test_concurrent_writers_keep_the_bound(self):
        errors = []

        def work(offset):
            try:
                for i in range(1500):
                    # an empty table is what a miss would start growing from
                    sequences._put(("second", Fraction(1, 2 * 10**6 + 4 * i + offset)), ((), None))
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
        assert len(sequences._STORE) <= sequences.STORE_CAPACITY

    def test_triangle_rows_built_once(self):
        # stepping n by one extends the stored triangle: every row object made
        # at its own step is still the one the final triangle holds
        lam = Fraction(11, 10**6 - 1)
        first_seen = []
        for n in range(51):
            first_seen.append(s2_triangle(n, lam).rows[n])
        final = s2_triangle(50, lam)
        assert all(final.rows[n] is row for n, row in enumerate(first_seen))
        assert s2_triangle(7, lam).rows is final.rows  # a hit returns the stored rows themselves
        del sequences._STORE[("second", lam)]
        assert s2_triangle(50, lam).rows == final.rows  # growing equals one build

    @pytest.mark.parametrize("family", ["first", "second", "bernoulli", "euler", "harmonic"])
    def test_one_growth_rule(self, monkeypatch, family):
        fn = {"first": s1_triangle, "second": s2_triangle,
              "bernoulli": dbernoulli_poly, "euler": deuler_poly, "harmonic": dharmonic}[family]
        lam = Fraction(17, 10**6 - 7)
        key = (family, lam)
        computed = []
        extend = sequences._EXTENDS[family]

        def counted(entries, state, upto, at):
            # one extend call builds the entries len(entries)..upto
            computed.extend(range(len(entries), upto + 1))
            return extend(entries, state, upto, at)

        monkeypatch.setitem(sequences._EXTENDS, family, counted)
        fn(0, lam)
        first = sequences._STORE[key][0]
        assert len(first) == sequences.GROW_MIN_N + 1 == 17
        assert computed == list(range(17))
        for n in range(41):
            fn(n, lam)
        assert computed == list(range(41))  # each entry computed once, in order
        entry = sequences._STORE[key]
        stored = entry[0]
        assert all(a is b for a, b in zip(stored, first))  # growth keeps the entries
        computed.clear()
        hit = fn(7, lam)
        assert computed == []
        if family in ("first", "second"):
            assert hit.rows is stored and len(hit.rows) == 41
        else:
            assert hit is stored[7]
        del sequences._STORE[key]
        fn(40, lam)
        # step-by-step growth equals one build, the state included
        assert sequences._STORE[key] == entry

    def test_hyperharmonic_row_reads_the_harmonic_entries_once(self, monkeypatch):
        lam = Fraction(29, 10**6 - 13)
        reads = []
        grown = sequences._grown

        def counting(name, n, at):
            reads.append((name, n))
            return grown(name, n, at)

        monkeypatch.setattr(sequences, "_grown", counting)
        row = dhyperharmonic_row(40, 3, lam)
        # the numerators' one miss reads the harmonic entries, and a hit reads
        # the numerators alone
        assert reads == [("harmonic numerators", 40), ("harmonic", 40)] and len(row) == 41
        assert [key for key in sequences._STORE if key[1] == lam] == [
            ("harmonic", lam), ("harmonic numerators", lam)]
        reads.clear()
        dhyperharmonic_row(40, 2, lam)
        assert reads == [("harmonic numerators", 40)]

    def test_harmonic_rows_rescale_nothing(self, monkeypatch):
        # a harmonic miss appends entries and touches no stored one, and a
        # hyperharmonic pass after a harmonic table takes one numerators miss,
        # which puts every stored harmonic entry over one lcm
        lam = Fraction(43, 10**6 - 29)
        rescales, misses = [], []
        over_lcm = sequences._over_lcm
        monkeypatch.setattr(sequences, "_over_lcm", lambda *args: rescales.append(args) or over_lcm(*args))
        for n in range(301):
            dharmonic(n, lam)
        assert rescales == []
        extend = sequences._EXTENDS["harmonic numerators"]
        monkeypatch.setitem(
            sequences._EXTENDS, "harmonic numerators", lambda *args: misses.append(args[2]) or extend(*args))
        for n in range(301):
            dhyperharmonic(n, 3, lam)
        assert misses == [sequences.GROW_MIN_N] and len(rescales) == 1

    def test_harmonic_numerators_grown_step_by_step_equal_one_build(self):
        # the numerators are rescaled as d rises, so their growth is checked
        # by value, the state d included, and not by identity
        lam = Fraction(47, 10**6 - 31)
        key = ("harmonic numerators", lam)
        for n in range(41):
            dhyperharmonic(n, 2, lam)
        entry = sequences._STORE[key]
        assert len(entry[0]) == 41
        for family in ("harmonic", "harmonic numerators"):
            del sequences._STORE[(family, lam)]
        dhyperharmonic(40, 2, lam)
        assert sequences._STORE[key] == entry

    def test_harmonic_family_builds_no_falling_factorial(self, monkeypatch):
        # the harmonic extend runs on integers, so T3's two sides no longer
        # share gfact_falling: its left side reads the stored harmonic
        # numbers, its right side the rising factorials
        lam = Fraction(31, 10**6 - 17)

        def untouchable(*args):
            raise AssertionError("the harmonic family built a falling factorial")

        monkeypatch.setattr(sequences, "dfact", untouchable)
        for name in ("dfact", "gfact_falling"):
            monkeypatch.setattr(algebra, name, untouchable)
        dharmonic(40, lam)
        dhyperharmonic_row(40, 3, lam)

    def test_appell_polys_store_only_their_own_families(self):
        # the Appell step sums in the falling-factorial basis without storing
        # it; the constants it reads are a family of their own
        lam = Fraction(37, 10**6 - 19)
        dbernoulli_poly(20, lam)
        deuler_poly(20, lam)
        assert sorted(key[0] for key in sequences._STORE if key[1] == lam) == [
            "bernoulli", "bernoulli constants", "euler", "euler constants"]

    def test_appell_step_reads_no_binomial_memo(self, monkeypatch):
        # the Appell step must stay independent of dbernoulli_poly_stirling,
        # which is its oracle and reads binom_poly, dfact, gfact_falling and
        # rational_dot; the binom_poly memo is built by Poly products, so the
        # step shares no integer kernel with them either
        lam = Fraction(23, 10**6 - 11)
        oracle = [dbernoulli_poly_stirling(n, lam) for n in range(13)]

        def untouchable(*args):
            raise AssertionError("the Appell step read a kernel of its oracle")

        for module in (sequences, algebra):
            for name in ("binom_poly", "dfact", "poly_combination", "rational_dot"):
                monkeypatch.setattr(module, name, untouchable)
        for name in ("gfact_falling", "_integer_numerators", "_cauchy_product"):
            monkeypatch.setattr(algebra, name, untouchable)
        monkeypatch.setattr(algebra, "_BINOMS", None)
        assert [dbernoulli_poly(n, lam) for n in range(13)] == oracle
        deuler_poly(12, lam)

    def test_value_kernel_builds_no_polynomial(self, monkeypatch):
        # a value is one integer sum over the stored constants: it builds and
        # evaluates no Poly and reads none of the checkers' integer kernels,
        # also when it has to build the constants themselves
        lam, x0 = Fraction(41, 10**6 - 23), Fraction(-7, 3)
        want = [(poly_eval(dbernoulli_poly(n, lam), x0), poly_eval(deuler_poly(n, lam), x0)) for n in range(25)]
        for family in ("bernoulli", "bernoulli constants", "euler", "euler constants"):
            del sequences._STORE[(family, lam)]

        def untouchable(*args):
            raise AssertionError("the value kernel built a polynomial or read a checker kernel")

        for name in ("__init__", "__mul__", "__rmul__"):
            monkeypatch.setattr(Poly, name, untouchable)
        for module in (sequences, algebra):
            for name in ("poly_combination", "rational_dot"):
                monkeypatch.setattr(module, name, untouchable)
        for name in ("poly_eval", "_integer_numerators"):
            monkeypatch.setattr(algebra, name, untouchable)
        got = [(sequences.dbernoulli_value(n, lam, x0), sequences.deuler_value(n, lam, x0)) for n in range(25)]
        assert got == want
        assert ("bernoulli", lam) not in sequences._STORE and ("euler", lam) not in sequences._STORE

    def test_triangle_and_hyperharmonic_steps_read_no_series_kernel(self, monkeypatch):
        # stirling_series_oracle and hyperharmonic_gf are the oracles of the
        # triangle and hyperharmonic steps and run on the series kernels and
        # the Poly/Series integer products, so the steps may use none of them;
        # neither the oracles nor the steps sum through rational_dot
        lam = Fraction(31, 10**6 - 17)

        def untouchable(*args):
            raise AssertionError("a triangle or hyperharmonic step read a kernel of its oracle")

        for module in (algebra, sequences, identities):
            monkeypatch.setattr(module, "rational_dot", untouchable)
        oracles = {
            kind: [[stirling_series_oracle(kind, n, k, lam, 12) for k in range(n + 1)] for n in range(13)]
            for kind in ("first", "second")
        }
        gfs = {r: hyperharmonic_gf(lam, r, 12).coeffs for r in (1, 2, 3)}
        fubini = [dfubini_series_oracle(n, lam) for n in range(8)]

        for name in ("dexp", "dlog", "ser_compose", "ser_reciprocal"):
            monkeypatch.setattr(series, name, untouchable)
        for name in ("dexp", "dlog"):  # the names sequences imports
            monkeypatch.setattr(sequences, name, untouchable)
        for module in (algebra, series):
            for name in ("_integer_numerators", "_cauchy_product"):
                monkeypatch.setattr(module, name, untouchable)
        for module in (algebra, sequences):
            monkeypatch.setattr(module, "poly_combination", untouchable)
        assert [list(row) for row in s1_triangle(12, lam).rows[:13]] == oracles["first"]
        assert [list(row) for row in s2_triangle(12, lam).rows[:13]] == oracles["second"]
        for r, coeffs in gfs.items():
            assert dhyperharmonic_row(12, r, lam) == coeffs
            assert dhyperharmonic(12, r, lam) == coeffs[12]
        assert [dfubini_poly(n, lam) for n in range(8)] == fubini
