"""Identity registry, single checks, and the sweep runner."""

import json
from fractions import Fraction

import pytest

from degenmath.algebra import Poly
from degenmath.identities import (
    ALL_IDENTITY_IDS,
    BindingError,
    DEFAULT_GRID,
    Grid,
    REGISTRY,
    UnknownIdentityError,
    check_result_json,
    list_identities,
    run_identity,
    run_suite,
    suite_report_json,
)
from degenmath.series import Series

HALF = Fraction(1, 2)

ENUMERATED_IDS = (
    "T1", "T2", "T3", "T4a", "T4b", "E32", "T5", "T6", "T7", "T8", "T9", "T10",
    "T11a", "T11b", "T12", "E61", "T13", "T13r", "T14", "T15", "C15", "E44",
    "E59", "E66", "E67",
)

POLY_IDENTITIES = ("T4a", "T4b", "T5", "T6", "T7", "T11a", "T11b", "T12", "E61", "T13", "T14")


class TestRegistry:
    def test_stable_enumeration(self):
        assert ALL_IDENTITY_IDS == ENUMERATED_IDS
        assert [s.id for s in list_identities()] == list(ENUMERATED_IDS)

    def test_schemas(self):
        t12 = REGISTRY["T12"].param_summary()
        assert t12 == {"n": "int >= 1", "lambda": "rational", "x": "symbolic"}
        e67 = REGISTRY["E67"].param_summary()
        assert "tol" in e67 and e67["tol"] == "rational > 0"
        assert REGISTRY["T15"].param_summary()["n"] == "int >= 2"

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            run_identity("NOPE", {"n": 2})

    def test_binding_validation(self):
        with pytest.raises(BindingError):
            run_identity("T15", {"n": 1, "lambda": HALF})  # below schema minimum
        with pytest.raises(BindingError):
            run_identity("T15", {"lambda": HALF})  # missing n
        with pytest.raises(BindingError):
            run_identity("T15", {"n": 3, "lambda": HALF, "bogus": 1})
        with pytest.raises(BindingError):
            run_identity("T2", {"n": "2", "r": 1, "lambda": HALF})


class TestSingleChecks:
    @pytest.mark.parametrize("ident", ENUMERATED_IDS)
    def test_checker_reports_its_own_id(self, ident):
        grid = Grid(nmax=2, rmax=1, pmax=0, lambdas=(HALF,), order=4)
        binding = next(REGISTRY[ident].bindings(grid))
        assert run_identity(ident, binding).id == ident

    def test_t15_example(self):
        res = run_identity("T15", {"n": 3, "lambda": HALF})
        assert res.passed
        assert res.lhs == res.rhs == 1  # 2(1-lam) at lam = 1/2

    def test_t2_example(self):
        res = run_identity("T2", {"n": 2, "r": 1, "lambda": Fraction(7, 9)})
        assert res.passed
        assert res.lhs == res.rhs == 2

    def test_t3_trivial_instance(self):
        res = run_identity("T3", {"n": 1, "r": 1, "lambda": Fraction(2, 3)})
        assert res.passed
        assert res.lhs == 1

    def test_c15_example(self):
        res = run_identity("C15", {"n": 3})
        assert res.passed
        assert res.lhs == res.rhs == 2

    def test_purity(self):
        binding = {"n": 5, "lambda": Fraction(-3, 7)}
        assert run_identity("T9", binding) == run_identity("T9", binding)

    @pytest.mark.parametrize("ident", POLY_IDENTITIES)
    def test_symbolic_identities_compare_polys(self, ident):
        res = run_identity(ident, {"n": 3, "lambda": HALF})
        assert res.passed
        assert isinstance(res.lhs, Poly) and isinstance(res.rhs, Poly)

    @pytest.mark.parametrize("order", [12, 17])
    def test_t1_truncation_robust(self, order):
        res = run_identity("T1", {"r": 3, "lambda": Fraction(2, 3), "order": order})
        assert res.passed
        assert isinstance(res.lhs, Series) and res.lhs.order == order

    @pytest.mark.parametrize("order", [12, 17])
    def test_e44_truncation_robust(self, order):
        res = run_identity("E44", {"lambda": Fraction(-1, 2), "order": order})
        assert res.passed

    def test_t12_documents_printed_variant(self):
        agree = run_identity("T12", {"n": 2, "lambda": HALF})
        assert agree.passed and "matches" in agree.note
        diverge = run_identity("T12", {"n": 3, "lambda": HALF})
        assert diverge.passed  # the general statement still holds
        assert "differs" in diverge.note

    def test_t13_checks_integral_restatement(self):
        res = run_identity("T13", {"n": 4, "lambda": Fraction(-1, 2)})
        assert res.passed
        assert "integral" in res.note

    def test_e67_partial_sums_monotone(self):
        from degenmath.algebra import gfact_falling, poly_eval
        from degenmath.sequences import dfubini_poly

        n, lam = 4, HALF
        exact = poly_eval(dfubini_poly(n, lam), 1)
        errors = []
        partial = Fraction(0)
        for k in range(60):
            partial += gfact_falling(Fraction(k), n, lam) * Fraction(1, 2 ** (k + 1))
            errors.append(abs(partial - exact))
        # past the hump the error must decrease monotonically
        tail = errors[10:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_e67_respects_tolerance(self):
        res = run_identity("E67", {"n": 3, "lambda": HALF, "tol": Fraction(1, 10**30)})
        assert res.passed
        assert abs(res.lhs - res.rhs) <= Fraction(1, 10**30)


class TestSuite:
    def test_small_grid_passes(self):
        grid = Grid(nmax=4, rmax=2, pmax=2, lambdas=(Fraction(0), HALF), order=10)
        report = run_suite(grid)
        assert report.all_pass
        assert [r.id for r in report.results] == list(ENUMERATED_IDS)
        assert all(r.fail_count == 0 for r in report.results)
        # T1 runs r x lambda at two orders
        t1 = report.results[0]
        assert t1.id == "T1" and t1.pass_count == 2 * 2 * 2

    def test_empty_lambda_list(self):
        report = run_suite(Grid(lambdas=()))
        executed = sum(r.pass_count + r.fail_count for r in report.results if r.id != "C15")
        assert executed == 0
        assert report.all_pass

    def test_id_filter_and_unknown(self):
        grid = Grid(nmax=3, lambdas=(HALF,))
        report = run_suite(grid, ids=["T15"])
        assert [r.id for r in report.results] == ["T15"]
        with pytest.raises(UnknownIdentityError):
            run_suite(grid, ids=["T15", "NOPE"])

    def test_report_json_schema(self):
        grid = Grid(nmax=3, rmax=1, pmax=1, lambdas=(HALF,), order=8)
        report = run_suite(grid, ids=["T15", "E67"])
        doc = suite_report_json(report)
        assert set(doc) == {"grid", "results", "all_pass"}
        assert doc["grid"]["lambdas"] == ["1/2"]
        assert doc["all_pass"] is True
        json.dumps(doc)  # must be serializable

    def test_failure_counterexample_payload(self):
        from degenmath import sequences
        from degenmath.identities import Tables

        def broken_s2(nmax, lam):
            tri = sequences.s2_triangle(nmax, lam)
            rows = [list(r) for r in tri.rows]
            rows[3][2] += 1
            return sequences.StirlingTriangle(tuple(tuple(r) for r in rows))

        res = run_identity("T15", {"n": 3, "lambda": HALF}, tables=Tables(s2_builder=broken_s2))
        assert not res.passed
        assert res.lhs != res.rhs
        payload = check_result_json(res)
        assert payload["pass"] is False
        assert payload["binding"] == {"n": 3, "lambda": "1/2"}
        assert payload["lhs"]["kind"] == "rational"


class TestDefaultGrid:
    def test_acceptance_grid_values(self):
        assert DEFAULT_GRID.nmax == 12
        assert DEFAULT_GRID.rmax == 4
        assert DEFAULT_GRID.pmax == 6
        assert DEFAULT_GRID.order == 24
        assert DEFAULT_GRID.e67_tol == Fraction(1, 10**30)
        expected = {Fraction(s) for s in ("0", "1/2", "-1/2", "1", "-1", "2/3", "-3/7", "3", "1/5")}
        assert set(DEFAULT_GRID.lambdas) == expected
