"""Identity registry, single checks, and the sweep runner."""

import dataclasses
import json
import tracemalloc
from fractions import Fraction

import pytest

from degenmath import identities
from degenmath.algebra import Poly
from degenmath.identities import (
    BindingError,
    CheckResult,
    DEFAULT_GRID,
    Grid,
    REGISTRY,
    UnknownIdentityError,
    check_result_json,
    identity,
    list_identities,
    run_identity,
    run_suite,
    selected_ids,
    suite_report_json,
)
from degenmath.series import Series
from mutants import at_entry_3, counting_checkers, mutated

HALF = Fraction(1, 2)

ENUMERATED_IDS = (
    "T1", "T2", "T3", "T4a", "T4b", "E32", "T5", "T6", "T7", "T8", "T9", "T10",
    "T11a", "T11b", "T12", "E61", "T13", "T13r", "T14", "T15", "C15", "E44",
    "E59", "E66", "E67",
)

POLY_IDENTITIES = ("T4a", "T4b", "T5", "T6", "T7", "T11a", "T11b", "T12", "E61", "T13", "T14")


class TestRegistry:
    def test_stable_enumeration(self):
        assert tuple(REGISTRY) == ENUMERATED_IDS
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

    @pytest.mark.parametrize(
        "ident, binding",
        [
            ("T15", {"n": 3, "lambda": 0.1}),
            ("T15", {"n": 3, "lambda": True}),
            ("E67", {"n": 3, "lambda": HALF, "tol": 1e-30}),
        ],
    )
    def test_float_or_bool_rational_is_rejected(self, ident, binding):
        # a float would be checked at its binary value, not the one written
        with pytest.raises(BindingError, match="must be rational, not"):
            run_identity(ident, binding)

    def test_checker_with_swapped_parameters_is_rejected(self, monkeypatch):
        monkeypatch.setattr(identities, "REGISTRY", {})
        declare = identity("T2", REGISTRY["T2"].params, "swapped")

        def swapped(r, n, lam):
            return 0, 0

        with pytest.raises(TypeError, match="schema declares"):
            declare(swapped)
        assert identities.REGISTRY == {}

        def in_order(n, r, lam):
            return 0, 0

        assert declare(in_order) is in_order
        assert identities.REGISTRY["T2"].checker is in_order

    def test_check_builds_the_result_from_the_returned_sides(self):
        spec = REGISTRY["T15"]
        binding = {"n": 3, "lambda": HALF}

        def result(*sides):
            return dataclasses.replace(spec, checker=lambda n, lam: sides).check(binding)

        assert result(1, 1) == CheckResult("T15", binding, 1, 1, True)
        assert result(1, 2, "why") == CheckResult("T15", binding, 1, 2, False, "why")
        assert result(1, 1, "why", False) == CheckResult("T15", binding, 1, 1, False, "why")
        assert result(1, 2, "", True).passed
        assert result(1, 1).binding is not binding


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
        # at r > order the binomial coefficients of (1-t)^r past order are cut
        for r in (3, order + 5):
            res = run_identity("T1", {"r": r, "lambda": Fraction(2, 3), "order": order})
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

    def test_t13_fails_when_the_integral_restatement_differs(self, monkeypatch):
        # the (k-1)!-weighted rows still agree, so only the restatement fails
        monkeypatch.setattr(identities, "poly_int_over_t", lambda p: Poly())
        res = run_identity("T13", {"n": 4, "lambda": Fraction(-1, 2)})
        assert not res.passed
        assert res.lhs == res.rhs
        assert res.note.startswith("integral restatement differs")

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

    def test_checkers_read_the_triangles_from_sequences(self, monkeypatch):
        def unused(nmax, lam):
            raise AssertionError("a checker read a triangle through Tables")

        monkeypatch.setattr(identities._DEFAULT_TABLES, "_builders", {"first": unused, "second": unused})
        assert run_suite(Grid(nmax=3, rmax=1, pmax=1, lambdas=(HALF,), order=5)).all_pass

    def test_c15_sweep_keeps_no_table_per_n(self):
        # C15 reads classical.stirling2_rows(n) once per n; a memo keyed by n
        # would keep every table of the sweep
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run_suite(Grid(nmax=100), ids=("C15",))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.all_pass and report.results[0].pass_count == 99
        assert held < 2**20

    def test_empty_lambda_list(self):
        report = run_suite(Grid(lambdas=()))
        executed = sum(r.pass_count + r.fail_count for r in report.results if r.id != "C15")
        assert executed == 0
        assert report.all_pass

    @pytest.mark.parametrize(
        "lambdas, error",
        [
            ((0.5,), "lambdas must be rational, not float"),
            ((HALF, Fraction(1, 3), "2/4"), "lambdas: 1/2 appears more than once"),
        ],
    )
    def test_float_or_repeated_lambda_is_rejected_before_any_check(self, monkeypatch, lambdas, error):
        def untouchable(*args):
            raise AssertionError("a checker ran")

        monkeypatch.setattr(identities.IdentitySpec, "check", untouchable)
        with pytest.raises(BindingError, match=error):
            run_suite(Grid(lambdas=lambdas))

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"nmax": True}, "nmax must be an integer"),
            ({"nmax": 3.0}, "nmax must be an integer"),
            ({"nmax": -1}, "nmax = -1 outside schema"),
            ({"rmax": 0}, "rmax = 0 outside schema"),
            ({"pmax": -1}, "pmax = -1 outside schema"),
            ({"order": 0}, "order = 0 outside schema"),
            ({"e67_tol": -1}, "e67_tol must be positive"),
            ({"e67_tol": 1e-30}, "e67_tol must be rational, not float"),
            ({"lambdas": (True,)}, "lambdas must be rational, not bool"),
            ({"lambdas": ("x",)}, "lambdas must be rational"),
            ({"lambdas": "12"}, "lambdas must be a sequence of rationals, not a str"),
        ],
    )
    def test_bad_grid_field_is_rejected_when_the_grid_is_built(self, fields, error):
        with pytest.raises(BindingError, match=error):
            Grid(**fields)

    def test_grid_and_its_report_hold_normalised_fractions(self):
        grid = Grid(lambdas=["2/4", 3], e67_tol="2/200")
        assert grid.lambdas == (HALF, Fraction(3)) and type(grid.lambdas) is tuple
        assert grid.e67_tol == Fraction(1, 100) and isinstance(grid.e67_tol, Fraction)
        report = run_suite(Grid(nmax=3, lambdas=("2/4",)), ids=["T15"])
        assert suite_report_json(report)["grid"]["lambdas"] == ["1/2"]

    @pytest.mark.parametrize("ids, empty", [(["T15"], "T15"), (["E59", "T15", "C15"], "T15, C15")])
    def test_named_id_with_no_bindings_is_refused_before_any_check(self, monkeypatch, ids, empty):
        def untouchable(*args):
            raise AssertionError("a checker ran")

        monkeypatch.setattr(identities.IdentitySpec, "check", untouchable)
        with pytest.raises(BindingError, match=f"no bindings checked for {empty}; widen the grid"):
            run_suite(Grid(nmax=1), ids=ids)

    @pytest.mark.parametrize("ids", [None, []], ids=["registry", "no-ids"])
    def test_sweep_with_no_binding_at_all_is_refused_before_any_check(self, monkeypatch, ids):
        def untouchable(*args):
            raise AssertionError("a checker ran")

        monkeypatch.setattr(identities.IdentitySpec, "check", untouchable)
        with pytest.raises(BindingError, match="no bindings checked for any selected identity; widen the grid"):
            run_suite(Grid(nmax=1, lambdas=()), ids=ids)

    def test_bare_str_ids_is_a_type_error(self, monkeypatch):
        def untouchable(*args):
            raise AssertionError("a checker ran")

        monkeypatch.setattr(identities.IdentitySpec, "check", untouchable)
        with pytest.raises(TypeError, match="not the str 'T15'"):
            run_suite(Grid(nmax=3), ids="T15")

    def test_id_filter_and_unknown(self):
        grid = Grid(nmax=3, lambdas=(HALF,))
        report = run_suite(grid, ids=["T15"])
        assert [r.id for r in report.results] == ["T15"]
        with pytest.raises(UnknownIdentityError):
            run_suite(grid, ids=["T15", "NOPE"])

    @pytest.mark.parametrize(
        "grid, ids, error",
        [
            (Grid(nmax=3), ["T15", "NOPE"], UnknownIdentityError),
            (Grid(nmax=1), ["T15"], BindingError),
            (Grid(nmax=1), ["E59", "T15", "C15"], BindingError),
            (Grid(nmax=1, lambdas=()), None, BindingError),
            (Grid(nmax=1, lambdas=()), [], BindingError),
            (Grid(nmax=3), "T15", TypeError),
            (Grid(nmax=3), ["T15", "T1", "T15"], BindingError),
        ],
        ids=["unknown-id", "empty-id", "empty-ids", "no-binding-registry", "no-ids", "bare-str", "repeated-id"],
    )
    def test_selected_ids_refuses_what_run_suite_refuses(self, monkeypatch, grid, ids, error):
        calls = counting_checkers(monkeypatch)
        with pytest.raises(error) as by_selection:
            selected_ids(grid, ids)
        with pytest.raises(error) as by_suite:
            run_suite(grid, ids)
        assert str(by_suite.value) == str(by_selection.value)
        assert calls == []

    def test_selected_ids_are_in_registry_order(self):
        assert selected_ids(DEFAULT_GRID) == list(REGISTRY)
        assert selected_ids(Grid(nmax=3), ["T15", "T1"]) == ["T1", "T15"]

    def test_report_json_schema(self):
        grid = Grid(nmax=3, rmax=1, pmax=1, lambdas=(HALF,), order=8)
        report = run_suite(grid, ids=["T15", "E67"])
        doc = suite_report_json(report)
        assert set(doc) == {"grid", "results", "all_pass"}
        assert doc["grid"]["lambdas"] == ["1/2"]
        assert doc["all_pass"] is True
        json.dumps(doc)  # must be serializable

    def test_failure_counterexample_payload(self):
        # the real second-kind extend, with S(3,2) bumped by one
        broken_s2 = at_entry_3("second", lambda row: row[:2] + (row[2] + 1,) + row[3:])
        with mutated("second", broken_s2):
            res = run_identity("T15", {"n": 3, "lambda": HALF})
        assert not res.passed
        assert res.lhs != res.rhs
        payload = check_result_json(res)
        assert payload["pass"] is False
        assert payload["binding"] == {"n": 3, "lambda": "1/2"}
        assert payload["lhs"]["kind"] == "rational"


class TestPolyCombinationGuard:
    # every checker sum routed through poly_combination must notice a kernel
    # that drops a term: a bug in the kernel cannot pass both sides alike
    ROUTED = ("T4a", "T5", "T6", "T11b", "T12", "E61")
    GRID = Grid(nmax=4, lambdas=(HALF, Fraction(-3, 7)))

    def test_dropping_the_last_term_fails_each_routed_identity(self, monkeypatch):
        from degenmath import algebra, identities, sequences

        honest = run_suite(self.GRID, ids=self.ROUTED)
        assert all(r.fail_count == 0 and r.pass_count > 0 for r in honest.results)

        def drop_last(terms):
            return algebra.poly_combination(list(terms)[:-1])

        for module in (identities, sequences):
            monkeypatch.setattr(module, "poly_combination", drop_last)
        report = run_suite(self.GRID, ids=self.ROUTED)
        assert {r.id: r.fail_count > 0 for r in report.results} == dict.fromkeys(self.ROUTED, True)


class TestRationalDotGuard:
    # every checker sum routed through rational_dot, directly or through
    # sequences.binomial_sum, must notice a kernel that drops its last pair
    ROUTED = ("T2", "T3", "T4a", "T4b", "E32", "T5", "T6", "T7", "T8", "T9", "T10", "E61", "T13r", "T15")
    GRID = Grid(nmax=4, lambdas=(HALF, Fraction(-3, 7)))

    def test_dropping_the_last_pair_fails_each_routed_identity(self, monkeypatch):
        from degenmath import algebra, identities, sequences

        honest = run_suite(self.GRID, ids=self.ROUTED)
        assert all(r.fail_count == 0 and r.pass_count > 0 for r in honest.results)

        def drop_last(xs, ys):
            xs, ys = list(xs), list(ys)
            n = min(len(xs), len(ys))
            # at n == 0 both slices still pair nothing
            return algebra.rational_dot(xs[: n - 1], ys[: n - 1])

        for module in (identities, sequences):
            monkeypatch.setattr(module, "rational_dot", drop_last)
        report = run_suite(self.GRID, ids=self.ROUTED)
        assert {r.id: r.fail_count > 0 for r in report.results} == dict.fromkeys(self.ROUTED, True)


class TestDefaultGrid:
    def test_acceptance_grid_values(self):
        assert DEFAULT_GRID.nmax == 12
        assert DEFAULT_GRID.rmax == 4
        assert DEFAULT_GRID.pmax == 6
        assert DEFAULT_GRID.order == 24
        assert DEFAULT_GRID.e67_tol == Fraction(1, 10**30)
        expected = {Fraction(s) for s in ("0", "1/2", "-1/2", "1", "-1", "2/3", "-3/7", "3", "1/5")}
        assert set(DEFAULT_GRID.lambdas) == expected
