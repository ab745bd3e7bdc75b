"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite asserts exact equality everywhere except criterion 7,
whose tolerance is 10**-30 evaluated in exact rational arithmetic.
"""

import dataclasses
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import classical_oracles as oracles
from degenmath import algebra, classical, sequences
from degenmath.algebra import poly_eval
from degenmath.cli import main
from degenmath.identities import (
    DEFAULT_GRID,
    REGISTRY,
    Grid,
    _binding_json,
    _validated,
    run_identity,
    run_suite,
    suite_report_json,
)
from degenmath.sequences import (
    dbell_poly,
    dbernoulli_poly,
    dbernoulli_poly_stirling,
    deuler_poly,
    dfubini_poly,
    dharmonic,
    dhyperharmonic,
    s1_triangle,
    s2_triangle,
    stirling_series_oracle,
)
from degenmath.series import Series, dexp, dlog, ser_compose
from mutants import (
    at_entry_3,
    mutate_convolution,
    mutate_poly_combination,
    mutate_poly_int_over_t,
    mutate_poly_product,
    mutate_rational_dot,
    mutated,
    row_change,
)

GRID_LAMBDAS = DEFAULT_GRID.lambdas

# Golden files.  Regenerate only when an output is meant to change:
#   python -m degenmath.cli check --all --format json --output tests/data/check_all.json
#   python -m degenmath.cli list --format json --output tests/data/list.json
# and write _report_text(_mutant_report()) to mutant_s2_report.json and
# _bindings_text(MUTANT_GRID) to bindings_small.json.
DATA = Path(__file__).parent / "data"

MUTANT_GRID = Grid(nmax=4, rmax=2, pmax=1, lambdas=(Fraction(1, 2), Fraction(-3, 7)), order=10)

EXPECTED_IDS = (
    "T1", "T2", "T3", "T4a", "T4b", "E32", "T5", "T6", "T7", "T8", "T9", "T10",
    "T11a", "T11b", "T12", "E61", "T13", "T13r", "T14", "T15", "C15", "E44",
    "E59", "E66", "E67",
)


def _report_text(report) -> str:
    """The report exactly as `degenmath check --format json` writes it."""
    return json.dumps(suite_report_json(report), indent=2) + "\n"


def _bindings_text(grid) -> str:
    """Every identity's bindings on grid, in sweep order, as a report writes them."""
    doc = {
        ident: [_binding_json(_validated(spec, b)) for b in spec.bindings(grid)]
        for ident, spec in REGISTRY.items()
    }
    return json.dumps(doc, indent=1) + "\n"


# the second-kind extend with the sign of the lambda term flipped,
# S(n+1,k) = S(n,k-1) + (k + n*lam) * S(n,k)
mutant_s2 = sequences._row_extend(lambda n, k, p, q: k * q + n * p)


def _mutant_report():
    with mutated("second", mutant_s2):
        return run_suite(MUTANT_GRID, ids=("T2", "T4b", "T15", "E66"))


def _report(criterion: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_full_identity_suite():
    """Every registry identity passes over the full grid with zero failures."""
    assert tuple(REGISTRY) == EXPECTED_IDS
    start = time.perf_counter()
    report = run_suite(DEFAULT_GRID)
    elapsed = time.perf_counter() - start
    failing = [r.id for r in report.results if r.fail_count > 0]
    assert not failing, f"identities with failures: {failing}"
    assert report.all_pass
    assert [r.id for r in report.results] == list(EXPECTED_IDS)
    assert elapsed < 60, f"suite took {elapsed:.1f}s"
    assert _report_text(report) == (DATA / "check_all.json").read_text(encoding="utf-8")
    _report("1 (full identity suite)", f"{len(report.results)} identities, {elapsed:.1f}s")


def test_wrapped_checkers_give_the_golden_report(monkeypatch):
    """Each checker wrapped as the benchmark's timers wrap it, called with
    positional arguments only, gives the same report."""
    for ident, spec in list(REGISTRY.items()):
        wrapped = dataclasses.replace(spec, checker=lambda *a, f=spec.checker: f(*a))
        monkeypatch.setitem(REGISTRY, ident, wrapped)
    assert _report_text(run_suite()) == (DATA / "check_all.json").read_text(encoding="utf-8")


def test_criterion_2_oracle_equivalence():
    """Both triangles from recurrences equal the series extraction, nmax = 20."""
    order = 24
    for lam in GRID_LAMBDAS:
        tri1 = s1_triangle(20, lam)
        tri2 = s2_triangle(20, lam)
        for n in range(21):
            for k in range(n + 1):
                assert tri1.entry(n, k) == stirling_series_oracle("first", n, k, lam, order)
                assert tri2.entry(n, k) == stirling_series_oracle("second", n, k, lam, order)
    _report("2 (oracle equivalence)", f"{len(GRID_LAMBDAS)} lambdas, nmax 20")


def test_criterion_3_matrix_inversion():
    """The two triangles are mutually inverse as 13 x 13 matrices."""
    nmax = 12
    for lam in GRID_LAMBDAS:
        tri1 = s1_triangle(nmax, lam)
        tri2 = s2_triangle(nmax, lam)
        for n in range(nmax + 1):
            for k in range(nmax + 1):
                one_two = sum(tri1.entry(n, j) * tri2.entry(j, k) for j in range(nmax + 1))
                two_one = sum(tri2.entry(n, j) * tri1.entry(j, k) for j in range(nmax + 1))
                expected = 1 if n == k else 0
                assert one_two == expected and two_one == expected
    _report("3 (inversion)", "both products, 0..12")


def test_criterion_4_classical_degeneration():
    """At lambda = 0 every family matches an independent classical oracle."""
    c1 = oracles.stirling1_rows(10)
    c2 = classical.stirling2_rows(10)
    tri1 = s1_triangle(10, 0)
    tri2 = s2_triangle(10, 0)
    for n in range(11):
        for k in range(n + 1):
            assert tri1.entry(n, k) == c1[n][k]
            assert tri2.entry(n, k) == c2[n][k]
        assert dharmonic(n, 0) == oracles.harmonic(n)
        for r in range(1, 5):
            assert dhyperharmonic(n, r, 0) == oracles.hyperharmonic(n, r)
        assert dbernoulli_poly(n, 0) == classical.bernoulli_poly(n)
        assert deuler_poly(n, 0) == oracles.euler_poly(n)
        assert poly_eval(dbell_poly(n, 0), 1) == oracles.bell_number(n)
        assert poly_eval(dfubini_poly(n, 0), 1) == oracles.fubini_number(n)
    _report("4 (classical degeneration)", "8 families, n <= 10")


def test_criterion_5_dual_path_bernoulli():
    """Series division equals the triangle-assembled closed form, n <= 10."""
    for lam in GRID_LAMBDAS:
        for n in range(11):
            assert dbernoulli_poly(n, lam) == dbernoulli_poly_stirling(n, lam)
    _report("5 (dual-path Bernoulli)", f"{len(GRID_LAMBDAS)} lambdas, n <= 10")


def test_criterion_6_compositional_inversion():
    """dlog composed with dexp - 1 is t to order 24 for each grid lambda."""
    for lam in GRID_LAMBDAS:
        assert ser_compose(dlog(lam, 24), dexp(1, lam, 24) - 1) == Series((0, 1), 24)
    _report("6 (compositional inversion)", "order 24")


def test_criterion_7_e67_numeric():
    """Tail-bounded partial sums agree with F_n(1) within 10**-30."""
    tol = Fraction(1, 10**30)
    for lam in (Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
        for n in range(7):
            res = run_identity("E67", {"n": n, "lambda": lam, "tol": tol})
            assert res.passed
            assert abs(res.lhs - res.rhs) <= tol
    _report("7 (E67 numeric)", "n <= 6, tolerance 1e-30, exact rationals")


def test_criterion_8_mutation_sensitivity():
    """Flipping the lambda sign in the second-kind recurrence breaks T15, T2, T9."""

    grid = Grid(nmax=4, rmax=2, pmax=1, lambdas=(Fraction(1, 2),), order=10)
    with mutated("second", mutant_s2):
        report = run_suite(grid, ids=("T2", "T9", "T15"))
    assert not report.all_pass
    for res in report.results:
        assert res.fail_count >= 1, f"{res.id} did not notice the corrupted recurrence"
        small = [f for f in res.failures if f.binding["n"] <= 4]
        assert small, f"{res.id} has no counterexample at n <= 4"
        for failure in small:
            assert failure.lhs != failure.rhs  # counterexample payload present
    _report("8 (mutation sensitivity)", "T2, T9, T15 all fail with counterexamples")


@row_change
def _row_past_k0_plus_one(row):
    return row[:1] + tuple(c + 1 for c in row[1:])


def _plus_one(entry):
    return entry + 1


def _cs3_plus_one(state):
    # the integers over d that begin a state are what the Appell extends and
    # values take; entry 3 alone reaches only the readers of the Fraction
    # entries
    cs, d, *rest = state
    return (cs[:3] + (cs[3] + d,) + cs[4:], d, *rest)


MATRIX_GRID = Grid(
    nmax=8, rmax=3, pmax=4, lambdas=(Fraction(1, 2), Fraction(-3, 7), Fraction(2)), order=12
)

# stored family -> (its corruption at entry 3, the identities that must fail).
# C15 is in no row: it is lambda-free and compares classical numbers, so no
# stored family reaches it.
MUTATION_MATRIX = {
    "first": (at_entry_3("first", _row_past_k0_plus_one), "T3 T4a T6 T8 T10"),
    "second": (
        at_entry_3("second", _row_past_k0_plus_one),
        "T2 T4b E32 T5 T7 T9 T11a T11b T12 E61 T13 T13r T14 T15 E66 E67",
    ),
    "harmonic": (at_entry_3("harmonic", _plus_one), "T1 T2 T3 T8 T9 E44"),
    "harmonic numerators": (at_entry_3("harmonic numerators", _plus_one), "T1 T2 T3"),
    "bernoulli constants": (
        at_entry_3("bernoulli constants", _plus_one, _cs3_plus_one),
        "T5 T6 T7 T8 T9 T10 T12 E61 E59",
    ),
    "euler constants": (at_entry_3("euler constants", _plus_one, _cs3_plus_one), "T4a T4b E32"),
    "bernoulli": (at_entry_3("bernoulli", _plus_one), "T5 T6 T7"),
    "euler": (at_entry_3("euler", _plus_one), "T4a T4b"),
}


def test_mutation_matrix_names_every_stored_family():
    assert set(MUTATION_MATRIX) == set(sequences._EXTENDS)


@pytest.mark.parametrize("family", MUTATION_MATRIX)
def test_mutation_matrix(family):
    """Corrupting entry 3 of one stored family fails exactly the identities that read it."""
    extend, expected = MUTATION_MATRIX[family]
    with mutated(family, extend):
        report = run_suite(MATRIX_GRID)
    assert [r.id for r in report.results if r.fail_count] == expected.split()


@row_change
def _row_k0_plus_one(row):
    return (row[0] + 1,) + row[1:]


# second-kind row 3 with S2(3,0) = 1: poly_int_over_t refuses its nonzero
# constant term, so T12 and E61 raise at n = 3 and T13 at n = 2 and 3, once
# per lambda each
RAISING = (at_entry_3("second", _row_k0_plus_one), "T4b E32 T5 T7 T11a T11b T12 E61 T13 T13r T14 E66 E67")


def test_a_raising_checker_fails_its_binding():
    """A checker that raises a ValueError fails its binding; the sweep goes on."""
    extend, expected = RAISING
    with mutated("second", extend):
        report = run_suite(MATRIX_GRID)
    assert [r.id for r in report.results if r.fail_count] == expected.split()
    raised = {r.id: [f for f in r.failures if f.lhs is None] for r in report.results}
    assert {ident: len(fs) for ident, fs in raised.items() if fs} == {"T12": 3, "E61": 3, "T13": 6}
    for failure in sum(raised.values(), []):
        assert failure.rhs is None and not failure.passed
        assert failure.note == "ValueError: logarithmic divergence: nonzero constant term"
    # T13 fails only through its raise
    t13 = next(r for r in report.results if r.id == "T13")
    assert len(t13.failures) == len(raised["T13"])
    doc = json.loads(_report_text(report))
    failure = next(r for r in doc["results"] if r["id"] == "T12")["failures"][0]
    assert failure["lhs"] is None and failure["rhs"] is None and failure["pass"] is False


def test_a_raising_checker_fails_the_cli_check(tmp_path):
    """check --all exits 1 and writes the whole report, raising bindings included."""
    extend, _ = RAISING
    out = tmp_path / "report.json"
    argv = ["check", "--all", "--nmax", "8", "--rmax", "3", "--pmax", "4", "--lambdas", "1/2,-3/7,2",
            "--order", "12", "--format", "json", "--output", str(out)]
    with mutated("second", extend):
        assert main(argv) == 1
        want = _report_text(run_suite(MATRIX_GRID))
    assert out.read_text(encoding="utf-8") == want


# Poly and Series kernel -> (its mutant, the identities that must fail).  Each
# mutant is wrong only past index 5, so it shows only where a polynomial or a
# series reaches degree 6 or a dot product pairs a seventh term.
KERNEL_MATRIX = {
    "Poly.__mul__": (mutate_poly_product, "T4a T4b T5 T6 T7 T11a T11b T13 T14"),
    "_convolution": (mutate_convolution, "T1 T4a T4b T5 T6 T7 T11a T11b T13 T14 E66"),
    # T1 negates its series through Poly's unary -, one poly_combination
    "poly_combination": (mutate_poly_combination, "T1 T4a T4b T5 T6 T7 T11a T11b T12 E61 T13 T14"),
    "rational_dot": (mutate_rational_dot, "T2 T3 T4a T4b E32 T5 T6 T7 T8 T9 T10 E61 T13r T15"),
    "poly_int_over_t": (mutate_poly_int_over_t, "T12 E61 T13"),
}


@pytest.mark.parametrize("kernel", KERNEL_MATRIX)
def test_kernel_matrix(kernel, monkeypatch):
    """A wrong Poly kernel fails exactly the identities that reach it past index 5."""
    mutate, expected = KERNEL_MATRIX[kernel]
    assert expected, f"no identity catches the {kernel} mutant"
    mutate(monkeypatch)
    # binom_poly's memo and the store are rebuilt under the mutant and restored after
    monkeypatch.setattr(algebra, "_BINOMS", algebra._BINOMS[:1])
    monkeypatch.setattr(sequences, "_STORE", {})
    report = run_suite(MATRIX_GRID)
    assert [r.id for r in report.results if r.fail_count] == expected.split()


def test_mutated_restores_the_extend_and_the_store():
    extend, store = sequences._EXTENDS["second"], sequences._STORE
    with pytest.raises(ZeroDivisionError):
        with mutated("second", mutant_s2):
            assert sequences._STORE == {}
            assert s2_triangle(3, Fraction(1, 2)).entry(3, 2) == 3 + 3 * Fraction(1, 2)
            raise ZeroDivisionError
    assert sequences._EXTENDS["second"] is extend and sequences._STORE is store
    assert s2_triangle(3, Fraction(1, 2)).entry(3, 2) == 3 - 3 * Fraction(1, 2)


def test_mutant_failure_payloads_match_golden():
    """Rational, poly and series counterexample payloads are reproduced byte for byte."""
    report = _mutant_report()
    assert {type(f.lhs).__name__ for r in report.results for f in r.failures} == {
        "Fraction", "Poly", "Series",
    }
    assert _report_text(report) == (DATA / "mutant_s2_report.json").read_text(encoding="utf-8")


def test_registry_listing_matches_golden(capsys):
    """Every identity's description and parameter schema, as `list --format json` prints them."""
    assert main(["list", "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / "list.json").read_text(encoding="utf-8")


def test_bindings_match_golden():
    """Each identity sweeps the same bindings, in the same order and key order."""
    text = _bindings_text(MUTANT_GRID)
    assert sum(len(v) for v in json.loads(text).values()) == 231
    assert text == (DATA / "bindings_small.json").read_text(encoding="utf-8")
