"""Command line surface: formats, exit codes, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from degenmath import cli
from degenmath.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    MAX_SIZE,
    POLY_FAMILIES,
    SCALAR_FAMILIES,
    TRIANGLE_FAMILIES,
    build_parser,
    grid_from_args,
    main,
)
from degenmath.identities import DEFAULT_GRID, REGISTRY, CheckResult

DATA = Path(__file__).parent / "data"


def counting_checkers(monkeypatch) -> list:
    """Swap every registry checker for a passing stub; the list records each call."""
    calls = []

    def counting(binding, tables):
        calls.append(binding)
        return CheckResult("stub", binding, 0, 0, True)

    for ident, spec in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, ident, dataclasses.replace(spec, checker=counting))
    return calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestTable:
    def test_s2_csv_row(self, capsys):
        code, out = run_cli(capsys, "table", "s2", "--nmax", "3", "--lambda", "1/2", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,value"
        assert "3,2,3/2" in lines

    def test_harmonic_plain(self, capsys):
        code, out = run_cli(capsys, "table", "harmonic", "--nmax", "3", "--lambda", "0")
        assert code == EXIT_OK
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["0", "1", "3/2", "11/6"]

    def test_bernoulli_plain_constant_term(self, capsys):
        code, out = run_cli(capsys, "table", "bernoulli", "--nmax", "2", "--lambda", "1/2")
        assert code == EXIT_OK
        row = [line for line in out.splitlines() if line.startswith("2:")][0]
        assert "1/8" in row  # constant term of the n = 2 polynomial at lambda = 1/2

    def test_hyperharmonic_needs_r(self, capsys):
        code, _ = run_cli(capsys, "table", "hyperharmonic", "--nmax", "3")
        assert code == EXIT_DOMAIN

    def test_r_on_other_family_is_domain_error(self, capsys):
        code, _ = run_cli(capsys, "table", "bernoulli", "--nmax", "3", "--r", "2")
        assert code == EXIT_DOMAIN

    def test_unknown_family_usage_error(self, capsys):
        assert main(["table", "nope", "--nmax", "3"]) == EXIT_USAGE

    def test_decimal_lambda_rejected(self, capsys):
        assert main(["table", "s2", "--nmax", "3", "--lambda", "0.5"]) == EXIT_USAGE

    def test_json_roundtrip_bytes(self, capsys):
        # negative rationals use the = form so argparse does not read them as flags
        code, out = run_cli(
            capsys, "table", "s1", "--nmax", "4", "--lambda=-3/7", "--format", "json"
        )
        assert code == EXIT_OK
        parsed = json.loads(out)
        assert parsed["family"] == "s1"
        assert parsed["lambda"] == "-3/7"
        redumped = json.dumps(parsed, indent=2) + "\n"
        assert redumped == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out = run_cli(
            capsys, "table", "s2", "--nmax", "2", "--format", "csv", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("n,k,value")


class TestAppellTablesGolden:
    # deep Bernoulli and Euler tables, recorded with (from the repo root):
    #   degenmath table bernoulli --nmax 30 --lambda=-61/89 --format json --output appell_bernoulli.json
    #   degenmath table euler --nmax 30 --lambda=-61/89 --format json --output appell_euler.json
    #   sha256sum appell_bernoulli.json appell_euler.json > tests/data/appell_tables.sha256
    @pytest.mark.parametrize("family", ["bernoulli", "euler"])
    def test_matches_recorded_digest(self, capsys, family):
        lines = (DATA / "appell_tables.sha256").read_text().splitlines()
        digests = {name: digest for digest, name in map(str.split, lines)}
        code, out = run_cli(capsys, "table", family, "--nmax", "30", "--lambda=-61/89", "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digests[f"appell_{family}.json"]


class TestStirlingTablesGolden:
    # deep triangle and hyperharmonic tables, recorded with (from the repo root):
    #   degenmath table s1 --nmax 60 --lambda=-61/89 --format json --output stirling_s1.json
    #   degenmath table s2 --nmax 60 --lambda=-61/89 --format json --output stirling_s2.json
    #   degenmath table hyperharmonic --nmax 60 --r 3 --lambda=-61/89 --format json --output stirling_hyperharmonic.json
    #   sha256sum stirling_s1.json stirling_s2.json stirling_hyperharmonic.json > tests/data/stirling_tables.sha256
    @pytest.mark.parametrize("family, extra", [("s1", ()), ("s2", ()), ("hyperharmonic", ("--r", "3"))])
    def test_matches_recorded_digest(self, capsys, family, extra):
        lines = (DATA / "stirling_tables.sha256").read_text().splitlines()
        digests = {name: digest for digest, name in map(str.split, lines)}
        argv = ("table", family, "--nmax", "60", *extra, "--lambda=-61/89", "--format", "json")
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digests[f"stirling_{family}.json"]


class TestEvalGolden:
    # eval prints only through poly_eval, so its values are recorded apart
    # from the check report, which holds pass counts.  Recorded with (from
    # the repo root), for F in bernoulli euler bell fubini:
    #   degenmath eval F --n 40 --lambda=-61/89 --x=-7/3 --format json --output eval_F.json
    #   sha256sum eval_bernoulli.json eval_euler.json eval_bell.json eval_fubini.json > tests/data/eval_values.sha256
    @staticmethod
    def recorded(name):
        lines = (DATA / "eval_values.sha256").read_text().splitlines()
        return {file: digest for digest, file in map(str.split, lines)}[name]

    @pytest.mark.parametrize("family", POLY_FAMILIES)
    def test_matches_recorded_digest(self, capsys, family):
        code, out = run_cli(capsys, "eval", family, "--n", "40", "--lambda=-61/89", "--x=-7/3", "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.recorded(f"eval_{family}.json")

    # and, for F in bernoulli euler, where the Appell step's integers are large:
    #   degenmath eval F --n 160 --lambda=57/89 --x=1/3 --format json --output eval_F_160.json
    #   sha256sum eval_bernoulli_160.json eval_euler_160.json >> tests/data/eval_values.sha256
    @pytest.mark.parametrize("family", ["bernoulli", "euler"])
    def test_appell_value_at_n_160_matches_recorded_digest(self, capsys, family):
        code, out = run_cli(capsys, "eval", family, "--n", "160", "--lambda=57/89", "--x=1/3", "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.recorded(f"eval_{family}_160.json")

    # and at the size bound, where the value is summed from the stored constants:
    #   degenmath eval F --n 300 --lambda=57/89 --x=1/3 --format json --output eval_F_300.json
    #   sha256sum eval_bernoulli_300.json eval_euler_300.json >> tests/data/eval_values.sha256
    @pytest.mark.parametrize("family", ["bernoulli", "euler"])
    def test_appell_value_at_the_size_bound_matches_recorded_digest(self, capsys, family):
        code, out = run_cli(capsys, "eval", family, "--n", "300", "--lambda=57/89", "--x=1/3", "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == self.recorded(f"eval_{family}_300.json")


class TestEval:
    def test_fubini(self, capsys):
        code, out = run_cli(capsys, "eval", "fubini", "--n", "2", "--lambda", "0", "--x", "1")
        assert code == EXIT_OK and out.strip() == "3"

    def test_bell(self, capsys):
        code, out = run_cli(capsys, "eval", "bell", "--n", "0", "--lambda", "2/3", "--x", "7")
        assert code == EXIT_OK and out.strip() == "1"

    def test_euler(self, capsys):
        code, out = run_cli(capsys, "eval", "euler", "--n", "1", "--lambda", "1/2", "--x", "1/2")
        assert code == EXIT_OK and out.strip() == "0"

    def test_missing_x_is_usage_error(self, capsys):
        assert main(["eval", "fubini", "--n", "2", "--lambda", "0"]) == EXIT_USAGE

    def test_scalar_family_is_usage_error(self, capsys):
        assert main(["eval", "harmonic", "--n", "2", "--lambda", "0", "--x", "1"]) == EXIT_USAGE


class TestSeries:
    def test_dlog(self, capsys):
        code, out = run_cli(capsys, "series", "dlog", "--lambda", "1/2", "--order", "2")
        assert code == EXIT_OK and out.strip() == "[0, 1, -1/4]"

    def test_hypergf_classical(self, capsys):
        code, out = run_cli(capsys, "series", "hypergf", "--r", "1", "--lambda", "0", "--order", "3")
        assert code == EXIT_OK and out.strip() == "[0, 1, 3/2, 11/6]"

    def test_dpolylog_classical(self, capsys):
        code, out = run_cli(
            capsys, "series", "dpolylog", "--k", "2", "--lambda", "0", "--order", "3"
        )
        assert code == EXIT_OK and out.strip() == "[0, 1, 1/4, 1/9]"

    def test_dexp_json(self, capsys):
        code, out = run_cli(
            capsys, "series", "dexp", "--lambda", "0", "--order", "3", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {"coeffs": ["1", "1", "1/2", "1/6"], "order": 3}

    def test_invalid_selector(self, capsys):
        assert main(["series", "nope", "--order", "3"]) == EXIT_USAGE


class TestCheck:
    SMALL = ["--nmax", "3", "--rmax", "2", "--pmax", "1", "--lambdas", "0,1/2", "--order", "8"]

    def test_small_grid_all_pass(self, capsys):
        code, out = run_cli(capsys, "check", *self.SMALL)
        assert code == EXIT_OK
        assert "all identities passed" in out

    def test_single_identity(self, capsys):
        code, out = run_cli(capsys, "check", "--id", "T15", "--nmax", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("T15: pass")

    def test_unknown_id(self, capsys):
        assert main(["check", "--id", "NOPE"]) == EXIT_USAGE

    def test_json_schema_and_determinism(self, capsys):
        code, first = run_cli(capsys, "check", *self.SMALL, "--format", "json")
        assert code == EXIT_OK
        code, second = run_cli(capsys, "check", *self.SMALL, "--format", "json")
        assert first == second  # byte-identical for a fixed config
        doc = json.loads(first)
        assert doc["all_pass"] is True
        assert {r["id"] for r in doc["results"]} >= {"T1", "T15", "E67"}

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "check", "--id", "C15", "--nmax", "4", "--format", "csv")
        assert code == EXIT_OK
        assert out.strip().splitlines() == ["id,pass_count,fail_count", "C15,3,0"]

    def test_negative_tolerance_is_domain_error(self, capsys):
        code = main(["check", "--id", "E67", "--nmax", "2", "--tolerance=-1"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err == "error: E67: tol must be positive\n"

    def test_order_zero_is_domain_error(self, capsys):
        code = main(["check", "--id", "T1", "--order", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_DOMAIN
        assert err.startswith("error: T1: order = 0")

    @pytest.mark.parametrize(
        "flag", ["--tolerance=-1", "--order=0", "--nmax=-3", "--rmax=0", "--pmax=-1"]
    )
    def test_bad_grid_value_is_reported_before_any_check(self, capsys, monkeypatch, flag):
        calls = counting_checkers(monkeypatch)
        code = main(["check", "--all", flag])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err.startswith("error: ")
        assert calls == []

    def test_named_id_with_no_bindings_is_domain_error(self, capsys):
        code = main(["check", "--id", "T15", "--nmax", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert "all identities passed" not in captured.out
        assert "no bindings checked for T15" in captured.err

    def test_one_empty_id_among_several_is_domain_error(self, capsys):
        code = main(["check", "--id", "C15", "--id", "T15", "--nmax", "1"])
        assert code == EXIT_DOMAIN
        assert "no bindings checked for C15, T15" in capsys.readouterr().err

    def test_sweep_with_no_bindings_is_domain_error(self, capsys):
        assert main(["check", "--id", "C15", "--nmax=-3"]) == EXIT_DOMAIN

    def test_sweep_with_some_empty_ids_still_passes(self, capsys):
        # under --all, T15 and C15 check nothing at nmax 1 but the rest run
        code = main(["check", "--all", "--nmax", "1", "--lambdas", "1/2", "--order", "1"])
        assert code == EXIT_OK
        assert "all identities passed" in capsys.readouterr().out

    def test_default_grid_is_acceptance_grid(self):
        parser = build_parser()
        args = parser.parse_args(["check", "--all"])
        assert grid_from_args(args) == DEFAULT_GRID

    def test_grid_flags_override(self):
        parser = build_parser()
        args = parser.parse_args(["check", "--nmax", "5", "--lambdas", "0,1/3", "--tolerance", "1/100"])
        grid = grid_from_args(args)
        assert grid.nmax == 5
        assert grid.lambdas == (Fraction(0), Fraction(1, 3))
        assert grid.e67_tol == Fraction(1, 100)
        assert grid.rmax == DEFAULT_GRID.rmax


class TestOutput:
    @pytest.mark.parametrize(
        "argv", [["list"], ["check", "--id", "T15", "--nmax", "3"], ["check", "--all"]]
    )
    def test_unwritable_path_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # the path is found unwritable before the command does its work
        calls = counting_checkers(monkeypatch)
        path = tmp_path / "missing" / "x.json"
        code = main(argv + ["--output", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}")
        assert not path.exists()
        assert calls == []


class TestSizeBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "s2", "--nmax", str(10**9)],
            ["eval", "bernoulli", "--n", str(MAX_SIZE + 1), "--x", "1"],
            ["series", "dexp", "--order", str(MAX_SIZE + 1)],
            ["check", "--nmax", str(MAX_SIZE + 1)],
            ["check", "--id", "T1", f"--order={10**9}"],
            ["table", "hyperharmonic", "--nmax", "2", "--r", str(MAX_SIZE + 1)],
            ["series", "hypergf", "--order", "4", "--r", str(10**6)],
            ["series", "dpolylog", "--order", "4", "--k", str(MAX_SIZE + 1)],
            ["series", "dpolylog", "--order", "4", f"--k={-(MAX_SIZE + 1)}"],
            ["check", "--id", "T1", "--rmax", str(MAX_SIZE + 1)],
            ["check", "--id", "E59", f"--pmax={10**9}"],
        ],
    )
    def test_above_bound_is_domain_error_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(args):
            raise AssertionError("a command ran above the size bound")

        for name in ("_cmd_table", "_cmd_eval", "_cmd_series", "_cmd_check"):
            monkeypatch.setattr(cli, name, no_work)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err.startswith("error: --") and f"<= {MAX_SIZE}" in captured.err

    def test_bound_itself_is_accepted(self, capsys, monkeypatch):
        code, out = run_cli(capsys, "series", "dexp", "--order", str(MAX_SIZE), "--format", "csv")
        assert code == EXIT_OK and len(out.splitlines()) == MAX_SIZE + 2
        calls = counting_checkers(monkeypatch)
        assert main(["check", "--id", "T15", "--nmax", str(MAX_SIZE), "--lambdas", "1/2"]) == EXIT_OK
        assert len(calls) == MAX_SIZE - 1  # n = 2..MAX_SIZE

    def test_bound_covers_perfbench_sizes(self):
        assert MAX_SIZE >= 160


# argv drawn per command: its positionals and flags, with values that are
# small sizes, sizes above MAX_SIZE (every size flag is bounded, so nothing
# large ever runs) or junk.  A check always names one identity and
# one lambda first, so that no drawn argv runs a whole sweep.
small_sizes = st.integers(min_value=-3, max_value=20).map(str)
oversizes = st.sampled_from([MAX_SIZE + 1, 10**9, 10**40]).map(str)
# --k is bounded in absolute value
signed_oversizes = st.sampled_from([MAX_SIZE + 1, -(MAX_SIZE + 1), -(10**9), 10**40]).map(str)
rational_texts = st.sampled_from(["0", "1", "1/2", "-3/7", "2/3", "-61/89", "7/-2"])
junk = st.sampled_from(["", "x", "1.5", "1e3", "1/0", "0x10", "nan", "--", "-", "-h", "--bogus", "s2", "T1", "=", "2/"])
formats = st.sampled_from(["plain", "csv", "json", "xml"])
identity_ids = st.sampled_from(list(REGISTRY) + ["T99"])

FLAG_VALUES = {
    "--nmax": st.one_of(small_sizes, oversizes),
    "--n": st.one_of(small_sizes, oversizes),
    "--order": st.one_of(small_sizes, oversizes),
    "--r": st.one_of(small_sizes, oversizes),
    "--k": st.one_of(small_sizes, signed_oversizes),
    "--rmax": st.one_of(small_sizes, oversizes),
    "--pmax": st.one_of(small_sizes, oversizes),
    "--lambda": rational_texts,
    "--x": rational_texts,
    "--lambdas": rational_texts,
    "--tolerance": st.one_of(rational_texts, st.just("1/1000000")),
    "--format": formats,
    "--id": identity_ids,
}
# command -> (positionals, required flags, other flags)
COMMANDS = {
    "table": (TRIANGLE_FAMILIES + SCALAR_FAMILIES + POLY_FAMILIES, ("--nmax",), ("--lambda", "--r", "--format")),
    "eval": (POLY_FAMILIES, ("--n", "--x"), ("--lambda", "--format")),
    "series": (("dexp", "dlog", "dpolylog", "hypergf"), ("--order",), ("--lambda", "--k", "--r", "--x", "--format")),
    "check": ((), (), ("--id", "--nmax", "--rmax", "--pmax", "--lambdas", "--order", "--tolerance", "--format")),
    "list": ((), (), ("--format",)),
}


@st.composite
def argvs(draw):
    def sometimes_junk(strategy):
        # one draw in eight is junk, so most argvs get past the parser
        return draw(junk) if draw(st.integers(min_value=0, max_value=7)) == 7 else draw(strategy)

    command = sometimes_junk(st.sampled_from(list(COMMANDS)))
    if command not in COMMANDS:
        return [command] + draw(st.lists(junk, max_size=3))
    positionals, required, others = COMMANDS[command]
    argv = [command]
    if positionals:
        argv.append(sometimes_junk(st.sampled_from(positionals)))
    if command == "check":
        argv += ["--id", draw(identity_ids), "--lambdas=" + draw(rational_texts)]
    flags = list(required) + draw(st.lists(st.sampled_from(others), max_size=4))
    for flag in flags:
        value = sometimes_junk(FLAG_VALUES[flag])
        # the = form lets a value start with "-"
        argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
    if draw(st.integers(min_value=0, max_value=3)) == 3:
        argv.insert(draw(st.integers(min_value=1, max_value=len(argv))), draw(junk))
    return argv


class TestAnyArgv:
    @settings(max_examples=150, deadline=None)
    @given(argv=argvs())
    def test_exit_code_is_documented_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_DOMAIN)
        assert "Traceback" not in out.getvalue() + err.getvalue()


class TestList:
    def test_plain_lists_all(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == EXIT_OK
        ids = [line.split("\t")[0] for line in out.strip().splitlines()]
        assert ids[:3] == ["T1", "T2", "T3"]
        assert "E67" in ids and "C15" in ids

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "list", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        t12 = next(entry for entry in doc if entry["id"] == "T12")
        assert t12["params"]["x"] == "symbolic"
        e67 = next(entry for entry in doc if entry["id"] == "E67")
        assert "tol" in e67["params"]
