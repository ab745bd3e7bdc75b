"""Command line surface: formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings, strategies as st

from degenmath import cli, sequences
from degenmath.cli import (
    EXIT_CHECK_FAILED,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    FAMILIES,
    MAX_SIZE,
    POLY_FAMILIES,
    build_parser,
    grid_from_args,
    main,
)
from degenmath.identities import DEFAULT_GRID, REGISTRY, BindingError, Grid
from mutants import counting_checkers

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# every command's JSON: each table family at nmax 0 and 5, every series
# selector, eval, list and check; negative rationals use the = form so
# argparse does not read them as flags
JSON_ARGVS = [
    *(
        pytest.param(
            ["table", family, "--nmax", nmax, "--lambda=-3/7"] + (["--r", "3"] if family == "hyperharmonic" else []),
            id=f"table-{family}-{nmax}",
        )
        for family in FAMILIES
        for nmax in ("0", "5")
    ),
    pytest.param(["series", "dexp", "--order", "6", "--lambda=-3/7", "--x=5/2"], id="series-dexp"),
    pytest.param(["series", "dlog", "--order", "6", "--lambda=-3/7"], id="series-dlog"),
    pytest.param(["series", "dlog", "--order", "0", "--lambda=-3/7"], id="series-dlog-0"),
    pytest.param(["series", "dpolylog", "--order", "6", "--k=-2", "--lambda=-3/7"], id="series-dpolylog"),
    pytest.param(["series", "hypergf", "--order", "6", "--r", "3", "--lambda=-3/7"], id="series-hypergf"),
    pytest.param(["eval", "bernoulli", "--n", "5", "--lambda=-3/7", "--x=-7/3"], id="eval"),
    pytest.param(["list"], id="list"),
    pytest.param(["check", "--id", "T15", "--nmax", "3"], id="check"),
]


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

    def test_dashes_as_a_flag_value_is_usage_error(self, capsys):
        # argparse would store an empty list for the value
        assert main(["table", "s2", "--nmax=--"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "'--' is not a flag value" in captured.err

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("family", ["s1", "s2", "bell", "fubini"])
    def test_table_derives_no_row_form(self, capsys, family, fmt):
        # a table reads the Fractions the stored rows hold, so it leaves no
        # integer copy of the triangle beside them
        lam = Fraction(29, 10**6 - 13)
        kind = "first" if family == "s1" else "second"
        sequences._STORE.pop((kind, lam), None)
        code, _ = run_cli(capsys, "table", family, "--nmax", "40", f"--lambda={lam}", "--format", fmt)
        assert code == EXIT_OK
        rows = sequences._STORE[(kind, lam)][0]
        assert len(rows) == 41 and all(row._form is None for row in rows)

    @pytest.mark.parametrize("argv", JSON_ARGVS)
    def test_json_roundtrip_bytes(self, capsys, argv):
        # laid out exactly as json.dumps(..., indent=2) lays out the parsed document
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_json_fields(self, capsys):
        code, out = run_cli(capsys, "table", "hyperharmonic", "--nmax", "1", "--r", "2", "--lambda=-3/7", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == {"family": "hyperharmonic", "lambda": "-3/7", "nmax": 1, "values": [["0"], ["1"]], "r": 2}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out = run_cli(
            capsys, "table", "s2", "--nmax", "2", "--format", "csv", "--output", str(target)
        )
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("n,k,value")


# Each line of cli_outputs.sha256 is the sha256 of a command's stdout, then
# the command's argv; CI's installed entry point checks the same lines.  Pin
# a new output by appending one line, from the repo root:
#   echo "$(degenmath ARGV | sha256sum | cut -d' ' -f1)  ARGV" >> tests/data/cli_outputs.sha256
RECORDED = [line.split(maxsplit=1) for line in (DATA / "cli_outputs.sha256").read_text().splitlines()]


@pytest.mark.parametrize("digest, argv", RECORDED, ids=[argv for _, argv in RECORDED])
def test_cli_output(capsys, digest, argv):
    code, out = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_csv(self, capsys):
        code, out = run_cli(capsys, "eval", "bell", "--n", "2", "--lambda", "0", "--x=-1/2", "--format", "csv")
        assert code == EXIT_OK and out == "n,x,value\n2,-1/2,-1/4\n"


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

    def test_flags_read_and_their_defaults(self, capsys):
        # each selector takes the flags it reads; one not given takes its default
        for argv, out in [
            (["dexp", "--order", "2", "--x", "1/2"], "[1, 1/2, 1/8]"),
            (["dexp", "--order", "2"], "[1, 1, 1/2]"),
            (["dpolylog", "--order", "2", "--k", "2"], "[0, 1, 1/4]"),
            (["dpolylog", "--order", "2"], "[0, 1, 1/2]"),
            (["hypergf", "--order", "2", "--r", "2"], "[0, 1, 5/2]"),
            (["hypergf", "--order", "2"], "[0, 1, 3/2]"),
            (["dlog", "--order", "0"], "[0]"),
        ]:
            code, got = run_cli(capsys, "series", *argv, "--lambda", "0")
            assert code == EXIT_OK and got == out + "\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["series", "dlog", "--order=-1"], "error: --order must be >= 0\n"),
            (["series", "hypergf", "--order", "3", "--r", "0"], "error: --r must be >= 1\n"),
            (["table", "s2", "--nmax=-3"], "error: --nmax must be >= 0\n"),
        ],
    )
    def test_bad_size_is_domain_error(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err == message


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

    @pytest.mark.parametrize("ident", ["NOPE", "T15"])
    def test_all_with_id_is_usage_error(self, capsys, monkeypatch, ident):
        # --all and --id exclude each other, so neither is silently dropped
        calls = counting_checkers(monkeypatch)
        code = main(["check", "--all", "--id", ident])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert "not allowed with argument" in captured.err
        assert calls == []

    def test_plain_report_of_a_failure(self, capsys, monkeypatch):
        spec = REGISTRY["T15"]
        monkeypatch.setitem(REGISTRY, "T15", dataclasses.replace(spec, checker=lambda *values: (1, 2, "why")))
        code, out = run_cli(capsys, "check", "--id", "T15", "--nmax", "2", "--lambdas", "1/2")
        assert code == EXIT_CHECK_FAILED
        assert out.splitlines() == [
            "T15: pass 0 fail 1",
            "  FAIL T15 at n=2, lambda=1/2",
            "    lhs = 1",
            "    rhs = 2",
            "    note: why",
            "FAILURES detected",
        ]

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
        assert captured.err == "error: --tolerance must be positive\n"

    def test_order_zero_is_domain_error(self, capsys):
        code = main(["check", "--id", "T1", "--order", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_DOMAIN
        assert err == "error: --order must be >= 1\n"

    def test_order_has_one_lower_bound(self, capsys, monkeypatch):
        # --order=-1 and --order 0 get one message, so fixing the first gets no second
        refuse_work(monkeypatch)
        errors = []
        for order in ("--order=-1", "--order=0"):
            assert main(["check", "--id", "T15", order]) == EXIT_DOMAIN
            errors.append(capsys.readouterr().err)
        assert errors == ["error: --order must be >= 1\n"] * 2

    def test_grid_flag_leasts_are_the_grids(self, capsys, monkeypatch):
        # each check size flag's least is the least value Grid takes for its field
        refuse_work(monkeypatch)
        for flag, least in cli.SIZE_FLAGS["check"].items():
            Grid(**{flag: least})
            with pytest.raises(BindingError):
                Grid(**{flag: least - 1})
            assert main(["check", f"--{flag}={least - 1}"]) == EXIT_DOMAIN
            assert capsys.readouterr().err == f"error: --{flag} must be >= {least}\n"

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

    @pytest.mark.parametrize("lambdas", ["1/2,1/2,2/4", "1/2,2/4"])
    def test_repeated_lambda_is_domain_error(self, capsys, monkeypatch, lambdas):
        calls = counting_checkers(monkeypatch)
        code = main(["check", "--id", "T15", "--nmax", "3", "--lambdas", lambdas])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err == "error: --lambdas: 1/2 appears more than once\n"
        assert calls == []

    @pytest.mark.parametrize("ids", [["T15", "T15"], ["T15", "T1", "T15"]])
    def test_repeated_id_is_domain_error(self, capsys, monkeypatch, ids):
        # the same rule as a repeated lambda: refused, not run once
        calls = counting_checkers(monkeypatch)
        code = main(["check", *(arg for ident in ids for arg in ("--id", ident)), "--nmax", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err == "error: --id: T15 appears more than once\n"
        assert calls == []

    @pytest.mark.parametrize("flag", ["--order=0", "--tolerance=-1"])
    def test_grid_value_not_swept_by_the_id_is_still_checked(self, capsys, monkeypatch, flag):
        # T15 sweeps neither the order nor the tolerance, but the grid is checked whole
        calls = counting_checkers(monkeypatch)
        code = main(["check", "--id", "T15", flag])
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

    def test_empty_id_is_refused_before_the_others_are_checked(self, capsys, monkeypatch):
        calls = counting_checkers(monkeypatch)
        code = main(["check", "--id", "T1", "--id", "C15", "--nmax", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err == "error: no bindings checked for C15; widen the grid\n"
        assert calls == []

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

    FAILED_COMMANDS = pytest.mark.parametrize(
        "argv, expected",
        [
            (["table", "hyperharmonic", "--nmax", "5", "--format", "json"], EXIT_DOMAIN),
            (["table", "s2", "--nmax", "3", "--r", "2"], EXIT_DOMAIN),
            (["eval", "bell", "--n=-1", "--x", "1"], EXIT_DOMAIN),
            (["check", "--id", "NOPE"], EXIT_USAGE),
            (["check", "--id", "C15", "--nmax", "1"], EXIT_DOMAIN),
            (["table", "s2", "--nmax=-3"], EXIT_DOMAIN),
            (["series", "dlog", "--order", "3", "--x", "5"], EXIT_DOMAIN),
            (["check", "--id", "T15", "--order", "0"], EXIT_DOMAIN),
            (["check", "--id", "T15", "--lambdas", "1/2,2/4"], EXIT_DOMAIN),
            (["check", "--tolerance=0"], EXIT_DOMAIN),
            (["check", "--id", "T15", "--id", "T15"], EXIT_DOMAIN),
        ],
        ids=["table-without-r", "table-r-not-taken", "eval-negative-n", "check-unknown-id",
             "check-no-bindings", "table-negative-nmax", "series-flag-not-read", "check-order-zero",
             "check-repeated-lambda", "check-zero-tolerance", "check-repeated-id"],
    )

    @FAILED_COMMANDS
    def test_failed_command_leaves_existing_file_unchanged(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "keep.json"
        path.write_bytes(b'{"kept": true}\n')
        code = main(argv + ["--output", str(path)])
        captured = capsys.readouterr()
        assert code == expected and captured.out == ""
        assert captured.err.startswith("error: ")
        assert path.read_bytes() == b'{"kept": true}\n'

    @FAILED_COMMANDS
    def test_failed_command_leaves_no_new_file(self, capsys, tmp_path, argv, expected):
        path = tmp_path / "new.json"
        code = main(argv + ["--output", str(path)])
        captured = capsys.readouterr()
        assert code == expected and captured.out == ""
        assert captured.err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @FAILED_COMMANDS
    def test_failed_command_creates_no_link_target(self, capsys, tmp_path, argv, expected):
        # opening a dangling link for writing would create its target
        link, target = tmp_path / "out.json", tmp_path / "target.json"
        link.symlink_to(target)
        code = main(argv + ["--output", str(link)])
        captured = capsys.readouterr()
        assert code == expected and captured.err.startswith("error: ")
        assert link.is_symlink() and not target.exists()

    @FAILED_COMMANDS
    def test_refusal_is_reported_before_an_unwritable_path(self, capsys, tmp_path, argv, expected):
        # the command's own code and message, as without --output, not `cannot write`
        assert main(argv) == expected
        refusal = capsys.readouterr().err
        code = main(argv + ["--output", str(tmp_path / "missing" / "x.json")])
        captured = capsys.readouterr()
        assert code == expected and captured.out == ""
        assert captured.err == refusal and not refusal.startswith("error: cannot write")

    def test_output_replaces_a_longer_file(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text("x" * 10_000)
        code, out = run_cli(capsys, "table", "s1", "--nmax", "2", "--format", "json", "--output", str(path))
        assert code == EXIT_OK and out == ""
        code, expected = run_cli(capsys, "table", "s1", "--nmax", "2", "--format", "json")
        assert path.read_text() == expected

    def test_write_error_part_way_is_usage_error(self, capsys):
        # every write to /dev/full fails, the first once the stream's buffer fills
        if not os.path.exists("/dev/full"):
            pytest.skip("this platform has no /dev/full")
        code = main(["table", "s2", "--nmax", "150", "--output", "/dev/full"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error: cannot write /dev/full") and "Traceback" not in captured.err

    def test_rendering_holds_about_one_row(self, capsys, tmp_path):
        path = tmp_path / "s2.json"
        argv = ["table", "s2", "--nmax", "150", "--lambda=57/89", "--format", "json", "--output", str(path)]
        # the first run stores the triangle, so the traced run only renders and writes it
        assert main(argv) == EXIT_OK
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        largest_row = max(len(json.dumps(row, indent=2)) for row in json.loads(path.read_text())["values"])
        assert peak < 8 * largest_row

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            assert main(["list"]) == main(["table", "s1", "--nmax", "2"]) == EXIT_OK
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert built == [1]


    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "s2", "--n", "3", "--output", "F"],
            ["table", "s2", "--nmax", "2", "--o", "F"],
            ["check", "--lambda", "1/2", "--output", "F"],
        ],
        ids=["table-n-for-nmax", "table-o-for-output", "check-lambda-for-lambdas"],
    )
    def test_flag_prefix_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        # a flag is matched by its full name only; a prefix of one is not read as it
        refuse_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE and captured.out == "" and captured.err
        assert list(tmp_path.iterdir()) == []


def refuse_work(monkeypatch) -> None:
    """Swap every command handler but list's for one that fails the test if it runs."""

    def no_work(args):
        raise AssertionError("a command ran outside its size bounds")

    for name in ("_cmd_table", "_cmd_eval", "_cmd_series", "_cmd_check"):
        monkeypatch.setattr(cli, name, no_work)


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
        refuse_work(monkeypatch)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        # --k=-301 is below --k's least, -MAX_SIZE, not above a bound on its absolute value
        bound = f">= {-MAX_SIZE}\n" if argv[-1].startswith("--k=-") else f"<= {MAX_SIZE}, got "
        assert captured.err.startswith("error: --") and bound in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "s2", "--nmax=-1"], "--nmax must be >= 0"),
            (["table", "hyperharmonic", "--nmax", "2", "--r", "0"], "--r must be >= 1"),
            (["table", "s2", "--nmax", "2", "--r", "0"], "--r must be >= 1"),
            (["eval", "bernoulli", "--n=-1", "--x", "1"], "--n must be >= 0"),
            (["series", "dlog", "--order=-1"], "--order must be >= 0"),
            (["series", "hypergf", "--order", "4", "--r", "0"], "--r must be >= 1"),
            (["series", "dexp", "--order", "4", "--r", "0"], "--r must be >= 1"),
            (["series", "dpolylog", "--order", "4", f"--k={-(MAX_SIZE + 1)}"], f"--k must be >= {-MAX_SIZE}"),
            (["check", "--all", "--nmax=-3"], "--nmax must be >= 0"),
            (["check", "--all", "--rmax", "0"], "--rmax must be >= 1"),
            (["check", "--all", "--pmax=-1"], "--pmax must be >= 0"),
            (["check", "--all", "--order=-1"], "--order must be >= 1"),
            (["check", "--all", "--order", "0"], "--order must be >= 1"),
        ],
    )
    def test_below_least_is_domain_error_before_any_work(self, capsys, monkeypatch, argv, message):
        refuse_work(monkeypatch)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["series", "dlog", "--order", "3", "--x", "5"], "--x does not apply to selector 'dlog'"),
            (["series", "dexp", "--order", "3", "--k", "7"], "--k does not apply to selector 'dexp'"),
            (["series", "dlog", "--order", "3", "--r", "9"], "--r does not apply to selector 'dlog'"),
            (["series", "hypergf", "--order", "3", "--k", "1"], "--k does not apply to selector 'hypergf'"),
            (["series", "dpolylog", "--order", "3", "--x", "1"], "--x does not apply to selector 'dpolylog'"),
            # a flag out of bounds is reported first
            (["series", "dexp", "--order", "4", "--r", "0"], "--r must be >= 1"),
            (["series", "dlog", "--order", "4", "--k", str(MAX_SIZE + 1)], f"--k must be <= {MAX_SIZE}, got {MAX_SIZE + 1}"),
            # a table family's flags follow the same rule as a series selector's
            (["table", "hyperharmonic", "--nmax", "3"], "hyperharmonic needs --r >= 1"),
            (["table", "bernoulli", "--nmax", "3", "--r", "2"], "--r does not apply to family 'bernoulli'"),
        ],
    )
    def test_series_flag_not_read_is_domain_error_before_any_work(self, capsys, monkeypatch, argv, message):
        refuse_work(monkeypatch)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_least_is_accepted(self, capsys):
        code, out = run_cli(capsys, "series", "dpolylog", "--order", "2", f"--k={-MAX_SIZE}", "--format", "csv")
        assert code == EXIT_OK and len(out.splitlines()) == 4

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
# --k's least is -MAX_SIZE
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
    "table": (tuple(FAMILIES), ("--nmax",), ("--lambda", "--r", "--format")),
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


# lambda = 1/7...7 with 1,000 sevens: S(7, k) has more digits than the 4,300
# that CPython's str(int) takes by default (3.10.7 on)
TALL_LAMBDA = "1/" + "7" * 1000


class TestTallLambda:
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_tall_lambda_renders(self, capsys, fmt):
        code = main(["table", "s2", "--nmax", "7", f"--lambda={TALL_LAMBDA}", "--format", fmt])
        captured = capsys.readouterr()
        assert code == EXIT_OK and "Traceback" not in captured.err
        if fmt == "json":
            values = json.loads(captured.out)["values"]
            assert len(values) == 8 and max(len(v) for row in values for v in row) > 4300
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(captured.out)))[1:]
            assert sorted({int(n) for n, _, _ in rows}) == list(range(8))
        else:
            assert len(captured.out.splitlines()) == 8

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["table", "s2", "--nmax", "7", f"--lambda={TALL_LAMBDA}"], EXIT_OK),
            (["table", "s2", "--nmax", "7", "--r", "0", f"--lambda={TALL_LAMBDA}"], EXIT_DOMAIN),
            (["table", "s2", "--nmax", "2", "--r", "1"], EXIT_DOMAIN),
        ],
    )
    def test_digit_limit_is_restored(self, capsys, argv, expected):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            pytest.skip("this Python has no limit on str(int) digits")
        before = get_limit()
        assert main(argv) == expected
        capsys.readouterr()
        assert get_limit() == before


class TestAnyArgv:
    def test_every_flag_is_drawn(self):
        # a flag that the parser gains is drawn by argvs() once COMMANDS and FLAG_VALUES name it
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
        assert commands.keys() == COMMANDS.keys()
        for command, parser in commands.items():
            _, required, others = COMMANDS[command]
            flags = {flag for action in parser._actions for flag in action.option_strings if flag.startswith("--")}
            assert flags <= {*required, *others, "--all", "--output", "--help"} and {*required, *others} <= FLAG_VALUES.keys()

    @settings(max_examples=150, deadline=None)
    @given(argv=argvs(), to_file=st.booleans())
    def test_exit_code_is_documented_and_no_traceback(self, argv, to_file):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as workdir:
            path = Path(workdir) / "out"
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--output", str(path)] if to_file else argv)
            # a refused command creates no --output file
            assert code not in (EXIT_USAGE, EXIT_DOMAIN) or not path.exists()
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_DOMAIN)
        assert "Traceback" not in out.getvalue() + err.getvalue()


class TestList:
    def test_csv_rows_are_id_and_description(self, capsys):
        # a description with a comma is quoted, so every row parses into two fields
        code, out = run_cli(capsys, "list", "--format", "csv")
        assert code == EXIT_OK
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["id", "description"]
        assert [row[0] for row in rows] == list(REGISTRY)
        for row in rows:
            assert len(row) == 2 and row[1] == REGISTRY[row[0]].description

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
