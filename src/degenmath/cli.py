"""Command line front end: tables, evaluations, series dumps, identity suite.

FAMILIES is the one place a table family is declared.

Exit codes: 0 all requested checks pass, 1 an identity check failed,
2 usage error (including an --output path that cannot be written, found
before the command does its work, and a write that fails part way
through the output, which leaves the part written), 3 domain
error (structurally valid flags that cannot be satisfied, e.g. an r bound
for a family that does not take one, a size flag above MAX_SIZE, or a
check grid value outside its domain, or an --id named twice).  Every check grid value is checked
when the Grid is built, whatever ids are selected, and an id named with
--id that has no binding on the grid is refused before any identity is
checked.

SIZE_FLAGS maps each command's size flags to their least values and
MAX_SIZE is every size flag's largest; a series flag that SERIES does not
declare for the selector, and --r for a table family other than
hyperharmonic, are refused.  Every refusal, the parser's and then
_refusal's, is made before --output is opened and before any work, so a
refused command opens, creates and changes no file, and a refused flag is
reported before an --output path that cannot be written; only that path,
or a write that fails, gives exit 2 after the open.  A value's digits grow as n times the
height of lambda or x, which MAX_SIZE does not bound: CPython's limit on
str(int) digits is lifted while a command runs, so table s2 --nmax 300
--lambda=1/99999999999991 renders, in 9 s and 81 MiB.  README gives
each command's cost.

A handler does its command's work and returns (exit code, chunks of
text); main truncates --output and then writes the chunks one by one.
table and series render a chunk per row or coefficient list as it is
written, so the whole text is never held in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import stat
import sys
from fractions import Fraction
from typing import Iterable

from . import identities, sequences
from .algebra import _ZERO, Poly, parse_rational, poly_eval
from .identities import BindingError, Grid, UnknownIdentityError
from .series import dexp, dlog, dpolylog

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

MAX_SIZE = 300
# command -> its size flags -> their least values; check's are those of the
# Params that Grid validates its fields with
SIZE_FLAGS = {
    "table": {"nmax": 0, "r": 1},
    "eval": {"n": 0},
    "series": {"order": 0, "r": 1, "k": -MAX_SIZE},
    "check": {"nmax": identities.N0.min, "order": identities.ORDER.min, "rmax": identities.R1.min, "pmax": identities.P0.min},
}

# family -> (kind, function, value function): the kind is triangle, scalar or
# poly; the functions are names in sequences, looked up at call time, and a
# value function evaluates from stored constants, building no polynomial
FAMILIES = {
    "s1": ("triangle", "s1_triangle", None),
    "s2": ("triangle", "s2_triangle", None),
    "harmonic": ("scalar", "dharmonic", None),
    "hyperharmonic": ("scalar", "dhyperharmonic", None),
    "bernoulli": ("poly", "dbernoulli_poly", "dbernoulli_value"),
    "euler": ("poly", "deuler_poly", "deuler_value"),
    "bell": ("poly", "dbell_poly", None),
    "fubini": ("poly", "dfubini_poly", None),
}

# the families that eval takes
POLY_FAMILIES = tuple(name for name, (kind, _, _) in FAMILIES.items() if kind == "poly")

# series selector -> ({flag it reads beside --lambda and --order: its default}, its series)
SERIES = {
    "dexp": ({"x": Fraction(1)}, lambda args: dexp(args.x, args.lam, args.order)),
    "dlog": ({}, lambda args: dlog(args.lam, args.order)),
    "dpolylog": ({"k": 1}, lambda args: dpolylog(args.k, args.lam, args.order)),
    "hypergf": ({"r": 1}, lambda args: identities.hyperharmonic_gf(args.lam, args.r, args.order)),
}


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenmath",
        description="exact degenerate special-number tables and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="print a triangle, sequence, or polynomial family")
    table.add_argument("family", choices=tuple(FAMILIES))
    table.add_argument("--nmax", type=int, required=True)
    table.add_argument("--lambda", dest="lam", type=parse_rational, default=Fraction(0))
    table.add_argument("--r", type=int, default=None)
    _output_flags(table)

    ev = sub.add_parser("eval", help="evaluate a polynomial family at an exact point")
    ev.add_argument("family", choices=POLY_FAMILIES)
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--lambda", dest="lam", type=parse_rational, default=Fraction(0))
    ev.add_argument("--x", type=parse_rational, required=True)
    _output_flags(ev)

    ser = sub.add_parser("series", help="dump generating-function coefficients")
    ser.add_argument("selector", choices=tuple(SERIES))
    ser.add_argument("--lambda", dest="lam", type=parse_rational, default=Fraction(0))
    ser.add_argument("--order", type=int, required=True)
    ser.add_argument("--k", type=int, help="polylogarithm weight (dpolylog)")
    ser.add_argument("--r", type=int, help="geometric power (hypergf)")
    ser.add_argument("--x", type=parse_rational, help="exponent (dexp)")
    _output_flags(ser)

    check = sub.add_parser("check", help="run the identity suite")
    which = check.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every identity (the default)")
    which.add_argument("--id", dest="ids", action="append", help="run one identity (repeatable)")
    check.add_argument("--nmax", type=int, default=None)
    check.add_argument("--rmax", type=int, default=None)
    check.add_argument("--pmax", type=int, default=None)
    check.add_argument("--lambdas", type=_rational_list, default=None)
    check.add_argument("--order", type=int, default=None)
    check.add_argument(
        "--tolerance", dest="e67_tol", metavar="TOLERANCE", type=parse_rational, default=None
    )
    _output_flags(check)

    lst = sub.add_parser("list", help="list the identity registry")
    _output_flags(lst)

    return parser


def _output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _emit(chunks: Iterable[str], out) -> None:
    """Write each text chunk to out, then a newline if the last non-empty chunk lacks one."""
    last = ""
    for chunk in chunks:
        if chunk:
            out.write(chunk)
            last = chunk
    if not last.endswith("\n"):
        out.write("\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2)


def _rational_json(fields: dict) -> Iterable[str]:
    r"""Yield json.dumps(fields, indent=2) byte for byte, for a flat dict whose
    list values hold Fractions, or rows of Fractions, to be written as their
    str; each chunk holds at most one row or list of Fractions.

    Those lists are joined directly from the Fractions: str(Fraction) matches
    -?\d+(/\d+)?, which JSON never escapes, so json's escape scan over every
    string, and the list of strings it would scan, are skipped.  The text is
    yielded row by row, so the megabytes of a large table are never held at
    once.
    """
    separator = "{\n"
    for key, value in fields.items():
        yield f"{separator}  {json.dumps(key)}: "
        if isinstance(value, (list, tuple)):
            yield from _json_rationals(value, "  ")
        else:
            yield json.dumps(value)
        separator = ",\n"
    yield "\n}"


def _json_rationals(values, indent: str) -> Iterable[str]:
    """Yield values, laid out at indent as json.dumps(..., indent=2) lays out
    their strs, one chunk per list of Fractions; never empty, as every table
    row and series has an entry."""
    inner = indent + "  "
    if isinstance(values[0], (list, tuple)):
        separator = "[\n" + inner
        for row in values:
            yield separator
            yield from _json_rationals(row, inner)
            separator = ",\n" + inner
        yield "\n" + indent + "]"
    else:
        yield "[\n" + inner + '"' + ('",\n' + inner + '"').join(map(str, values)) + '"\n' + indent + "]"


def _csv_text(rows) -> str:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _csv_chunks(header: tuple, groups) -> Iterable[str]:
    """Yield the csv text of header, then of each group of rows, one chunk per group."""
    yield _csv_text([header])
    for rows in groups:
        yield _csv_text(rows)


def _table_rows(args) -> list:
    family, nmax, lam, r = args.family, args.nmax, args.lam, args.r
    kind, function, _ = FAMILIES[family]
    fn = getattr(sequences, function)
    if kind == "triangle":
        tri = fn(nmax, lam)
        return [tri.row(n) for n in range(nmax + 1)]
    if kind == "scalar":
        if r is None:
            return [[fn(n, lam)] for n in range(nmax + 1)]
        return [[fn(n, r, lam)] for n in range(nmax + 1)]
    rows = []
    for n in range(nmax + 1):
        coeffs = fn(n, lam).coeffs
        rows.append([*coeffs, *[_ZERO] * (n + 1 - len(coeffs))])
    return rows


def _cmd_table(args) -> tuple[int, Iterable[str]]:
    # the rows are computed here, before main truncates --output; the chunks
    # render them one row at a time as main writes them
    rows = _table_rows(args)
    if args.format == "json":
        doc = {"family": args.family, "lambda": str(args.lam), "nmax": args.nmax, "values": rows}
        if args.family == "hyperharmonic":
            doc["r"] = args.r
        return EXIT_OK, _rational_json(doc)
    if args.format == "csv":
        groups = ([(n, k, v) for k, v in enumerate(row)] for n, row in enumerate(rows))
        return EXIT_OK, _csv_chunks(("n", "k", "value"), groups)
    kind, _, _ = FAMILIES[args.family]
    if kind == "triangle":
        return EXIT_OK, (f"{n}: " + " ".join(map(str, row)) + "\n" for n, row in enumerate(rows))
    if kind == "scalar":
        return EXIT_OK, (f"{n}\t{row[0]}\n" for n, row in enumerate(rows))
    return EXIT_OK, (f"{n}: {Poly(row)}\n" for n, row in enumerate(rows))


def _cmd_eval(args) -> tuple[int, tuple[str]]:
    _, function, value_function = FAMILIES[args.family]
    if value_function is not None:
        value = getattr(sequences, value_function)(args.n, args.lam, args.x)
    else:
        value = poly_eval(getattr(sequences, function)(args.n, args.lam), args.x)
    if args.format == "json":
        text = _json_text({"family": args.family, "n": args.n, "lambda": str(args.lam), "x": str(args.x), "value": str(value)})
    elif args.format == "csv":
        text = _csv_text([("n", "x", "value"), (args.n, args.x, value)])
    else:
        text = str(value)
    return EXIT_OK, (text,)


def _cmd_series(args) -> tuple[int, Iterable[str]]:
    reads, series_of = SERIES[args.selector]
    vars(args).update({flag: default for flag, default in reads.items() if getattr(args, flag) is None})
    series = series_of(args)
    if args.format == "json":
        return EXIT_OK, _rational_json({"coeffs": series.coeffs, "order": series.order})
    if args.format == "csv":
        return EXIT_OK, _csv_chunks(("k", "value"), [enumerate(series.coeffs)])
    return EXIT_OK, ("[" + ", ".join(map(str, series.coeffs)) + "]",)


def grid_from_args(args) -> Grid:
    """The default grid, with each Grid field that a check flag gave replaced."""
    given = {field.name: getattr(args, field.name) for field in dataclasses.fields(Grid)}
    return Grid(**{name: value for name, value in given.items() if value is not None})


def _cmd_check(args) -> tuple[int, tuple[str]]:
    report = identities.run_suite(grid_from_args(args), ids=args.ids)
    if args.format == "json":
        text = _json_text(identities.suite_report_json(report))
    elif args.format == "csv":
        text = _csv_text(
            [("id", "pass_count", "fail_count"), *((r.id, r.pass_count, r.fail_count) for r in report.results)]
        )
    else:
        lines = []
        for res in report.results:
            lines.append(f"{res.id}: pass {res.pass_count} fail {res.fail_count}")
            for failure in res.failures:
                lines.append(f"  FAIL {failure.id} at {_plain_binding(failure.binding)}")
                lines.append(f"    lhs = {failure.lhs}")
                lines.append(f"    rhs = {failure.rhs}")
                if failure.note:
                    lines.append(f"    note: {failure.note}")
        lines.append("all identities passed" if report.all_pass else "FAILURES detected")
        text = "\n".join(lines)
    return (EXIT_OK if report.all_pass else EXIT_CHECK_FAILED), (text,)


def _plain_binding(binding: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in binding.items())


def _cmd_list(args) -> tuple[int, tuple[str]]:
    specs = identities.list_identities()
    if args.format == "json":
        text = _json_text(
            [
                {"id": s.id, "description": s.description, "params": s.param_summary()}
                for s in specs
            ]
        )
    elif args.format == "csv":
        text = _csv_text([("id", "description"), *((s.id, s.description) for s in specs)])
    else:
        lines = []
        for s in specs:
            schema = "; ".join(f"{k}: {v}" for k, v in s.param_summary().items())
            lines.append(f"{s.id}\t{schema}\t{s.description}")
        text = "\n".join(lines)
    return EXIT_OK, (text,)


def _refusal(args) -> tuple[int, str] | None:
    """The exit code and message that refuse the command args, or None if it
    may run.  A size flag above MAX_SIZE is reported before one below its
    least, both before a flag that the series selector or table family does
    not read, and all before check's grid and identity ids are refused."""
    least = SIZE_FLAGS.get(args.command, {})
    sizes = {dest: getattr(args, dest) for dest in least if getattr(args, dest) is not None}
    errors = [f"--{dest} must be <= {MAX_SIZE}, got {size}" for dest, size in sizes.items() if size > MAX_SIZE]
    errors += [f"--{dest} must be >= {least[dest]}" for dest, size in sizes.items() if size < least[dest]]
    if args.command == "series":
        unread = [flag for reads, _ in SERIES.values() for flag in reads if flag not in SERIES[args.selector][0]]
        errors += [f"--{flag} does not apply to selector {args.selector!r}" for flag in unread if getattr(args, flag) is not None]
    # hyperharmonic reads --r, and no other family does
    if args.command == "table" and (args.family == "hyperharmonic") != (args.r is not None):
        errors.append("hyperharmonic needs --r >= 1" if args.r is None else f"--r does not apply to family {args.family!r}")
    if errors:
        return EXIT_DOMAIN, errors[0]
    if args.command == "check":
        try:
            identities.selected_ids(grid_from_args(args), args.ids)
        except UnknownIdentityError as exc:
            return EXIT_USAGE, f"unknown identity id {exc.args[0]!r}"
        except BindingError as exc:
            return EXIT_DOMAIN, str(exc)
    return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main call rather than at import, and kept for the process
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops a "--" given as a flag value (--nmax=--) and stores
        # an empty list in place of the value
        if any(v == [] or (isinstance(v, list) and [] in v) for v in vars(args).values()):
            parser.error("'--' is not a flag value")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handler = {
        "table": _cmd_table,
        "eval": _cmd_eval,
        "series": _cmd_series,
        "check": _cmd_check,
        "list": _cmd_list,
    }[args.command]
    # every refusal is made before --output is opened, so a refused command
    # opens, creates and changes no file
    refusal = _refusal(args)
    if refusal is not None:
        code, message = refusal
        print(f"error: {message}", file=sys.stderr)
        return code
    # str(int)'s digit limit, which a tall lambda's values pass: lifted while the command runs; None before 3.10.7
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        # opened for appending before the command runs, so a path that cannot
        # be written fails before any work is done, and an existing file keeps
        # its bytes until there is output to replace them with
        if args.output is None:
            out = contextlib.nullcontext(sys.stdout)
        else:
            out = open(args.output, "a", encoding="utf-8")
        with out as stream:
            if limit is not None:
                sys.set_int_max_str_digits(0)
            # the handler does the command's work; its chunks only render
            code, chunks = handler(args)
            # only a regular file can be truncated (not /dev/null or a pipe)
            if args.output is not None and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                stream.truncate(0)
            _emit(chunks, stream)
        return code
    except OSError as exc:
        # only the output stream does I/O; 2 is the exit code argparse gives
        # a path it cannot open
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
