"""Command line front end: tables, evaluations, series dumps, identity suite.

Exit codes: 0 all requested checks pass, 1 an identity check failed,
2 usage error (including an --output path that cannot be written, found
before the command does its work), 3 domain
error (structurally valid flags that cannot be satisfied, e.g. an r bound
for a family that does not take one, a binding outside an identity's
schema, a check grid that leaves nothing to check, or a size flag above
MAX_SIZE).

MAX_SIZE bounds table --nmax, eval --n, series --order, check --nmax,
check --order, table and series --r, check --rmax and --pmax, and the
absolute value of series --k, and is checked before any work.  It is
sized by the largest table: `table s2 --lambda=57/89 --format json` takes
0.34 s and 37 MiB at nmax 160 (perfbench's largest size), 0.77 s and
89 MiB at 240, and 1.3 s and 159 MiB at 300 (Python 3.11, 2-vCPU host,
peak RSS).  The triangle's entries grow as n**2 and their digits as n, so
the memory grows about as n**3: 690 MiB at 500.  Other commands are slower
at the bound without taking more memory: `eval bernoulli --n 300` takes
about 8 s and 34 MiB, `series hypergf --order 300 --r 300` 0.3 s,
`check --id T1 --rmax 300` 1.4 s, and a check sweep with --nmax or --pmax
at the bound far longer (E59 builds the Bernoulli polynomial of degree
pmax + 1): `check --all --lambdas=57/89 --format json` takes 1.2-1.8 s at
--nmax 40, 8-11 s at --nmax 80 and 30 s at --nmax 120, growing about as
nmax**3, in 20-31 MiB (wall time and peak RSS of one CLI process).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from . import identities, sequences
from .algebra import Poly, parse_rational, poly_eval
from .identities import BindingError, Grid, UnknownIdentityError
from .series import dexp, dlog, dpolylog

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

MAX_SIZE = 300

TRIANGLE_FAMILIES = ("s1", "s2")
SCALAR_FAMILIES = ("harmonic", "hyperharmonic")
POLY_FAMILIES = ("bernoulli", "euler", "bell", "fubini")

# family -> function name in sequences, looked up on the module at call time
FAMILY_FUNCTIONS = {
    "s1": "s1_triangle",
    "s2": "s2_triangle",
    "harmonic": "dharmonic",
    "hyperharmonic": "dhyperharmonic",
    "bernoulli": "dbernoulli_poly",
    "euler": "deuler_poly",
    "bell": "dbell_poly",
    "fubini": "dfubini_poly",
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
    table.add_argument("family", choices=TRIANGLE_FAMILIES + SCALAR_FAMILIES + POLY_FAMILIES)
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
    ser.add_argument("selector", choices=("dexp", "dlog", "dpolylog", "hypergf"))
    ser.add_argument("--lambda", dest="lam", type=parse_rational, default=Fraction(0))
    ser.add_argument("--order", type=int, required=True)
    ser.add_argument("--k", type=int, default=1, help="polylogarithm weight (dpolylog)")
    ser.add_argument("--r", type=int, default=1, help="geometric power (hypergf)")
    ser.add_argument("--x", type=parse_rational, default=Fraction(1), help="exponent (dexp)")
    _output_flags(ser)

    check = sub.add_parser("check", help="run the identity suite")
    check.add_argument("--all", action="store_true", help="run every identity (the default)")
    check.add_argument("--id", dest="ids", action="append", help="run one identity (repeatable)")
    check.add_argument("--nmax", type=int, default=None)
    check.add_argument("--rmax", type=int, default=None)
    check.add_argument("--pmax", type=int, default=None)
    check.add_argument("--lambdas", type=_rational_list, default=None)
    check.add_argument("--order", type=int, default=None)
    check.add_argument("--tolerance", type=parse_rational, default=None)
    _output_flags(check)

    lst = sub.add_parser("list", help="list the identity registry")
    _output_flags(lst)

    return parser


def _output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("plain", "csv", "json"), default="plain")
    sub.add_argument("--output", default=None, help="write to a file instead of stdout")


def _emit(text: str, out) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2)


def _csv_text(header: str, rows) -> str:
    return "\n".join([header] + [",".join(str(c) for c in row) for row in rows])


class DomainError(Exception):
    pass


def _table_rows(args) -> list[list]:
    family, nmax, lam, r = args.family, args.nmax, args.lam, args.r
    if nmax < 0:
        raise DomainError("--nmax must be >= 0")
    if family == "hyperharmonic":
        if r is None or r < 1:
            raise DomainError("hyperharmonic needs --r >= 1")
    elif r is not None:
        raise DomainError(f"--r does not apply to family {family!r}")
    fn = getattr(sequences, FAMILY_FUNCTIONS[family])
    if family in TRIANGLE_FAMILIES:
        tri = fn(nmax, lam)
        return [list(tri.row(n)) for n in range(nmax + 1)]
    if family == "harmonic":
        return [[fn(n, lam)] for n in range(nmax + 1)]
    if family == "hyperharmonic":
        return [[fn(n, r, lam)] for n in range(nmax + 1)]
    rows = []
    for n in range(nmax + 1):
        poly = fn(n, lam)
        rows.append([poly.coeff(i) for i in range(n + 1)])
    return rows


def _cmd_table(args) -> int:
    try:
        rows = _table_rows(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        doc = {
            "family": args.family,
            "lambda": str(args.lam),
            "nmax": args.nmax,
            "values": [[str(v) for v in row] for row in rows],
        }
        if args.family == "hyperharmonic":
            doc["r"] = args.r
        text = _json_text(doc)
    elif args.format == "csv":
        flat = [(n, k, v) for n, row in enumerate(rows) for k, v in enumerate(row)]
        text = _csv_text("n,k,value", flat)
    else:
        lines = []
        for n, row in enumerate(rows):
            if args.family in TRIANGLE_FAMILIES:
                lines.append(f"{n}: " + " ".join(str(v) for v in row))
            elif args.family in SCALAR_FAMILIES:
                lines.append(f"{n}\t{row[0]}")
            else:
                lines.append(f"{n}: {Poly(row)}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.n < 0:
        print("error: --n must be >= 0", file=sys.stderr)
        return EXIT_DOMAIN
    maker = getattr(sequences, FAMILY_FUNCTIONS[args.family])
    value = poly_eval(maker(args.n, args.lam), args.x)
    if args.format == "json":
        text = _json_text({"family": args.family, "n": args.n, "lambda": str(args.lam), "x": str(args.x), "value": str(value)})
    elif args.format == "csv":
        text = _csv_text("n,x,value", [(args.n, args.x, value)])
    else:
        text = str(value)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_series(args) -> int:
    if args.order < 0:
        print("error: --order must be >= 0", file=sys.stderr)
        return EXIT_DOMAIN
    if args.selector == "dexp":
        series = dexp(args.x, args.lam, args.order)
    elif args.selector == "dlog":
        series = dlog(args.lam, args.order)
    elif args.selector == "dpolylog":
        series = dpolylog(args.k, args.lam, args.order)
    else:
        if args.r < 1:
            print("error: --r must be >= 1", file=sys.stderr)
            return EXIT_DOMAIN
        series = identities.hyperharmonic_gf(args.lam, args.r, args.order)
    coeffs = [str(c) for c in series.coeffs]
    if args.format == "json":
        text = _json_text({"coeffs": coeffs, "order": series.order})
    elif args.format == "csv":
        text = _csv_text("k,value", list(enumerate(coeffs)))
    else:
        text = "[" + ", ".join(coeffs) + "]"
    _emit(text, args.out)
    return EXIT_OK


def grid_from_args(args) -> Grid:
    kwargs = {}
    if args.nmax is not None:
        kwargs["nmax"] = args.nmax
    if args.rmax is not None:
        kwargs["rmax"] = args.rmax
    if args.pmax is not None:
        kwargs["pmax"] = args.pmax
    if args.lambdas is not None:
        kwargs["lambdas"] = args.lambdas
    if args.order is not None:
        kwargs["order"] = args.order
    if args.tolerance is not None:
        kwargs["e67_tol"] = args.tolerance
    return Grid(**kwargs)


def _cmd_check(args) -> int:
    ids = None if (args.all or not args.ids) else args.ids
    try:
        report = identities.run_suite(grid_from_args(args), ids=ids)
    except UnknownIdentityError as exc:
        print(f"error: unknown identity id {exc.args[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    except BindingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    # a check of zero bindings passes vacuously, so it is not reported as a
    # pass; under --all E44 always has bindings, so only named ids can be empty
    checked = {r.id: r.pass_count + r.fail_count for r in report.results}
    empty = [ident for ident in (ids or ()) if not checked[ident]]
    if empty:
        print(f"error: no bindings checked for {', '.join(empty)}; widen the grid", file=sys.stderr)
        return EXIT_DOMAIN
    if args.format == "json":
        text = _json_text(identities.suite_report_json(report))
    elif args.format == "csv":
        text = _csv_text(
            "id,pass_count,fail_count",
            [(r.id, r.pass_count, r.fail_count) for r in report.results],
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
    _emit(text, args.out)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _plain_binding(binding: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in binding.items())


def _cmd_list(args) -> int:
    specs = identities.list_identities()
    if args.format == "json":
        text = _json_text(
            [
                {"id": s.id, "description": s.description, "params": s.param_summary()}
                for s in specs
            ]
        )
    elif args.format == "csv":
        text = _csv_text("id,description", [(s.id, s.description) for s in specs])
    else:
        lines = []
        for s in specs:
            schema = "; ".join(f"{k}: {v}" for k, v in s.param_summary().items())
            lines.append(f"{s.id}\t{schema}\t{s.description}")
        text = "\n".join(lines)
    _emit(text, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse drops a "--" given as a flag value (--nmax=--) and stores
        # an empty list in place of the value
        if any(v == [] or (isinstance(v, list) and [] in v) for v in vars(args).values()):
            parser.error("'--' is not a flag value")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # --nmax (table, check), --n (eval), --order (series, check), --r (table,
    # series), --rmax and --pmax (check) and --k (series)
    for dest in ("nmax", "n", "order", "r", "rmax", "pmax", "k"):
        size = getattr(args, dest, None)
        if size is None:
            continue
        # --k, the polylogarithm weight, may be negative: its absolute value is bounded
        if (abs(size) if dest == "k" else size) > MAX_SIZE:
            qualifier = " in absolute value" if dest == "k" else ""
            print(f"error: --{dest} must be <= {MAX_SIZE}{qualifier}, got {size}", file=sys.stderr)
            return EXIT_DOMAIN
    handler = {
        "table": _cmd_table,
        "eval": _cmd_eval,
        "series": _cmd_series,
        "check": _cmd_check,
        "list": _cmd_list,
    }[args.command]
    try:
        # opened before the command runs, so a path that cannot be written
        # fails before any work is done
        if args.output is None:
            out = contextlib.nullcontext(sys.stdout)
        else:
            out = open(args.output, "w", encoding="utf-8")
        with out as args.out:
            return handler(args)
    except OSError as exc:
        # only the output stream does I/O; 2 is the exit code argparse gives
        # a path it cannot open
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
