"""Command-line surface for enumeration, table verification and series evaluation.

Exit codes follow one contract everywhere: 0 success, 1 verification
mismatch or empty result, 2 usage or input error, an output that cannot
be opened or written included: a reader that closes stdout early gets
one `error:` line and no traceback.  Machine formats (csv, jsonl) are
byte-deterministic for a given query and never decimalize fractions; the
markdown format adds a decimal column that is explicitly approximate.
`enumerate` writes the lines of `enumeration.checked_lines` without
building records: the walk's one driver runs its tasks, with `--jobs N`
in N processes, this one included, each task checking its rows and
rendering them with the format's renderer (`RENDERERS`), and this process
writes the lines in the order the driver gives them.  The library's
records pass the same per-task check, so they hold the same values.
One writer, `_write_lines`, prints the tables of both
`enumerate` and `chi-series` in every format, and one helper,
`_write_output`, owns `--output` for both.  The table and quotient modules
are imported where their commands run, so `enumerate` never loads them.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import nullcontext, suppress
from fractions import Fraction
from typing import Optional, Sequence

from . import enumeration
from .enumeration import EnumerationQuery, NoPositiveValueError, RecordFilter
from .riemann_roch import (
    EMPTY_SYMBOL,
    ChernContext,
    chi_series,
    format_index_multiset,
    parse_basket,
    parse_rational,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _factorization(n: int) -> Optional[str]:
    """Prime factorization as '2^4 * 3^6 * 7'; '1' for n = 1.

    Trial division stops at 10^6, so a cofactor with no factor up to there
    is prime only below (10^6 + 1)^2; for a larger one it is None.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if n == 1:
        return "1"
    parts = []
    p = 2
    while p * p <= n:
        if p > 10**6:
            return None  # the cofactor n may be composite
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            parts.append(f"{p}^{e}" if e > 1 else str(p))
        p += 1
    if n > 1:
        parts.append(str(n))
    return " * ".join(parts)


def _open_output(path: Optional[str]):
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "a", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _read_fixture(path: Optional[str]) -> Optional[str]:
    """The text of the fixture file at path, or None for the shipped fixture if path is None."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


# `enumerate` renderers: `enumeration.checked_lines` calls one in the task
# that walked the rows, so each is a module-level function, pickled by name.
# A row is the flat tuple (multiset, r_X, c1.c2, integral, witness, scaled)
# of `enumeration._checked_rows`, with c1.c2 = scaled / r_X; each row becomes
# one line.

def _render_csv(rows) -> str:
    # only the multiset and the witness can hold a comma, and a cell is quoted
    # iff it holds one, as `csv.writer` quotes a cell with no quote, CR or LF
    return "".join([
        f"""{f'"{indices}"' if "," in indices else indices},{r_x},{c1c2},{integral},"""
        f"""{f'"{witness}"' if "," in witness else witness}\n"""
        for indices, r_x, c1c2, integral, witness, _ in rows
    ])


# the JSON values of the texts that quotes alone do not make: the empty-set
# sign, which `json.dumps` writes as an ASCII escape, and no witness
JSON_EMPTY_SET = '"\\u2205"'
JSON_WITNESS = {"": "null", EMPTY_SYMBOL: JSON_EMPTY_SET}


def _render_jsonl(rows) -> str:
    """Each row as `json.dumps` writes its dict with separators (",", ":").

    No text needs an escape but the empty-set sign: a multiset or witness
    text is ASCII digits, "^", ",", "(" and ")", or the sign alone, and the
    other fields are digits, "/", "true" or "false".
    """
    return "".join([
        f"""{{"indices":{f'"{indices}"' if indices != EMPTY_SYMBOL else JSON_EMPTY_SET},"cartier_index":"""
        f"""{r_x},"c1c2":"{c1c2}","has_integral_basket":{integral},"witness":"""
        f"""{f'"{witness}"' if witness not in JSON_WITNESS else JSON_WITNESS[witness]}}}\n"""
        for indices, r_x, c1c2, integral, witness, _ in rows
    ])


def _render_md(rows) -> str:
    """Tab-separated cells, which `_write_lines`, the one writer of every table, pads."""
    # int / int rounds correctly, as float(Fraction(scaled, r_x)) does
    return "".join([
        f"{indices}\t{r_x}\t{c1c2}\t{scaled / r_x:.6g}\t{integral}\t{witness}\n"
        for indices, r_x, c1c2, integral, witness, scaled in rows
    ])


RENDERERS = {"csv": _render_csv, "jsonl": _render_jsonl, "md": _render_md}
MD_HEADER = ("indices", "r_X", "c1c2", "~c1c2 (approx.)", "integral", "witness")


def _write_lines(lines: list[str], fmt: str, stream, header: Sequence[str]) -> None:
    """Write the lines of `fmt`, without their newlines, in order, in batches.

    md lines are tab-separated cells, padded to their columns' widths under
    `header` and a rule.  No split, padded or encoded copy of every line is made.
    """
    if fmt == "md":
        widths = list(map(len, header))
        for start in range(0, len(lines), 4096):
            columns = zip(*[line.split("\t") for line in lines[start:start + 4096]])
            widths = [max(w, *map(len, column)) for w, column in zip(widths, columns)]
        row = ("| " + " | ".join(f"{{:<{w}}}" for w in widths) + " |").format
        stream.write(f"{row(*header)}\n{row(*('-' * w for w in widths))}\n")
    for start in range(0, len(lines), 4096):
        batch = lines[start:start + 4096]
        if fmt == "md":
            batch = [row(*line.split("\t")) for line in batch]
        stream.write("\n".join(batch) + "\n")


def _write_output(args, header: Sequence[str], make_lines) -> None:
    """Write `make_lines()` in `args.format` to `args.output`, or to stdout.

    Called after the usage checks, it opens the file for appending before
    the lines are made, so an unwritable path fails first and failed work
    leaves an earlier file as it was and removes one it created.  Then a
    regular file is emptied; a device or pipe has no bytes to drop.
    """
    path = args.output
    created = path is not None and not os.path.lexists(path)
    try:
        with _open_output(path) as stream:
            lines = make_lines()
            if path is not None and stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
                stream.truncate(0)
            _write_lines(lines, args.format, stream, header)
    except BaseException:
        if created:
            with suppress(OSError):
                os.remove(path)
        raise


def _cmd_enumerate(args) -> int:
    if args.depth < 2:
        raise ValueError(f"integrality depth must be >= 2, got {args.depth}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    query = EnumerationQuery(
        chi0=args.chi,
        filter=RecordFilter(args.filter, args.lo, args.hi),
        include_empty=args.include_empty,
        allow_any_chi=args.unsafe_chi,
    )
    render = RENDERERS[args.format]
    _write_output(args, MD_HEADER, lambda: enumeration.checked_lines(query, render, jobs=args.jobs))
    return EXIT_OK


# chi-series lines: the texts are digits, "-" and "/", which neither
# `csv.writer` quotes nor `json.dumps` escapes
SERIES_LINES = {"csv": "{},{},{}", "jsonl": '{{"n":{},"l":"{}","chi":"{}"}}', "md": "{}\t{}\t{}"}


def _cmd_chi_series(args) -> int:
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {args.n_max}")
    basket = parse_basket(args.basket)
    ctx = ChernContext(chi0=args.chi, anticanonical_cube=args.kcube)
    line = SERIES_LINES[args.format].format
    _write_output(args, ("n", "l(n+1)", "chi(-nK)"), lambda: [
        line(n, *row) for n, row in enumerate(chi_series(basket, ctx, args.n_max))
    ])
    return EXIT_OK


def _cmd_min(args) -> int:
    try:
        value, attaining = enumeration.min_positive_c1c2(
            args.chi, require_integral=args.not_big
        )
    except NoPositiveValueError:
        print(f"no positive value for chi={args.chi}", file=sys.stderr)
        return EXIT_MISMATCH
    print("\t".join([str(value), *(format_index_multiset(m) for m in attaining)]))
    return EXIT_OK


def _cmd_bound(args) -> int:
    value = enumeration.effective_bound(args.min_positive, args.max_cube)
    line = f"{args.max_cube} / ({args.min_positive}) = {value}"
    if value.denominator == 1 and value >= 1:
        factors = _factorization(int(value))
        if factors not in (None, str(value)):
            line += f" = {factors}"
    print(line)
    return EXIT_OK


def _table_check_lines(check) -> list[str]:
    sides = (("missing from enumeration", check.missing), ("not in fixture", check.extra))
    return [
        f"  {side}: {format_index_multiset(row.indices)} (r_X={row.cartier_index}, c1c2={row.c1c2})"
        for side, rows in sides
        for row in rows
    ]


def _scenario_lines(result) -> list[str]:
    lines = []
    for finding in result.findings:
        if not finding.passed:
            lines.append(
                f"  {result.scenario.group_label}: check {finding.check} "
                f"expected {finding.expected}, got {finding.actual}"
            )
    return lines


def _cmd_verify_tables(args) -> int:
    from . import tables
    from .quotient import check_scenario, derive_enriques, format_profile

    failures = 0

    def report(name: str, ok: bool, detail: list[str]) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        for line in detail:
            print(line)
        if not ok:
            failures += 1

    for table in (1, 2):
        fixture = tables.table_rows(table, _read_fixture(getattr(args, f"table{table}")))
        check = tables.reproduce_table(table, fixture=fixture)
        report(
            f"table {table}: {len(check.records)} records vs {len(fixture)} fixture rows",
            check.ok,
            _table_check_lines(check),
        )

    k3_rows = tables.table_rows(4, _read_fixture(args.table4))
    enriques_rows = tables.table_rows(5, _read_fixture(args.table5))
    for table, rows in ((4, k3_rows), (5, enriques_rows)):
        results = [check_scenario(row) for row in rows]
        detail = [line for res in results for line in _scenario_lines(res)]
        report(
            f"table {table}: {len(rows)} scenario rows",
            all(res.ok for res in results),
            detail,
        )

    derived = derive_enriques(k3_rows)
    ok, extra, missing = tables.derive_diff(derived, enriques_rows)
    detail = [f"  derived but not in fixture: order {k[0]}, {format_profile(k[1])}" for k in extra]
    detail += [f"  in fixture but not derived: order {k[0]}, {format_profile(k[1])}" for k in missing]
    title = f"derive-enriques: {len(derived)} derived rows vs {len(enriques_rows)} fixture rows"
    report(title, ok, detail)

    minimum, _ = enumeration.min_positive_c1c2(1)
    bound = enumeration.effective_bound(minimum)
    bound_ok = (
        minimum == Fraction(1, 252)
        and bound == 81648
        and _factorization(81648) == "2^4 * 3^6 * 7"
    )
    report(
        f"effective bound: 324 / ({minimum}) = {bound} = {_factorization(int(bound))}",
        bound_ok,
        [],
    )

    gorenstein = enumeration.effective_bound(Fraction(24), Fraction(72))
    report(f"Gorenstein bound: 72 / 24 = {gorenstein}", gorenstein == 3, [])

    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def _cmd_quotient_check(args) -> int:
    from . import tables
    from .quotient import check_scenario, format_profile

    rows = tables.table_rows(args.table, _read_fixture(args.fixture))
    failures = 0
    for row in rows:
        result = check_scenario(row)
        status = "ok  " if result.ok else "FAIL"
        print(
            f"{status} {row.group_label} (order {row.group_order}, "
            f"{format_profile(row.profile)})"
        )
        for line in _scenario_lines(result):
            print(line)
        if not result.ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def _cmd_quotient_derive(args) -> int:
    from . import tables
    from .quotient import derive_enriques, format_profile

    k3_rows = tables.table_rows(4, _read_fixture(args.k3))
    expected = tables.table_rows(5, _read_fixture(args.expected))
    derived = derive_enriques(k3_rows)
    for row in derived:
        print(
            f"{row.group_label} {row.group_order} {format_profile(row.profile)} "
            f"{format_index_multiset(row.expected_indices)} {row.expected_c1c2}"
        )
    ok, extra, missing = tables.derive_diff(derived, expected)
    if ok:
        return EXIT_OK
    for key in extra:
        print(f"derived but not expected: order {key[0]}, {format_profile(key[1])}", file=sys.stderr)
    for key in missing:
        print(f"expected but not derived: order {key[0]}, {format_profile(key[1])}", file=sys.stderr)
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chern3",
        description="Exact Chern-number bookkeeping for terminal 3-folds with nef -K",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate admissible index multisets")
    p.add_argument("--chi", type=int, required=True, help="chi(O_X), normally 0, 1 or 2")
    p.add_argument("--filter", choices=RecordFilter.KINDS, default="all")
    p.add_argument("--lo", type=parse_rational, default=None, help="lower c1c2 bound (c1c2-range)")
    p.add_argument("--hi", type=parse_rational, default=None, help="upper c1c2 bound (c1c2-range)")
    p.add_argument("--depth", type=int, default=2,
                   help="accepted for compatibility and ignored: every record checks "
                        "that its witness has integral l(2), which settles l(m) at "
                        "every m; must be >= 2 (default 2)")
    p.add_argument("--include-empty", action="store_true", help="also emit the empty multiset")
    p.add_argument("--format", choices=RENDERERS, default="csv")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.add_argument("--jobs", type=int, default=1, help="processes, this one included (output is identical)")
    p.add_argument("--unsafe-chi", action="store_true",
                   help="allow chi outside {0, 1, 2} for exploration")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-tables", help="re-derive all embedded tables and diff them")
    for table in (1, 2, 4, 5):
        p.add_argument(f"--table{table}", default=None, metavar="PATH",
                       help=f"override the table {table} fixture")
    p.set_defaults(func=_cmd_verify_tables)

    p = sub.add_parser("chi-series", help="evaluate chi(-nK) for a basket")
    p.add_argument("--basket", required=True,
                   help="basket string such as '(1,2)^3,(2,7)'; empty string for none")
    p.add_argument("--chi", type=int, required=True, help="chi(O_X)")
    p.add_argument("--kcube", type=parse_rational, default=Fraction(0),
                   help="(-K)^3 as an exact fraction (default 0)")
    p.add_argument("--n-max", type=int, default=10, help="largest n to evaluate")
    p.add_argument("--format", choices=SERIES_LINES, default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_chi_series)

    p = sub.add_parser("min", help="minimum positive c1c2 and attaining multisets")
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--not-big", action="store_true",
                   help="restrict to multisets admitting a basket with integral l(2)")
    p.set_defaults(func=_cmd_min)

    p = sub.add_parser("quotient", help="quotient-table checks")
    qsub = p.add_subparsers(dest="subcommand", required=True)
    q = qsub.add_parser("check", help="verify a quotient table row by row")
    q.add_argument("--table", type=int, choices=[4, 5], required=True)
    q.add_argument("--fixture", default=None, metavar="PATH", help="override the fixture")
    q.set_defaults(func=_cmd_quotient_check)
    q = qsub.add_parser("derive-enriques", help="derive the Enriques rows from the K3 rows")
    q.add_argument("--k3", default=None, metavar="PATH", help="override the K3 fixture")
    q.add_argument("--expected", default=None, metavar="PATH",
                   help="override the expected Enriques fixture")
    q.set_defaults(func=_cmd_quotient_derive)

    p = sub.add_parser("bound", help="effective Chern-ratio bound with factorization")
    p.add_argument("--max-cube", type=parse_rational, default=Fraction(324),
                   help="upper bound for (-K)^3 (default 324)")
    p.add_argument("--min-positive", type=parse_rational, default=Fraction(1, 252),
                   help="smallest positive c1c2 (default 1/252)")
    p.set_defaults(func=_cmd_bound)

    return parser


# the options that take a rational (`parse_rational`)
RATIONAL_OPTIONS = frozenset({"--lo", "--hi", "--kcube", "--max-cube", "--min-positive"})


def _joined_negatives(argv: Sequence[str]) -> list[str]:
    """argv with each negative value of a rational option joined to it, as --lo=-1/2.

    argparse reads a separate "-1/2" as an option, not a value, since it
    takes only -N and -N.N for negative numbers.  Only a value that starts
    with "-" and a digit is joined, so an option that lacks its value still
    fails to parse.
    """
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in RATIONAL_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_negatives(sys.argv[1:] if argv is None else argv))
    # a command frees what it built before the collector resumes, so the
    # collector never traverses the records
    with enumeration.collector_paused():
        try:
            code = args.func(args)
            sys.stdout.flush()  # a closed stdout fails here, not at exit
            return code
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except BrokenPipeError as exc:
            # the reader has gone: what is still buffered goes to devnull, so
            # the flush at exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            print(f"error: cannot write the output: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
