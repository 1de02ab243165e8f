"""End-to-end CLI behavior: exit codes, formats, determinism, fault injection."""

import argparse
import csv
import gc
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from chern3 import cli, enumeration, tables
from chern3 import (
    C1C2_ZERO,
    INTEGRAL_L2,
    ChernContext,
    ChernRecord,
    EnumerationQuery,
    RecordFilter,
    c1c2_in_range,
    cartier_index,
    chi_minus_nk,
    enumerate_index_multisets,
    format_basket,
    format_index_multiset,
    l_value,
    parse_basket,
    parse_index_multiset,
    parse_rational,
)


def run_cli(*argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


class TestEnumerateCommand:
    def test_table_one_rows(self):
        code, out, _ = run_cli("enumerate", "--chi", "1", "--filter", "c1c2-zero")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 11
        fixture = {
            (str(row.indices.groups), row.cartier_index)
            for row in tables.table_rows(1)
        }
        produced = {
            (str(parse_index_multiset(r[0]).groups), int(r[1])) for r in rows
        }
        assert produced == fixture

    def test_table_two_rows(self):
        code, out, _ = run_cli("enumerate", "--chi", "1", "--filter", "l2-integral")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 40
        produced = {
            (parse_index_multiset(r[0]), int(r[1]), parse_rational(r[2]))
            for r in rows
        }
        expected = {
            (row.indices, row.cartier_index, row.c1c2) for row in tables.table_rows(2)
        }
        assert produced == expected

    def test_chi_zero_empty_row(self):
        code, out, _ = run_cli("enumerate", "--chi", "0", "--include-empty")
        assert code == 0
        assert out.startswith("∅,1,0")
        assert len(out.strip().splitlines()) == 1

    def test_rejects_chi_outside_domain(self):
        code, _, err = run_cli("enumerate", "--chi", "5")
        assert code == 2
        assert "chi0" in err

    def test_unsafe_chi_flag(self):
        code, out, _ = run_cli("enumerate", "--chi", "0", "--unsafe-chi")
        assert code == 0
        assert out == ""

    def test_csv_round_trips_to_records(self):
        records = enumerate_index_multisets(EnumerationQuery(chi0=1))
        code, out, _ = run_cli("enumerate", "--chi", "1")
        assert code == 0
        parsed = []
        for row in csv.reader(io.StringIO(out)):
            witness = parse_basket(row[4]) if row[4] else None
            parsed.append(
                ChernRecord(
                    indices=parse_index_multiset(row[0]),
                    chi0=1,
                    c1c2=parse_rational(row[2]),
                    cartier_index=int(row[1]),
                    witness=witness,
                )
            )
        assert parsed == records

    def test_integral_column_is_witness_presence(self):
        code, out, _ = run_cli("enumerate", "--chi", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2151
        assert all(row[3] == ("true" if row[4] else "false") for row in rows)
        assert sum(row[3] == "true" for row in rows) == 40
        code, out, _ = run_cli("enumerate", "--chi", "1", "--format", "jsonl")
        assert code == 0
        payloads = [json.loads(line) for line in out.splitlines()]
        assert len(payloads) == 2151
        assert all(
            p["has_integral_basket"] is (p["witness"] is not None) for p in payloads
        )

    def test_jsonl_format(self):
        code, out, _ = run_cli(
            "enumerate", "--chi", "1", "--filter", "c1c2-zero", "--format", "jsonl"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 11
        payload = json.loads(lines[0])
        assert payload["indices"] == "2^16"
        assert payload["c1c2"] == "0"
        assert payload["has_integral_basket"] is True
        assert payload["witness"] == "(1,2)^16"

    def test_markdown_format(self):
        code, out, _ = run_cli(
            "enumerate", "--chi", "1", "--filter", "c1c2-zero", "--format", "md"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("| indices")
        assert "approx" in lines[0]
        assert len(lines) == 13  # header + rule + 11 rows

    def test_range_filter_flags(self):
        code, out, _ = run_cli(
            "enumerate", "--chi", "1", "--filter", "c1c2-range",
            "--lo", "0", "--hi", "1/2",
        )
        assert code == 0
        for row in csv.reader(io.StringIO(out)):
            assert Fraction(0) <= parse_rational(row[2]) <= Fraction(1, 2)

    def test_range_filter_requires_bounds(self):
        code, _, err = run_cli("enumerate", "--chi", "1", "--filter", "c1c2-range")
        assert code == 2
        assert "--lo" in err

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["--filter", "c1c2-range"], "c1c2-range filter needs both bounds, --lo and --hi"),
            (["--filter", "c1c2-range", "--lo", "0"], "c1c2-range filter needs both bounds, --lo and --hi"),
            (["--filter", "c1c2-range", "--hi", "1"], "c1c2-range filter needs both bounds, --lo and --hi"),
            (["--lo", "0"], "bounds --lo/--hi are only meaningful for c1c2-range, not 'all'"),
            (["--filter", "c1c2-zero", "--hi", "1"],
             "bounds --lo/--hi are only meaningful for c1c2-range, not 'c1c2-zero'"),
            (["--filter", "l2-integral", "--lo", "0", "--hi", "1"],
             "bounds --lo/--hi are only meaningful for c1c2-range, not 'l2-integral'"),
            (["--filter", "c1c2-range", "--lo", "1", "--hi", "-1/2"], "empty range: 1 > -1/2"),
        ],
        ids=["no-bounds", "no-hi", "no-lo", "all", "c1c2-zero", "l2-integral", "empty"],
    )
    def test_filter_bound_error_lines(self, argv, line):
        # `RecordFilter` owns the bound rules and their messages, and the CLI passes them through
        assert run_cli("enumerate", "--chi", "1", *argv) == (2, "", f"error: {line}\n")

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run_cli(
                "enumerate", "--chi", "1", "--output", str(path)
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_depth_beyond_two_prints_the_same_bytes(self):
        # integral l(2) already forces integral l(m) for every m
        outputs = [
            run_cli("enumerate", "--chi", "1", "--filter", "l2-integral", "--depth", depth)
            for depth in ("2", "7", "1000000000")
        ]
        assert all(code == 0 for code, _, _ in outputs)
        assert len(outputs[0][1].splitlines()) == 40
        assert all(out == outputs[0][1] for _, out, _ in outputs)

    def test_depth_below_two_is_a_usage_error(self):
        code, out, err = run_cli(
            "enumerate", "--chi", "1", "--filter", "l2-integral", "--depth", "1"
        )
        assert code == 2
        assert out == ""
        assert "integrality depth" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, jobs):
        code, out, err = run_cli("enumerate", "--chi", "1", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "jobs" in err

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (["--chi", "1"],
             "ea4dc6aaf9d3f05fa48ab1c16cd6a06442408269f0cb69aae9f07bc03f25945a"),
            (["--chi", "1", "--filter", "l2-integral", "--format", "jsonl"],
             "decba8ca7e1d08cd75baca457d1143eb2098832bb9ca024a05375bf32f9a6e9f"),
            (["--chi", "1", "--filter", "c1c2-zero", "--format", "md"],
             "c548e043e2b7b106d356992b91d1d97ba1b5dbfaaf4c008fba457ae49f7587a4"),
            (["--chi", "0", "--include-empty"],
             "16f22637c67955a52282cb648e42ae622e534aea4def4e11253900148242742f"),
            (["--chi", "2", "--filter", "l2-integral", "--depth", "12"],
             "8f783c45b491a90fff32f7748cb5d39d906a1803d0536b248aec6309cbf68ac3"),
            # no rows: the header and the rule only
            (["--chi", "0", "--format", "md"],
             "68107de68ce33f915931f8721a0afc44e962489c27ee2d64a199e89e72386a58"),
        ],
        ids=["chi1-csv", "chi1-l2-jsonl", "chi1-zero-md", "chi0-empty", "chi2-l2-depth12",
             "chi0-md-no-rows"],
    )
    def test_golden_bytes(self, argv, sha256):
        code, out, _ = run_cli("enumerate", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

    def test_jobs_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "j1.csv", tmp_path / "j2.csv"]
        for path, jobs in zip(paths, ("1", "2")):
            code, _, _ = run_cli(
                "enumerate", "--chi", "1", "--jobs", jobs, "--output", str(path)
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


ROW_QUERIES = pytest.mark.parametrize(
    "argv, query",
    [
        (["--chi", "1"], EnumerationQuery(chi0=1)),
        (["--chi", "1", "--filter", "c1c2-zero"], EnumerationQuery(chi0=1, filter=C1C2_ZERO)),
        (["--chi", "1", "--filter", "l2-integral"],
         EnumerationQuery(chi0=1, filter=INTEGRAL_L2)),
        (["--chi", "1", "--filter", "c1c2-range", "--lo", "1/3", "--hi", "5/2"],
         EnumerationQuery(chi0=1, filter=c1c2_in_range(Fraction(1, 3), Fraction(5, 2)))),
        (["--chi", "0", "--include-empty"], EnumerationQuery(chi0=0, include_empty=True)),
    ],
    ids=[*RecordFilter.KINDS, "chi0-empty"],
)


class TestRowPath:
    """`enumerate` writes checked rows; their bytes equal the library's records put through `emit_records`."""

    @staticmethod
    def record_row(rec):
        """A record as the flat row that `enumeration._checked_rows` makes of its item."""
        # a record's c1.c2 has a denominator dividing its Cartier index
        r_x, c1c2 = rec.cartier_index, rec.c1c2
        return (
            format_index_multiset(rec.indices),
            r_x,
            str(c1c2),
            "true" if rec.has_integral_basket else "false",
            format_basket(rec.witness) if rec.witness is not None else "",
            c1c2.numerator * (r_x // c1c2.denominator),
        )

    @classmethod
    def emit_records(cls, records, fmt, stream):
        """Write library records as `enumerate` writes its rows: the rows' reference renderer."""
        text = cli.RENDERERS[fmt](map(cls.record_row, records))
        cli._write_lines(text.split("\n")[:-1], fmt, stream, cli.MD_HEADER)

    @classmethod
    def assert_rows_equal_records(cls, argv, query, fmt):
        code, out, err = run_cli("enumerate", *argv, "--format", fmt)
        assert (code, err) == (0, "")
        expected = io.StringIO()
        cls.emit_records(enumerate_index_multisets(query), fmt, expected)
        assert out.splitlines()
        assert out == expected.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "md"])
    @ROW_QUERIES
    def test_rows_equal_records(self, argv, query, fmt):
        self.assert_rows_equal_records(argv, query, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "md"])
    @ROW_QUERIES
    def test_pool_rows_equal_records(self, argv, query, fmt):
        # the rows are checked and rendered in the pool's workers
        self.assert_rows_equal_records([*argv, "--jobs", "2"], query, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "md"])
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_renderers_reach_fresh_workers(self, start_method, method, fmt):
        # workers that import the package afresh receive the renderer by name
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        serial = run_cli("enumerate", "--chi", "1", "--format", fmt)
        start_method(method)
        assert run_cli("enumerate", "--chi", "1", "--format", fmt, "--jobs", "2") == serial

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_integral_walk_in_fresh_workers(self, start_method, method):
        # workers that import the package afresh build their own cuts
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        argv = ("enumerate", "--chi", "2", "--filter", "l2-integral")
        start_method(method)
        code, out, err = run_cli(*argv, "--jobs", "2")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "8f783c45b491a90fff32f7748cb5d39d906a1803d0536b248aec6309cbf68ac3"
        )


RENDERED_QUERIES = pytest.mark.parametrize(
    "query",
    [
        EnumerationQuery(chi0=chi0, filter=flt, include_empty=True)
        for chi0 in (0, 1)
        for flt in (
            RecordFilter("all"),
            C1C2_ZERO,
            INTEGRAL_L2,
            c1c2_in_range(Fraction(0), Fraction(1, 2)),
            c1c2_in_range(Fraction(23), Fraction(24)),
            c1c2_in_range(Fraction(24), Fraction(48)),
        )
    ] + [EnumerationQuery(chi0=2, filter=INTEGRAL_L2)],
    ids=lambda q: f"chi{q.chi0}-{q.filter.kind}"
    + ("" if q.filter.lo is None else f"-{q.filter.lo}-{q.filter.hi}"),
)


def checked_rows(query):
    """Every row the walk checks for the query, the empty multiset included."""
    raw, scale = enumeration._enumerate_raw(
        Fraction(24 * query.chi0), query.filter, jobs=1, include_empty=query.include_empty
    )
    return list(enumeration._checked_rows(raw, query.chi0, scale))


@RENDERED_QUERIES
def test_csv_lines_match_csv_writer(query):
    # the χ = 2 l2-integral rows have witnesses with commas
    rows = checked_rows(query)
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerows(row[:5] for row in rows)
    assert cli._render_csv(iter(rows)) == expected.getvalue()
    if query.chi0 == 2:
        assert ',"(' in expected.getvalue()  # a quoted witness


@RENDERED_QUERIES
def test_jsonl_lines_match_json_dumps(query):
    # the empty multiset's sign comes out as json.dumps escapes it
    rows = checked_rows(query)
    expected = "".join(
        json.dumps(
            {
                "indices": indices,
                "cartier_index": int(r_x),
                "c1c2": c1c2,
                "has_integral_basket": integral == "true",
                "witness": witness or None,
            },
            separators=(",", ":"),
        ) + "\n"
        for indices, r_x, c1c2, integral, witness, _ in rows
    )
    assert cli._render_jsonl(iter(rows)) == expected
    if query.include_empty and 24 * query.chi0 in query.filter.window(1, 24 * query.chi0):
        assert '{"indices":"\\u2205",' in expected


def patch_a_helper(monkeypatch, tmp_path, helper_items, main_items=lambda items: items):
    """Patch the walk so that a helper process runs the task (2, 16), whose items become helper_items(items).

    The main process's first task waits, for at most 30 s, until a helper
    starts (2, 16) and writes a marker file.  So the main process holds that
    one task while the helpers take the rest, run last first, up to (2, 16),
    the chi = 1 census's last; then the main task's items become
    main_items(items).  The patched walk reaches the helpers only by fork.
    """
    parent, real, marker = os.getpid(), enumeration._run_task, tmp_path / "helper-started"
    waited = []

    def patched(task):
        if os.getpid() != parent:
            if task[2:] != (2, 16):
                return real(task)
            marker.touch()
            return helper_items(real(task))
        if waited:
            return real(task)
        waited.append(task)
        deadline = time.monotonic() + 30
        while not marker.exists():
            if time.monotonic() > deadline:
                pytest.fail("no helper started the task (2, 16) within 30 s")
            time.sleep(0.005)
        return main_items(real(task))

    monkeypatch.setattr(enumeration, "_run_task", patched)


class TestWorkerMutants:
    """A bad raw item made inside a helper process exits 2 and keeps an earlier --output."""

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda h, last, rem, lcm, w: (h, last, rem + 1, lcm, w), "c1c2 mismatch"),
            (lambda h, last, rem, lcm, w: (h, last, rem, 2 * lcm, w), "Cartier index mismatch"),
            (lambda h, last, rem, lcm, w: (h, last, rem, lcm, (((2, 1), 8),)), "does not project"),
        ],
        ids=["rem", "lcm", "other-witness"],
    )
    def test_bad_item_in_a_worker_exits_2(self, tmp_path, monkeypatch, start_method, mutate, message):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched walk reaches the workers only by fork")

        def corrupted(items):
            # the task (2, 16) emits its head 2^16; only a helper corrupts it
            i = next(i for i, item in enumerate(items) if item[:2] == ((), (2, 16)))
            items[i] = mutate(*items[i])
            return items

        patch_a_helper(monkeypatch, tmp_path, corrupted)
        start_method("fork")
        path = tmp_path / "census.csv"
        path.write_bytes(b"earlier output\n")
        code, out, err = run_cli("enumerate", "--chi", "1", "--jobs", "2", "--output", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert path.read_bytes() == b"earlier output\n"

    def test_a_helper_that_dies_raises_instead_of_hanging(self, tmp_path, monkeypatch, start_method):
        # the helper exits mid-task without sending its results; the main
        # process's end of its pipe is the only one left, so it reads EOF
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched walk reaches the helpers only by fork")
        patch_a_helper(monkeypatch, tmp_path, lambda items: os._exit(1))
        start_method("fork")

        def hung(signum, frame):
            pytest.fail("the main process still waited for the dead helper after 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError) as raised:
                enumeration.checked_lines(EnumerationQuery(chi0=1), cli._render_csv, jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(raised.value).startswith("helper ")
        assert str(raised.value).endswith(" exited with code 1 before sending its results")
        assert multiprocessing.active_children() == []

    def test_an_error_in_the_main_process_stops_the_helpers(self, tmp_path, monkeypatch, start_method):
        # the main process's own task raises while a helper has yet to send its results
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the patched walk reaches the helpers only by fork")

        def bad(items):
            raise ValueError("a bad row in the main process")

        patch_a_helper(monkeypatch, tmp_path, lambda items: items, bad)
        start_method("fork")
        path = tmp_path / "census.csv"
        path.write_bytes(b"earlier output\n")
        code, out, err = run_cli("enumerate", "--chi", "1", "--jobs", "2", "--output", str(path))
        assert (code, out, err) == (2, "", "error: a bad row in the main process\n")
        assert path.read_bytes() == b"earlier output\n"
        assert multiprocessing.active_children() == []


class TestChiSeriesCommand:
    def test_seven_cubed_series(self):
        code, out, _ = run_cli(
            "chi-series", "--basket", "(1,7),(2,7),(3,7)",
            "--chi", "1", "--kcube", "0", "--n-max", "1",
        )
        assert code == 0
        assert out.splitlines() == ["0,0,1", "1,2,1"]

    def test_empty_basket_with_cube(self):
        code, out, _ = run_cli(
            "chi-series", "--basket", "", "--chi", "1", "--kcube", "2", "--n-max", "1"
        )
        assert code == 0
        assert out.splitlines() == ["0,0,1", "1,0,4"]

    def test_non_coprime_basket_rejected(self):
        code, _, err = run_cli(
            "chi-series", "--basket", "(2,4)", "--chi", "1", "--kcube", "0"
        )
        assert code == 2
        assert "coprime" in err

    def test_unnormalized_basket_rejected(self):
        code, _, err = run_cli(
            "chi-series", "--basket", "(3,4)", "--chi", "1", "--kcube", "0"
        )
        assert code == 2
        assert "2b <= r" in err

    def test_fractions_stay_exact(self):
        code, out, _ = run_cli(
            "chi-series", "--basket", "(1,2)", "--chi", "1",
            "--kcube", "1/2", "--n-max", "2",
        )
        assert code == 0
        # l(2) = 1/4 and l(3) = 1/4 + 0 (the j = 2 residue vanishes), so
        # chi(-K) = 1/4 + 3 - 1/4 = 3 and chi(-2K) = 5/4 + 5 - 1/4 = 6
        assert out.splitlines() == ["0,0,1", "1,1/4,3", "2,1/4,6"]

    @pytest.mark.parametrize("basket", ["(1,2)^3,(2,7),(3,11)", "(1,2)^16", "(2,5),(1,3)"])
    def test_rows_match_l_value_and_chi_minus_nk(self, basket):
        parsed = parse_basket(basket)
        ctx = ChernContext(chi0=1, anticanonical_cube=Fraction(1, 2))
        n_max = 2 * cartier_index(parsed.index_multiset()) + 2
        code, out, _ = run_cli(
            "chi-series", "--basket", basket, "--chi", "1", "--kcube", "1/2",
            "--n-max", str(n_max),
        )
        assert code == 0
        expected = [
            f"{n},{l_value(parsed, n + 1)},{chi_minus_nk(parsed, ctx, n)}"
            for n in range(n_max + 1)
        ]
        assert out.splitlines() == expected

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (["--basket", "(1,2)^3,(2,7),(3,11)", "--chi", "1", "--kcube", "1/2", "--n-max", "30"],
             {"csv": "a23e7d93bc4e43ada29d2ffa248b975c9d1b51e511b78f3f610bdef96e86237b",
              "jsonl": "f9dbe0a8d572bae86d11ed968b84bd16241dce20f961146779943b6595dd7f6c",
              "md": "ffa678bbe7a1929bcc847c9eead724633abd8e6a91d88ba8274e3ae11658b3ac"}),
            (["--basket", "", "--chi", "1", "--n-max", "0"],
             {"csv": "6edf941f10a1e0f132c013f8360a57e28f59f25297ddd1a0531a3a8ab1ce7934",
              "jsonl": "a652c48edb74567bfb6043f39379291a9e536685825ed81f43b177abc7e3b50c",
              "md": "26662d07186ed4e0799d44547163ea4a8365a5d0e777bbbb92b84ef88aa849d7"}),
            (["--basket", "(1,2)", "--chi", "0", "--kcube=-7/3", "--n-max", "12"],
             {"csv": "f9a96435e12c58afabda9d6e6e7a57d5a28bd4d87fd66953f99cc54398fd6bed",
              "jsonl": "f9a933cf6453182e2c8221b70dea686e4b3e65c4be469da08a28d48cc6908dd8",
              "md": "f60f74547c4e2b906e61857169a8afd6d89c34d96463301f3cc1dea250f2dfa0"}),
        ],
        ids=["fractional-l", "empty-basket", "negative-chi"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "md"])
    def test_golden_bytes(self, argv, sha256, fmt):
        code, out, _ = run_cli("chi-series", *argv, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256[fmt]

    def test_negative_n_max_is_a_usage_error(self):
        code, out, err = run_cli(
            "chi-series", "--basket", "(1,2)", "--chi", "1", "--n-max", "-3"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-max must be >= 0, got -3\n"


SERIES_ARGV = ["chi-series", "--basket", "(1,2)^3,(2,7),(3,11)", "--chi", "1", "--n-max", "30"]


class TestOutputOpenOrder:
    """--output is opened after the usage checks, before the work; it is emptied after it.

    `enumerate` walks and `chi-series` evaluates its series in between.
    """

    def test_unopenable_output_fails_before_the_walk(self, tmp_path, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("the work ran before --output was opened")

        monkeypatch.setattr(enumeration, "_map_tasks", walk)
        monkeypatch.setattr(cli, "chi_series", walk)
        path = str(tmp_path / "missing" / "x.csv")
        for argv in (["enumerate", "--chi", "2"], SERIES_ARGV):
            code, out, err = run_cli(*argv, "--output", path)
            assert code == 2
            assert out == ""
            assert err.startswith("error: cannot write ") and path in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--chi", "7"],
            ["enumerate", "--chi", "1", "--filter", "c1c2-range", "--lo", "1"],
            ["enumerate", "--chi", "1", "--lo", "1", "--hi", "2"],
            ["enumerate", "--chi", "1", "--depth", "1"],
            ["enumerate", "--chi", "1", "--jobs", "0"],
            [*SERIES_ARGV, "--n-max", "-1"],
            ["chi-series", "--basket", "(2,4)", "--chi", "1"],
        ],
        ids=["chi", "range-bounds", "bounds-without-range", "depth", "jobs",
             "chi-series-n-max", "chi-series-basket"],
    )
    def test_usage_error_keeps_an_existing_output(self, tmp_path, argv):
        path = tmp_path / "kept.csv"
        path.write_text("earlier output\n", encoding="utf-8")
        code, out, err = run_cli(*argv, "--output", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert path.read_text(encoding="utf-8") == "earlier output\n"

    def test_failed_walk_leaves_no_new_output(self, tmp_path, monkeypatch):
        def walk(*args, **kwargs):
            raise ValueError("the walk failed")

        monkeypatch.setattr(enumeration, "_map_tasks", walk)
        monkeypatch.setattr(cli, "chi_series", walk)
        for argv in (["enumerate", "--chi", "1"], SERIES_ARGV):
            path = tmp_path / f"new-{argv[0]}.csv"
            code, out, err = run_cli(*argv, "--output", str(path))
            assert (code, out, err) == (2, "", "error: the walk failed\n")
            assert not path.exists()
            # a file that was there before keeps its bytes
            path.write_bytes(b"earlier output\n")
            assert run_cli(*argv, "--output", str(path))[0] == 2
            assert path.read_bytes() == b"earlier output\n"

    def test_output_replaces_a_longer_earlier_file(self, tmp_path):
        # --output is opened for appending and truncated after the work
        for argv in (["enumerate", "--chi", "1", "--filter", "c1c2-zero"], SERIES_ARGV):
            path = tmp_path / f"x-{argv[0]}.csv"
            path.write_text("earlier output\n" * 1000, encoding="utf-8")
            code, out, _ = run_cli(*argv)
            assert code == 0
            assert run_cli(*argv, "--output", str(path)) == (0, "", "")
            assert path.read_bytes() == out.encode("utf-8")
            # a device cannot be truncated, and need not be
            assert run_cli(*argv, "--output", os.devnull) == (0, "", "")

    def test_collector_is_restored(self, tmp_path):
        assert gc.isenabled()
        code, _, _ = run_cli("enumerate", "--chi", "1", "--output", str(tmp_path / "x.csv"))
        assert code == 0
        assert gc.isenabled()


class TestCollectorPause:
    """cli.main holds the collector paused while a command runs, and restores it."""

    def test_min_holds_its_records_with_the_collector_off(self, monkeypatch):
        real = enumeration.min_positive_c1c2
        seen = []

        def recording(*args, **kwargs):
            result = real(*args, **kwargs)
            seen.append(gc.isenabled())
            return result

        monkeypatch.setattr(enumeration, "min_positive_c1c2", recording)
        assert gc.isenabled()
        code, out, _ = run_cli("min", "--chi", "1")
        assert code == 0 and out.strip() == "1/252\t2^3,4,7,9"
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["min", "--chi", "1"], 0),
            (["min", "--chi", "0"], 1),
            (["chi-series", "--basket", "(1,2)", "--chi", "1", "--n-max", "-1"], 2),
        ],
        ids=["ok", "mismatch", "usage"],
    )
    def test_collector_is_on_after_main(self, argv, expected):
        assert gc.isenabled()
        code, _, _ = run_cli(*argv)
        assert code == expected
        assert gc.isenabled()

    def test_collector_is_on_after_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["min"])
        assert exc.value.code == 2
        assert gc.isenabled()


def rational_options(parser):
    """The option strings of every action typed `parse_rational`, in every subcommand."""
    for action in parser._actions:
        if action.type is parse_rational:
            yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):  # a subcommand's parsers
            for sub in action.choices.values():
                yield from rational_options(sub)


class TestNegativeRationals:
    """A negative rational is read as a rational option's separate value, as after "="."""

    def test_every_rational_option_is_joined(self):
        assert set(rational_options(cli.build_parser())) == cli.RATIONAL_OPTIONS

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--chi", "1", "--filter", "c1c2-range", "--lo", "-1/2", "--hi", "0"],
            ["enumerate", "--chi", "1", "--filter", "c1c2-range", "--lo", "-1", "--hi", "-1/3"],
            ["chi-series", "--basket", "(1,2)", "--chi", "0", "--kcube", "-7/3", "--n-max", "12"],
            ["bound", "--max-cube", "324", "--min-positive", "-1/5"],
        ],
        ids=["lo", "lo-and-hi", "kcube", "min-positive"],
    )
    def test_separate_value_reads_as_joined(self, argv):
        # a negative --min-positive gets the command's own error, not argparse's
        joined = cli._joined_negatives(argv)
        assert len(joined) == len(argv) - sum(arg[0] == "-" and arg[1].isdigit() for arg in argv)
        code, out, err = run_cli(*argv)
        if "bound" in argv:
            assert (code, err) == (2, "error: division by non-positive value -1/5\n")
        else:
            assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(*joined)

    def test_separate_negative_bounds_filter_the_rows(self):
        code, out, _ = run_cli(
            "enumerate", "--chi", "1", "--filter", "c1c2-range", "--lo", "-1/2", "--hi", "0"
        )
        assert code == 0
        assert out == run_cli("enumerate", "--chi", "1", "--filter", "c1c2-zero")[1]
        assert len(out.splitlines()) == 11

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["enumerate", "--chi", "1", "--filter", "c1c2-range", "--lo", "--hi", "0"], "--lo"),
            (["enumerate", "--chi", "1", "--filter", "c1c2-range", "--lo", "0", "--hi"], "--hi"),
            (["chi-series", "--basket", "(1,2)", "--chi", "0", "--kcube"], "--kcube"),
            (["chi-series", "--basket", "(1,2)", "--chi", "0", "--kcube", "-x"], "--kcube"),
        ],
        ids=["lo", "hi", "kcube", "kcube-not-a-number"],
    )
    def test_missing_value_still_exits_2(self, capsys, argv, option):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"argument {option}: expected one argument" in capsys.readouterr().err


class TestFixtureColumns:
    """A fixture line with the wrong number of fields is an input error."""

    @pytest.mark.parametrize(
        "option,line,columns",
        [("--table1", "2^16 2", 3), ("--table4", "C_2 2 8A_1 2^16", 5)],
        ids=["table1", "table4"],
    )
    def test_wrong_column_count_exits_two(self, tmp_path, option, line, columns):
        path = tmp_path / "fixture.txt"
        path.write_text(line + "\n", encoding="utf-8")
        code, _, err = run_cli("verify-tables", option, str(path))
        assert code == 2
        assert err == f"error: expected {columns} columns, got {line!r}\n"

    @pytest.mark.parametrize("table", [1, 2, 3, 4, 5])
    def test_table_rows_parse_override_text(self, table):
        # an override is parsed as its table's shipped text is; table 3 has none
        if table == 3:
            with pytest.raises(ValueError, match="^no fixture for table 3$"):
                tables.table_rows(3, "5^5 5 0\n")
            return
        shipped = {1: tables.CHI1_C1C2_ZERO, 2: tables.CHI1_L2_INTEGRAL,
                   4: tables.K3_QUOTIENTS, 5: tables.ENRIQUES_QUOTIENTS}[table]
        override = "\n".join(shipped.splitlines()[-2:]) + "\n"
        assert tables.table_rows(table, override) == tables.table_rows(table)[-2:]

    def test_parsers_name_the_expected_count(self):
        with pytest.raises(ValueError, match="^expected 3 columns, got '2\\^16 2'$"):
            tables.table_rows(1, "2^16 2\n")
        with pytest.raises(ValueError, match="^expected 5 columns, got "):
            tables.table_rows(4, "C_2 2 8A_1 2^16\n")


class TestUnopenablePaths:
    """A path on the command line that cannot be opened is an input error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--chi", "0", "--output"],
            [*SERIES_ARGV, "--output"],
            ["verify-tables", "--table1"],
            ["quotient", "check", "--table", "4", "--fixture"],
            ["quotient", "derive-enriques", "--k3"],
            ["quotient", "derive-enriques", "--expected"],
        ],
        ids=["enumerate-output", "chi-series-output", "verify-tables", "quotient-check",
             "derive-k3", "derive-expected"],
    )
    def test_missing_path_is_an_input_error(self, tmp_path, argv):
        path = str(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli(*argv, path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and path in err


class TestMinCommand:
    def test_unfiltered_minimum(self):
        code, out, _ = run_cli("min", "--chi", "1")
        assert code == 0
        assert out.strip() == "1/252\t2^3,4,7,9"

    def test_not_big_minimum(self):
        code, out, _ = run_cli("min", "--chi", "1", "--not-big")
        assert code == 0
        assert out.strip() == "2/5\t2^4,3^3,5^2"

    def test_chi_zero_exits_one(self):
        code, _, err = run_cli("min", "--chi", "0")
        assert code == 1
        assert "no positive value" in err


class TestBoundCommand:
    def test_default_bound(self):
        code, out, _ = run_cli("bound")
        assert code == 0
        assert out.strip() == "324 / (1/252) = 81648 = 2^4 * 3^6 * 7"

    def test_gorenstein_bound(self):
        code, out, _ = run_cli("bound", "--max-cube", "72", "--min-positive", "24")
        assert code == 0
        assert out.strip() == "72 / (24) = 3"

    def test_trivial_ratio(self):
        code, out, _ = run_cli("bound", "--max-cube", "324", "--min-positive", "324")
        assert code == 0
        assert out.strip() == "324 / (324) = 1"

    @pytest.mark.parametrize(
        "value, factors",
        [("1000000016000000063", ""), ("2000000000078", " = 2 * 1000000000039")],
        ids=["semiprime", "prime-cofactor"],
    )
    def test_large_value_factors_only_when_proven(self, value, factors):
        # trial division stops at 10^6: the cofactor of (10^9 + 7)(10^9 + 9)
        # is then not known to be prime, so no factorization is printed; the
        # prime 10^12 + 39 is below (10^6 + 1)^2, so it is proven
        code, out, _ = run_cli("bound", "--max-cube", value, "--min-positive", "1")
        assert code == 0
        assert out == f"{value} / (1) = {value}{factors}\n"

    def test_non_positive_rejected(self):
        code, _, err = run_cli("bound", "--min-positive", "0")
        assert code == 2
        assert "non-positive" in err


class TestVerifyTables:
    def test_pristine_build_passes(self):
        code, out, _ = run_cli("verify-tables")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 7
        assert all(line.startswith("ok") for line in lines)

    def test_deleted_fixture_row_fails(self, tmp_path):
        kept = [
            line
            for line in tables.CHI1_L2_INTEGRAL.strip().splitlines()
            if not line.startswith("2^4,3^3,5^2 ")
        ]
        path = tmp_path / "table2.txt"
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        code, out, _ = run_cli("verify-tables", "--table2", str(path))
        assert code == 1
        assert "2^4,3^3,5^2" in out
        assert "not in fixture" in out

    def test_internal_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(tables, "reproduce_table", broken)
        with pytest.raises(RuntimeError, match="internal fault"):
            cli.main(["verify-tables"])

    def test_tampered_quotient_order_fails(self, tmp_path):
        lines = tables.K3_QUOTIENTS.strip().splitlines()
        lines = [
            line.replace("A_5 60", "A_5 59") if line.startswith("A_5 ") else line
            for line in lines
        ]
        path = tmp_path / "table4.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli("verify-tables", "--table4", str(path))
        assert code == 1
        assert "48/59" in out


class TestQuotientCommands:
    def test_check_table_four(self):
        code, out, _ = run_cli("quotient", "check", "--table", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 15

    def test_check_table_five(self):
        code, out, _ = run_cli("quotient", "check", "--table", "5")
        assert code == 0
        assert len(out.strip().splitlines()) == 8

    def test_check_tampered_fixture(self, tmp_path):
        lines = tables.K3_QUOTIENTS.strip().splitlines()
        lines[0] = "C_2 2 8A_1 2^16 23"  # c1c2 should be 24
        path = tmp_path / "table4.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli("quotient", "check", "--table", "4", "--fixture", str(path))
        assert code == 1
        assert "check c1c2" in out
        assert "check euler" in out

    def test_derive_enriques(self):
        code, out, _ = run_cli("quotient", "derive-enriques")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8
        assert "C_2 4 4A_1 2^8 12" in lines

    def test_derive_against_tampered_expectation(self, tmp_path):
        kept = tables.ENRIQUES_QUOTIENTS.strip().splitlines()[:-1]
        path = tmp_path / "table5.txt"
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        code, _, err = run_cli("quotient", "derive-enriques", "--expected", str(path))
        assert code == 1
        assert "derived but not expected" in err

    def test_diff_lines_do_not_follow_the_hash_seed(self, tmp_path):
        # both order-8 rows go missing; a sort on the order alone kept set order
        kept = [
            line for line in tables.ENRIQUES_QUOTIENTS.strip().splitlines()
            if line.split()[1] != "8"
        ]
        path = tmp_path / "table5.txt"
        path.write_text("\n".join(kept) + "\n", encoding="utf-8")
        errs = []
        for seed in ("0", "8"):
            result = subprocess.run(
                [sys.executable, "-m", "chern3", "quotient", "derive-enriques",
                 "--expected", str(path)],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert result.returncode == 1
            errs.append(result.stderr)
        assert errs[0] == errs[1] == (
            "derived but not expected: order 8, A_1,2A_3\n"
            "derived but not expected: order 8, 6A_1\n"
        )


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "chern3", "min", "--chi", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "1/252\t2^3,4,7,9"

    def test_parser_leaves_multiprocessing_unimported(self):
        # only a --jobs > 1 pool needs multiprocessing, so setting up the CLI skips it
        code = "import sys, chern3.cli; chern3.cli.build_parser(); print('multiprocessing' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_enumerate_leaves_dataclasses_and_inspect_unimported(self):
        # the CLI's set-up and an enumerate run load neither module, unless the
        # stdlib modules chern3 imports load it themselves, as a baseline shows
        code = "\n".join([
            "import io, sys, contextlib",
            "import argparse, bisect, fractions, functools, gc, itertools, math, operator, os, re",
            "import stat, typing",
            "HEAVY = {'dataclasses', 'inspect'}",
            "base = HEAVY & set(sys.modules)",
            "import chern3.cli",
            "chern3.cli.build_parser()",
            "print(sorted(HEAVY & set(sys.modules) - base))",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = chern3.cli.main(['enumerate', '--chi', '1', '--filter', 'l2-integral'])",
            "print(code, sorted(HEAVY & set(sys.modules) - base))",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "0 []"]

    def test_enumerate_leaves_the_table_modules_unimported(self):
        # the CLI's set-up and an enumerate run load neither chern3.quotient
        # nor chern3.tables; the package's quotient and table-check names
        # still resolve, on first use, each from its own module, and so does
        # every name `from chern3 import *` takes
        code = "\n".join([
            "import io, sys, contextlib, chern3.cli",
            "chern3.cli.build_parser()",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    code = chern3.cli.main(['enumerate', '--chi', '1', '--filter', 'l2-integral'])",
            "TABLES = ('chern3.quotient', 'chern3.tables')",
            "print(code, [name for name in TABLES if name in sys.modules])",
            "import chern3",
            "print(chern3.CoverType.K3.name, [name for name in TABLES if name in sys.modules])",
            "print(chern3.TableCheck.__module__, chern3.reproduce_table.__module__)",
            "names = {}",
            "exec('from chern3 import *', names)",
            "print(sorted(set(chern3.__all__) - set(names)), names['parse_profile'].__module__)",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "0 []",
            "K3 ['chern3.quotient']",
            "chern3.tables chern3.tables",
            "[] chern3.quotient",
        ]

    def test_unknown_package_name_raises_attribute_error(self):
        import chern3

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            chern3.no_such_name  # noqa: B018

    def test_package_import_loads_no_module_and_lists_every_name(self):
        # `import chern3` loads none of its modules, nor `dataclasses`; `dir`
        # lists every public name, and `__all__` is the sorted table of them
        code = "\n".join([
            "import sys, chern3",
            "print(sorted(m for m in sys.modules if m.startswith('chern3.')), 'dataclasses' in sys.modules)",
            "print(sorted(set(chern3.__all__) - set(dir(chern3))))",
            "names = chern3.__all__",
            "print(names == sorted(set(names)), len(names))",
            "from chern3 import enumeration",
            "print(enumeration is sys.modules['chern3.enumeration'])",
        ])
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[] False", "[]", "True 42", "True"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "md"])
    def test_closed_stdout_exits_2_without_a_traceback(self, fmt, jobs):
        # the pipe's read end is closed before the start, so every write fails
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "chern3", "enumerate", "--chi", "1",
                 "--format", fmt, "--jobs", jobs],
                stdout=write,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr == "error: cannot write the output: Broken pipe\n"

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "chern3", "enumerate"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
