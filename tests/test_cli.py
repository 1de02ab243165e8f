"""End-to-end CLI behavior: exit codes, formats, determinism, fault injection."""

import csv
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from chern3 import cli, enumeration, tables
from chern3 import (
    ChernRecord,
    EnumerationQuery,
    enumerate_index_multisets,
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
                    has_integral_basket=row[3] == "true",
                    witness=witness,
                )
            )
        assert parsed == records

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
        ],
        ids=["chi1-csv", "chi1-l2-jsonl", "chi1-zero-md", "chi0-empty", "chi2-l2-depth12"],
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

    def test_negative_n_max_is_a_usage_error(self):
        code, out, err = run_cli(
            "chi-series", "--basket", "(1,2)", "--chi", "1", "--n-max", "-3"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --n-max must be >= 0, got -3\n"


class TestUnopenablePaths:
    """A path on the command line that cannot be opened is an input error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--chi", "0", "--output"],
            ["verify-tables", "--table1"],
            ["quotient", "check", "--table", "4", "--fixture"],
            ["quotient", "derive-enriques", "--k3"],
            ["quotient", "derive-enriques", "--expected"],
        ],
        ids=["enumerate-output", "verify-tables", "quotient-check", "derive-k3",
             "derive-expected"],
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

        monkeypatch.setattr(enumeration, "reproduce_table", broken)
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

    def test_usage_error_exit_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "chern3", "enumerate"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
