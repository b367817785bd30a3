"""CLI surface: flags, formats, exit codes, determinism, round-trips."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from kohncount.asymptotics import report_from_record, report_to_record
from kohncount.cli import main, parse_lambda_spec
from kohncount.spectrum import (
    CountingConvention,
    count_N,
    read_spectrum_csv,
    spectrum_table,
)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_text(capsys):
    rc, out, _ = run_cli(
        capsys, "spectrum", "--n", "2", "--lambda-max", "4", "--convention", "full"
    )
    assert rc == 0
    assert out.splitlines() == [
        "eigenvalue multiplicity cumulative",
        "2 2 2",
        "4 6 8",
    ]


def test_spectrum_csv(capsys):
    rc, out, _ = run_cli(
        capsys,
        "spectrum",
        "--n", "2",
        "--lambda-max", "4",
        "--convention", "paper",
        "--format", "csv",
    )
    assert rc == 0
    assert out == "eigenvalue,multiplicity,cumulative\n4,3,3\n"


def test_spectrum_empty_table(capsys):
    rc, out, _ = run_cli(capsys, "spectrum", "--n", "5", "--lambda-max", "2")
    assert rc == 0
    assert out.splitlines() == ["eigenvalue multiplicity cumulative"]


def test_spectrum_rejects_n1(capsys):
    rc, _, err = run_cli(capsys, "spectrum", "--n", "1", "--lambda-max", "4")
    assert rc == 2
    assert ">= 2" in err


def test_spectrum_csv_round_trip(capsys, tmp_path):
    path = tmp_path / "spectrum.csv"
    rc, _, _ = run_cli(
        capsys,
        "spectrum",
        "--n", "3",
        "--lambda-max", "60",
        "--format", "csv",
        "--out", str(path),
    )
    assert rc == 0
    with open(path) as fh:
        entries = read_spectrum_csv(fh)
    assert entries == spectrum_table(3, 60, CountingConvention.FULL_SPECTRUM)


# ---------------------------------------------------------------------------
# count


def test_count_basic(capsys):
    rc, out, _ = run_cli(
        capsys, "count", "--n", "2", "--lambda", "4", "--convention", "full"
    )
    assert rc == 0
    assert out.strip() == "8"


def test_count_zero_lambda(capsys):
    rc, out, _ = run_cli(capsys, "count", "--n", "2", "--lambda", "0")
    assert rc == 0
    assert out.strip() == "0"


def test_count_json(capsys):
    rc, out, _ = run_cli(
        capsys,
        "count",
        "--n", "2",
        "--lambda", "4",
        "--convention", "paper",
        "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload == {
        "n": 2,
        "lambda": 4.0,
        "convention": "paper_restricted",
        "count": 3,
    }


def test_count_workers_agree(capsys):
    rc1, out1, _ = run_cli(capsys, "count", "--n", "3", "--lambda", "60000")
    rc2, out2, _ = run_cli(
        capsys, "count", "--n", "3", "--lambda", "60000", "--workers", "2"
    )
    assert rc1 == rc2 == 0
    assert out1 == out2


# ---------------------------------------------------------------------------
# coeff


def test_coeff_closed_n5_paper_exact_string(capsys):
    rc, out, _ = run_cli(
        capsys,
        "coeff",
        "--n", "5",
        "--method", "closed",
        "--convention", "paper",
    )
    assert rc == 0
    assert "1/3840 * (" in out
    assert "1/18*pi^2" in out
    assert "11/270*pi^4" in out
    assert "1/1024" in out
    assert "exact = -1/3932160 + 1/69120*pi^2 + 11/1036800*pi^4" in out


def test_coeff_all_methods_agree(capsys):
    rc, out, _ = run_cli(
        capsys,
        "coeff",
        "--n", "2",
        "--method", "all",
        "--convention", "full",
        "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert [r["method"] for r in payload["reports"]] == [
        "series",
        "closed_form",
        "empirical",
    ]
    values = [float(r["value"]) for r in payload["reports"]]
    assert abs(values[0] - values[1]) <= 2e-12
    assert abs(values[2] - values[1]) / values[1] <= 0.01
    assert payload["gaps"]["full_spectrum:series_vs_closed_form"] <= 2e-12


def test_coeff_default_convention_is_both(capsys):
    rc, out, _ = run_cli(
        capsys, "coeff", "--n", "3", "--method", "closed", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    assert [r["convention"] for r in payload["reports"]] == [
        "paper_restricted",
        "full_spectrum",
    ]


def test_coeff_json_reports_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys,
        "coeff",
        "--n", "4",
        "--method", "all",
        "--convention", "both",
        "--format", "json",
        "--lambda", "2048",
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 6
    for record in payload["reports"]:
        recovered = report_from_record(record)
        assert report_to_record(recovered) == record


def test_coeff_empirical_large_n(capsys):
    # lambda^n overflows a float at n >= 59; the ratio is taken exactly
    rc, out, _ = run_cli(
        capsys,
        "coeff",
        "--n", "60",
        "--method", "all",
        "--convention", "full",
        "--format", "json",
    )
    assert rc == 0
    record = json.loads(out)["reports"][2]
    assert record["method"] == "empirical"
    lam = record["lambda"]
    count = count_N(60, lam, CountingConvention.FULL_SPECTRUM)
    exact = Fraction(count) / Fraction(lam) ** 60
    assert abs(Fraction(record["value"]) / exact - 1) <= Fraction(1, 10**12)


def test_coeff_series_cap_exit_code(capsys):
    rc, _, err = run_cli(
        capsys,
        "coeff",
        "--n", "2",
        "--method", "series",
        "--convention", "full",
        "--eps", "1e-100",
    )
    assert rc == 3
    assert "terms" in err


def test_coeff_csv_header(capsys):
    rc, out, _ = run_cli(
        capsys,
        "coeff",
        "--n", "2",
        "--method", "closed",
        "--convention", "full",
        "--format", "csv",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n,convention,method,exact,value,error_bound,digits,K,lambda"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# converge


def test_converge_geometric_range(capsys):
    rc, out, _ = run_cli(
        capsys,
        "converge",
        "--n", "2",
        "--lambdas", "256:262144:x2",
        "--convention", "full",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "lambda,count,residual,normalized"
    assert len(lines) == 12  # 11 sample rows
    normalized = [abs(float(line.split(",")[3])) for line in lines[1:]]
    assert max(normalized) < 1.0


def test_converge_both_conventions_bounded_against_own_constant(capsys):
    for convention in ("paper", "full"):
        rc, out, _ = run_cli(
            capsys,
            "converge",
            "--n", "2",
            "--lambdas", "256:16384:x2",
            "--convention", convention,
        )
        assert rc == 0
        normalized = [
            abs(float(line.split(",")[3])) for line in out.splitlines()[1:]
        ]
        assert max(normalized) < 1.0


def test_converge_single_lambda(capsys):
    rc, out, _ = run_cli(capsys, "converge", "--n", "2", "--lambdas", "4096")
    assert rc == 0
    assert len(out.splitlines()) == 2


def test_converge_malformed_range(capsys):
    rc, _, err = run_cli(capsys, "converge", "--n", "2", "--lambdas", "10:20:zz")
    assert rc == 2
    assert "malformed" in err


def test_parse_lambda_spec_forms():
    assert parse_lambda_spec("100,200,400") == [100.0, 200.0, 400.0]
    assert parse_lambda_spec("256:1024:x2") == [256.0, 512.0, 1024.0]
    assert parse_lambda_spec("10:30:+10") == [10.0, 20.0, 30.0]
    assert parse_lambda_spec("512") == [512.0]
    with pytest.raises(ValueError):
        parse_lambda_spec("10:5:x2")


# ---------------------------------------------------------------------------
# weyl


def test_weyl_paper_text(capsys):
    rc, out, _ = run_cli(
        capsys, "weyl", "--n", "1", "--normalization", "paper-text"
    )
    assert rc == 0
    assert out.strip() == "4*pi^4"


def test_weyl_conventional(capsys):
    rc, out, _ = run_cli(
        capsys, "weyl", "--n", "1", "--normalization", "conventional"
    )
    assert rc == 0
    assert out.strip() == "1/4"


def test_weyl_invalid_normalization_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["weyl", "--n", "1", "--normalization", "bogus"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# determinism


def test_identical_flags_identical_bytes():
    argv = [
        sys.executable,
        "-m",
        "kohncount.cli",
        "coeff",
        "--n", "3",
        "--method", "all",
        "--convention", "both",
        "--lambda", "4096",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3", "--lambda", "inf"],
        ["count", "--n", "3", "--lambda", "nan"],
        ["spectrum", "--n", "3", "--lambda-max", "inf"],
        ["coeff", "--n", "2", "--method", "series", "--eps", "inf"],
        ["coeff", "--n", "2", "--method", "empirical", "--lambda", "inf"],
        ["converge", "--n", "2", "--lambdas", "4:inf:x2"],
        ["converge", "--n", "2", "--lambdas", "inf:inf:x2"],
        ["converge", "--n", "2", "--lambdas", "4,inf"],
    ],
)
def test_non_finite_values_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("kohncount: ")
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["count", "--n", "3", "--lambda", "1e4", "--format", "json"],
        ["spectrum", "--n", "3", "--lambda-max", "100", "--format", "csv"],
    ],
)
def test_cli_imports_stay_lazy(argv):
    # mpmath and the process pool are loaded only by the commands that use them
    code = (
        "import sys\n"
        "from kohncount import cli\n"
        "if sys.argv[1:]:\n"
        "    cli.main(sys.argv[1:])\n"
        "lazy = ('mpmath', 'concurrent.futures.process')\n"
        "print(' '.join(m for m in lazy if m in sys.modules), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    assert result.stderr.strip() == ""


def test_module_entry_point_exit_codes():
    result = subprocess.run(
        [sys.executable, "-m", "kohncount.cli", "count", "--n", "1", "--lambda", "4"],
        capture_output=True,
    )
    assert result.returncode == 2
    result = subprocess.run(
        [sys.executable, "-m", "kohncount.cli"],
        capture_output=True,
    )
    assert result.returncode == 2
