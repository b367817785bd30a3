"""CLI surface: flags, formats, exit codes, determinism, round-trips."""

import argparse
import ast
import contextlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

from kohncount.asymptotics import (
    empirical_report,
    leading_coefficient_closed,
    leading_coefficient_series,
    remainder_profile,
    weyl_ball_constant,
)
from kohncount import spectrum
from kohncount.cli import (
    COEFF_CSV_FIELDS,
    _exact_real,
    _report_record,
    build_parser,
    main,
    parse_lambda_spec,
)
from kohncount.spectrum import CountingConvention, count_N
from tests.oracles import csv_text, parse_pi_string, to_mpf

PAPER = CountingConvention.PAPER_RESTRICTED
FULL = CountingConvention.FULL_SPECTRUM


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def record_kernel(monkeypatch):
    """Replace the counting kernel by one that records its X and counts 0."""
    seen = []

    def record(n, X, pmin, i_lo, i_hi):
        seen.append(X)
        return 0

    monkeypatch.setattr(spectrum, "_count_index_range", record)
    return seen


# the required arguments of each subcommand, with small, quick values
BASE_ARGV = {
    "spectrum": ["--n", "2", "--lambda-max", "20"],
    "count": ["--n", "2", "--lambda", "20"],
    "coeff": ["--n", "2", "--lambda", "64", "--eps", "1e-6"],
    "converge": ["--n", "2", "--lambdas", "64"],
    "weyl": ["--n", "2"],
}


def _advertised_choices():
    parser = build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for command, subparser in commands.choices.items():
        for action in subparser._actions:
            for choice in action.choices or ():
                yield command, action.option_strings[0], choice


# ---------------------------------------------------------------------------
# every command


@pytest.mark.parametrize("command, option, choice", list(_advertised_choices()))
def test_every_advertised_choice_runs(capsys, command, option, choice):
    rc, out, err = run_cli(capsys, command, *BASE_ARGV[command], option, choice)
    assert rc == 0, err
    assert out
    assert err == ""


@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_out_under_missing_directory_exits_2(capsys, tmp_path, command):
    path = str(tmp_path / "missing" / "out.txt")
    rc, out, err = run_cli(capsys, command, *BASE_ARGV[command], "--out", path)
    assert rc == 2
    assert out == ""
    assert err == f"kohncount: cannot write {path!r}: No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3", "--lambda", "1e6"],
        ["count", "--n", "3", "--lambda", "1e6", "--out", "/dev/full"],
        # some 150 kB: several blocks of the table writer
        ["spectrum", "--n", "2", "--lambda-max", "2e4"],
        ["spectrum", "--n", "2", "--lambda-max", "2e4", "--out", "/dev/full"],
        # argparse's own help printer would ignore the failed write
        ["--help"],
        ["count", "--help"],
    ],
    ids=[
        "count-stdout",
        "count-out",
        "spectrum-stdout",
        "spectrum-out",
        "help",
        "count-help",
    ],
)
def test_write_error_exits_2(argv, unbuffered):
    # a full device fails the write or, when stdout is buffered, the flush;
    # either way the command ends with one line on stderr, not a traceback
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "kohncount", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    name = "/dev/full" if "--out" in argv else "<stdout>"
    assert result.returncode == 2
    assert result.stderr == (
        f"kohncount: cannot write {name!r}: No space left on device\n".encode()
    )


def test_closed_pipe_ends_quietly():
    # the table is some 2 MB, far more than a pipe holds, so the writer is
    # still writing when the reader leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "kohncount", "spectrum", "--n", "2"]
        + ["--lambda-max", "2e5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"eigenvalue multiplicity cumulative\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 141


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3", "--lambda", "123456.5"],
        ["weyl", "--n", "3"],
        ["coeff", "--n", "3", "--lambda", "4096", "--method", "all"]
        + ["--convention", "both"],
        ["converge", "--n", "3", "--lambdas", "256:4096:x2"],
    ],
)
def test_csv_rows_match_csv_writer(capsys, argv):
    # The CLI joins CSV fields with commas. csv.writer, given the same fields
    # as the JSON output or the library's profile holds them, writes the same
    # bytes: no field is quoted.
    if argv[0] == "converge":
        # the profile is CSV only, one row of float reprs per sample
        _, csv_out, _ = run_cli(capsys, *argv)
        header = ["lambda", "count", "residual", "normalized"]
        samples = remainder_profile(3, parse_lambda_spec(argv[-1]), FULL).samples
        rows = [
            (repr(s.lam), s.count, repr(s.residual), repr(s.normalized))
            for s in samples
        ]
        assert csv_out == csv_text([header, *rows])
        return
    _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(json_out)
    if argv[0] == "coeff":
        header, records = COEFF_CSV_FIELDS, payload["reports"]
        # the CSV columns hold every key of every method's record
        assert all(set(r) <= set(COEFF_CSV_FIELDS) for r in records)
    else:
        header, records = [k for k in payload if k != "value"], [payload]
    rows = [["" if r.get(f) is None else r[f] for f in header] for r in records]
    assert csv_out == csv_text([header, *rows])


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


def test_spectrum_out_not_created_on_exit_2(capsys, tmp_path):
    path = tmp_path / "table.csv"
    rc, out, err = run_cli(
        capsys, "spectrum", "--n", "3", "--lambda-max", "1", "--out", str(path)
    )
    assert rc == 2
    assert out == ""
    assert err == "kohncount: lambda_max must be >= 2\n"
    assert not path.exists()


def test_spectrum_rejects_n1(capsys):
    rc, _, err = run_cli(capsys, "spectrum", "--n", "1", "--lambda-max", "4")
    assert rc == 2
    assert ">= 2" in err


@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_out_round_trip(capsys, tmp_path, command):
    # --out writes to the file exactly the bytes the command prints
    path = tmp_path / "out"
    argv = [command, *BASE_ARGV[command]]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out
    rc, printed, _ = run_cli(capsys, *argv, "--out", str(path))
    assert rc == 0
    assert printed == ""
    assert path.read_bytes() == out.encode()


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


def test_count_workers_agree(capsys, monkeypatch):
    # 2^29 is the smallest lambda at which --workers 2 forks, isqrt(X) = 2^14
    # = PARALLEL_MIN_SQRT_X; a counter on os.fork shows that it did
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    argv = ["count", "--n", "3", "--lambda", str(2**29)]
    rc1, out1, _ = run_cli(capsys, *argv)
    assert forks == []
    rc2, out2, _ = run_cli(capsys, *argv, "--workers", "2")
    assert len(forks) == (1 if spectrum._usable_cpus() >= 2 else 0)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_lambda_parses_exactly(capsys, monkeypatch):
    # 2^53 + 1 is the first integer a float cannot hold
    parser = build_parser()
    args = parser.parse_args(["count", "--n", "2", "--lambda", "9007199254740993"])
    assert args.lam == 2**53 + 1
    args = parser.parse_args(
        ["spectrum", "--n", "2", "--lambda-max", "9007199254740993"]
    )
    assert args.lambda_max == 2**53 + 1
    # the count sees X = 2^53 + 1 from lambda = 2^54 + 2; a float would give 2^53,
    # and the output still prints lambda as a float
    seen = record_kernel(monkeypatch)
    rc, out, _ = run_cli(
        capsys, "count", "--n", "2", "--lambda", str(2**54 + 2), "--format", "json"
    )
    assert rc == 0
    assert seen == [2**53 + 1]
    assert json.loads(out)["lambda"] == float(2**54)


def test_lambda_accepts_digit_underscores(capsys):
    # float() takes PEP 515 underscores on every supported Python, Fraction()
    # only from 3.11 on
    assert _exact_real("1_000.5") == Fraction(2001, 2)
    assert run_cli(capsys, "count", "--n", "3", "--lambda", "1_000") == run_cli(
        capsys, "count", "--n", "3", "--lambda", "1000"
    )
    assert parse_lambda_spec("1_000:4_000:x2") == [1000.0, 2000.0, 4000.0]


def test_coeff_and_converge_lambdas_parse_exactly(capsys, monkeypatch):
    assert build_parser().parse_args(["coeff", "--n", "2"]).lam == Fraction(200_000)
    assert parse_lambda_spec("4.1,1e20") == [Fraction("4.1"), 10**20]
    seen = record_kernel(monkeypatch)
    lam = str(2**54 + 2)
    # the empirical method counts at lambda and at lambda / 2, both exact
    rc, out, _ = run_cli(
        capsys, "coeff", "--n", "2", "--method", "empirical", "--convention", "full",
        "--lambda", lam, "--format", "json",
    )
    assert rc == 0
    assert seen == [2**53 + 1, 2**52]
    assert json.loads(out)["reports"][0]["lambda"] == float(2**54)
    seen.clear()
    rc, out, _ = run_cli(capsys, "converge", "--n", "2", "--lambdas", lam)
    assert rc == 0
    assert seen == [2**53 + 1]
    assert out.splitlines()[1].startswith(f"{float(2**54)!r},0,")


def test_converge_residual_takes_lambda_exactly(capsys):
    # c * lambda^n is taken at lambda = 100000.1 exactly, not at the nearest
    # float, which moves the residual in its 10th digit
    rc, out, _ = run_cli(capsys, "converge", "--n", "2", "--lambdas", "100000.1")
    assert rc == 0
    lam, count, residual, _ = out.splitlines()[1].split(",")
    closed = leading_coefficient_closed(2, CountingConvention.FULL_SPECTRUM).value
    with mpmath.workdps(60):
        expected = float(int(count) - to_mpf(closed) * (mpmath.mpf(1000001) / 10) ** 2)
    assert lam == "100000.1"
    assert float(residual) == expected


def test_lambda_items_reject_non_numbers(capsys):
    # a bad list item and a bad range field get the same message
    for spec in ("4,abc", "abc:100:x2", "4:abc:x2", "4:100:xabc", "4:100:+abc"):
        rc, out, err = run_cli(capsys, "converge", "--n", "2", "--lambdas", spec)
        assert rc == 2
        assert out == ""
        assert err == "kohncount: invalid float value: 'abc'\n"
    with pytest.raises(SystemExit) as excinfo:
        main(["coeff", "--n", "2", "--lambda", "abc"])
    assert excinfo.value.code == 2
    assert "argument --lambda: invalid float value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_count_rejects_workers_below_one(capsys, workers):
    rc, out, err = run_cli(
        capsys, "count", "--n", "3", "--lambda", "1e6", "--workers", workers
    )
    assert rc == 2
    assert out == ""
    assert err == "kohncount: workers must be >= 1\n"


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


def test_report_record_round_trip():
    # every field of the flat record reads back to the report it came from,
    # and ``digits`` to the precision it was printed at
    for digits in (16, 50):
        reports = [
            leading_coefficient_series(3, 1e-10, FULL, digits=digits),
            leading_coefficient_closed(3, PAPER, digits=digits),
            empirical_report(2, 512, FULL),
        ]
        for report in reports:
            record = _report_record(report, digits)
            assert json.loads(json.dumps(record)) == record
            assert record["n"] == report.n
            assert CountingConvention(record["convention"]) is report.convention
            assert record["method"] == report.method
            exact = record["exact"]
            assert (parse_pi_string(exact) if exact else None) == report.exact
            with mpmath.workdps(digits + 10):
                value = mpmath.mpf(record["value"])
                reference = to_mpf(report.value)
                assert abs(value - reference) <= abs(reference) * 10.0 ** (1 - digits)
            assert float(record["error_bound"]) == report.error_bound
            assert record["digits"] == digits
            assert record.get("K") == report.truncation_K
            assert record.get("lambda") == report.lam


def test_coeff_json_reports_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys,
        "coeff",
        "--n", "4",
        "--method", "all",
        "--convention", "both",
        "--format", "json",
        "--lambda", "2048",
        "--precision", "30",
    )
    assert rc == 0
    payload = json.loads(out)
    # the printed records read back to those of the library's own reports,
    # printed at --precision
    expected = []
    for conv in (PAPER, FULL):
        expected += [
            leading_coefficient_series(4, 1e-12, conv, digits=30),
            leading_coefficient_closed(4, conv, digits=30),
            empirical_report(4, 2048, conv),
        ]
    assert payload["reports"] == [_report_record(r, 30) for r in expected]


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


@pytest.mark.parametrize("method", ["series", "closed", "empirical", "all"])
def test_coeff_rejects_low_precision(capsys, method):
    rc, out, err = run_cli(
        capsys, "coeff", "--n", "2", "--method", method, "--precision", "0"
    )
    assert rc == 2
    assert out == ""
    assert err == "kohncount: precision must be >= 16 digits\n"


def test_coeff_empirical_rejects_lambda_below_two(capsys):
    rc, out, err = run_cli(
        capsys, "coeff", "--n", "2", "--method", "empirical", "--lambda", "1"
    )
    assert rc == 2
    assert out == ""
    assert err == "kohncount: lambda must be >= 2\n"


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
    for spec, message in [
        ("4:64", "malformed lambda range '4:64'"),
        ("4:64:x1", "geometric factor must be > 1"),
        ("4:64:+0", "arithmetic step must be > 0"),
    ]:
        rc, out, err = run_cli(capsys, "converge", "--n", "2", "--lambdas", spec)
        assert rc == 2
        assert out == ""
        assert err == f"kohncount: {message}\n"


def test_parse_lambda_spec_forms():
    assert parse_lambda_spec("100,200,400") == [100.0, 200.0, 400.0]
    assert parse_lambda_spec("256:1024:x2") == [256.0, 512.0, 1024.0]
    assert parse_lambda_spec("10:30:+10") == [10.0, 20.0, 30.0]
    assert parse_lambda_spec("512") == [512.0]
    with pytest.raises(ValueError):
        parse_lambda_spec("10:5:x2")


def test_parse_lambda_spec_caps_range_length():
    assert len(parse_lambda_spec("1:1e5:+1")) == 100_000
    assert len(parse_lambda_spec("1:1e100:x1.003")) == 76_868
    for spec in (
        "1:100001:+1",
        "1:2e5:+1",
        "4:1e12:+1",
        "1:1e100:x1.002",
    ):
        with pytest.raises(ValueError, match="has more than 100000 values"):
            parse_lambda_spec(spec)


@pytest.mark.parametrize(
    "spec, point",
    [
        ("1e20:1e20:+1", "1e+20"),  # adding 1 to 1e20 does not change it
        ("4:100:+1e-300", "4.0"),
        ("1e16:1e17:+1", "1e+16"),
    ],
)
def test_converge_rejects_range_that_cannot_step(capsys, spec, point):
    rc, out, err = run_cli(capsys, "converge", "--n", "2", "--lambdas", spec)
    assert rc == 2
    assert out == ""
    assert err == f"kohncount: lambda range {spec!r} does not advance past {point}\n"


def test_converge_rejects_long_range(capsys):
    rc, out, err = run_cli(capsys, "converge", "--n", "2", "--lambdas", "1:2e5:+1")
    assert rc == 2
    assert out == ""
    assert err == "kohncount: lambda range '1:2e5:+1' has more than 100000 values\n"


@pytest.mark.parametrize(
    "n, lambdas, top", [("150", "1000,2000", "2000"), ("100", "1290", "1290")]
)
def test_converge_rejects_envelope_beyond_floats(capsys, n, lambdas, top):
    # the normalization lambda^(n-1) ln(lambda) is not a finite float there:
    # at n = 150 the power overflows, at n = 100 only its product with ln
    rc, out, err = run_cli(capsys, "converge", "--n", n, "--lambdas", lambdas)
    assert rc == 2
    assert out == ""
    assert err == (
        "kohncount: lambda^(n-1) ln(lambda) is not a finite float at "
        f"n = {n}, lambda = {top}\n"
    )


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
# exact values past the 4300 digits that Python 3.11+ converts between int
# and str by default (Python 3.10 has no such cap)


def _int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def uncapped_int_digits():
    """The expected strings are built with the cap lifted, as ``main`` does."""
    limit = _int_digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# just below the eigenvalue 4 of n = 2, which its float rounds up to
LONG_LAMBDA = "3." + "9" * 5000


def _closed_n680_lines():
    report = leading_coefficient_closed(680, FULL, digits=16)
    record = _report_record(report, 16)
    return [f"exact = {record['exact']}", f"value = {record['value']}"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["count", "--n", "12000", "--lambda", "60000"],
            lambda out: out == f"{count_N(12000, 60000, FULL)}\n",
        ),
        (
            ["weyl", "--n", "1000"],
            lambda out: out == weyl_ball_constant(1000).to_string() + "\n",
        ),
        (
            ["coeff", "--n", "680", "--method", "closed", "--convention", "full"]
            + ["--precision", "16"],
            lambda out: set(_closed_n680_lines()) <= set(out.splitlines()),
        ),
        (
            ["count", "--n", "2", "--lambda", LONG_LAMBDA],
            lambda out: out == f"{count_N(2, Fraction(LONG_LAMBDA), FULL)}\n"
            != f"{count_N(2, float(LONG_LAMBDA), FULL)}\n",
        ),
    ],
    ids=["count-n12000", "weyl-n1000", "coeff-closed-n680", "count-lambda-5001-digits"],
)
def test_exact_values_of_any_length(capsys, argv, expected):
    limit = _int_digit_limit()
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    # main restores the caller's cap
    assert _int_digit_limit() == limit
    with uncapped_int_digits():
        assert expected(out)


def test_failed_command_restores_int_digit_limit(capsys):
    # a caller's own cap comes back also when the command exits 2
    limit = _int_digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(4500)
    try:
        rc, _, err = run_cli(
            capsys, "converge", "--n", "2", "--lambdas", LONG_LAMBDA
        )
        assert _int_digit_limit() == (None if limit is None else 4500)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert rc == 2
    assert err == "kohncount: all lambdas must be >= 4 (so ln(lambda) > 1)\n"


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


# the modules that only some commands need
LAZY = (
    "kohncount.asymptotics",
    "kohncount.exact",
    "json",
    "dataclasses",
    "mpmath",
    "concurrent.futures.process",
    "multiprocessing",
)
ASY = "kohncount.asymptotics kohncount.exact"
# what each command loads of LAZY beyond the bare interpreter's modules
LAZY_LOADS = {
    "": "",
    "count --n 3 --lambda 1e4 --format json": "json",
    "spectrum --n 3 --lambda-max 100 --format csv": "",
    "count --n 3 --workers 2 --lambda 1e4": "",
    "count --n 3 --lambda 1e4": "",
    "count --n 3 --lambda 1e4 --format csv": "",
    "spectrum --n 3 --lambda-max 100": "",
    "spectrum --n 3 --lambda-max 9 --format json": "json",
    "weyl --n 2": ASY,
    "weyl --n 2 --format csv": ASY,
    "weyl --n 2 --format json": f"{ASY} json",
    "coeff --n 2 --method closed": ASY,
    "coeff --n 2 --eps 1e-6 --lambda 64 --format json": f"{ASY} json",
    "converge --n 2 --lambdas 64:256:x2": ASY,
    # above the parallel cut-off: a plain fork, with no process-pool module
    "count --n 3 --workers 2 --lambda 1e9": "",
}


@pytest.mark.parametrize("argv", [command.split() for command in LAZY_LOADS])
def test_cli_imports_stay_lazy(argv):
    # each command loads only what it uses; no command loads dataclasses or
    # mpmath, and a parallel count loads no process-pool module.
    # The modules are compared against those of the bare interpreter, which
    # site may have loaded already.
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from kohncount import cli\n"
        "if sys.argv[2:]:\n"
        "    cli.main(sys.argv[2:])\n"
        "lazy = sys.argv[1].split()\n"
        "print(' '.join(m for m in lazy if m in sys.modules and m not in bare),\n"
        "      file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, " ".join(LAZY), *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stderr.strip() == LAZY_LOADS[" ".join(argv)]


def test_library_imports_neither_mpmath_nor_decimal():
    # values are evaluated and printed with integers and Fraction alone.
    # decimal is still loaded by every command: fractions imports it.
    for path in sorted(pathlib.Path(spectrum.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert not imported & {"mpmath", "decimal"}, path.name


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
    # exit 3 and its message come from cmd_coeff, not from main
    result = subprocess.run(
        [sys.executable, "-m", "kohncount"]
        + ["coeff", "--n", "2", "--method", "series", "--eps", "1e-100"],
        capture_output=True,
    )
    assert result.returncode == 3
    assert result.stdout == b""
    golden = pathlib.Path(__file__).parent / "golden" / "exit3-series-eps.stderr"
    assert result.stderr == golden.read_bytes()
