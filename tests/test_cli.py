"""CLI surface: flags, formats, exit codes, determinism, round-trips."""

import argparse
import ast
import contextlib
import functools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import assume, example, given, settings

from kohncount.asymptotics import (
    empirical_report,
    leading_coefficient_closed,
    leading_coefficient_series,
    remainder_profile,
    weyl_ball_constant,
)
from kohncount import asymptotics, exact, spectrum
from kohncount.cli import (
    COEFF_CSV_FIELDS,
    _exact_real,
    _report_record,
    build_parser,
    main,
    parse_lambda_spec,
)
from kohncount.spectrum import CountingConvention, WorkLimitError, count_N
from tests import test_golden as golden
from tests.oracles import csv_text, parse_pi_string, to_mpf
from tests.test_spectrum import assert_no_child_left

PAPER = CountingConvention.PAPER_RESTRICTED
FULL = CountingConvention.FULL_SPECTRUM


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def record_kernel(monkeypatch):
    """Replace the counting kernels by one that records its X and counts 0:
    it sums [1, j] to n(n-1) times the hyperbola's remainder there, which
    ``count_N`` then subtracts (see there)."""
    seen = []

    def record(n, X, i_lo, i_hi):
        seen.append(X)
        comb, m, lo, j = math.comb, n - 1, max(math.isqrt(X), n - 2), i_hi
        rest = comb(lo, m) * comb(j + m, n) + comb(j + 1, n)
        return n * m * (rest + comb(lo + 1, n) * (comb(j + m, m) - 1))

    monkeypatch.setattr(spectrum, "_block_sums", record)
    monkeypatch.setattr(spectrum, "_falling_factorial_sums", record)
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


def test_spectrum_rejects_huge_lambda_max_at_once():
    # 1e12 would need a table of 5e11 entries, some 80 TB, and 1e30 one
    # that no list can hold; both are past the 2^24 entry cap and refused
    # before any work, so each command ends well within the timeout
    for n, lambda_max in (("3", "1e12"), ("2", "1e30")):
        result = subprocess.run(
            [sys.executable, "-m", "kohncount", "spectrum", "--n", n]
            + ["--lambda-max", lambda_max],
            capture_output=True,
            text=True,
            timeout=1,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == "kohncount: spectrum needs more than 16777216 entries\n"


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


def test_count_exits_2_when_a_counting_process_fails(capsys, monkeypatch):
    # a child whose kernel dies ends the command with one line and exit 2,
    # as a failed write does, and leaves no child behind
    parent = os.getpid()
    kernel = spectrum._falling_factorial_sums

    def dying(n, X, i_lo, i_hi):
        if os.getpid() != parent:
            os._exit(9)
        return kernel(n, X, i_lo, i_hi)

    monkeypatch.setattr(spectrum, "_falling_factorial_sums", dying)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    argv = ["count", "--n", "10", "--lambda", str(2**29), "--workers", "2"]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert re.fullmatch(r"kohncount: counting process \d+ exited with 9\n", err)
    assert_no_child_left()


def test_coeff_both_conventions_sum_the_series_once(capsys, monkeypatch):
    # the partial sum, bracket and rounding allowance do not depend on the
    # convention; only the gap is subtracted for each
    calls = []
    partial_sum = asymptotics._partial_sum_fixed

    def counted(*args):
        calls.append(args)
        return partial_sum(*args)

    monkeypatch.setattr(asymptotics, "_partial_sum_fixed", counted)
    fresh_cache = functools.lru_cache(asymptotics._series_sum.__wrapped__)
    monkeypatch.setattr(asymptotics, "_series_sum", fresh_cache)
    rc, out, _ = run_cli(
        capsys, "coeff", "--n", "5", "--method", "series", "--format", "json"
    )
    assert rc == 0
    assert len(calls) == 1
    paper, full = json.loads(out)["reports"]
    assert paper["convention"] == "paper_restricted"
    assert full["convention"] == "full_spectrum"
    assert paper["K"] == full["K"] and paper["error_bound"] == full["error_bound"]


def test_coeff_both_conventions_compute_pi_squared_once(capsys):
    # both conventions evaluate their closed forms at one precision
    exact._pi_squared.cache_clear()
    rc, _, _ = run_cli(capsys, "coeff", "--n", "5", "--method", "closed")
    assert rc == 0
    info = exact._pi_squared.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
    # and the json record still shows lambda's float
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
    # an integer lambda halves exactly too: a float would take 2^54 + 2 as 2^54
    seen.clear()
    rc, _, _ = run_cli(
        capsys, "coeff", "--n", "2", "--method", "empirical", "--convention", "full",
        "--lambda", str(2**55 + 4),
    )
    assert rc == 0
    assert seen == [2**54 + 2, 2**53 + 1]
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


@pytest.mark.parametrize("n, lambdas", [(3, "100,1000,5000.5"), (200, "4,8")])
def test_converge_residuals_are_floats_of_the_exact_remainders(capsys, n, lambdas):
    # each residual is float() of N - c lambda^n, rounded once; at n = 200,
    # lambda = 4 it is subnormal
    rc, out, _ = run_cli(capsys, "converge", "--n", str(n), "--lambdas", lambdas)
    assert rc == 0
    c = leading_coefficient_closed(n, FULL).value
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == len(lambdas.split(","))
    for lam, (_, count, residual, _) in zip(lambdas.split(","), rows):
        assert float(residual) == float(int(count) - c * Fraction(lam) ** n)
    if n == 200:
        assert 0 < -float(rows[0][2]) < sys.float_info.min


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


@pytest.mark.parametrize("n, precision, lam", [(3, 50, 200000), (155, 200, 1000)])
def test_coeff_gaps_are_floats_of_the_exact_values(capsys, n, precision, lam):
    # each gap is the difference of the two values' float(), each rounded
    # once; at n = 155, lambda = 1e3 the gaps with the empirical value are
    # subnormal
    rc, out, _ = run_cli(
        capsys, "coeff", "--n", str(n), "--format", "json",
        "--precision", str(precision), "--lambda", str(lam),
    )
    assert rc == 0
    expected = {}
    for conv in (PAPER, FULL):
        reports = [
            leading_coefficient_series(n, eps=1e-12, conv=conv, digits=precision),
            leading_coefficient_closed(n, conv, digits=precision),
            empirical_report(n, lam, conv),
        ]
        for i, a in enumerate(reports):
            for b in reports[i + 1 :]:
                key = f"{conv.value}:{a.method}_vs_{b.method}"
                expected[key] = abs(float(a.value) - float(b.value))
    gaps = json.loads(out)["gaps"]
    assert gaps == expected
    if n == 155:
        assert 0 < gaps["full_spectrum:series_vs_empirical"] < sys.float_info.min


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


@pytest.mark.parametrize(
    "argv",
    [
        "count --n 3 --lambda 1e300",
        "coeff --n 3 --lambda 1e300",
        "converge --n 2 --lambdas 4,1e300",
        "converge --n 2 --lambdas 2e14,1e300",
    ],
)
def test_count_beyond_the_index_step_cap_exits_3_at_once(argv):
    # some 10^150 index steps: count_N refuses them before it counts, and
    # main exits 3, well within the timeout of a second. A sweep counts its
    # largest lambda first, so 2e14, seconds of counting, is never counted
    result = subprocess.run(
        [sys.executable, "-m", "kohncount", *argv.split()],
        capture_output=True,
        timeout=1,
    )
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == (
        b"kohncount: count needs more than 1099511627776 index steps at this lambda\n"
    )


@pytest.mark.parametrize("method", ["series", "closed", "empirical", "all"])
def test_coeff_rejects_low_precision(capsys, method):
    rc, out, err = run_cli(
        capsys, "coeff", "--n", "2", "--method", method, "--precision", "0"
    )
    assert rc == 2
    assert out == ""
    assert err == "kohncount: precision must be >= 16 digits\n"


def test_precision_default_is_the_library_default():
    # the parser writes 50 out, so that parsing loads no exact
    args = build_parser().parse_args(["coeff", "--n", "2"])
    assert args.precision == exact.DEFAULT_DIGITS


def test_coeff_caps_precision_before_any_work(capsys, monkeypatch):
    # with the cap at 60 digits, 60 prints what it prints uncapped, and 61
    # is refused before any route runs
    argv = ["coeff", "--n", "2", "--precision"]
    uncapped = run_cli(capsys, *argv, "60")
    monkeypatch.setattr(exact, "MAX_EVAL_DIGITS", 60)
    assert run_cli(capsys, *argv, "60") == uncapped
    assert uncapped[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a route ran past the precision cap")

    for name in (
        "leading_coefficient_series",
        "leading_coefficient_closed",
        "empirical_report",
    ):
        monkeypatch.setattr(asymptotics, name, refuse)
    for method in ("series", "closed", "empirical", "all"):
        for convention in ("paper", "full", "both"):
            rc, out, err = run_cli(
                capsys, *argv, "61", "--method", method, "--convention", convention
            )
            assert rc == 3
            assert out == ""
            assert err == "kohncount: precision must be <= 60 digits\n"


@pytest.mark.parametrize("method", ["series", "closed", "empirical", "all"])
def test_coeff_refuses_huge_precision_at_once(method):
    # pi to 10^9 digits would not finish; the cap of 10^5 digits refuses it
    # before any work, well within the timeout
    result = subprocess.run(
        [sys.executable, "-m", "kohncount", "coeff", "--n", "2"]
        + ["--method", method, "--precision", "1000000000"],
        capture_output=True,
        text=True,
        timeout=1,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "kohncount: precision must be <= 100000 digits\n"


def test_coeff_caps_n_before_any_work(capsys, monkeypatch):
    # with the library's cap at n = 5, 5 prints what it prints uncapped, and
    # 6 is refused before any route works, for every method and convention
    uncapped = run_cli(capsys, "coeff", "--n", "5")
    monkeypatch.setattr(asymptotics, "MAX_COEFF_N", 5)
    assert run_cli(capsys, "coeff", "--n", "5") == uncapped
    assert uncapped[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a route worked past the n cap")

    monkeypatch.setattr(asymptotics, "_series_sum", refuse)
    monkeypatch.setattr(asymptotics, "_inverse_power_coeffs", refuse)
    monkeypatch.setattr(spectrum, "count_N", refuse)
    for method in ("series", "closed", "empirical", "all"):
        for convention in ("paper", "full", "both"):
            argv = ["--method", method, "--convention", convention]
            refused = run_cli(capsys, "coeff", "--n", "6", *argv)
            assert refused == (3, "", "kohncount: n must be <= 5\n")


def test_weyl_caps_n_before_any_work(capsys, monkeypatch):
    # with the library's cap at n = 8, 8 prints what it prints uncapped, and
    # 9 is refused before the constant is built, in every format and
    # normalization
    argv = ["weyl", "--format", "json", "--n"]
    uncapped = run_cli(capsys, *argv, "8")
    monkeypatch.setattr(asymptotics, "MAX_WEYL_N", 8)
    assert run_cli(capsys, *argv, "8") == uncapped
    assert uncapped[0] == 0

    def refuse(*args, **kwargs):
        raise AssertionError("weyl worked past the n cap")

    monkeypatch.setattr(asymptotics, "PiPolynomial", refuse)
    for fmt in ("csv", "json", "text"):
        for normalization in ("paper-text", "conventional"):
            argv = ["--format", fmt, "--normalization", normalization]
            refused = run_cli(capsys, "weyl", "--n", "9", *argv)
            assert refused == (3, "", "kohncount: n must be <= 8\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            (["coeff", "--n", "100000", "--method", method], "n must be <= 2000")
            for method in ("series", "closed", "empirical", "all")
        ),
        *(
            (["weyl", "--n", "10000000", "--format", fmt], "n must be <= 5000")
            for fmt in ("csv", "json", "text")
        ),
    ],
)
def test_n_caps_refuse_at_once(argv, message):
    # each would run for minutes to hours; the caps refuse them before any
    # work, well within the timeout
    result = subprocess.run(
        [sys.executable, "-m", "kohncount", *argv],
        capture_output=True,
        text=True,
        timeout=1,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == f"kohncount: {message}\n"


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
        ("4:8:xnan", "geometric factor must be > 1"),
        ("4:8:+nan", "arithmetic step must be > 0"),
    ]:
        rc, out, err = run_cli(capsys, "converge", "--n", "2", "--lambdas", spec)
        assert rc == 2
        assert out == ""
        assert err == f"kohncount: {message}\n"


def test_converge_range_fields_beyond_floats(capsys):
    # an integer spelling of 10^400 in a range field reads as inf, as 1e400
    # does: START or STOP is not finite, and FACTOR or STEP steps once past
    # STOP, a one-point range
    huge = str(10**400)
    for spec in (f"{huge}:{huge}:x2", f"4:{huge}:x2"):
        rc, out, err = run_cli(capsys, "converge", "--n", "2", "--lambdas", spec)
        assert (rc, out) == (2, "")
        assert err == f"kohncount: lambda range {spec!r} must be finite\n"
    one_point = run_cli(capsys, "converge", "--n", "2", "--lambdas", "4:8:x1e400")
    assert one_point[0] == 0 and len(one_point[1].splitlines()) == 2
    for spec in (f"4:8:x{huge}", f"4:8:+{huge}", "4:8:+inf"):
        assert run_cli(capsys, "converge", "--n", "2", "--lambdas", spec) == one_point


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
        with pytest.raises(WorkLimitError, match="has more than 100000 values") as exc:
            parse_lambda_spec(spec)
        assert exc.type is WorkLimitError


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
    assert rc == 3
    assert out == ""
    assert err == "kohncount: lambda range '1:2e5:+1' has more than 100000 values\n"


@pytest.mark.parametrize("spec", ["1:2e5:+1", "4:1e12:+1"])
def test_converge_refuses_long_range_at_once(spec):
    # the range stops at its 100 001st point, before any count, so even a
    # range of 10^12 points ends well within the timeout
    result = subprocess.run(
        [sys.executable, "-m", "kohncount", "converge", "--n", "2", "--lambdas", spec],
        capture_output=True,
        text=True,
        timeout=1,
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == (
        f"kohncount: lambda range '{spec}' has more than 100000 values\n"
    )


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
# exact values past the 4300 digits that Python converts between int and
# str by default


@contextlib.contextmanager
def uncapped_int_digits():
    """The expected strings are built with the cap lifted, as ``main`` does."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
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
    limit = sys.get_int_max_str_digits()
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    # main restores the caller's cap
    assert sys.get_int_max_str_digits() == limit
    with uncapped_int_digits():
        assert expected(out)


def test_failed_command_restores_int_digit_limit(capsys):
    # a caller's own cap comes back also when the command exits 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4500)
    try:
        rc, _, err = run_cli(
            capsys, "converge", "--n", "2", "--lambdas", LONG_LAMBDA
        )
        assert sys.get_int_max_str_digits() == 4500
    finally:
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
        ["converge", "--n", "2", "--lambdas", "nan"],
        ["converge", "--n", "2", "--lambdas", "8,nan"],
    ],
)
def test_non_finite_values_exit_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("kohncount: ")
    assert "finite" in err
    if argv[0] == "converge":
        # a range field names the range; a listed lambda, wherever it sits
        # in the list, gets the message of count, spectrum and coeff
        spec = argv[-1]
        if ":" in spec:
            assert err == f"kohncount: lambda range {spec!r} must be finite\n"
        else:
            assert err == "kohncount: lambda must be finite\n"


# a command, an option, a negative value that argparse may read as an
# option, and the message of the library's own check of that value
NEGATIVE_SPELLINGS = [
    (["count", "--n", "3"], "--lambda", "-inf", "lambda must be >= 0"),
    (["spectrum", "--n", "3"], "--lambda-max", "-1e400", "lambda_max must be >= 2"),
    (["converge", "--n", "3"], "--lambdas", "-inf,4", "lambda must be finite"),
    (["coeff", "--n", "3"], "--eps", "-1e-3", "eps must be > 0"),
]


@pytest.mark.parametrize("argv, option, value, message", NEGATIVE_SPELLINGS)
def test_negative_spellings_need_the_equals_form(capsys, argv, option, value, message):
    joined = run_cli(capsys, *argv, f"{option}={value}")
    assert joined == (2, "", f"kohncount: {message}\n")
    # separated by a space, argparse reads the value as an option and exits
    # 2 with a usage line; an argparse that reads a minus sign before a
    # digit as a negative number passes -1e400 and -1e-3 on to the library
    try:
        rc = main([*argv, option, value])
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("usage: ") or (
        value[1].isdigit() and err == f"kohncount: {message}\n"
    )


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_count_of_a_lambda_beyond_floats(capsys, monkeypatch, fmt):
    # every spelling beyond the float range, an integer written out too,
    # parses as inf, which count_N refuses before it sums a chunk; at
    # n = 10^401 an exact lambda of 10^400 would count 0 at once
    monkeypatch.setattr(spectrum, "_fork_join", None)
    huge = str(10**400)
    for n, lam in [("3", "1e400"), ("3", f"{huge}.5"), ("3", huge), (str(10**401), huge)]:
        argv = ["count", "--n", n, "--lambda", lam, "--format", fmt]
        assert run_cli(capsys, *argv) == (2, "", "kohncount: lambda must be finite\n")


# commands with {} for a lambda beyond the float range, and the exit code of
# each: coeff's closed and series methods do not use --lambda
BEYOND_FLOATS = {
    "count-text": (2, ["count", "--n", str(10**401), "--lambda={}"]),
    "count-csv": (2, ["count", "--n", "3", "--lambda={}", "--format", "csv"]),
    "count-json": (2, ["count", "--n", "3", "--lambda={}", "--format", "json"]),
    "coeff-all": (2, ["coeff", "--n", "3", "--lambda={}"]),
    "coeff-empirical": (2, ["coeff", "--n", "3", "--method", "empirical", "--lambda={}"]),
    "coeff-closed": (0, ["coeff", "--n", "3", "--method", "closed", "--lambda={}"]),
    "coeff-series": (0, ["coeff", "--n", "3", "--method", "series", "--lambda={}"]),
    "spectrum": (2, ["spectrum", "--n", "2", "--lambda-max={}"]),
    "converge-list": (2, ["converge", "--n", "2", "--lambdas=4,{}"]),
    "converge-one": (2, ["converge", "--n", "2", "--lambdas={}"]),
}


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("case", list(BEYOND_FLOATS))
def test_integer_lambda_beyond_floats_reads_as_inf(capsys, case, sign):
    # 10^400 written out gives the bytes of 1e400, and -10^400 those of
    # -1e400: an error as not finite, or, where -inf is checked first, as
    # below the least lambda
    expected_rc, argv = BEYOND_FLOATS[case]
    written = run_cli(capsys, *(arg.format(f"{sign}{10**400}") for arg in argv))
    floated = run_cli(capsys, *(arg.format(f"{sign}1e400") for arg in argv))
    assert written == floated
    rc, out, err = written
    assert rc == expected_rc
    if rc:
        assert out == "" and ("finite" in err if sign == "" else "must be" in err)
    else:
        assert out and err == ""


def test_coeff_of_an_integer_lambda_beyond_floats_ends_at_once():
    # the empirical method refuses it as not finite, where an exact 10^400
    # would start a count of some 10^200 index steps
    result = subprocess.run(
        [sys.executable, "-m", "kohncount", "coeff", "--n", "3"]
        + ["--lambda", str(10**400)],
        capture_output=True,
        text=True,
        timeout=1,
    )
    assert result.returncode == 2
    assert result.stderr == "kohncount: lambda must be finite\n"


# the modules that only some commands need
LAZY = (
    "kohncount.spectrum",
    "kohncount.asymptotics",
    "kohncount.exact",
    "json",
    "dataclasses",
    "mpmath",
    "concurrent.futures.process",
    "multiprocessing",
)
SPEC = "kohncount.spectrum"
ASY = "kohncount.asymptotics kohncount.exact"
# what each command loads of LAZY beyond the bare interpreter's modules; only
# the commands that count or tabulate load ``spectrum``
LAZY_LOADS = {
    "": "",
    "count --n 3 --lambda 1e4 --format json": f"{SPEC} json",
    "spectrum --n 3 --lambda-max 100 --format csv": SPEC,
    "count --n 3 --workers 2 --lambda 1e4": SPEC,
    "count --n 3 --lambda 1e4": SPEC,
    "count --n 3 --lambda 1e4 --format csv": SPEC,
    "spectrum --n 3 --lambda-max 100": SPEC,
    "spectrum --n 3 --lambda-max 9 --format json": f"{SPEC} json",
    "weyl --n 2": ASY,
    "weyl --n 2 --format csv": ASY,
    "weyl --n 2 --format json": f"{ASY} json",
    "coeff --n 2 --method closed": ASY,
    "coeff --n 2 --method series --convention paper --format csv": ASY,
    "coeff --n 2 --method empirical --lambda 64": f"{SPEC} {ASY}",
    "coeff --n 2 --eps 1e-6 --lambda 64 --format json": f"{SPEC} {ASY} json",
    "converge --n 2 --lambdas 64:256:x2": f"{SPEC} {ASY}",
    # above the parallel cut-off: a plain fork, with no process-pool module
    "count --n 3 --workers 2 --lambda 1e9": SPEC,
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


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "3", "--lambda", "1000"],
        ["spectrum", "--n", "3", "--lambda-max", "200"],
    ],
)
def test_integer_lambda_loads_no_fractions(argv):
    # an integer lambda is parsed as an int, so fractions, and with it
    # decimal and numbers, stay unloaded
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from kohncount import cli\n"
        "cli.main(sys.argv[1:])\n"
        "print(' '.join(m for m in ('fractions', 'decimal', 'numbers')\n"
        "               if m in sys.modules and m not in bare), file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    assert result.stdout
    assert result.stderr.strip() == ""


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["count", "--n", "3", "--lambda", "1000"],
        ["spectrum", "--n", "3", "--lambda-max", "200", "--format", "csv"],
        ["coeff", "--n", "3", "--method", "all", "--format", "json"],
        ["converge", "--n", "2", "--lambdas", "256:4096:x2"],
        ["weyl", "--n", "3"],
    ],
)
def test_count_and_spectrum_load_no_typing(argv):
    # the annotations are strings, so no command needs typing; the reports
    # of coeff and converge are collections.namedtuple subclasses.
    # Under -S no site hook can have loaded it first, which would hide an
    # import from the package; the package is found through PYTHONPATH alone.
    code = (
        "import sys\n"
        "from kohncount import cli\n"
        "if sys.argv[1:]:\n"
        "    cli.main(sys.argv[1:])\n"
        "print('typing' in sys.modules, file=sys.stderr)\n"
    )
    root = pathlib.Path(spectrum.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(root)},
    )
    assert result.stdout if argv else not result.stdout
    assert result.stderr.strip() == "False"


def test_exact_real_spellings():
    # integer spellings give an int; every other finite one a Fraction
    assert _exact_real("1000") == 1000 and type(_exact_real("1000")) is int
    assert type(_exact_real("-7")) is int and type(_exact_real("1_000")) is int
    assert type(_exact_real("2e5")) is Fraction
    assert _exact_real("2e5") == Fraction(200_000)
    assert _exact_real("99999.5") == Fraction(199999, 2)
    assert _exact_real("1_000.5") == Fraction(2001, 2)
    assert math.isinf(_exact_real("inf"))
    # every value a float cannot hold stays that float, however spelled
    top = 2**1024 - 2**970  # the least integer that float(int) refuses
    assert _exact_real(str(top - 1)) == top - 1 and type(_exact_real(str(top - 1))) is int
    with uncapped_int_digits():
        for k in (top, 10**4999):
            assert _exact_real(str(k)) == math.inf
            assert _exact_real(str(-k)) == -math.inf
        assert _exact_real(LONG_LAMBDA) == Fraction(LONG_LAMBDA)


@settings(derandomize=True, max_examples=200)
@given(st.integers(-(2**975), 2**975))
@example(-1)
@example(0)
def test_exact_real_reads_inf_exactly_where_float_overflows(offset):
    k = 2**1024 - 2**970 + offset
    try:
        float(k)
    except OverflowError:
        assert _exact_real(str(k)) == math.inf
    else:
        assert _exact_real(str(k)) == k and type(_exact_real(str(k))) is int


# spellings with digit underscores where a float allows them, and anywhere
UNDERSCORED = st.one_of(
    st.from_regex(
        r"[+-]?[0-9](_?[0-9]){0,5}(\.([0-9](_?[0-9]){0,5})?)?"
        r"([eE][+-]?[0-9](_?[0-9]){0,3})?",
        fullmatch=True,
    ),
    st.from_regex(r"[+-]?[0-9_]{0,6}(\.[0-9_]{0,6})?([eE][+-]?[0-9_]{1,4})?", fullmatch=True),
).filter(lambda text: "_" in text)


@given(UNDERSCORED)
@example("1_000.000_5e-1_0")
@example("1__0.5")
def test_exact_real_takes_underscores_as_float_does(text):
    # Fraction reads PEP 515 underscores itself, where float does
    try:
        value = float(text)
    except ValueError:
        with pytest.raises(ValueError):
            _exact_real(text)
        return
    assume(math.isfinite(value))
    assert _exact_real(text) == Fraction(text.replace("_", ""))


def test_library_imports_no_mpmath():
    # mpmath is a test oracle only: the package has no runtime dependency
    for path in sorted(pathlib.Path(spectrum.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        assert "mpmath" not in imported, path.name


# The process entries. Each runs the command in its own interpreter, as a
# user does, and ends it through ``cli.run``.
ENTRIES = ("package", "module", "script")
ROOT = pathlib.Path(__file__).resolve().parents[1]


def entry_command(entry, tmp_path):
    """The command line of one process entry: ``python -m kohncount``,
    ``python -m kohncount.cli``, or the console script that pip writes for
    ``[project.scripts]`` in pyproject.toml."""
    if entry == "package":
        return [sys.executable, "-m", "kohncount"]
    if entry == "module":
        return [sys.executable, "-m", "kohncount.cli"]
    pyproject = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(r'^kohncount = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = tmp_path / "kohncount"
    script.write_text(
        "import re\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({func}())\n"
    )
    return [sys.executable, str(script)]


# one case per subcommand, each format, --out, exit 2 and exit 3
ENTRY_CASES = [
    "spectrum-n3-paper-text",
    "count-n3-full-csv",
    "coeff-closed-n2-both-json",
    "converge-n3-list",
    "weyl-n3-paper-text-text",
    "spectrum-n4-out-csv",
    "exit2-count-n1",
    "exit3-series-eps",
]


@pytest.mark.parametrize("case", ENTRY_CASES)
@pytest.mark.parametrize("entry", ENTRIES)
def test_entries_print_golden_bytes(entry, case, tmp_path):
    argv, expected_rc = golden.CASES[case]
    out_path = tmp_path / "out"
    argv = [str(out_path) if arg == golden.OUT else arg for arg in argv]
    result = subprocess.run(entry_command(entry, tmp_path) + argv, capture_output=True)
    assert result.returncode == expected_rc
    streams = {
        "stdout": result.stdout,
        "stderr": result.stderr,
        "file": out_path.read_bytes() if out_path.exists() else b"",
    }
    for stream, data in streams.items():
        path = golden.GOLDEN / f"{case}.{stream}"
        assert data == (path.read_bytes() if path.exists() else b""), path.name


def test_module_entry_point_exit_codes(tmp_path):
    for entry in ENTRIES:
        command = entry_command(entry, tmp_path)
        # argparse's usage error propagates from main as a SystemExit
        result = subprocess.run(command, capture_output=True)
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.endswith(
            b"kohncount: error: the following arguments are required: command\n"
        )
        # a failed stdout and a closed pipe
        if os.path.exists("/dev/full"):
            with open("/dev/full", "w") as full:
                result = subprocess.run(
                    command + ["count", "--n", "3", "--lambda", "1e6"],
                    stdout=full,
                    stderr=subprocess.PIPE,
                )
            assert result.returncode == 2
            assert result.stderr == (
                b"kohncount: cannot write '<stdout>': No space left on device\n"
            )
        proc = subprocess.Popen(
            command + ["spectrum", "--n", "2", "--lambda-max", "2e5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"eigenvalue multiplicity cumulative\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == 141


@pytest.mark.parametrize("dev", [False, True], ids=["fast", "dev"])
def test_run_calls_exit_handlers(dev):
    # a handler registered before the command runs once, and what it prints
    # to a buffered stdout reaches it after the command's own output
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'handler ran')\n"
        "sys.argv = ['kohncount', 'count', '--n', '3', '--lambda', '1e6']\n"
        "runpy.run_module('kohncount', run_name='__main__')\n"
    )
    flags = ["-X", "dev"] if dev else []
    result = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONUNBUFFERED": ""},
    )
    assert result.returncode == 0
    assert result.stdout == b"68538946874411229\nhandler ran\n"
    assert result.stderr == b""


@pytest.mark.parametrize(
    "flags, warns",
    [
        # the process ends without teardown, which would close the file and warn
        (["-W", "always::ResourceWarning"], False),
        # -X dev keeps the teardown and its warnings
        (["-X", "dev"], True),
    ],
    ids=["fast", "dev"],
)
def test_run_skips_teardown_except_in_dev_mode(tmp_path, flags, warns):
    script = tmp_path / "keep_open.py"
    script.write_text(
        "import sys\n"
        "from kohncount import cli\n"
        "kept = open(__file__)\n"
        "sys.argv[1:] = ['count', '--n', '3', '--lambda', '1e6']\n"
        "cli.run()\n"
    )
    result = subprocess.run(
        [sys.executable, *flags, str(script)], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout == "68538946874411229\n"
    assert ("ResourceWarning: unclosed file" in result.stderr) == warns
    if not warns:
        assert result.stderr == ""
