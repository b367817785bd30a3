"""Golden CLI outputs: every case reproduces its pinned bytes exactly.

Each case runs ``cli.main(argv)`` in process and compares its exit code,
stdout, stderr and (for ``--out``) the written file with the files in
``tests/golden/``; a missing golden file stands for an empty stream.

Regenerate only when an output change is intended, and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import pathlib
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

from kohncount.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
FORMATS = ("text", "csv", "json")
OUT = "{out}"  # replaced by a temporary file path


def _cases() -> dict[str, tuple[list[str], int]]:
    cases = {}
    for fmt in FORMATS:
        for conv in ("paper", "full"):
            cases[f"spectrum-n3-{conv}-{fmt}"] = [
                "spectrum", "--n", "3", "--lambda-max", "300",
                "--convention", conv, "--format", fmt,
            ]
            cases[f"count-n3-{conv}-{fmt}"] = [
                "count", "--n", "3", "--lambda", "123456.5",
                "--convention", conv, "--format", fmt,
            ]
        for norm in ("paper-text", "conventional"):
            cases[f"weyl-n3-{norm}-{fmt}"] = [
                "weyl", "--n", "3", "--normalization", norm, "--format", fmt,
            ]
    for n in (2, 5):
        for conv in ("paper", "full"):
            cases[f"spectrum-n{n}-{conv}-text"] = [
                "spectrum", "--n", str(n), "--lambda-max", "300", "--convention", conv,
            ]
    # large n, where the multiplicities run to dozens of digits
    for conv in ("paper", "full"):
        cases[f"spectrum-n20-{conv}-csv"] = [
            "spectrum", "--n", "20", "--lambda-max", "2000", "--convention", conv,
            "--format", "csv",
        ]
    cases["spectrum-n40-full-json"] = [
        "spectrum", "--n", "40", "--lambda-max", "1000", "--convention", "full",
        "--format", "json",
    ]
    for fmt in ("text", "json"):
        cases[f"count-n3-workers2-{fmt}"] = [
            "count", "--n", "3", "--lambda", "60000", "--workers", "2", "--format", fmt,
        ]
    n_cycle = iter([2, 3, 4, 5] * 9)
    for method in ("closed", "series", "empirical", "all"):
        for fmt in FORMATS:
            for conv in ("paper", "full", "both"):
                n = next(n_cycle)
                cases[f"coeff-{method}-n{n}-{conv}-{fmt}"] = [
                    "coeff", "--n", str(n), "--method", method, "--convention", conv,
                    "--format", fmt, "--lambda", "4096",
                ]
    # the series' K search: a deep bisection (K = 50126), and a doubling
    # that stops at its first bracket (K = 2)
    cases["coeff-series-n2-both-csv-eps1e-20"] = [
        "coeff", "--n", "2", "--method", "series", "--eps", "1e-20",
        "--convention", "both", "--format", "csv",
    ]
    # at --precision 16 the round-off allowance, not digits + 10, sets the
    # series' working precision: 28 digits in both
    cases["coeff-series-n2-both-csv-eps1e-20-precision16"] = [
        "coeff", "--n", "2", "--method", "series", "--eps", "1e-20",
        "--precision", "16", "--convention", "both", "--format", "csv",
    ]
    cases["coeff-series-n3-paper-json-eps1e-20-precision16"] = [
        "coeff", "--n", "3", "--method", "series", "--eps", "1e-20",
        "--precision", "16", "--convention", "paper", "--format", "json",
    ]
    cases["coeff-series-n150-both-json"] = [
        "coeff", "--n", "150", "--method", "series", "--format", "json",
    ]
    for n in (3, 5):
        # lambda^n and the count are not exact floats here, unlike at 4096
        cases[f"coeff-empirical-n{n}-both-text-lambda99999.5"] = [
            "coeff", "--n", str(n), "--method", "empirical", "--lambda", "99999.5",
        ]
    cases["converge-n2-geometric"] = [
        "converge", "--n", "2", "--lambdas", "256:65536:x4", "--convention", "full",
    ]
    cases["converge-n3-list"] = [
        "converge", "--n", "3", "--lambdas", "100,1000,5000.5", "--convention", "paper",
    ]
    # subnormal floats: gap lines of 7.0407e-319, a first residual of
    # -4.0547452075e-313
    cases["coeff-all-n155-both-text-lambda1e3"] = [
        "coeff", "--n", "155", "--method", "all", "--convention", "both",
        "--precision", "200", "--lambda", "1e3",
    ]
    cases["converge-n200-list"] = ["converge", "--n", "200", "--lambdas", "4,8"]
    cases["spectrum-n4-out-csv"] = [
        "spectrum", "--n", "4", "--lambda-max", "120", "--format", "csv", "--out", OUT,
    ]
    cases = {key: (argv, 0) for key, argv in cases.items()}
    cases["exit2-count-n1"] = (["count", "--n", "1", "--lambda", "4"], 2)
    cases["exit3-series-eps"] = (
        ["coeff", "--n", "2", "--method", "series", "--eps", "1e-100"], 3,
    )
    return cases


CASES = _cases()


def run_case(argv: list[str], tmp_dir: pathlib.Path) -> tuple[int, dict[str, str]]:
    """Exit code and the text of each stream: stdout, stderr and the --out file."""
    out_path = tmp_dir / "out"
    argv = [str(out_path) if arg == OUT else arg for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        rc = main(argv)
    streams = {"stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    streams["file"] = out_path.read_text() if out_path.exists() else ""
    return rc, streams


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path):
    argv, expected_rc = CASES[case]
    rc, streams = run_case(argv, tmp_path)
    assert rc == expected_rc
    for stream, text in streams.items():
        path = GOLDEN / f"{case}.{stream}"
        expected = path.read_bytes() if path.exists() else b""
        assert text.encode() == expected, f"{case}: {stream} differs from {path.name}"


def test_values_print_without_mpmath():
    # every coeff and converge case, and weyl's JSON, print their pinned
    # bytes in an interpreter where importing mpmath fails
    cases = [
        (case, CASES[case][0], str(GOLDEN / f"{case}.stdout"))
        for case in sorted(CASES)
        if case.startswith(("coeff-", "converge-"))
        or (case.startswith("weyl-") and case.endswith("-json"))
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "from kohncount.cli import main\n"
        "for case, argv, path in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        rc = main(argv)\n"
        "    with open(path, 'rb') as fh:\n"
        "        print(case, rc, out.getvalue().encode() == fh.read())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(cases)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert len(cases) == 48
    assert result.stdout.splitlines() == [f"{case} 0 True" for case, _, _ in cases]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for case, (argv, expected_rc) in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            rc, streams = run_case(argv, pathlib.Path(tmp))
        if rc != expected_rc:
            raise SystemExit(f"{case}: exit {rc}, expected {expected_rc}")
        for stream, text in streams.items():
            if text:
                (GOLDEN / f"{case}.{stream}").write_bytes(text.encode())


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
