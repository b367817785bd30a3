"""Command-line front end: spectrum tables, counting, coefficients, profiles.

Subcommands: ``spectrum``, ``count``, ``coeff``, ``converge``, ``weyl``.
Exit codes: 0 success, 2 usage/validation error, failed write or failed
counting process, 3 a request beyond a work cap (2^40 count index steps,
2^24 table entries, 10^9 series terms, 10^5 ``converge`` points, 10^5
``coeff`` digits, a ``coeff`` n above 2000 or a ``weyl`` n above 5000),
141 stdout closed by its reader. Identical flags produce byte-identical
bytes.

The caps are the library's, checked where the work is done; the CLI checks
only its own input: ``--precision``, which it renders to, by the library's
one digit check ``exact.validate_digits``, and the length of a
``--lambdas`` range.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import CountingConvention, WorkLimitError

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import NoReturn

    from .asymptotics import CoefficientReport

# ``spectrum``, ``asymptotics``, ``exact`` and ``json`` are imported by the
# commands that use them: ``count`` and ``spectrum`` start without
# ``asymptotics``, and with an integer lambda without ``fractions``; ``weyl``
# and ``coeff`` by the series or the closed form load no ``spectrum``.

CONVENTIONS = {
    "paper": CountingConvention.PAPER_RESTRICTED,
    "full": CountingConvention.FULL_SPECTRUM,
}

# coefficient routes, in the order that ``--method all`` runs them; each
# takes the ``asymptotics`` module, which ``cmd_coeff`` imports
METHODS = {
    "series": lambda asy, args, conv: asy.leading_coefficient_series(
        args.n, eps=args.eps, conv=conv, digits=args.precision
    ),
    "closed": lambda asy, args, conv: asy.leading_coefficient_closed(
        args.n, conv, digits=args.precision
    ),
    "empirical": lambda asy, args, conv: asy.empirical_report(args.n, args.lam, conv),
}

# the longest ``converge --lambdas`` range
MAX_LAMBDAS = 100_000

COEFF_CSV_FIELDS = [
    "n",
    "convention",
    "method",
    "exact",
    "value",
    "error_bound",
    "digits",
    "K",
    "lambda",
]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose ``--help`` fails to write like any other
    output; argparse's own ``print_help`` ignores a failed write."""

    def print_help(self, file=None) -> None:
        _emit(self.format_help(), None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kohncount",
        description=(
            "Exact spectrum and Weyl-type leading coefficient of the Kohn "
            "Laplacian on the sphere S^(2n-1)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, conventions=tuple(CONVENTIONS), convention_default="full"):
        p.add_argument("--n", type=int, required=True, help="sphere parameter n >= 2")
        p.add_argument(
            "--convention",
            choices=conventions,
            default=convention_default,
            help="divisor restriction: paper (p >= n) or full (p >= n-1)",
        )
        p.add_argument("--format", choices=["csv", "json", "text"], default="text")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("spectrum", help="tabulate (eigenvalue, multiplicity) pairs")
    add_common(p)
    p.add_argument("--lambda-max", type=_exact_real, required=True, dest="lambda_max")

    p = sub.add_parser("count", help="evaluate the counting function N(lambda)")
    add_common(p)
    p.add_argument("--lambda", type=_exact_real, required=True, dest="lam")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("coeff", help="leading coefficient of N(lambda)/lambda^n")
    add_common(p, (*CONVENTIONS, "both"), "both")
    p.add_argument("--method", choices=[*METHODS, "all"], default="all")
    p.add_argument("--eps", type=float, default=1e-12, help="series tolerance")
    # ``exact.DEFAULT_DIGITS``, written out so that parsing loads no ``exact``
    p.add_argument(
        "--precision", type=int, default=50, help="evaluation precision in digits"
    )
    p.add_argument(
        "--lambda",
        type=_exact_real,
        default="2e5",
        dest="lam",
        help="sample point for the empirical method",
    )

    p = sub.add_parser("converge", help="remainder profile over a lambda sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--convention", choices=tuple(CONVENTIONS), default="full")
    p.add_argument(
        "--lambdas",
        required=True,
        help="comma list, START:STOP:xFACTOR (geometric) or START:STOP:+STEP",
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("weyl", help="Weyl-law constant for the unit ball in R^(2n)")
    p.add_argument("--n", type=int, required=True, help="ball dimension 2n, n >= 1")
    p.add_argument(
        "--normalization",
        choices=["paper-text", "conventional"],
        default="paper-text",
    )
    p.add_argument("--format", choices=["csv", "json", "text"], default="text")
    p.add_argument("--out", default=None)

    return parser


class _InvalidNumber(argparse.ArgumentTypeError, ValueError):
    """A number that does not parse: argparse prints it as a usage error,
    and in ``--lambdas`` it is the ``ValueError`` that exits 2."""


def _float(text: str) -> float:
    """``float(text)``, with a float's usage error. A spelling beyond the
    float range reads as inf, whether ``1e400`` or an integer written out."""
    try:
        return float(text)
    except ValueError:
        raise _InvalidNumber(f"invalid float value: {text!r}") from None


def _exact_real(text: str) -> int | Fraction | float:
    """A number read first as a float, with a float's spellings and usage
    error. A value the float cannot hold (inf, nan, ``1e400``, an integer of
    400 digits) stays that float, which the library rejects as not finite;
    a finite one is parsed exactly: an ``int`` when spelled as one, else a
    ``Fraction``.
    """
    value = _float(text)
    if not math.isfinite(value):
        return value
    try:
        return int(text)
    except ValueError:
        pass
    from fractions import Fraction

    return Fraction(text)


def parse_lambda_spec(spec: str) -> list[int | Fraction | float]:
    """Parse ``--lambdas``: a comma list, a single value, or START:STOP:STEP
    where STEP is xFACTOR (geometric) or +INCREMENT (arithmetic).

    List items are parsed exactly, like ``count --lambda``. Range fields
    are parsed as floats, with the same usage error: range points are
    floats, since START * FACTOR^k in exact arithmetic would grow to
    numerators of some 10^5 digits within the range cap.
    """
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed lambda range {spec!r}")
        start, stop = _float(parts[0]), _float(parts[1])
        step = parts[2].strip()
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"lambda range {spec!r} must be finite")
        if start <= 0 or stop < start or not step:
            raise ValueError(f"malformed lambda range {spec!r}")
        top = stop * (1 + 1e-9)
        if step.startswith("x"):
            factor, increment = _float(step[1:]), 0.0
            if not factor > 1:
                raise ValueError("geometric factor must be > 1")
        elif step.startswith("+"):
            factor, increment = 1.0, _float(step[1:])
            if not increment > 0:
                raise ValueError("arithmetic step must be > 0")
        else:
            raise ValueError(f"malformed lambda step {step!r}")
        values = []
        v = start
        while v <= top:
            if len(values) == MAX_LAMBDAS:
                raise WorkLimitError(
                    f"lambda range {spec!r} has more than {MAX_LAMBDAS} values"
                )
            values.append(v)
            v = v * factor + increment
            if v <= values[-1]:
                raise ValueError(f"lambda range {spec!r} does not advance past {v!r}")
        return values
    return [_exact_real(part) for part in spec.split(",") if part.strip()]


@contextlib.contextmanager
def _output(out: str | None):
    """The output stream: stdout, or the ``--out`` file, opened for writing.
    A failed open, write, flush or close raises ``ValueError``; a closed pipe
    stays a ``BrokenPipeError`` for ``main``. A failed stdout is pointed at
    the null device, so that exit does not fail again on what it buffers."""
    try:
        if out is None:
            yield sys.stdout
            sys.stdout.flush()
        else:
            with open(out, "w") as stream:
                yield stream
    except OSError as exc:
        if out is None:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        name = "<stdout>" if out is None else out
        raise ValueError(f"cannot write {name!r}: {exc.strerror}") from None


def _emit(text: str, out: str | None) -> int:
    with _output(out) as stream:
        stream.write(text)
    return 0


def _csv(header: list[str], rows, out: str | None) -> int:
    """CSV with fields joined by commas. Every field is an int, a float repr,
    a name, a decimal, a pi-string or empty, and none holds a comma, a quote
    or a line break, so none needs quoting."""
    lines = [header, *rows]
    return _emit("".join(",".join(map(str, row)) + "\n" for row in lines), out)


def _json(payload: dict, out: str | None) -> int:
    import json

    return _emit(json.dumps(payload, indent=2) + "\n", out)


def _flat_record(record: dict, text: str, args) -> int:
    """One flat record in ``args.format``: as JSON, as a CSV header and row,
    or as the line ``text``."""
    if args.format == "json":
        return _json(record, args.out)
    if args.format == "csv":
        return _csv(list(record), [record.values()], args.out)
    return _emit(text + "\n", args.out)


def _report_record(report: CoefficientReport, digits: int) -> dict:
    """The flat record behind a report's JSON, CSV and text forms, with
    ``value`` printed to ``digits`` significant digits."""
    from .exact import format_significant

    record = {
        "n": report.n,
        "convention": report.convention.value,
        "method": report.method,
        "exact": report.exact.to_string() if report.exact is not None else None,
        "value": format_significant(report.value, digits),
        "error_bound": repr(report.error_bound),
        "digits": digits,
    }
    if report.truncation_K is not None:
        record["K"] = report.truncation_K
    if report.lam is not None:
        record["lambda"] = float(report.lam)
    return record


def _factored_string(report: CoefficientReport) -> str:
    from .asymptotics import closed_scale

    scale = closed_scale(report.n)
    inner = report.exact * scale
    return f"1/{scale} * ({inner.to_string()})"


def _report_text(report: CoefficientReport, record: dict) -> str:
    lines = []
    for key, value in record.items():
        if key == "digits" or value is None:
            continue
        lines.append(f"{key} = {value}")
        if key == "exact":
            lines.append(f"factored = {_factored_string(report)}")
    return "\n".join(lines)


def cmd_spectrum(args) -> int:
    from . import spectrum

    conv = CONVENTIONS[args.convention]
    entries = spectrum.spectrum_table(args.n, args.lambda_max, conv)
    with _output(args.out) as stream:
        if args.format == "json":
            header = {
                "n": args.n,
                "convention": conv.value,
                "lambda_max": float(args.lambda_max),
            }
            spectrum.write_spectrum_json(entries, stream, header)
        else:
            # the text table is the csv file with spaces for commas
            delimiter = "," if args.format == "csv" else " "
            spectrum.write_spectrum_csv(entries, stream, delimiter=delimiter)
    return 0


def cmd_count(args) -> int:
    from . import spectrum

    conv = CONVENTIONS[args.convention]
    count = spectrum.count_N(args.n, args.lam, conv, workers=args.workers)
    lam = float(args.lam)
    record = {"n": args.n, "lambda": lam, "convention": conv.value, "count": count}
    return _flat_record(record, str(count), args)


def cmd_coeff(args) -> int:
    from . import asymptotics
    from .exact import validate_digits

    validate_digits(args.precision)
    methods = list(METHODS) if args.method == "all" else [args.method]
    all_reports: list[CoefficientReport] = []
    gaps: dict[str, float] = {}
    both = args.convention == "both"
    for conv in CONVENTIONS.values() if both else [CONVENTIONS[args.convention]]:
        reports = [METHODS[m](asymptotics, args, conv) for m in methods]
        all_reports.extend(reports)
        for i, r1 in enumerate(reports):
            for r2 in reports[i + 1 :]:
                key = f"{conv.value}:{r1.method}_vs_{r2.method}"
                gaps[key] = abs(float(r1.value) - float(r2.value))
    records = [_report_record(r, args.precision) for r in all_reports]
    if args.format == "json":
        return _json({"reports": records, "gaps": gaps}, args.out)
    if args.format == "csv":
        rows = [
            ["" if record.get(f) is None else record[f] for f in COEFF_CSV_FIELDS]
            for record in records
        ]
        return _csv(COEFF_CSV_FIELDS, rows, args.out)
    text = "\n\n".join(map(_report_text, all_reports, records))
    if gaps:
        text += "\n\n" + "\n".join(f"gap {key} = {v!r}" for key, v in gaps.items())
    return _emit(text + "\n", args.out)


def cmd_converge(args) -> int:
    from . import asymptotics

    conv = CONVENTIONS[args.convention]
    lambdas = parse_lambda_spec(args.lambdas)
    profile = asymptotics.remainder_profile(args.n, lambdas, conv)
    header = ["lambda", "count", "residual", "normalized"]
    return _csv(header, profile.samples, args.out)


def cmd_weyl(args) -> int:
    from . import asymptotics
    from .exact import DEFAULT_DIGITS, format_significant, pipoly_eval

    normalization = args.normalization.replace("-", "_")
    poly = asymptotics.weyl_ball_constant(args.n, normalization)
    record = {"n": args.n, "normalization": normalization, "exact": poly.to_string()}
    if args.format == "json":
        record["value"] = format_significant(pipoly_eval(poly), DEFAULT_DIGITS)
    return _flat_record(record, record["exact"], args)


HANDLERS = {
    "spectrum": cmd_spectrum,
    "count": cmd_count,
    "coeff": cmd_coeff,
    "converge": cmd_converge,
    "weyl": cmd_weyl,
}


def main(argv: list[str] | None = None) -> int:
    # Python refuses int <-> str conversions past 4300 digits by default, and
    # exact inputs and outputs can be longer, so the command runs with no
    # cap and restores the caller's after.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return HANDLERS[args.command](args)
    except (ValueError, WorkLimitError, ChildProcessError) as exc:
        print(f"kohncount: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, WorkLimitError) else 2
    except BrokenPipeError:
        return 141  # the reader left: end quietly, as a SIGPIPE death would
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> NoReturn:
    """Run the command in ``sys.argv`` and end the process with its exit code.

    The process entry of ``python -m kohncount`` and the console script;
    library callers use ``main(argv)``. The exit handlers run and stdout and
    stderr are flushed, then the process ends without the interpreter's
    module teardown, which nothing here needs. Under ``-X dev`` (so that
    warnings at shutdown still show) or when a flush fails, it exits the
    usual way. An exception from ``main``, argparse's ``SystemExit`` too,
    propagates.
    """
    code = main()
    import atexit

    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError, AttributeError):
        sys.exit(code)
    if sys.flags.dev_mode:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
