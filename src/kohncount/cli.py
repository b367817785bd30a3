"""Command-line front end: spectrum tables, counting, coefficients, profiles.

Subcommands: ``spectrum``, ``count``, ``coeff``, ``converge``, ``weyl``.
Exit codes: 0 success, 2 usage/validation error or failed write, 3
requested series precision unattainable under the term cap, 141 stdout
closed by its reader. Identical flags produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import spectrum
from .spectrum import CountingConvention

if TYPE_CHECKING:
    from .asymptotics import CoefficientReport

# ``asymptotics``, ``exact`` and ``json`` are imported by the commands that
# use them: ``count`` and ``spectrum`` start without them.

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


def _exact_real(text: str) -> Fraction | float:
    """A finite number parsed exactly, as a ``Fraction``.

    The accepted spellings are a float's, with a float's usage error.
    Values a float cannot hold (inf, nan, 1e400) stay floats, which the
    library rejects as not finite. Digit underscores are dropped before the
    ``Fraction``, which accepts them only from Python 3.11 on.
    """
    try:
        value = float(text)
    except ValueError:
        raise _InvalidNumber(f"invalid float value: {text!r}") from None
    return Fraction(text.replace("_", "")) if math.isfinite(value) else value


def parse_lambda_spec(spec: str) -> list[Fraction | float]:
    """Parse ``--lambdas``: a comma list, a single value, or START:STOP:STEP
    where STEP is xFACTOR (geometric) or +INCREMENT (arithmetic).

    List items are parsed exactly, like ``count --lambda``. Range fields
    are parsed the same way, then rounded: range points are floats, since
    START * FACTOR^k in exact arithmetic would grow to numerators of some
    10^5 digits within the range cap.
    """
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed lambda range {spec!r}")
        start, stop = float(_exact_real(parts[0])), float(_exact_real(parts[1]))
        step = parts[2].strip()
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"lambda range {spec!r} must be finite")
        if start <= 0 or stop < start or not step:
            raise ValueError(f"malformed lambda range {spec!r}")
        top = stop * (1 + 1e-9)
        if step.startswith("x"):
            factor, increment = float(_exact_real(step[1:])), 0.0
            if factor <= 1:
                raise ValueError("geometric factor must be > 1")
        elif step.startswith("+"):
            factor, increment = 1.0, float(_exact_real(step[1:]))
            if increment <= 0:
                raise ValueError("arithmetic step must be > 0")
        else:
            raise ValueError(f"malformed lambda step {step!r}")
        values = []
        v = start
        while v <= top:
            if len(values) == MAX_LAMBDAS:
                raise ValueError(
                    f"lambda range {spec!r} has more than {MAX_LAMBDAS} values"
                )
            values.append(v)
            v = v * factor + increment
            if v <= values[-1]:
                raise ValueError(f"lambda range {spec!r} does not advance past {v!r}")
        return values
    return [_exact_real(part) for part in spec.split(",") if part.strip()]


def _conventions(name: str) -> list[CountingConvention]:
    return list(CONVENTIONS.values()) if name == "both" else [CONVENTIONS[name]]


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
    if report.method == "series":
        record["K"] = report.truncation_K
    if report.method == "empirical":
        record["lambda"] = float(report.lam)
    return record


def _factored_string(report: CoefficientReport) -> str:
    from .asymptotics import closed_scale

    scale = closed_scale(report.n)
    inner = report.exact * Fraction(scale)
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
    conv = CONVENTIONS[args.convention]
    count = spectrum.count_N(args.n, args.lam, conv, workers=args.workers)
    record = {
        "n": args.n,
        "lambda": float(args.lam),
        "convention": conv.value,
        "count": count,
    }
    if args.format == "json":
        return _json(record, args.out)
    if args.format == "csv":
        return _csv(list(record), [record.values()], args.out)
    return _emit(f"{count}\n", args.out)


def cmd_coeff(args) -> int:
    from . import asymptotics
    from .exact import MIN_EVAL_DIGITS, _to_float

    if args.precision < MIN_EVAL_DIGITS:
        raise ValueError(f"precision must be >= {MIN_EVAL_DIGITS} digits")
    methods = list(METHODS) if args.method == "all" else [args.method]
    all_reports: list[CoefficientReport] = []
    gaps: dict[str, float] = {}
    for conv in _conventions(args.convention):
        try:
            reports = [METHODS[m](asymptotics, args, conv) for m in methods]
        except asymptotics.PrecisionUnattainableError as exc:
            print(f"kohncount: {exc}", file=sys.stderr)
            return 3
        all_reports.extend(reports)
        for i, r1 in enumerate(reports):
            for r2 in reports[i + 1 :]:
                key = f"{conv.value}:{r1.method}_vs_{r2.method}"
                gaps[key] = abs(_to_float(r1.value) - _to_float(r2.value))
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
    from .exact import format_significant

    normalization = args.normalization.replace("-", "_")
    poly = asymptotics.weyl_ball_constant(args.n, normalization)
    record = {"n": args.n, "normalization": normalization, "exact": poly.to_string()}
    if args.format == "json":
        value = format_significant(asymptotics.pipoly_eval(poly), 50)
        return _json({**record, "value": value}, args.out)
    if args.format == "csv":
        return _csv(list(record), [record.values()], args.out)
    return _emit(record["exact"] + "\n", args.out)


HANDLERS = {
    "spectrum": cmd_spectrum,
    "count": cmd_count,
    "coeff": cmd_coeff,
    "converge": cmd_converge,
    "weyl": cmd_weyl,
}


def main(argv: list[str] | None = None) -> int:
    # Python 3.11+ refuses int <-> str conversions past 4300 digits, and
    # exact inputs and outputs can be longer, so the command runs with no
    # cap and restores the caller's after. Python 3.10 has no cap.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"kohncount: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 141  # the reader left: end quietly, as a SIGPIPE death would
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
