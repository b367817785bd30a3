"""Command-line front end: spectrum tables, counting, coefficients, profiles.

Subcommands: ``spectrum``, ``count``, ``coeff``, ``converge``, ``weyl``.
Exit codes: 0 success, 2 usage/validation error, 3 requested series
precision unattainable under the term cap. All output is deterministic:
identical flags produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from fractions import Fraction

from . import asymptotics, spectrum
from .asymptotics import (
    CoefficientReport,
    PrecisionUnattainableError,
    closed_scale,
    report_to_record,
)
from .spectrum import CountingConvention

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kohncount",
        description=(
            "Exact spectrum and Weyl-type leading coefficient of the Kohn "
            "Laplacian on the sphere S^(2n-1)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, convention_default="full"):
        p.add_argument("--n", type=int, required=True, help="sphere parameter n >= 2")
        p.add_argument(
            "--convention",
            choices=["paper", "full", "both"],
            default=convention_default,
            help="divisor restriction: paper (p >= n) or full (p >= n-1)",
        )
        p.add_argument("--format", choices=["csv", "json", "text"], default="text")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("spectrum", help="tabulate (eigenvalue, multiplicity) pairs")
    add_common(p)
    p.add_argument("--lambda-max", type=float, required=True, dest="lambda_max")

    p = sub.add_parser("count", help="evaluate the counting function N(lambda)")
    add_common(p)
    p.add_argument("--lambda", type=float, required=True, dest="lam")
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("coeff", help="leading coefficient of N(lambda)/lambda^n")
    add_common(p, convention_default="both")
    p.add_argument(
        "--method",
        choices=["series", "closed", "empirical", "all"],
        default="all",
    )
    p.add_argument("--eps", type=float, default=1e-12, help="series tolerance")
    p.add_argument(
        "--precision", type=int, default=50, help="evaluation precision in digits"
    )
    p.add_argument(
        "--lambda",
        type=float,
        default=2e5,
        dest="lam",
        help="sample point for the empirical method",
    )

    p = sub.add_parser("converge", help="remainder profile over a lambda sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--convention", choices=["paper", "full"], default="full"
    )
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


def parse_lambda_spec(spec: str) -> list[float]:
    """Parse ``--lambdas``: a comma list, a single value, or START:STOP:STEP
    where STEP is xFACTOR (geometric) or +INCREMENT (arithmetic)."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed lambda range {spec!r}")
        start, stop = float(parts[0]), float(parts[1])
        step = parts[2].strip()
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"lambda range {spec!r} must be finite")
        if start <= 0 or stop < start or not step:
            raise ValueError(f"malformed lambda range {spec!r}")
        values = []
        if step.startswith("x"):
            factor = float(step[1:])
            if factor <= 1:
                raise ValueError("geometric factor must be > 1")
            v = start
            while v <= stop * (1 + 1e-9):
                values.append(v)
                v *= factor
        elif step.startswith("+"):
            increment = float(step[1:])
            if increment <= 0:
                raise ValueError("arithmetic step must be > 0")
            v = start
            while v <= stop * (1 + 1e-9):
                values.append(v)
                v += increment
        else:
            raise ValueError(f"malformed lambda step {step!r}")
        return values
    return [float(part) for part in spec.split(",") if part.strip()]


def _conventions(name: str) -> list[CountingConvention]:
    if name == "both":
        return [CountingConvention.PAPER_RESTRICTED, CountingConvention.FULL_SPECTRUM]
    return [CountingConvention.from_name(name)]


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)
    return 0


def _csv(header: list[str], rows, out: str | None) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return _emit(buf.getvalue(), out)


def _json(payload: dict, out: str | None) -> int:
    return _emit(json.dumps(payload, indent=2) + "\n", out)


def _factored_string(report: CoefficientReport) -> str:
    scale = closed_scale(report.n)
    inner = report.exact * Fraction(scale)
    return f"1/{scale} * ({inner.to_string()})"


def _report_text(report: CoefficientReport, record: dict) -> str:
    lines = [
        f"n = {report.n}",
        f"convention = {report.convention.value}",
        f"method = {report.method}",
    ]
    if report.exact is not None:
        lines.append(f"exact = {record['exact']}")
        lines.append(f"factored = {_factored_string(report)}")
    lines.append(f"value = {record['value']}")
    lines.append(f"error_bound = {report.error_bound!r}")
    if report.truncation_K is not None:
        lines.append(f"K = {report.truncation_K}")
    if report.lam is not None:
        lines.append(f"lambda = {report.lam!r}")
    return "\n".join(lines)


def cmd_spectrum(args) -> int:
    conv = CountingConvention.from_name(args.convention)
    entries = spectrum.spectrum_table(args.n, args.lambda_max, conv)
    if args.format == "json":
        cumulative = itertools.accumulate(e.multiplicity for e in entries)
        payload = {
            "n": args.n,
            "convention": conv.value,
            "lambda_max": args.lambda_max,
            "entries": [
                dict(eigenvalue=e.eigenvalue, multiplicity=e.multiplicity, cumulative=c)
                for e, c in zip(entries, cumulative)
            ],
        }
        return _json(payload, args.out)
    # the text table is the csv file with spaces for commas
    buf = io.StringIO()
    delimiter = "," if args.format == "csv" else " "
    spectrum.write_spectrum_csv(entries, buf, delimiter=delimiter)
    return _emit(buf.getvalue(), args.out)


def cmd_count(args) -> int:
    conv = CountingConvention.from_name(args.convention)
    count = spectrum.count_N(args.n, args.lam, conv, workers=args.workers)
    if args.format == "json":
        payload = {
            "n": args.n,
            "lambda": args.lam,
            "convention": conv.value,
            "count": count,
        }
        return _json(payload, args.out)
    if args.format == "csv":
        row = [args.n, repr(args.lam), conv.value, count]
        return _csv(["n", "lambda", "convention", "count"], [row], args.out)
    return _emit(f"{count}\n", args.out)


def _coeff_reports(args, conv: CountingConvention) -> list[CoefficientReport]:
    methods = (
        ["series", "closed", "empirical"] if args.method == "all" else [args.method]
    )
    reports = []
    for method in methods:
        if method == "series":
            reports.append(
                asymptotics.leading_coefficient_series(
                    args.n, eps=args.eps, conv=conv, digits=args.precision
                )
            )
        elif method == "closed":
            reports.append(
                asymptotics.leading_coefficient_closed(
                    args.n, conv, digits=args.precision
                )
            )
        else:
            reports.append(
                asymptotics.empirical_report(
                    args.n, args.lam, conv, digits=args.precision
                )
            )
    return reports


def cmd_coeff(args) -> int:
    all_reports: list[CoefficientReport] = []
    gaps: dict[str, float] = {}
    for conv in _conventions(args.convention):
        reports = _coeff_reports(args, conv)
        all_reports.extend(reports)
        for i, r1 in enumerate(reports):
            for r2 in reports[i + 1 :]:
                key = f"{conv.value}:{r1.method}_vs_{r2.method}"
                gaps[key] = abs(float(r1.value) - float(r2.value))
    records = [report_to_record(r) for r in all_reports]
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
    conv = CountingConvention.from_name(args.convention)
    lambdas = parse_lambda_spec(args.lambdas)
    profile = asymptotics.remainder_profile(args.n, lambdas, conv)
    buf = io.StringIO()
    asymptotics.write_profile_csv(profile, buf)
    return _emit(buf.getvalue(), args.out)


def cmd_weyl(args) -> int:
    normalization = args.normalization.replace("-", "_")
    poly = asymptotics.weyl_ball_constant(args.n, normalization)
    exact = poly.to_string()
    if args.format == "json":
        import mpmath

        payload = {
            "n": args.n,
            "normalization": normalization,
            "exact": exact,
            "value": mpmath.nstr(asymptotics.pipoly_eval(poly), 50, strip_zeros=False),
        }
        return _json(payload, args.out)
    if args.format == "csv":
        row = [args.n, normalization, exact]
        return _csv(["n", "normalization", "exact"], [row], args.out)
    return _emit(exact + "\n", args.out)


HANDLERS = {
    "spectrum": cmd_spectrum,
    "count": cmd_count,
    "coeff": cmd_coeff,
    "converge": cmd_converge,
    "weyl": cmd_weyl,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return HANDLERS[args.command](args)
    except PrecisionUnattainableError as exc:
        print(f"kohncount: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"kohncount: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
