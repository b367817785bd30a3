#!/usr/bin/env python3
"""Remainder-term study: how fast does N(lambda)/lambda^n reach its limit?

For each n and each counting convention, sweeps lambda geometrically, writes
the remainder profile CSV, and prints the normalized residuals together with
the cross-convention residuals. The matching constant keeps the normalized
column bounded; the mismatched one grows like lambda/ln(lambda), which is
what discriminates the two conventions empirically.

Usage:
    python scripts/convergence_study.py --n 2 3 --lambda-max 262144 --out-dir results
"""

import argparse
import math
import os
from fractions import Fraction

from kohncount.asymptotics import (
    leading_coefficient_closed,
    remainder_profile,
    write_profile_csv,
)
from kohncount.spectrum import CountingConvention


def sweep(start: float, stop: float) -> list[float]:
    lams = []
    v = start
    while v <= stop * (1 + 1e-9):
        lams.append(v)
        v *= 2
    return lams


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--lambda-min", type=float, default=256.0)
    parser.add_argument("--lambda-max", type=float, default=262144.0)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    lams = sweep(args.lambda_min, args.lambda_max)

    for n in args.n:
        constants = {
            conv: leading_coefficient_closed(n, conv)
            for conv in CountingConvention
        }
        for conv in CountingConvention:
            profile = remainder_profile(n, lams, conv)
            path = os.path.join(
                args.out_dir, f"profile_n{n}_{conv.value}.csv"
            )
            with open(path, "w") as fh:
                write_profile_csv(profile, fh)
            other = (
                CountingConvention.FULL_SPECTRUM
                if conv is CountingConvention.PAPER_RESTRICTED
                else CountingConvention.PAPER_RESTRICTED
            )
            print(f"n={n} counts={conv.value}  (profiles -> {path})")
            print(f"  fitted C against own constant: {profile.fitted_C:.4f}")
            c_other = constants[other].value
            mismatched = [
                float(s.count - c_other * Fraction(s.lam) ** n)
                / (s.lam ** (n - 1) * math.log(s.lam))
                for s in profile.samples
            ]
            print(
                f"  normalized residual vs {other.value} constant: "
                f"{mismatched[0]:.1f} -> {mismatched[-1]:.1f} (unbounded)"
            )


if __name__ == "__main__":
    main()
