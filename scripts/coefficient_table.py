#!/usr/bin/env python3
"""Tabulate the leading coefficient of N(lambda)/lambda^n across n.

Prints the exact closed form (a rational polynomial in pi^2), its decimal
value, and the certified-series cross-check gap, for both counting
conventions.

Usage:
    python scripts/coefficient_table.py --n-max 12
"""

import argparse

from kohncount.asymptotics import (
    leading_coefficient_closed,
    leading_coefficient_series,
)
from kohncount.exact import format_significant
from kohncount.spectrum import CountingConvention


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--eps", type=float, default=1e-12)
    parser.add_argument("--digits", type=int, default=30)
    args = parser.parse_args()

    for conv in CountingConvention:
        print(f"== convention: {conv.value}")
        for n in range(2, args.n_max + 1):
            closed = leading_coefficient_closed(n, conv, digits=args.digits)
            series = leading_coefficient_series(
                n, args.eps, conv, digits=args.digits
            )
            gap = abs(float(closed.value) - float(series.value))
            print(
                f"n={n:2d}  {format_significant(closed.value, 20):>24}"
                f"  series gap {gap:.1e} (K={series.truncation_K})"
            )
            print(f"       = {closed.exact.to_string()}")
        print()


if __name__ == "__main__":
    main()
