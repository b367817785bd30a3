"""Exact point spectrum of the Kohn Laplacian on functions on S^{2n-1}.

Eigenvalues are 2q(p+n-1) over bidegrees (p, q) with q >= 1; multiplicities
are dimensions of the spherical-harmonic spaces H_{p,q}. Counting functions
are evaluated in exact integer arithmetic under two conventions that differ
in whether the boundary eigenspaces H_{0,q} are included (``full_spectrum``)
or dropped by the p >= n divisor restriction (``paper_restricted``).
"""

from __future__ import annotations

import csv
import enum
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .exact import binomial

__all__ = [
    "CountingConvention",
    "SpectrumEntry",
    "validate_sphere_n",
    "hpq_dim",
    "eigenvalue",
    "count_M",
    "count_N",
    "spectrum_table",
    "write_spectrum_csv",
    "read_spectrum_csv",
]


class CountingConvention(enum.Enum):
    """Divisor-restriction convention for the counting functions.

    ``PAPER_RESTRICTED`` sums f(p, q) over divisors p >= n, which drops the
    H_{0,q} eigenspaces; ``FULL_SPECTRUM`` keeps every eigenspace with q >= 1
    (divisors p >= n-1).
    """

    PAPER_RESTRICTED = "paper_restricted"
    FULL_SPECTRUM = "full_spectrum"

    @classmethod
    def from_name(cls, name: str) -> "CountingConvention":
        key = name.strip().lower()
        aliases = {
            "paper": cls.PAPER_RESTRICTED,
            "paper_restricted": cls.PAPER_RESTRICTED,
            "paper-restricted": cls.PAPER_RESTRICTED,
            "full": cls.FULL_SPECTRUM,
            "full_spectrum": cls.FULL_SPECTRUM,
            "full-spectrum": cls.FULL_SPECTRUM,
        }
        try:
            return aliases[key]
        except KeyError:
            raise ValueError(f"unknown convention {name!r}") from None


@dataclass(frozen=True)
class SpectrumEntry:
    eigenvalue: int
    multiplicity: int


def validate_sphere_n(n: int) -> int:
    """Sphere parameter n for S^{2n-1} in C^n; the formulas need n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("sphere parameter n must be an integer >= 2")
    return n


def hpq_dim(n: int, p: int, q: int) -> int:
    """dim H_{p,q}(S^{2n-1}) for bidegree (p, q), both >= 0.

    C(n+p-1, p) C(n+q-1, q) - C(n+p-2, p-1) C(n+q-2, q-1); the zero-binomial
    conventions make p = 0 and q = 0 come out right.
    """
    validate_sphere_n(n)
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be >= 0")
    return binomial(n + p - 1, p) * binomial(n + q - 1, q) - binomial(
        n + p - 2, p - 1
    ) * binomial(n + q - 2, q - 1)


def eigenvalue(n: int, p: int, q: int) -> int:
    """Eigenvalue 2q(p+n-1) on the bidegree-(p, q) harmonics."""
    validate_sphere_n(n)
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be >= 0")
    return 2 * q * (p + n - 1)


def _divisor_floor(conv: CountingConvention, n: int) -> int:
    return n if conv is CountingConvention.PAPER_RESTRICTED else n - 1


def _count_block_range(n: int, X: int, p_lo: int, p_hi: int) -> int:
    """Sum of f(p, q) over p in [p_lo, p_hi], q <= X//p, exactly.

    f(p, q) = C(p-1, n-2) C(q+n-2, n-1) + C(p, n-1) C(q+n-2, n-2); for
    p >= n-1 it equals dim H_{p-n+1, q}. Iterates the O(sqrt X) blocks on
    which Q = X//p is constant and collapses each block's p-sum with a second
    hockey-stick identity, so both loops of the transposed double sum are in
    closed form.
    """
    total = 0
    p = p_lo
    while p <= p_hi:
        Q = X // p
        p2 = min(X // Q, p_hi)
        # Collapsed inner q-sums: A(Q) = sum_{q<=Q} C(q+n-2, n-1) = C(Q+n-1, n)
        # and B(Q) = sum_{q<=Q} C(q+n-2, n-2) = C(Q+n-1, n-1) - 1 (hockey stick).
        A = math.comb(Q + n - 1, n)
        B = math.comb(Q + n - 1, n - 1) - 1
        # sum_{p'=p}^{p2} C(p'-1, n-2) and sum_{p'=p}^{p2} C(p', n-1)
        s1 = math.comb(p2, n - 1) - math.comb(p - 1, n - 1)
        s2 = math.comb(p2 + 1, n) - math.comb(p, n)
        total += A * s1 + B * s2
        p = p2 + 1
    return total


def count_M(
    n: int,
    x: float,
    conv: CountingConvention,
    workers: int = 1,
) -> int:
    """M(x) = number of eigenvalues <= 2x, exactly.

    Transposed form of the cumulative divisor sum: sum over p >= n (or n-1)
    of the collapsed inner q-sum with q <= floor(x)/p. With ``workers`` > 1
    the p-range is partitioned and partial sums are combined; integer
    addition makes the result identical to the serial run. At most one
    process per CPU runs the chunks.
    """
    validate_sphere_n(n)
    if x < 0:
        raise ValueError("x must be >= 0")
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    X = math.floor(x)
    pmin = _divisor_floor(conv, n)
    if X < pmin:
        return 0
    if workers <= 1 or X - pmin < 1024:
        return _count_block_range(n, X, pmin, X)
    bounds = [pmin + (X - pmin + 1) * i // workers for i in range(workers + 1)]
    chunks = [
        (n, X, lo, hi - 1) for lo, hi in zip(bounds, bounds[1:]) if lo < hi
    ]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
        partials = pool.map(_count_chunk, chunks)
        return sum(partials)


def _count_chunk(args: tuple[int, int, int, int]) -> int:
    return _count_block_range(*args)


def count_N(n: int, lam: float, conv: CountingConvention, workers: int = 1) -> int:
    """N(lambda) = number of positive eigenvalues <= lambda, with multiplicity.

    Equals M(lambda/2) since every eigenvalue is an even integer. The zero
    eigenvalue (q = 0, the infinite-dimensional space of CR functions) is
    never counted.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    return count_M(n, lam / 2, conv, workers=workers)


def spectrum_table(
    n: int, lambda_max: float, conv: CountingConvention
) -> list[SpectrumEntry]:
    """All (eigenvalue, multiplicity) pairs with 0 < eigenvalue <= lambda_max.

    The multiplicity of 2m is the sum of f(p, m/p) over divisors p of m with
    p >= n (paper_restricted) or p >= n-1 (full_spectrum). One sieve over the
    (p, q) pairs with pq <= M = lambda_max/2 adds every f(p, q) to its m,
    in O(M log M) steps.
    """
    validate_sphere_n(n)
    if lambda_max < 2:
        raise ValueError("lambda_max must be >= 2")
    if not math.isfinite(lambda_max):
        raise ValueError("lambda_max must be finite")
    M = math.floor(lambda_max / 2)
    pmin = _divisor_floor(conv, n)
    q_max = M // pmin
    # C(q+n-2, n-1) and C(q+n-2, n-2) for q = 1..q_max
    A = [math.comb(q + n - 2, n - 1) for q in range(1, q_max + 1)]
    B = [math.comb(q + n - 2, n - 2) for q in range(1, q_max + 1)]
    mult = [0] * (M + 1)
    for p in range(pmin, M + 1):
        a, b = math.comb(p - 1, n - 2), math.comb(p, n - 1)
        for m, A_q, B_q in zip(range(p, M + 1, p), A, B):
            mult[m] += a * A_q + b * B_q
    return [
        SpectrumEntry(eigenvalue=2 * m, multiplicity=mult[m])
        for m in range(1, M + 1)
        if mult[m] > 0
    ]


def write_spectrum_csv(
    entries: Sequence[SpectrumEntry], stream: TextIO, delimiter: str = ","
) -> None:
    """CSV export: header ``eigenvalue,multiplicity,cumulative``, ascending.

    Every field is an integer, so no field is ever quoted; ``delimiter=" "``
    gives the plain-text table.
    """
    writer = csv.writer(stream, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["eigenvalue", "multiplicity", "cumulative"])
    cumulative = 0
    for entry in entries:
        cumulative += entry.multiplicity
        writer.writerow([entry.eigenvalue, entry.multiplicity, cumulative])


def read_spectrum_csv(stream: Iterable[str]) -> list[SpectrumEntry]:
    reader = csv.reader(stream)
    header = next(reader)
    if header != ["eigenvalue", "multiplicity", "cumulative"]:
        raise ValueError(f"unexpected spectrum CSV header: {header}")
    return [
        SpectrumEntry(eigenvalue=int(ev), multiplicity=int(mult))
        for ev, mult, _ in reader
    ]
