"""Exact point spectrum of the Kohn Laplacian on functions on S^{2n-1}.

Eigenvalues are 2q(p+n-1) over bidegrees (p, q) with q >= 1; multiplicities
are dimensions of the spherical-harmonic spaces H_{p,q}. The counting
function is evaluated in exact integer arithmetic under two conventions that
differ in whether the boundary eigenspaces H_{0,q} are included
(``full_spectrum``) or dropped by the p >= n divisor restriction
(``paper_restricted``).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import os
from fractions import Fraction
from typing import BinaryIO, Callable, Iterator, NamedTuple, NoReturn, Sequence, TextIO

__all__ = [
    "CountingConvention",
    "SpectrumEntry",
    "validate_sphere_n",
    "count_N",
    "spectrum_table",
    "write_spectrum_csv",
    "write_spectrum_json",
]

# Rows per ``write()`` call of the table writers. Unbuffered stdout
# (PYTHONUNBUFFERED=1) passes each call straight to the OS, so a write per row
# would cost a system call per row.
WRITE_BLOCK_ROWS = 4096

# ``count_N`` runs serially below this isqrt(X): there, on two cores, forking
# a second process costs more than it saves.
PARALLEL_MIN_SQRT_X = 2**14


class CountingConvention(enum.Enum):
    """Divisor-restriction convention for the counting functions.

    ``PAPER_RESTRICTED`` sums f(p, q) over divisors p >= n, which drops the
    H_{0,q} eigenspaces; ``FULL_SPECTRUM`` keeps every eigenspace with q >= 1
    (divisors p >= n-1).
    """

    PAPER_RESTRICTED = "paper_restricted"
    FULL_SPECTRUM = "full_spectrum"


class SpectrumEntry(NamedTuple):
    eigenvalue: int
    multiplicity: int


def validate_sphere_n(n: int) -> int:
    """Sphere parameter n for S^{2n-1} in C^n; the formulas need n >= 2."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("sphere parameter n must be an integer >= 2")
    return n


def _divisor_floor(conv: CountingConvention, n: int) -> int:
    return n if conv is CountingConvention.PAPER_RESTRICTED else n - 1


def _count_index_range(n: int, X: int, pmin: int, i_lo: int, i_hi: int) -> int:
    """Part of the sum of f(p, q) over pq <= X, p >= pmin, q >= 1, exactly.

    f(p, q) = a(p) A(q) + b(p) B(q) with a(p) = C(p-1, n-2), b(p) = C(p, n-1),
    A(q) = C(q+n-2, n-1) and B(q) = C(q+n-2, n-2); for p >= n-1 it equals
    dim H_{p-n+1, q}. Dirichlet hyperbola method with s = isqrt(X) and
    lo = max(s, pmin-1): the index i in [1, s] stands for the column p = i
    (every q <= X//i, when i >= pmin) and the row q = i (lo < p <= X//i).
    These cover each lattice point once, and this sums the columns and rows
    of i in [i_lo, i_hi], a subrange of [1, s]. One loop takes the indices
    whose row and column are both non-empty, with Q = X//i and its linear
    factor computed once for the pair; before it come the rows of i < pmin
    (at most n-1), after it the columns past the last row (at most one).
    """
    comb = math.comb
    m = n - 1
    lo = max(math.isqrt(X), pmin - 1)
    # Every row and column sum is an integer of the form (weight * big
    # binomial * linear factor) / (n(n-1)) minus a part that does not depend
    # on X//i. The numerators go to ``acc``, divided once at the end; the
    # other parts are hockey-stick sums, collected in ``rest``.
    # Rows: over lo < p <= Q = X//i, a(p) sums to C(Q, n-1) - C(lo, n-1) and
    # b(p) to C(Q+1, n) - C(lo+1, n) = C(Q, n-1) (Q+1)/n - C(lo+1, n); also
    # A(i) = B(i) i/(n-1). The row is empty once Q <= lo.
    # Columns: over q <= Q = X//i, A(q) sums to C(Q+n-1, n) = D Q/n with
    # D = C(Q+n-1, n-1) and B(q) to D - 1; also b(i) = a(i) i/(n-1).
    # With L = (n-1)Q + n i, row i adds B(i) C(Q, n-1) (L + n-1) to ``acc``
    # and column i adds a(i) D L.
    acc = rest = 0
    j = min(i_hi, X // (lo + 1))  # the last non-empty row
    k = max(i_lo, pmin)  # the first column
    w = comb(i_lo + n - 2, n - 2)  # B(i), updated in place
    for i in range(i_lo, min(j, k - 1) + 1):
        Q = X // i
        acc += w * comb(Q, m) * (m * Q + n * i + m)
        w = w * (i + m) // (i + 1)
    a = comb(k - 1, n - 2)  # a(i), updated in place
    for i in range(k, j + 1):
        Q = X // i
        L = m * Q + n * i
        acc += w * comb(Q, m) * (L + m) + a * comb(Q + m, m) * L
        w = w * (i + m) // (i + 1)
        a = a * i // (i - n + 2)
    for i in range(max(k, j + 1), i_hi + 1):
        Q = X // i
        acc += a * comb(Q + m, m) * (m * Q + n * i)
        a = a * i // (i - n + 2)
    if i_lo <= j:
        rest += comb(lo, m) * (comb(j + m, n) - comb(i_lo + n - 2, n))
        rest += comb(lo + 1, n) * (comb(j + m, m) - comb(i_lo + n - 2, m))
    if k <= i_hi:
        rest += comb(i_hi + 1, n) - comb(k, n)
    return acc // (n * m) - rest


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has
    one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_join(
    kernel: Callable[[int, int], int], chunks: Sequence[tuple[int, int]]
) -> int:
    """The sum of ``kernel(lo, hi)`` over ``chunks``, one process per chunk.

    This process computes the first chunk while a forked child computes each
    other one and sends its value down a pipe as signed little-endian bytes.
    A child always leaves through ``os._exit``, so it never returns into the
    caller's stack. If any child fails, this raises ``ChildProcessError``
    rather than return a partial sum. On every exit all pipe ends are closed
    and every child is reaped; a child still running is killed first.
    """
    pids: list[int] = []  # children not yet reaped
    pipes: list[BinaryIO] = []  # the read end of each child's pipe, in order
    try:
        for lo, hi in chunks[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    _send_and_exit(w, kernel, lo, hi)
            finally:
                os.close(w)
            pids.append(pid)
        total = kernel(*chunks[0])
        for pipe, pid in zip(pipes, list(pids)):
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise ChildProcessError(f"counting process {pid} exited with {code}")
            total += int.from_bytes(data, "little", signed=True)
        return total
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _send_and_exit(
    w: int, kernel: Callable[[int, int], int], lo: int, hi: int
) -> NoReturn:
    """In a forked child: write ``kernel(lo, hi)`` to the pipe end ``w`` and
    exit, with status 0 on success and 1 on any error, after its traceback."""
    status = 1
    try:
        v = kernel(lo, hi)
        with open(w, "wb") as pipe:
            pipe.write(v.to_bytes(v.bit_length() // 8 + 1, "little", signed=True))
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(status)


def count_N(
    n: int,
    lam: int | float | Fraction,
    conv: CountingConvention,
    workers: int = 1,
) -> int:
    """N(lambda) = number of positive eigenvalues <= lambda, with multiplicity.

    Every eigenvalue is an even integer 2m, so this is the cumulative divisor
    sum of f(p, q) over pq <= X = floor(lambda) // 2, p >= n (or n-1); X is
    exact for ``int``, ``Fraction`` and ``float`` lambda. The zero eigenvalue
    (q = 0, the infinite-dimensional space of CR functions) is never counted.
    The Dirichlet hyperbola method takes about isqrt(X) steps of equal cost.
    With ``workers`` > 1 the count runs in one process per worker, at most
    one per CPU that this process may use: the index range [1, isqrt(X)] is
    split into one chunk of equal width per process, this process counts the
    first, and a child forked for each other chunk sends back its part.
    Integer addition makes the result identical to the serial run; a failed
    child makes this raise ``ChildProcessError``. The count is serial when that
    leaves one process, when isqrt(X) is below ``PARALLEL_MIN_SQRT_X``, or
    where ``os.fork`` does not exist. Forking is unsafe in a process that
    runs threads, so call it there with ``workers`` = 1.
    """
    validate_sphere_n(n)
    try:
        workers = operator.index(workers)
    except TypeError:
        raise ValueError(f"workers must be an integer, not {workers!r}") from None
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if isinstance(lam, float) and not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    X = math.floor(lam) // 2
    pmin = _divisor_floor(conv, n)
    if X < pmin:
        return 0
    s = math.isqrt(X)
    procs = min(workers, _usable_cpus()) if hasattr(os, "fork") else 1
    if procs == 1 or s < PARALLEL_MIN_SQRT_X:
        return _count_index_range(n, X, pmin, 1, s)
    bounds = [1 + s * k // procs for k in range(procs + 1)]
    kernel = functools.partial(_count_index_range, n, X, pmin)
    return _fork_join(kernel, [(b, c - 1) for b, c in zip(bounds, bounds[1:])])


def spectrum_table(
    n: int, lambda_max: int | float | Fraction, conv: CountingConvention
) -> list[SpectrumEntry]:
    """All (eigenvalue, multiplicity) pairs with 0 < eigenvalue <= lambda_max.

    The multiplicity of 2m is the sum of f(p, m/p) over divisors p of m with
    p >= n (paper_restricted) or p >= n-1 (full_spectrum). One sieve over the
    (p, q) pairs with pq <= M = floor(lambda_max) // 2 adds every f(p, q) to
    its m, in O(M log M) steps. Every m >= pmin has the divisor pair
    (m, 1), and no m < pmin has one, so the table lists exactly m in
    [pmin, M].
    """
    validate_sphere_n(n)
    if lambda_max < 2:
        raise ValueError("lambda_max must be >= 2")
    if not math.isfinite(lambda_max):
        raise ValueError("lambda_max must be finite")
    M = math.floor(lambda_max) // 2
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
    return list(map(SpectrumEntry, range(2 * pmin, 2 * M + 1, 2), mult[pmin:]))


def _write_blocks(stream: TextIO, lines: Iterator[str]) -> None:
    while block := "".join(itertools.islice(lines, WRITE_BLOCK_ROWS)):
        stream.write(block)


def write_spectrum_csv(
    entries: Sequence[SpectrumEntry], stream: TextIO, delimiter: str = ","
) -> None:
    """CSV export: header ``eigenvalue,multiplicity,cumulative``, ascending.

    Every field is an integer, so no field is ever quoted; ``delimiter=" "``
    gives the plain-text table.
    """
    d = delimiter
    stream.write(f"eigenvalue{d}multiplicity{d}cumulative\n")
    cumulative = itertools.accumulate(m for _, m in entries)
    rows = (f"{ev}{d}{m}{d}{c}\n" for (ev, m), c in zip(entries, cumulative))
    _write_blocks(stream, rows)


def write_spectrum_json(
    entries: Sequence[SpectrumEntry], stream: TextIO, header: dict
) -> None:
    """JSON export: the bytes of ``json.dumps(payload, indent=2) + "\\n"``.

    ``payload`` is ``header`` followed by ``"entries"``, a list of objects
    with keys eigenvalue, multiplicity and cumulative. The header scalars go
    through ``json.dumps``; the entries, all integers, are formatted directly.
    """
    import json

    stream.write(
        "{\n"
        + "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n" for k, v in header.items())
        + '  "entries": ['
    )
    cumulative = itertools.accumulate(m for _, m in entries)
    separators = itertools.chain(["\n"], itertools.repeat(",\n"))
    items = (
        f'{sep}    {{\n      "eigenvalue": {ev},\n      "multiplicity": {m},'
        f'\n      "cumulative": {c}\n    }}'
        for sep, (ev, m), c in zip(separators, entries, cumulative)
    )
    _write_blocks(stream, items)
    stream.write("\n  ]\n}\n" if entries else "]\n}\n")
