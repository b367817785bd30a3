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
import sys
from typing import (
    TYPE_CHECKING,
    BinaryIO,
    Callable,
    Iterator,
    NamedTuple,
    NoReturn,
    Sequence,
    TextIO,
)

if TYPE_CHECKING:
    from fractions import Fraction

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
# a second process costs more than it saves. At n = 2, whose kernel takes the
# least time per index, that holds up to twice as far (both measured on
# 2 cores).
PARALLEL_MIN_SQRT_X = 2**14

# Indices per block of ``_block_sums``
_TERM_BLOCK = 4096


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


def _count_index_range(n: int, X: int, i_lo: int, i_hi: int) -> int:
    """Part of the sum of f(p, q) over pq <= X, q >= 1, exactly: the full
    spectrum.

    f(p, q) = a(p) A(q) + b(p) B(q) with a(p) = C(p-1, n-2), b(p) = C(p, n-1),
    A(q) = C(q+n-2, n-1) and B(q) = C(q+n-2, n-2); for p >= n-1 it equals
    dim H_{p-n+1, q}, and for 1 <= p <= n-2 both a(p) and b(p) vanish, so the
    sum needs no lower bound on p. Dirichlet hyperbola method with
    s = isqrt(X) and lo = max(s, n-2): the index i in [1, s] stands for the
    column p = i (every q <= X//i) and the row q = i (lo < p <= X//i). These
    cover each lattice point once, and this sums the columns and rows of i
    in [i_lo, i_hi], a subrange of [1, s], with Q = X//i and its linear
    factor computed once for the pair: by ``_block_sums`` for n <= 3
    and ``_falling_factorial_sums`` from n = 4 on. A row with Q = lo is
    empty, and its numerator cancels its share of ``rest`` exactly, so the
    call runs to j = min(i_hi, X//lo), which is i_hi when lo = s. When
    lo = n-2 > s, every index past j has an empty row and a zero column;
    the clamp keeps X//i >= n-2 over the call, as the carry of
    ``_falling_factorial_sums`` needs.
    """
    comb = math.comb
    m = n - 1
    lo = max(math.isqrt(X), n - 2)
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
    # and column i adds a(i) D L; together they add T(i, Q).
    j = min(i_hi, X // lo)
    sums = _block_sums if n <= 3 else _falling_factorial_sums
    acc = sums(n, X, i_lo, j)
    rest = comb(lo, m) * (comb(j + m, n) - comb(i_lo + n - 2, n))
    rest += comb(lo + 1, n) * (comb(j + m, m) - comb(i_lo + n - 2, m))
    rest += comb(j + 1, n) - comb(i_lo, n)
    return acc // (n * m) - rest


def _block_sums(n: int, X: int, i_lo: int, i_hi: int) -> int:
    """The sum of T(i, X//i) over i in [i_lo, i_hi], for n = 2 and 3, where
    the term is a short formula in i and Q = X//i:

        n = 2: T = 2 (Q (Q + 2i + 1) + i),
        n = 3: T = Q ((Q + 1)(2iQ + 3i^2 + i - 3) - 6i) + 6 C(i, 2).

    Each block of up to ``_TERM_BLOCK`` indices sums the parts with Q in C:
    its Q by ``map``, the factors linear in i as ``range``s, 3i^2 + i - 3 as
    a ``_run``, ``map`` of ``operator.mul``, ``add`` and ``sub``, and
    ``sum``. The parts in i alone add up in closed form over the whole
    range; the empty range [i_lo, i_lo - 1] gives 0.
    """
    mul, add, sub = operator.mul, operator.add, operator.sub
    total = 0
    for x in range(i_lo, i_hi + 1, _TERM_BLOCK):
        y = min(x + _TERM_BLOCK, i_hi + 1)
        Qs = list(map(X.__floordiv__, range(x, y)))
        if n == 2:
            v = map(mul, map(add, Qs, range(2 * x + 1, 2 * y, 2)), Qs)
        else:
            w = _run([3 * x * x + x - 3, 6 * x + 4, 6], y - x)
            v = map(add, map(mul, Qs, range(2 * x, 2 * y, 2)), w)
            v = map(mul, v, map(add, Qs, itertools.repeat(1)))
            v = map(mul, map(sub, v, range(6 * x, 6 * y, 6)), Qs)
        total += sum(v)
    if n == 2:
        return 2 * total + (i_lo + i_hi) * (i_hi - i_lo + 1)
    return total + 6 * (math.comb(i_hi + 1, 3) - math.comb(i_lo, 3))


def _falling_factorial_sums(n: int, X: int, i_lo: int, i_hi: int) -> int:
    """The sum of T(i, X//i) over i in [i_lo, i_hi], one Python step per
    index, for n >= 4 and a subrange of [1, isqrt(X)] with X//i_hi >= n-2.
    Below i = n-1 the ring holds C(x, m-1) = 0 for 0 <= x < m-1, so a(i)
    reads 0 there.

    With m = n-1, T = B(i) C(Q, m) (L + m) + a(i) C(Q+m, m) L. The loop takes
    the falling factorials F = m! C(Q, m) and R = m! C(Q+m, m) instead, so
    m! divides every term, and divides the sum once at the end; it adds
    (B F + a R) L and B F apart, and m times the second at the end. B(i) is
    updated in place, and a(i) = B(i-m) is read back from a ring of the last
    m values of B. When Q falls by d = Q_prev - Q <= m // 4 from the last
    index, F and R are carried by d factors each instead of recomputed from
    m factors; past that cut-off (about where the two cost the same,
    measured on 2 cores) and at i_lo they are recomputed.
    """
    perm, comb = math.perm, math.comb
    m = n - 1
    cut = m // 4
    w = comb(i_lo + m - 1, m - 1)  # B(i), updated in place
    ring = [comb(t + m - 1, m - 1) for t in range(i_lo - m, i_lo)]
    total = multiple = F = R = 0
    Q_prev = X // i_lo + cut + 1  # out of carrying reach of the first Q
    for i, r in zip(range(i_lo, i_hi + 1), itertools.cycle(range(m))):
        Q = X // i
        d = Q_prev - Q
        if d > cut:
            F, R = perm(Q, m), perm(Q + m, m)
        else:
            P = perm(Q_prev, d)
            F = F * perm(Q_prev - m, d) // P
            R = R * P // perm(Q_prev + m, d)
        Q_prev = Q
        a = ring[r]  # B(i - m)
        ring[r] = w
        t = w * F
        multiple += t
        total += (t + a * R) * (m * Q + n * i)
        w = w * (i + m) // (i + 1)
    return (total + m * multiple) // math.factorial(m)


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
    The kernel counts the full spectrum; ``paper_restricted`` then drops the
    column p = n-1, the H_{0,q} family, in closed form: dim H_{0,q} =
    C(q+n-1, n-1) sums to C(X//(n-1) + n, n) - 1 over q <= X//(n-1).
    The Dirichlet hyperbola method takes about isqrt(X) index steps, in one
    of two kernels chosen by n: up to n = 3 the steps add a short formula
    in i and X//i, summed in C a block of indices at a time
    (``_block_sums``); from n = 4 on, where that form is no faster,
    each step is a Python iteration over falling factorials, carried from
    the last index when X//i moves little (``_falling_factorial_sums``).
    With ``workers`` > 1 the count runs in one process per worker, at most
    one per CPU that this process may use: the index range [1, isqrt(X)] is
    split into one chunk of equal width per process, this process counts the
    first, and a child forked for each other chunk sends back its part.
    Integer addition makes the result identical to the serial run; a failed
    child makes this raise ``ChildProcessError``. The count is serial when that
    leaves one process, when isqrt(X) is below ``PARALLEL_MIN_SQRT_X`` (at
    n = 2, twice that), or where ``os.fork`` does not exist. Forking is
    unsafe in a process that runs threads, so call it there with ``workers``
    = 1.
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
    if X < n - 1:
        return 0
    s = math.isqrt(X)
    procs = min(workers, _usable_cpus()) if hasattr(os, "fork") else 1
    if procs == 1 or s < PARALLEL_MIN_SQRT_X * (2 if n == 2 else 1):
        N = _count_index_range(n, X, 1, s)
    else:
        bounds = [1 + s * k // procs for k in range(procs + 1)]
        kernel = functools.partial(_count_index_range, n, X)
        N = _fork_join(kernel, [(b, c - 1) for b, c in zip(bounds, bounds[1:])])
    if conv is CountingConvention.PAPER_RESTRICTED:
        N -= math.comb(X // (n - 1) + n, n) - 1  # sum of dim H_{0,q}
    return N


def spectrum_table(
    n: int, lambda_max: int | float | Fraction, conv: CountingConvention
) -> list[SpectrumEntry]:
    """All (eigenvalue, multiplicity) pairs with 0 < eigenvalue <= lambda_max.

    The multiplicity of 2m is the sum of f(p, m/p) over divisors p of m with
    p >= n (paper_restricted) or p >= n-1 (full_spectrum), for m up to
    M = floor(lambda_max) // 2. Every m >= pmin has the divisor pair
    (m, 1), and no m < pmin has one, so the table lists exactly m in
    [pmin, M]. The pairs pq <= M are added as about 2 isqrt(M) polynomial
    runs (``_multiplicities_by_runs``). A lambda_max with M >= sys.maxsize
    raises ``ValueError`` before any work: no list that long can exist.
    """
    validate_sphere_n(n)
    if lambda_max < 2:
        raise ValueError("lambda_max must be >= 2")
    if isinstance(lambda_max, float) and not math.isfinite(lambda_max):
        raise ValueError("lambda_max must be finite")
    M = math.floor(lambda_max) // 2
    if M >= sys.maxsize:
        raise ValueError(f"lambda_max must be less than {2 * sys.maxsize}")
    pmin = n if conv is CountingConvention.PAPER_RESTRICTED else n - 1
    if M < pmin:
        return []
    mult = _multiplicities_by_runs(n, M, pmin)
    # tuple.__new__ makes each entry in C; SpectrumEntry(ev, m) would run
    # the named tuple's Python-level __new__ once per entry
    entry = functools.partial(tuple.__new__, SpectrumEntry)
    return list(map(entry, zip(range(2 * pmin, 2 * M + 1, 2), mult)))


def _run(diffs: list[int], length: int) -> Iterator[int]:
    """The first ``length`` values of an integer polynomial of degree
    d = len(diffs) - 1 at consecutive points, from its forward differences
    Delta^0 .. Delta^d at the first point. The polynomial needs degree
    d >= 1 and a positive leading coefficient: then Delta^d is a constant > 0,
    so the Delta^(d-1) values are a ``range``; each ``accumulate`` below sums
    one order of differences back up, all in C."""
    *lower, first, step = diffs
    values = range(first, first + step * length, step)
    for d in reversed(lower):
        values = itertools.accumulate(values, initial=d)
    return itertools.islice(values, length)


def _add_run(mult: list[int], sl: slice, diffs: list[int]) -> None:
    """Add to ``mult[sl]`` the run with the forward differences ``diffs``."""
    old = mult[sl]
    mult[sl] = map(operator.add, old, _run(diffs, len(old)))


def _multiplicities_by_runs(n: int, M: int, pmin: int) -> list[int]:
    """The multiplicities of m = pmin..M, for M >= pmin, from the hyperbola
    split of the pairs pq <= M with s = isqrt(M): the rows q <= s
    (p = pmin..M//q) and the columns p <= M//(s+1) (q = s+1..M//p).

    Along a row, f(p, q) = a(p) A(q) + b(p) B(q) is a polynomial of degree
    n-1 in p, and along a column one in q. By Delta C(x, r) = C(x, r-1) its
    k-th forward difference at p = pmin is A(q) C(pmin-1, n-2-k) +
    B(q) C(pmin, n-1-k), and at q = s+1 it is a(p) C(s+n-1, n-1-k) +
    b(p) C(s+n-1, n-2-k). ``_run`` turns those into the run's values. The
    row q = 1 makes the list, and every other run is added into the strided
    slice of its m, whose length is the run's.
    """
    comb = math.comb
    s = math.isqrt(M)

    def binomials(x: int, top: int) -> list[int]:
        # C(x, top - k) for k = 0..n-1, and 0 where top - k < 0
        return [comb(x, top - k) if k <= top else 0 for k in range(n)]

    alpha, beta = binomials(pmin - 1, n - 2), binomials(pmin, n - 1)
    gamma, delta = binomials(s + n - 1, n - 1), binomials(s + n - 1, n - 2)

    def row(q: int) -> list[int]:
        A, B = comb(q + n - 2, n - 1), comb(q + n - 2, n - 2)
        return [A * x + B * y for x, y in zip(alpha, beta)]

    mult = list(_run(row(1), M - pmin + 1))
    for q in range(2, min(s, M // pmin) + 1):
        _add_run(mult, slice(pmin * q - pmin, None, q), row(q))
    for p in range(pmin, M // (s + 1) + 1):
        a, b = comb(p - 1, n - 2), comb(p, n - 1)
        column = [a * x + b * y for x, y in zip(gamma, delta)]
        _add_run(mult, slice(p * (s + 1) - pmin, None, p), column)
    return mult


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
