"""Spectrum enumeration and counting functions, cross-checked three ways:
divisor sums by trial division (``oracles.py``), a brute-force (p, q) lattice
sieve, and the literal per-m double loop on small inputs; at n = 2 and 3 also
against closed forms in the divisor sums sigma(m)."""

import io
import itertools
import math
import os
import sys
import time
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from kohncount import spectrum
from kohncount.spectrum import (
    PARALLEL_MIN_SQRT_X,
    CountingConvention,
    WorkLimitError,
    _TERM_BLOCK,
    _block_sums,
    _falling_factorial_sums,
    _multiplicities_by_runs,
    count_N,
    spectrum_table,
    write_spectrum_csv,
    write_spectrum_json,
)
from tests.oracles import (
    binomial,
    block_sums_by_maps,
    count_block_range,
    count_from_index_terms,
    count_index_range,
    count_linear_range,
    delta_M,
    divisor_sigma,
    eigenvalue,
    f_value,
    harmonic_dim,
    hpq_dim,
    index_term,
    multiplicities_by_divisors,
    multiplicity_sieve,
    spectrum_csv,
    spectrum_json,
    window_count,
)

PAPER = CountingConvention.PAPER_RESTRICTED
FULL = CountingConvention.FULL_SPECTRUM
# the smallest X at which count_N forks (isqrt(X) = PARALLEL_MIN_SQRT_X),
# and at n = 2 (twice that isqrt(X))
FORK_X = PARALLEL_MIN_SQRT_X**2
FORK_X_N2 = (2 * PARALLEL_MIN_SQRT_X) ** 2


# ---------------------------------------------------------------------------
# oracles


def delta_double_loop(n, m, conv):
    """Literal double loop over 0 <= p <= m, 1 <= q <= m."""
    p_floor = 1 if conv is PAPER else 0
    total = 0
    for p in range(0, m + 1):
        for q in range(1, m + 1):
            if 2 * q * (p + n - 1) == 2 * m and p >= p_floor:
                total += hpq_dim(n, p, q)
    return total


# ---------------------------------------------------------------------------
# dimensions and eigenvalues


def test_hpq_dim_examples():
    assert hpq_dim(2, 1, 1) == 3
    assert hpq_dim(2, 0, 0) == 1
    assert hpq_dim(7, 0, 0) == 1
    assert hpq_dim(5, 0, 1) == 5


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
@settings(derandomize=True, max_examples=200)
def test_hpq_dim_n2_cross_oracle(p, q):
    # for n = 2 the dimension collapses to p + q + 1
    assert hpq_dim(2, p, q) == p + q + 1


def test_hpq_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        hpq_dim(1, 0, 0)
    with pytest.raises(ValueError):
        hpq_dim(2, -1, 0)


def test_eigenvalue_examples():
    assert eigenvalue(2, 0, 1) == 2
    assert eigenvalue(3, 5, 0) == 0
    assert eigenvalue(5, 2, 3) == 36
    assert all(eigenvalue(4, p, 7) % 2 == 0 for p in range(10))


# ---------------------------------------------------------------------------
# reindexed dimension f


def test_f_value_examples():
    assert f_value(2, 3, 2) == 5
    assert f_value(2, 3, 2) == hpq_dim(2, 2, 2)
    assert f_value(5, 3, 1) == 0  # p < n-1 kills both products
    assert f_value(3, 2, 4) == 15
    assert f_value(3, 2, 4) == hpq_dim(3, 0, 4)


def test_f_value_matches_shifted_dimension():
    for n in range(2, 7):
        for p in range(n - 1, n + 12):
            for q in range(1, 12):
                assert f_value(n, p, q) == hpq_dim(n, p - n + 1, q)


def test_f_value_pascal_closure_at_boundary():
    # f(n-1, q) = dim H_{0,q}: C(q+n-2, n-1) + C(q+n-2, n-2) = C(q+n-1, n-1)
    for n in range(2, 9):
        for q in range(1, 101):
            assert f_value(n, n - 1, q) == hpq_dim(n, 0, q)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dimensions_match_the_operator_kernel(n):
    # dim H_{p,q} as the kernel of sum_j d/dz_j d/dzbar_j, for p + q <= K
    K = 8
    dims = {
        (p, q): harmonic_dim(n, p, q)
        for p in range(K + 1)
        for q in range(K + 1 - p)
    }
    for (p, q), dim in dims.items():
        assert dim == hpq_dim(n, p, q)
        if q >= 1:
            assert dim == f_value(n, p + n - 1, q)
    # the H_{0,q} family, which paper_restricted drops from the full count
    # by the closed form C(X//(n-1) + n, n) - 1
    for q in range(K + 1):
        assert dims[0, q] == math.comb(q + n - 1, n - 1)
    for X in range(K * (n - 1) + 1):
        gap = count_N(n, 2 * X, FULL) - count_N(n, 2 * X, PAPER)
        assert gap == sum(dims[0, q] for q in range(1, X // (n - 1) + 1))
    # every eigenvalue 2m <= 2K has all its (p, q) in dims: for q >= 1,
    # m = q(p+n-1) <= K implies p + q <= K
    for conv, p_floor in ((FULL, 0), (PAPER, 1)):
        mult = {}
        for (p, q), dim in dims.items():
            m = q * (p + n - 1)
            if q >= 1 and p >= p_floor and m <= K:
                mult[2 * m] = mult.get(2 * m, 0) + dim
        assert dict(spectrum_table(n, 2 * K, conv)) == mult


# ---------------------------------------------------------------------------
# eigenvalue multiplicities


def test_delta_M_examples():
    assert delta_M(2, 1, FULL) == 2
    assert delta_M(2, 1, PAPER) == 0
    assert delta_M(2, 2, FULL) == 6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_delta_M_against_sieve(n):
    m_max = 400
    for conv in (FULL, PAPER):
        table = multiplicity_sieve(n, m_max, conv)
        for m in range(1, m_max + 1):
            assert delta_M(n, m, conv) == table[m]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_delta_M_against_double_loop(n):
    for conv in (FULL, PAPER):
        for m in range(1, 61):
            assert delta_M(n, m, conv) == delta_double_loop(n, m, conv)


# ---------------------------------------------------------------------------
# counting function; M(x) = N(2x) counts the eigenvalues 2m with m <= x


def test_count_N_examples_at_even_lambda():
    assert count_N(2, 2 * 1, FULL) == 2
    assert count_N(2, 2 * 0.5, FULL) == 0
    assert count_N(2, 2 * 0.5, PAPER) == 0
    # frozen from the lattice sieve: Delta M(1..3) = 2, 6, 8
    assert count_N(2, 2 * 3, FULL) == sum(multiplicity_sieve(2, 3, FULL)) == 16


def test_count_N_transposition_identity():
    for n in (2, 3):
        for conv in (FULL, PAPER):
            cumulative = 0
            table = multiplicity_sieve(n, 240, conv)
            for x in range(1, 241):
                cumulative += table[x]
                assert count_N(n, 2 * x, conv) == cumulative
                assert count_N(n, 2 * (x + 0.7), conv) == cumulative


def test_count_block_equals_linear_range():
    for n in (2, 3, 6):
        for X in (1, 17, 400, 2311):
            for pmin in (n - 1, n):
                assert count_block_range(n, X, pmin, X) == count_linear_range(
                    n, X, pmin, X
                )


@given(
    st.integers(min_value=0, max_value=10**7),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([FULL, PAPER]),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_count_N_matches_block_oracle(X, n, conv):
    pmin = n if conv is PAPER else n - 1
    assert count_N(n, 2 * X, conv) == count_block_range(n, X, pmin, X)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10, 40, 100])
def test_count_N_matches_block_oracle_at_edges(n):
    # around the square s^2, where the column and row ranges meet, and every
    # X <= (n-1)^2 + 2n: around pmin, where the columns start, and where
    # isqrt(X) < n-2, so that lo = n-2, the rows at X//i = lo are empty and
    # X//lo clamps the last index j. At n = 100 only every 7th such X, where
    # the falling-factorial kernel carries its factors up to j; the carry-edge
    # test takes n = 100 at X = 10^6 and 10^7.
    step, squares = (7, ()) if n == 100 else (1, (1, 2, 3, n, 31, 1000, 3163))
    for conv, pmin in ((FULL, n - 1), (PAPER, n)):
        xs = list(range(0, (n - 1) ** 2 + 2 * n + 1, step))
        for s in squares:
            xs += [s * s - 1, s * s, s * s + 1, s * (s + 1), s * (s + 2)]
        for X in xs:
            assert count_N(n, 2 * X, conv) == count_block_range(n, X, pmin, X)


def test_count_N_deep_matches_block_oracle():
    for n, X in ((2, 10**9), (3, 10**10), (10, 10**9)):
        assert count_N(n, 2 * X, FULL) == count_block_range(n, X, n - 1, X)
        assert count_N(n, 2 * X, PAPER) == count_block_range(n, X, n, X)


@pytest.mark.parametrize("n", [2, 3, 10, 30])
def test_count_N_convention_gap_closed_form_deep(n):
    # full - paper = sum_{q <= X/(n-1)} C(q+n-1, n-1) = C(X//(n-1) + n, n) - 1,
    # which is how count_N drops the H_{0,q} family: this guards that one
    # subtraction. The binomial oracle, with its own pmin and loops, checks
    # the paper count on its own, and so, with the gap, the full count
    X = 10**11 if n <= 10 else 10**9  # each index step costs more at n = 30
    paper = count_N(n, 2 * X, PAPER)
    assert paper == count_index_range(n, X, n, 1, math.isqrt(X))
    gap = count_N(n, 2 * X, FULL) - paper
    assert gap == math.comb(X // (n - 1) + n, n) - 1


@pytest.mark.parametrize("n, b", [(2, 10**12), (3, 4 * 10**11 + 12345)])
def test_count_N_windows_beyond_1e11_match_divisor_sieve(n, b):
    # N(2b) - N(2a) over 10^4 values of m, against a sieve of each m's
    # divisor pairs; b = 10^12 = (10^6)^2 is a hyperbola edge at n = 2
    a = b - 10**4
    expected = window_count(n, a, b)
    for conv in (FULL, PAPER):
        assert count_N(n, 2 * b, conv) - count_N(n, 2 * a, conv) == expected[conv]


def kernel(n):
    """The kernel that ``count_N`` sums at n."""
    return _block_sums if n <= 3 else _falling_factorial_sums


def last_index(n, X):
    """j, the last index that ``count_N`` sums."""
    s = math.isqrt(X)
    return min(s, X // max(s, n - 2))


def term_sum(n, X, i_lo, i_hi):
    return sum(index_term(n, i, X // i) for i in range(i_lo, i_hi + 1))


@given(
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=2, max_value=8),
    st.lists(st.integers(min_value=0, max_value=10**3), max_size=6),
)
@settings(derandomize=True, max_examples=100, deadline=None)
def test_kernel_chunks_add_up(X, n, cuts):
    # the kernel over any split of [1, j] sums to the whole range, and each
    # part divides by n(n-1), so one division of the sum is exact
    j = last_index(n, X)
    bounds = sorted({1, j + 1, *(1 + c % (j + 1) for c in cuts)})
    parts = [kernel(n)(n, X, lo, hi - 1) for lo, hi in zip(bounds, bounds[1:])]
    assert sum(parts) == kernel(n)(n, X, 1, j)
    assert all(part % (n * (n - 1)) == 0 for part in parts)


@pytest.mark.parametrize("n", [2, 3, 10])
def test_kernels_match_block_oracle_at_loop_edges(n):
    # a second chunk that starts around the first non-zero column n-1, at
    # and after the last non-empty row X//(lo+1), at isqrt(X) and past j,
    # where it is empty
    for X in (n - 1, n, n + 1, 99, 100, 2000, 9999, 10000, 10001, 12345):
        s = math.isqrt(X)
        j = last_index(n, X)
        last_row = X // (max(s, n - 2) + 1)
        for cut in {n - 2, n - 1, n, last_row, last_row + 1, s}:
            if not 1 <= cut <= j + 1:
                continue
            chunks = [(1, cut - 1), (cut, j)]
            parts = [kernel(n)(n, X, *chunk) for chunk in chunks]
            assert parts == [term_sum(n, X, *chunk) for chunk in chunks]
            whole = count_from_index_terms(n, X, sum(parts))
            assert whole == count_block_range(n, X, n - 1, X)


@pytest.mark.parametrize("n", [2, 3])
def test_block_sums_equal_the_index_term(n):
    # one index gives T(i, X//i), up to i = 40 and past isqrt(X), where
    # X//i reaches 0; the empty range gives 0
    for X in (1, 2, 3, 10, 99, 1000, 12345, 10**6 + 1, 10**12, 2**61 - 1):
        for i in range(1, 41):
            assert _block_sums(n, X, i, i) == index_term(n, i, X // i)
            assert _block_sums(n, X, i, i - 1) == 0
    # ranges that end just before, at and just after the first block's end
    X = 10**10
    for i_lo in (1, 2, 3000):
        for i_hi in (_TERM_BLOCK - 1, _TERM_BLOCK, _TERM_BLOCK + 1):
            singles = (_block_sums(n, X, i, i) for i in range(i_lo, i_hi + 1))
            assert _block_sums(n, X, i_lo, i_hi) == sum(singles)


@given(
    n=st.sampled_from([2, 3]),
    X=st.integers((5 * _TERM_BLOCK) ** 2, 2**62),
    width=st.integers(2 * _TERM_BLOCK + 1, 5 * _TERM_BLOCK - 1),
    offset=st.integers(0, 2**62),
)
@example(n=2, X=2**62, width=2 * _TERM_BLOCK + 1, offset=0)
@example(n=3, X=(5 * _TERM_BLOCK) ** 2, width=3 * _TERM_BLOCK + 7, offset=8185)
@settings(max_examples=60, deadline=None)
def test_block_sums_match_the_map_pipelines(n, X, width, offset):
    # a range inside [1, isqrt(X)] of two to five blocks, so it crosses
    # several block ends and ends in a partial block (the second example ends
    # at isqrt(X)), and the empty range
    i_lo = 1 + offset % (math.isqrt(X) - width + 1)
    i_hi = i_lo + width - 1
    assert _block_sums(n, X, i_lo, i_hi) == block_sums_by_maps(n, X, i_lo, i_hi)
    assert _block_sums(n, X, i_lo, i_lo - 1) == 0
    assert block_sums_by_maps(n, X, i_lo, i_lo - 1) == 0


# a chunk's middle range (its indices with both a row and a column) of no
# index, of one, around one block, and of several blocks
BLOCK = _TERM_BLOCK
MIDDLE_SIZES = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]
MIN_SQRT_X = 4 * BLOCK  # room for every middle size


@given(
    st.integers(min_value=2, max_value=6),
    st.one_of(
        st.integers(min_value=MIN_SQRT_X, max_value=10**6).map(lambda s: s * s),
        st.integers(min_value=MIN_SQRT_X, max_value=10**6).map(lambda s: s * s - 1),
        st.integers(min_value=MIN_SQRT_X**2, max_value=10**12),
    ),
    st.sampled_from(MIDDLE_SIZES),
    st.booleans(),
    st.integers(min_value=0),
)
@settings(derandomize=True, max_examples=120, deadline=None)
def test_kernels_match_binomial_oracle(n, X, size, at_one, u):
    assert_chunk_matches_binomial_oracle(n, X, size, at_one, u)


def assert_chunk_matches_binomial_oracle(n, X, size, at_one, u):
    # the chunk [i_lo, i_hi] starts at 1 (with the zero columns of i < n-1)
    # or at a random column from n-1 on, ``size`` of its indices have both a
    # non-empty row and a non-zero column, and it runs on to isqrt(X) (the
    # index whose row is empty, if any) when those end at the last row
    pmin = n - 1
    s = math.isqrt(X)
    last_row = X // (max(s, n - 2) + 1)
    first = pmin if at_one else pmin + u % (last_row - pmin - size + 2)
    i_lo, i_hi = (1 if at_one else first), first + size - 1
    if i_hi == last_row:
        i_hi = s
    assert min(i_hi, last_row) - max(i_lo, pmin) + 1 == size
    assert kernel(n)(n, X, i_lo, i_hi) == term_sum(n, X, i_lo, i_hi)


# a chunk's middle range of k (n-1) + c indices for (k, c) below: of none,
# of one, around the ring of the last n-1 values of B(i) in
# ``_falling_factorial_sums``, around two turns of it, and of 700
RING_SIZES = [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 0), (2, 3), (0, 700)]


@given(
    st.integers(min_value=4, max_value=40),
    st.one_of(
        st.integers(min_value=1000, max_value=10**6).map(lambda s: s * s),
        st.integers(min_value=1000, max_value=10**6).map(lambda s: s * s - 1),
        st.integers(min_value=10**6, max_value=10**12),
    ),
    st.sampled_from(RING_SIZES),
    st.booleans(),
    st.integers(min_value=0),
)
@settings(derandomize=True, max_examples=120, deadline=None)
def test_falling_factorial_sums_match_binomial_oracle(n, X, ring, at_one, u):
    # the falling-factorial loop of n >= 4 against the terms in binomials
    k, c = ring
    assert_chunk_matches_binomial_oracle(n, X, k * (n - 1) + c, at_one, u)


@pytest.mark.parametrize("n, X", [(100, 10**6), (100, 10**7), (300, 10**7)])
def test_falling_factorial_sums_match_oracles_at_carry_edges(n, X):
    # _falling_factorial_sums carries its factors from index i-1 to i while
    # d = X//(i-1) - X//i <= (n-1)//4 and recomputes them past that and at a
    # chunk's first index. Second chunks start where d is the cut-off and the
    # cut-off + 1, at the last index that recomputes, and just after it,
    # where a serial run carries.
    cut = (n - 1) // 4
    s = math.isqrt(X)
    d = {i: X // (i - 1) - X // i for i in range(n, s + 1)}
    at_cut = min(i for i in d if d[i] == cut)
    past_cut = max(i for i in d if d[i] == cut + 1)
    last_recompute = max(i for i in d if d[i] > cut)
    starts = {at_cut, at_cut + 1, past_cut, last_recompute, last_recompute + 1}
    terms = [0, *(index_term(n, i, X // i) for i in range(1, s + 1))]
    whole = count_block_range(n, X, n - 1, X)
    for start in sorted(starts):
        chunks = [(1, start - 1), (start, s)]
        parts = [_falling_factorial_sums(n, X, *chunk) for chunk in chunks]
        assert parts == [sum(terms[lo : hi + 1]) for lo, hi in chunks]
        assert count_from_index_terms(n, X, sum(parts)) == whole


def test_falling_factorial_sums_carry_where_q_moves_little(monkeypatch):
    # F and R are recomputed, by two perm(., n-1) calls, at the first index
    # and where d = X//(i-1) - X//i > (n-1)//4, and carried by three shorter
    # perm calls at every other index; recomputing everywhere gives the same
    # sums at a higher cost
    n, X = 100, 10**7
    cut, s = (n - 1) // 4, math.isqrt(X)
    recomputes = 1 + sum(X // (i - 1) - X // i > cut for i in range(2, s + 1))
    lengths = []
    perm = math.perm

    def counted(x, k):
        lengths.append(k)
        return perm(x, k)

    monkeypatch.setattr(math, "perm", counted)
    _falling_factorial_sums(n, X, 1, s)
    assert lengths.count(n - 1) == 2 * recomputes
    assert len(lengths) == 2 * recomputes + 3 * (s - recomputes)


def test_count_N_convention_gap():
    # full - paper = sum_{q <= x/(n-1)} dim H_{0,q}
    for n in (2, 3, 5):
        for x in (10, 99, 500):
            gap = count_N(n, 2 * x, FULL) - count_N(n, 2 * x, PAPER)
            expected = sum(
                hpq_dim(n, 0, q) for q in range(1, math.floor(x / (n - 1)) + 1)
            )
            assert gap == expected


def test_count_N_examples():
    assert count_N(2, 2, FULL) == 2
    assert count_N(5, 0, FULL) == 0
    assert count_N(5, 0, PAPER) == 0
    assert count_N(2, 4, FULL) == 8


@given(st.floats(min_value=0, max_value=500), st.floats(min_value=0, max_value=500))
@settings(derandomize=True, max_examples=60)
def test_count_N_monotone_and_step(lam1, lam2):
    lo, hi = sorted((lam1, lam2))
    a = count_N(2, lo, FULL)
    b = count_N(2, hi, FULL)
    assert a <= b
    assert a == count_N(2, 2 * math.floor(lo / 2), FULL)


def test_count_N_parallel_matches_serial():
    # a real fork-join starts at X = FORK_X
    for conv in (FULL, PAPER):
        serial = count_N(3, 2 * FORK_X, conv, workers=1)
        parallel = count_N(3, 2 * FORK_X, conv, workers=2)
        assert serial == parallel


@pytest.mark.parametrize(
    "workers, cpus, expected", [(100_000, 2, 2), (3, 8, 3), (5, None, 1)]
)
def test_count_N_caps_processes_at_cpu_count(monkeypatch, workers, cpus, expected):
    # Where the OS has no affinity mask, os.cpu_count() caps the processes.
    # A stand-in for the fork-join records the chunks and runs them in this
    # process, so no large number of processes is ever started. When the cap
    # leaves one process, the plan is one chunk, [(1, isqrt(X))], as it is
    # for the count with workers = 1. X = FORK_X is the smallest X at which
    # the plan has more than one chunk at all.
    seen = []

    def in_process(kernel, chunks):
        seen.append(list(chunks))
        return sum(kernel(lo, hi) for lo, hi in chunks)

    monkeypatch.setattr(spectrum, "_fork_join", in_process)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    X = FORK_X
    s = math.isqrt(X)
    assert count_N(3, 2 * X, FULL, workers=workers) == count_N(3, 2 * X, FULL)
    assert [len(chunks) for chunks in seen] == [expected, 1]
    assert seen[1] == [(1, s)]
    chunks = seen[0]  # contiguous, of equal width, covering [1, isqrt(X)]
    assert [lo for lo, _ in chunks[1:]] == [hi + 1 for _, hi in chunks[:-1]]
    assert chunks[0][0] == 1 and chunks[-1][1] == s
    widths = [hi - lo for lo, hi in chunks]
    assert max(widths) - min(widths) <= 1


def forbid_fork(monkeypatch):
    def no_fork():
        raise AssertionError("process forked")

    monkeypatch.setattr(os, "fork", no_fork)


def test_count_N_caps_processes_at_cpu_affinity(monkeypatch):
    # os.cpu_count() counts every CPU of the machine; a process that may run
    # on one CPU only counts serially and forks nothing
    forbid_fork(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for conv in (FULL, PAPER):
        assert count_N(3, 2 * FORK_X, conv, workers=2) == count_N(3, 2 * FORK_X, conv)


def test_count_N_stays_serial_below_fork_cut_off(monkeypatch):
    # below isqrt(X) = PARALLEL_MIN_SQRT_X (at n = 2, twice that) a fork
    # costs more than it saves
    forbid_fork(monkeypatch)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    for n, X in ((3, FORK_X - 1), (10, FORK_X - 1), (2, FORK_X_N2 - 1)):
        for conv in (FULL, PAPER):
            assert count_N(n, 2 * X, conv, workers=2) == count_N(n, 2 * X, conv)


def test_count_N_forks_at_the_cut_off(monkeypatch):
    # the smallest X that forks at n = 2 and at n = 3 and 10; a stand-in
    # for the fork-join records the chunks and runs them in this process.
    # There j = isqrt(X): workers = 2 cuts [1, j] in two, and workers = 1
    # plans the one chunk [(1, j)]
    seen = []

    def in_process(kernel, chunks):
        seen.append(list(chunks))
        return sum(kernel(lo, hi) for lo, hi in chunks)

    monkeypatch.setattr(spectrum, "_fork_join", in_process)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    expected = []
    for n, X in ((2, FORK_X_N2), (3, FORK_X), (10, FORK_X)):
        assert count_N(n, 2 * X, PAPER, workers=2) == count_N(n, 2 * X, PAPER)
        j = math.isqrt(X)
        expected += [[(1, j // 2), (j // 2 + 1, j)], [(1, j)]]
    assert seen == expected


@pytest.mark.parametrize(
    "n, X", [(2, FORK_X_N2 - 1), (3, FORK_X - 1), (10, FORK_X - 1)]
)
@pytest.mark.parametrize("conv", [FULL, PAPER], ids=["full", "paper"])
def test_count_N_one_chunk_plan_never_forks(monkeypatch, n, X, conv):
    # one isqrt(X) below the cut-off, workers = 2 plans one chunk: it is
    # summed in this process, with no fork, no pipe and no look at the CPU
    # count, to the count of the binomial oracle
    def refuse(*args):
        raise AssertionError("a one-chunk plan forked, piped or read the CPUs")

    for name in ("fork", "pipe"):
        monkeypatch.setattr(os, name, refuse)
    monkeypatch.setattr(spectrum, "_usable_cpus", refuse)
    pmin = n if conv is PAPER else n - 1
    expected = count_index_range(n, X, pmin, 1, math.isqrt(X))
    assert count_N(n, 2 * X, conv, workers=2) == expected


def test_count_N_runs_serially_without_fork(monkeypatch):
    # where os.fork does not exist, --workers gives the serial count
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    for conv in (FULL, PAPER):
        assert count_N(3, 2 * FORK_X, conv, workers=2) == count_N(3, 2 * FORK_X, conv)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "value",
    [2**100000, -(2**100000), -(2 ** (2**20))],
    ids=["2^100000", "-2^100000", "-2^2^20"],
)
def test_fork_join_returns_big_values(value):
    # 2^100000 has 30103 digits, far past the 4300-digit limit of int <-> str,
    # and 2^(2^20) takes 128 KiB, more than a pipe holds before it is read
    chunks = [(0, 0), (1, 1), (2, 2)]
    assert spectrum._fork_join(lambda lo, hi: lo * value, chunks) == 3 * value
    assert_no_child_left()


def test_count_N_raises_when_a_child_fails(monkeypatch, capfd):
    parent = os.getpid()

    def failing(n, X, i_lo, i_hi):
        if os.getpid() != parent:
            raise RuntimeError("the child's kernel fails")
        return _block_sums(n, X, i_lo, i_hi)

    monkeypatch.setattr(spectrum, "_block_sums", failing)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    with pytest.raises(ChildProcessError, match="exited with 1"):
        count_N(3, 2 * FORK_X, FULL, workers=2)
    assert_no_child_left()
    assert "RuntimeError: the child's kernel fails" in capfd.readouterr().err


def test_fork_join_kills_children_when_the_parent_fails():
    def kernel(lo, hi):
        if lo == 0:
            raise RuntimeError("the parent's kernel fails")
        time.sleep(30)
        return 0

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="parent's kernel"):
        spectrum._fork_join(kernel, [(0, 0), (1, 1)])
    assert time.monotonic() - t0 < 10
    assert_no_child_left()


def test_count_N_rejects_negative():
    with pytest.raises(ValueError):
        count_N(2, 2 * -1, FULL)
    with pytest.raises(ValueError):
        count_N(2, -0.5, FULL)


@pytest.mark.parametrize("workers", [0, -3, 1.5, "2"])
def test_count_N_rejects_workers_below_one(monkeypatch, workers):
    # checked before any work, even when the count is trivially zero, and
    # for a value that is not an integer as for one below 1
    if isinstance(workers, int):
        message = "workers must be >= 1"
    else:
        message = "workers must be an integer"
    forbid_fork(monkeypatch)
    monkeypatch.setattr(spectrum, "_usable_cpus", lambda: 2)
    for n, lam, conv in [(2, 1, FULL), (3, 10**6, PAPER), (3, 2 * FORK_X, FULL)]:
        with pytest.raises(ValueError, match=message):
            count_N(n, lam, conv, workers=workers)


@pytest.mark.parametrize(
    "lam, X",
    [
        (2**54 + 2, 2**53 + 1),  # lam / 2 as a float rounds to 2^53
        (2**54 + 3, 2**53 + 1),
        (Fraction(2**54 + 5, 2), 2**52 + 1),
        (12.5, 6),
        # beyond the largest float: finite, and never converted to one
        pytest.param(10**400, 10**400 // 2, id="int-1e400"),
        pytest.param(Fraction(10**400 + 1, 3), (10**400 + 1) // 6, id="fraction-1e400"),
    ],
)
def test_count_N_floors_lambda_exactly(monkeypatch, lam, X):
    # the kernel is handed X = floor(lam) // 2, computed without a float;
    # the cap on index steps is lifted, as the 10^400 cases are far beyond it
    monkeypatch.setattr(spectrum, "MAX_INDEX_STEPS", math.inf)
    seen = []

    def record(n, X, i_lo, i_hi):
        seen.append(X)
        return 0

    monkeypatch.setattr(spectrum, "_block_sums", record)
    count_N(2, lam, FULL)
    assert seen == [X]


# ---------------------------------------------------------------------------
# n = 2 and 3 from the divisor sums sigma(m)

SIGMA_M = 2 * 10**5


@pytest.fixture(scope="module")
def sigma():
    return divisor_sigma(SIGMA_M)


def sigma_multiplicity(n, m, sigma, conv):
    """The multiplicity of 2m at n = 2 or 3 from sigma(m): 2 sigma(m) and
    (m-1) sigma(m) on the full spectrum, less the divisor p = n-1 on the
    paper's, dim H_{0,q} for q = m/(n-1): m + 1, and C(m/2 + 2, 2) for even
    m. It reads 0 for m < pmin."""
    if n == 2:
        full, dropped = 2 * sigma[m], m + 1
    else:
        full, dropped = (m - 1) * sigma[m], math.comb(m // 2 + 2, 2) * (m % 2 == 0)
    return full - dropped if conv is PAPER else full


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("conv", [FULL, PAPER])
def test_count_N_matches_sigma_closed_forms(n, conv, sigma):
    # N at 2X and at the odd 2X + 1 sums the multiplicities of m <= X: at
    # n = 2, 2 sum sigma(m) on the full spectrum, and at n = 3
    # sum (m-1) sigma(m); X < n-1 included
    mult = (sigma_multiplicity(n, m, sigma, conv) for m in range(1, SIGMA_M + 1))
    counts = [0, *itertools.accumulate(mult)]
    for X in [*range(300), *range(300, SIGMA_M, 97), SIGMA_M]:
        assert count_N(n, 2 * X, conv) == count_N(n, 2 * X + 1, conv) == counts[X]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("conv", [FULL, PAPER])
def test_count_N_counts_up_to_the_index_step_cap(monkeypatch, n, conv, sigma):
    # with a cap of 400 steps, X = 400^2 and 401^2 - 1 take j = isqrt(X) =
    # 400 of them and still count; X = 401^2 takes 401 and raises before
    # the kernel runs
    monkeypatch.setattr(spectrum, "MAX_INDEX_STEPS", 400)
    for X in (400**2, 401**2 - 1):
        expected = sum(sigma_multiplicity(n, m, sigma, conv) for m in range(1, X + 1))
        assert count_N(n, 2 * X, conv) == expected
    monkeypatch.setattr(spectrum, "_block_sums", None)
    with pytest.raises(WorkLimitError, match=r"^count needs more than 400 index "):
        count_N(n, 2 * 401**2, conv, workers=2)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("conv", [FULL, PAPER])
def test_spectrum_table_matches_sigma_closed_forms(n, conv, sigma):
    pmin = n if conv is PAPER else n - 1
    mult = [sigma_multiplicity(n, m, sigma, conv) for m in range(1, SIGMA_M + 1)]
    assert not any(mult[: pmin - 1])
    expected = zip(range(2 * pmin, 2 * SIGMA_M + 1, 2), mult[pmin - 1 :])
    assert spectrum_table(n, 2 * SIGMA_M + 1, conv) == list(expected)


# ---------------------------------------------------------------------------
# spectrum tables


def test_spectrum_table_examples():
    assert spectrum_table(2, 4, FULL) == [(2, 2), (4, 6)]
    assert spectrum_table(2, 4, PAPER) == [(4, 3)]
    assert spectrum_table(5, 2, FULL) == []
    assert spectrum_table(5, 2, PAPER) == []


@pytest.mark.parametrize("n", [2, 3, 20])
@pytest.mark.parametrize("conv", [FULL, PAPER])
def test_spectrum_table_rows_are_plain_int_pairs(n, conv):
    # a list of exact tuples, not a tuple subclass, each of two exact ints
    table = spectrum_table(n, 2000, conv)
    assert type(table) is list and table
    assert all(type(row) is tuple and len(row) == 2 for row in table)
    assert all(type(ev) is int and type(mult) is int for ev, mult in table)
    pmin = n if conv is PAPER else n - 1
    if pmin > 1:  # below the first eigenvalue 2 pmin; n = 2, full has none
        empty = spectrum_table(n, 2 * pmin - 1, conv)
        assert type(empty) is list and empty == []


# up to n = 40, where each run adds n-1 orders of many-digit differences
@pytest.mark.parametrize("n", [2, 3, 5, 8, 9, 12, 20, 40])
def test_spectrum_table_matches_divisor_sums(n):
    for conv in (FULL, PAPER):
        table = dict(spectrum_table(n, 801, conv))
        expected = {2 * m: delta_M(n, m, conv) for m in range(1, 401)}
        assert table == {ev: mult for ev, mult in expected.items() if mult}


def test_spectrum_table_consistent_with_count():
    for n, lam_max, conv in ((2, 60, FULL), (3, 100, PAPER), (4, 80, FULL)):
        entries = spectrum_table(n, lam_max, conv)
        eigenvalues = [ev for ev, _ in entries]
        assert eigenvalues == sorted(eigenvalues)
        assert all(mult > 0 for _, mult in entries)
        assert sum(mult for _, mult in entries) == count_N(n, lam_max, conv)


@given(
    # M <= 3000 past n = 12, where each value of a run costs n-1 additions
    st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, 10**4 if n <= 12 else 3000))
    ),
    st.sampled_from([FULL, PAPER]),
)
# around the squares s^2, where the rows q <= s hand over to the columns
@example((2, 99), FULL)
@example((3, 100), PAPER)
@example((5, 110), FULL)
@example((4, 3), FULL)  # s = 1: one row and no column
@example((2, 6), PAPER)  # s = 2, M = s^2 + s: the last column has one value
@example((7, 960), PAPER)
@example((11, 961), FULL)
@example((6, 992), PAPER)
@example((20, 399), FULL)  # s = pmin = 19: one column, p = 19
@example((20, 400), PAPER)
@example((20, 420), FULL)
@example((40, 1599), FULL)  # s = pmin = 39: one column, p = 39
@example((40, 1600), PAPER)
@example((40, 1681), FULL)
# before and at pmin, where the table starts
@example((5, 4), PAPER)
@example((5, 3), FULL)
@example((8, 8), PAPER)
@example((8, 7), FULL)
@example((2, 1), FULL)
@example((20, 19), PAPER)
@example((20, 20), PAPER)
@example((20, 19), FULL)
@example((40, 39), PAPER)
@example((40, 40), PAPER)
@example((40, 38), FULL)
@example((40, 39), FULL)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_multiplicity_runs_match_divisor_loop(n_M, conv):
    n, M = n_M
    pmin = n if conv is PAPER else n - 1
    table = spectrum_table(n, 2 * M + 1, conv)
    if M < pmin:
        assert table == []
        return
    runs = _multiplicities_by_runs(n, M, pmin)
    assert runs == multiplicities_by_divisors(n, M, pmin)
    assert table == list(zip(range(2 * pmin, 2 * M + 1, 2), runs))


def test_spectrum_table_rejects_small_lambda_max():
    with pytest.raises(ValueError):
        spectrum_table(2, 1.5, FULL)


@pytest.mark.parametrize("conv", [FULL, PAPER], ids=["full", "paper"])
@pytest.mark.parametrize(
    "function, bound, message",
    [
        (count_N, -1, "lambda must be >= 0"),
        (count_N, -math.inf, "lambda must be >= 0"),
        (count_N, math.inf, "lambda must be finite"),
        (count_N, math.nan, "lambda must be finite"),
        (spectrum_table, 1, "lambda_max must be >= 2"),
        (spectrum_table, -math.inf, "lambda_max must be >= 2"),
        (spectrum_table, math.inf, "lambda_max must be finite"),
        (spectrum_table, math.nan, "lambda_max must be finite"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_bounds_outside_their_range_are_refused(conv, function, bound, message):
    # the least bound first, so -inf reads as too small; then, for a float,
    # finiteness
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(2, bound, conv)


@pytest.mark.parametrize("n", [2, 12])
@pytest.mark.parametrize(
    "lambda_max",
    [2 * sys.maxsize, 10**30, Fraction(10**400, 3), float(2**64)],
    ids=["2maxsize", "int-1e30", "fraction-1e400", "float-2^64"],
)
def test_spectrum_table_rejects_lambda_max_past_any_list(n, lambda_max):
    # M = sys.maxsize and above, far past the entry cap: the table is refused
    # before any list is built, at a low and a high n, and a Fraction beyond
    # the float range is never converted to a float
    with pytest.raises(WorkLimitError, match=r"^spectrum needs more than 16777216 "):
        spectrum_table(n, lambda_max, FULL)


@pytest.mark.parametrize("n", [2, 12])
@pytest.mark.parametrize("conv", [FULL, PAPER])
def test_spectrum_table_lists_up_to_the_entry_cap(monkeypatch, n, conv):
    # with a cap of 400 entries, lambda_max = 801 (M = 400) builds the same
    # table as with no cap; 802 (M = 401) raises before any run is added
    expected = spectrum_table(n, 801, conv)
    assert expected[-1][0] == 800
    monkeypatch.setattr(spectrum, "MAX_TABLE_ENTRIES", 400)
    assert spectrum_table(n, 801, conv) == expected
    monkeypatch.setattr(spectrum, "_multiplicities_by_runs", None)
    with pytest.raises(WorkLimitError, match=r"^spectrum needs more than 400 entr"):
        spectrum_table(n, 802, conv)


def test_spectrum_csv_round_trip():
    entries = spectrum_table(3, 120, FULL)
    buf = io.StringIO()
    write_spectrum_csv(entries, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "eigenvalue,multiplicity,cumulative"
    running = 0
    for line, (ev, mult) in zip(lines[1:], entries):
        running += mult
        assert line == f"{ev},{mult},{running}"
    assert len(lines) == len(entries) + 1


class CountingStream(io.StringIO):
    """A text stream that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@given(
    st.integers(min_value=2, max_value=6),
    st.sampled_from([FULL, PAPER]),
    st.floats(min_value=2, max_value=3000),
)
@example(5, FULL, 2.0)  # an empty table
@example(5, PAPER, 9.5)  # an empty table
@example(2, FULL, 20000.0)  # 10000 rows: three write blocks
@settings(derandomize=True, max_examples=40, deadline=None)
def test_writers_match_csv_and_json_modules(n, conv, lam_max):
    entries = spectrum_table(n, lam_max, conv)
    blocks = -(-len(entries) // spectrum.WRITE_BLOCK_ROWS)
    for delimiter in (",", " "):
        stream = CountingStream()
        write_spectrum_csv(entries, stream, delimiter=delimiter)
        assert stream.getvalue() == spectrum_csv(entries, delimiter)
        assert stream.writes == 1 + blocks
    header = {"n": n, "convention": conv.value, "lambda_max": lam_max}
    stream = CountingStream()
    write_spectrum_json(entries, stream, header)
    assert stream.getvalue() == spectrum_json(entries, header)
    assert stream.writes == 2 + blocks
