"""Spectrum enumeration and counting functions, cross-checked three ways:
divisor sums by trial division (``oracles.py``), a brute-force (p, q) lattice
sieve, and the literal per-m double loop on small inputs."""

import concurrent.futures
import io
import math
import os

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from kohncount.spectrum import (
    CountingConvention,
    SpectrumEntry,
    _count_block_range,
    count_M,
    count_N,
    eigenvalue,
    hpq_dim,
    read_spectrum_csv,
    spectrum_table,
    write_spectrum_csv,
)
from tests.oracles import count_linear_range, delta_M, f_value

PAPER = CountingConvention.PAPER_RESTRICTED
FULL = CountingConvention.FULL_SPECTRUM


# ---------------------------------------------------------------------------
# oracles


def multiplicity_sieve(n, m_max, conv):
    """delta M table by looping every (p, q) pair with q(p+n-1) <= m_max."""
    table = [0] * (m_max + 1)
    p_floor = 1 if conv is PAPER else 0
    for p in range(p_floor, m_max + 2):
        step = p + n - 1
        if step > m_max:
            break
        for q in range(1, m_max // step + 1):
            table[q * step] += hpq_dim(n, p, q)
    return table


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
# counting functions


def test_count_M_examples():
    assert count_M(2, 1, FULL) == 2
    assert count_M(2, 0.5, FULL) == 0
    assert count_M(2, 0.5, PAPER) == 0
    # frozen from the lattice sieve: Delta M(1..3) = 2, 6, 8
    assert count_M(2, 3, FULL) == sum(multiplicity_sieve(2, 3, FULL)) == 16


def test_count_M_transposition_identity():
    for n in (2, 3):
        for conv in (FULL, PAPER):
            cumulative = 0
            table = multiplicity_sieve(n, 240, conv)
            for x in range(1, 241):
                cumulative += table[x]
                assert count_M(n, x, conv) == cumulative
                assert count_M(n, x + 0.7, conv) == cumulative


def test_count_block_equals_linear_range():
    for n in (2, 3, 6):
        for X in (1, 17, 400, 2311):
            for pmin in (n - 1, n):
                assert _count_block_range(n, X, pmin, X) == count_linear_range(
                    n, X, pmin, X
                )


def test_count_M_convention_gap():
    # full - paper = sum_{q <= x/(n-1)} dim H_{0,q}
    for n in (2, 3, 5):
        for x in (10, 99, 500):
            gap = count_M(n, x, FULL) - count_M(n, x, PAPER)
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


def test_count_M_parallel_matches_serial():
    for conv in (FULL, PAPER):
        serial = count_M(3, 20000, conv, workers=1)
        parallel = count_M(3, 20000, conv, workers=2)
        assert serial == parallel


@pytest.mark.parametrize(
    "workers, cpus, expected", [(100_000, 2, 2), (3, 8, 3), (5, None, 1)]
)
def test_count_M_caps_pool_at_cpu_count(monkeypatch, workers, cpus, expected):
    # A fake pool records max_workers and runs the chunks in this process, so
    # no large number of processes is ever started.
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert count_M(3, 5000, FULL, workers=workers) == count_M(3, 5000, FULL)
    assert seen == [expected]


def test_count_M_rejects_negative():
    with pytest.raises(ValueError):
        count_M(2, -1, FULL)
    with pytest.raises(ValueError):
        count_N(2, -0.5, FULL)


# ---------------------------------------------------------------------------
# spectrum tables


def test_spectrum_table_examples():
    assert spectrum_table(2, 4, FULL) == [
        SpectrumEntry(eigenvalue=2, multiplicity=2),
        SpectrumEntry(eigenvalue=4, multiplicity=6),
    ]
    assert spectrum_table(2, 4, PAPER) == [
        SpectrumEntry(eigenvalue=4, multiplicity=3)
    ]
    assert spectrum_table(5, 2, FULL) == []
    assert spectrum_table(5, 2, PAPER) == []


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_spectrum_table_matches_divisor_sums(n):
    for conv in (FULL, PAPER):
        table = {e.eigenvalue: e.multiplicity for e in spectrum_table(n, 801, conv)}
        expected = {2 * m: delta_M(n, m, conv) for m in range(1, 401)}
        assert table == {ev: mult for ev, mult in expected.items() if mult}


def test_spectrum_table_consistent_with_count():
    for n, lam_max, conv in ((2, 60, FULL), (3, 100, PAPER), (4, 80, FULL)):
        entries = spectrum_table(n, lam_max, conv)
        assert [e.eigenvalue for e in entries] == sorted(
            e.eigenvalue for e in entries
        )
        assert all(e.multiplicity > 0 for e in entries)
        assert sum(e.multiplicity for e in entries) == count_N(n, lam_max, conv)


def test_spectrum_table_rejects_small_lambda_max():
    with pytest.raises(ValueError):
        spectrum_table(2, 1.5, FULL)


def test_spectrum_csv_round_trip():
    entries = spectrum_table(3, 120, FULL)
    buf = io.StringIO()
    write_spectrum_csv(entries, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "eigenvalue,multiplicity,cumulative"
    running = 0
    for line, entry in zip(lines[1:], entries):
        running += entry.multiplicity
        assert line == f"{entry.eigenvalue},{entry.multiplicity},{running}"
    assert read_spectrum_csv(io.StringIO(buf.getvalue())) == entries
