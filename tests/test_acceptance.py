"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Each test prints a PASS line (visible with ``pytest -s`` or on failure) and
enforces its runtime budget. Expected values come from independent oracles
computed inside this module or in ``oracles.py``, or from frozen exact
rationals.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

from kohncount.asymptotics import (
    closed_scale,
    leading_coefficient_closed,
    leading_coefficient_series,
    remainder_profile,
)
from kohncount.exact import (
    PiPolynomial,
    bernoulli,
    pipoly_eval,
    stirling_first_signed,
)
from kohncount.spectrum import (
    PARALLEL_MIN_SQRT_X,
    CountingConvention,
    _usable_cpus,
    count_N,
    spectrum_table,
)
from tests.oracles import (
    binomial,
    delta_M,
    h_poly,
    hockey_stick_sum,
    hpq_dim,
    lemma_ratio,
    multiplicity_sieve,
    zeta_even,
)

PAPER = CountingConvention.PAPER_RESTRICTED
FULL = CountingConvention.FULL_SPECTRUM


def report(criterion, elapsed, budget, detail):
    print(f"PASS criterion {criterion} [{elapsed:.2f}s < {budget}s]: {detail}")
    assert elapsed < budget, f"criterion {criterion} exceeded budget: {elapsed:.2f}s"


def test_criterion_1_n5_golden_closed_form():
    t0 = time.perf_counter()
    got = leading_coefficient_closed(5, PAPER).exact
    expected = (
        PiPolynomial((Fraction(-1, 1024), Fraction(1, 18), Fraction(11, 270)))
        * Fraction(1, 3840)
    )
    assert got == expected
    assert got.coeffs == (
        Fraction(-1, 3932160),
        Fraction(1, 69120),
        Fraction(11, 1036800),
    )
    report(1, time.perf_counter() - t0, 0.1, f"closed(5, paper) = {got}")


def test_criterion_2_series_closed_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        for conv in (PAPER, FULL):
            series = leading_coefficient_series(n, 1e-12, conv)
            closed = leading_coefficient_closed(n, conv)
            gap = abs(float(series.value) - float(closed.value))
            worst = max(worst, gap)
            assert gap <= 2e-12
            # tail bound below 1e-12 * 2^n n! at the unscaled-sum level
            assert series.error_bound * closed_scale(n) <= 1e-12 * closed_scale(n)
    report(2, time.perf_counter() - t0, 5.0, f"max |series - closed| = {worst:.2e}")


def test_criterion_3_counting_oracle_equivalence():
    t0 = time.perf_counter()
    for n in (2, 3, 4):
        # brute-force (p, q) double loop vs divisor-based multiplicities
        table = multiplicity_sieve(n, 5000, FULL)
        for m in range(1, 5001):
            assert delta_M(n, m, FULL) == table[m]
        # the literal quadratic loop on a small prefix
        for m in range(1, 80):
            literal = sum(
                hpq_dim(n, p, q)
                for p in range(0, m + 1)
                for q in range(1, m + 1)
                if 2 * q * (p + n - 1) == 2 * m
            )
            assert delta_M(n, m, FULL) == literal
        # hockey-stick-collapsed count vs cumulative multiplicities
        for conv in (FULL, PAPER):
            cum_table = multiplicity_sieve(n, 3000, conv)
            # the production table's sieve vs the lattice loop
            assert {
                ev // 2: mult for ev, mult in spectrum_table(n, 6000, conv)
            } == {m: mult for m, mult in enumerate(cum_table) if mult}
            cumulative = 0
            for x in range(1, 3001):
                cumulative += cum_table[x]
                assert count_N(n, 2 * x, conv) == cumulative
    report(3, time.perf_counter() - t0, 30.0, "divisor sums == lattice loops, n in {2,3,4}")


def test_criterion_4_empirical_convergence():
    t0 = time.perf_counter()
    closed = float(leading_coefficient_closed(2, FULL).value)
    lam = 2e5
    ratio = count_N(2, lam, FULL) / lam**2
    rel = abs(ratio - closed) / closed
    assert rel <= 0.01
    profile = remainder_profile(2, [2.0**e for e in range(8, 19)], FULL)
    normalized = [abs(s.normalized) for s in profile.samples]
    upper_max = max(normalized[len(normalized) // 2 :])
    assert upper_max <= 1.5 * max(normalized)
    report(
        4,
        time.perf_counter() - t0,
        60.0,
        f"N(2e5)/lam^2 off by {rel:.2e}; normalized residuals bounded "
        f"(max {max(normalized):.3f})",
    )


def test_criterion_5_convention_discrimination():
    t0 = time.perf_counter()
    lam = 1e5
    envelope = lam * math.log(lam)  # C = 1 envelope; observed gap >> this
    constants = {
        PAPER: float(leading_coefficient_closed(2, PAPER).value),
        FULL: float(leading_coefficient_closed(2, FULL).value),
    }
    matches = {}
    for count_conv in (FULL, PAPER):
        N = count_N(2, lam, count_conv)
        matched = [
            conv
            for conv, c in constants.items()
            if abs(N - c * lam**2) <= envelope
        ]
        assert len(matched) == 1
        matches[count_conv] = matched[0]
    assert matches[FULL] is FULL and matches[PAPER] is PAPER
    # the two closed forms differ by exactly (n-1)^-n / (2^n n!)
    for n in range(2, 11):
        full = leading_coefficient_closed(n, FULL).exact.coeffs
        paper = leading_coefficient_closed(n, PAPER).exact.coeffs
        assert full[1:] == paper[1:]
        assert full[0] - paper[0] == Fraction(1, closed_scale(n) * (n - 1) ** n)
    # Over lambda = 256 * 2^k up to 262144, each enumeration's remainder
    # stays inside the lambda^(n-1) ln(lambda) envelope of its own constant
    # (the fitted C, over the upper half of the samples, is below 1), while
    # against the other constant it grows like lambda / ln(lambda).
    lams = [256 * 2**k for k in range(11)]
    profiles = []
    for n in (2, 3):
        for count_conv, other in ((PAPER, FULL), (FULL, PAPER)):
            samples = remainder_profile(n, lams, count_conv).samples
            fitted = max(abs(s.normalized) for s in samples[len(samples) // 2 :])
            assert fitted < 1.0
            c_other = leading_coefficient_closed(n, other).value
            wrong = [
                float(s.count - c_other * lam**n) / (lam ** (n - 1) * math.log(lam))
                for s, lam in zip(samples, lams)
            ]
            assert abs(wrong[-1]) >= 100 * abs(wrong[0])
            profiles.append(
                f"n={n} {count_conv.value}: C = {fitted:.4f}, vs "
                f"{other.value} {wrong[0]:.1f} -> {wrong[-1]:.1f}"
            )
    report(
        5,
        time.perf_counter() - t0,
        30.0,
        "each enumeration matches exactly its own constant; exact gap "
        "identity holds for n = 2..10; " + "; ".join(profiles),
    )


def test_criterion_6_h_parity():
    t0 = time.perf_counter()
    for n in range(2, 11):
        sign = (-1) ** n
        for k in range(1, 51):
            assert h_poly(n, -k) == sign * h_poly(n, k)
    report(6, time.perf_counter() - t0, 10.0, "h(-k) = (-1)^n h(k), n=2..10, k<=50")


def test_criterion_7_special_functions():
    t0 = time.perf_counter()
    # zeta(2m) exact forms vs 10^6-term partial sums, within the integral tail
    terms = 10**6
    for m in range(1, 6):
        partial = math.fsum(k ** (-2 * m) for k in range(1, terms + 1))
        tail = terms ** (1 - 2 * m) / (2 * m - 1)
        assert abs(float(pipoly_eval(zeta_even(2 * m), 30)) - partial) <= tail + 1e-12
    # Stirling rows vs falling-factorial expansion
    for m in range(0, 11):
        coeffs = [1]
        for i in range(m):
            coeffs = [0] + coeffs
            for j in range(len(coeffs) - 1):
                coeffs[j] += -i * coeffs[j + 1]
        for j in range(m + 1):
            assert stirling_first_signed(m, j) == coeffs[j]
    # Bernoulli numbers vs the defining recurrence
    for l in range(1, 25):
        assert sum(binomial(l + 1, j) * bernoulli(j) for j in range(l + 1)) == 0
    # hockey-stick sums vs brute force for Q, a, b <= 40
    for Q in range(0, 41):
        for b in range(0, 41):
            for a in range(0, 41):
                assert hockey_stick_sum(Q, b, a) == sum(
                    binomial(q + b, a) for q in range(1, Q + 1)
                )
    report(7, time.perf_counter() - t0, 60.0, "zeta/Stirling/Bernoulli/hockey-stick all match oracles")


def test_criterion_8_lemma_leading_behavior():
    t0 = time.perf_counter()
    worst_C = 0.0
    for a in range(0, 5):
        for b in range(0, 5):
            deviations = {
                y: abs(lemma_ratio(a, b, y) - 1.0) for y in (1e2, 1e3, 1e4)
            }
            C = max(d * y for y, d in deviations.items())
            worst_C = max(worst_C, C)
            for y, d in deviations.items():
                assert d <= C / y + 1e-15
            # leading term y^{a+1}/(a+1)! is right: the fitted constant stays
            # O(1) instead of growing with y
            assert C <= 20.0
    report(8, time.perf_counter() - t0, 10.0, f"max fitted C = {worst_C:.3f} <= 20")


def test_criterion_9_performance_budget(monkeypatch):
    t0 = time.perf_counter()
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "kohncount.cli",
            "count",
            "--n", "3",
            "--lambda", "1e6",
            "--convention", "paper",
        ],
        capture_output=True,
        text=True,
    )
    cli_elapsed = time.perf_counter() - t0
    assert result.returncode == 0
    assert cli_elapsed <= 10.0
    assert int(result.stdout.strip()) == count_N(3, 1e6, PAPER)
    # 2^29 is the smallest lambda at which workers=2 forks, isqrt(X) = 2^14
    # = PARALLEL_MIN_SQRT_X; a counter on os.fork shows that it did
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    lam = 2**29
    assert math.isqrt(lam // 2) == PARALLEL_MIN_SQRT_X
    forked = _usable_cpus() >= 2
    for conv in (PAPER, FULL):
        serial = count_N(3, lam, conv, workers=1)
        assert forks == []
        parallel = count_N(3, lam, conv, workers=2)
        assert len(forks) == (1 if forked else 0)
        forks.clear()
        assert serial == parallel
    report(
        9,
        time.perf_counter() - t0,
        20.0,
        f"CLI count(n=3, 1e6) in {cli_elapsed:.2f}s <= 10s; parallel == serial "
        f"at 2^29 ({'forked' if forked else 'one CPU, not forked'})",
    )
