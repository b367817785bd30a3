"""Exact-arithmetic layer: binomials, Stirling/Bernoulli, zeta, pi-polynomials.

Expected values are frozen from independent oracles defined in this file
(direct products, polynomial expansion, brute-force sums, numeric series).
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from kohncount import exact
from kohncount.exact import (
    PiPolynomial,
    bernoulli,
    binomial,
    hockey_stick_sum,
    parse_pi_string,
    pipoly_eval,
    stirling_first_signed,
    stirling_first_unsigned,
    zeta_even,
)

# ---------------------------------------------------------------------------
# oracles


def falling_factorial_coeffs(m):
    """Coefficients of x(x-1)...(x-m+1), expanded term by term."""
    coeffs = [1]
    for i in range(m):
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] += -i * coeffs[j + 1]
    return coeffs


def rising_factorial_coeffs(m):
    coeffs = [1]
    for i in range(m):
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] += i * coeffs[j + 1]
    return coeffs


def binomial_product_oracle(a, b):
    """a(a-1)...(a-b+1)/b! as an exact Fraction (any integer a, b >= 0)."""
    num = 1
    for i in range(b):
        num *= a - i
    return Fraction(num, math.factorial(b))


# ---------------------------------------------------------------------------
# binomial


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 3) == 0  # b > a >= 0
    assert binomial(3, -1) == 0  # negative lower index


def test_binomial_pascal_rule():
    for a in range(1, 61):
        for b in range(0, a + 1):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=12))
@settings(derandomize=True, max_examples=300)
def test_binomial_matches_falling_factorial_polynomial(a, b):
    assert binomial(a, b) == binomial_product_oracle(a, b)


def test_binomial_reflection_identity():
    # C(k+n-2, n-2) = (-1)^n C(-k-1, n-2)
    for n in range(2, 11):
        for k in range(1, 31):
            assert binomial(k + n - 2, n - 2) == (-1) ** n * binomial(-k - 1, n - 2)


# ---------------------------------------------------------------------------
# hockey stick


def test_hockey_stick_examples():
    assert hockey_stick_sum(100, 0, 1) == 5050
    assert hockey_stick_sum(0, 3, 7) == 0
    assert hockey_stick_sum(4, 3, 2) == 52  # C(4,2)+C(5,2)+C(6,2)+C(7,2)
    assert sum(binomial(q + 3, 2) for q in range(1, 5)) == 52


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
@settings(derandomize=True, max_examples=200)
def test_hockey_stick_matches_brute_force(Q, b, a):
    assert hockey_stick_sum(Q, b, a) == sum(binomial(q + b, a) for q in range(1, Q + 1))


def test_hockey_stick_rejects_negative():
    with pytest.raises(ValueError):
        hockey_stick_sum(-1, 0, 0)
    with pytest.raises(ValueError):
        hockey_stick_sum(3, -1, 0)


# ---------------------------------------------------------------------------
# Stirling numbers


def test_stirling_signed_against_expansion():
    for m in range(0, 11):
        coeffs = falling_factorial_coeffs(m)
        for j in range(0, m + 1):
            assert stirling_first_signed(m, j) == coeffs[j]
        assert stirling_first_signed(m, m + 3) == 0


def test_stirling_frozen_values():
    assert stirling_first_signed(3, 2) == -3  # x^3 - 3x^2 + 2x
    assert stirling_first_signed(4, 1) == -6
    assert all(stirling_first_signed(m, m) == 1 for m in range(0, 11))


def test_stirling_unsigned_from_rising_factorial():
    for m in range(0, 11):
        coeffs = rising_factorial_coeffs(m)
        for j in range(0, m + 1):
            assert stirling_first_unsigned(m, j) == coeffs[j]
    assert stirling_first_unsigned(3, 2) == 3


def test_stirling_sign_pattern_and_row_sums():
    for m in range(0, 9):
        for j in range(0, m + 1):
            s = stirling_first_signed(m, j)
            assert stirling_first_unsigned(m, j) == (-1) ** (m - j) * s
        assert sum(stirling_first_unsigned(m, j) for j in range(m + 1)) == math.factorial(m)


# ---------------------------------------------------------------------------
# Bernoulli numbers


def test_bernoulli_defining_recurrence():
    # sum_{j=0}^{l} C(l+1, j) B_j = 0 for l >= 1
    for l in range(1, 25):
        total = sum(binomial(l + 1, j) * bernoulli(j) for j in range(l + 1))
        assert total == 0


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(5) == 0


def test_bernoulli_odd_vanish_even_alternate():
    assert all(bernoulli(l) == 0 for l in range(3, 30, 2))
    signs = [1 if bernoulli(l) > 0 else -1 for l in range(2, 22, 2)]
    assert signs == [(-1) ** (m + 1) for m in range(1, 11)]


# ---------------------------------------------------------------------------
# zeta at even integers


def test_zeta_even_closed_forms():
    assert zeta_even(2) == PiPolynomial((0, Fraction(1, 6)))
    assert zeta_even(4) == PiPolynomial((0, 0, Fraction(1, 90)))
    assert zeta_even(6) == PiPolynomial((0, 0, 0, Fraction(1, 945)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_zeta_even_against_partial_sums(m):
    # partial sum of k^-2m to 10^6 terms, gap bounded by the integral tail
    terms = 10**6
    partial = math.fsum(k ** (-2 * m) for k in range(1, terms + 1))
    tail_bound = terms ** (1 - 2 * m) / (2 * m - 1)
    value = float(pipoly_eval(zeta_even(2 * m), 30))
    assert abs(value - partial) <= tail_bound + 1e-12


def test_zeta_even_combination_example():
    combo = Fraction(1, 3) * zeta_even(2) + Fraction(11, 3) * zeta_even(4)
    assert combo == PiPolynomial((0, Fraction(1, 18), Fraction(11, 270)))


def test_zeta_even_rejects_bad_input():
    for bad in (0, -2, 3):
        with pytest.raises(ValueError):
            zeta_even(bad)


# ---------------------------------------------------------------------------
# PiPolynomial algebra

fractions_strategy = st.fractions(
    min_value=-100, max_value=100, max_denominator=60
)
poly_strategy = st.lists(fractions_strategy, max_size=5).map(
    lambda cs: PiPolynomial(tuple(cs))
)


def test_pipoly_canonical_form():
    assert PiPolynomial((Fraction(1), Fraction(0), Fraction(0))).coeffs == (
        Fraction(1),
    )
    assert PiPolynomial((0, 0)).is_zero()
    assert PiPolynomial.zero().to_string() == "0"


@given(poly_strategy, poly_strategy)
@settings(derandomize=True, max_examples=150)
def test_pipoly_add_commutes(p, q):
    assert p + q == q + p


@given(poly_strategy, fractions_strategy)
@settings(derandomize=True, max_examples=150)
def test_pipoly_scaling_distributes(p, c):
    assert (c * p) + (c * p) == (2 * c) * p


@given(poly_strategy, poly_strategy)
@settings(derandomize=True, max_examples=100)
def test_pipoly_string_round_trip(p, q):
    for poly in (p, q, p * q):
        assert parse_pi_string(poly.to_string()) == poly


def test_pipoly_rejects_odd_pi_powers():
    assert PiPolynomial.from_pi_power(3, 4) == PiPolynomial((0, 0, 3))
    for exponent in (1, 3, -2):
        with pytest.raises(ValueError):
            PiPolynomial.from_pi_power(1, exponent)
    for text in ("pi", "2*pi^3", "1 + pi^5"):
        with pytest.raises(ValueError):
            parse_pi_string(text)


# ---------------------------------------------------------------------------
# evaluation


def test_pipoly_eval_zero():
    assert pipoly_eval(PiPolynomial.zero(), 30) == 0


def test_pipoly_eval_zeta2_30_digits():
    value = pipoly_eval(zeta_even(2), 30)
    with mpmath.workdps(40):
        reference = mpmath.mpf("1.64493406684822643647241516664602518922")
        assert abs(value - reference) < mpmath.mpf(10) ** -28


def test_pipoly_eval_two_precision_consistency():
    poly = PiPolynomial(
        (Fraction(-1, 1024), Fraction(1, 18), Fraction(11, 270))
    )
    for digits in (30, 50):
        v1 = pipoly_eval(poly, digits)
        v2 = pipoly_eval(poly, 2 * digits)
        with mpmath.workdps(4 * digits):
            assert abs(v1 - v2) < mpmath.mpf(10) ** -(digits - 2)


def test_pipoly_eval_rejects_low_precision():
    with pytest.raises(ValueError):
        pipoly_eval(PiPolynomial.zero(), 8)
