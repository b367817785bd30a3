"""Leading-coefficient routes and remainder profiling.

The three routes (certified series, exact closed form, empirical counts) are
pitted against each other; the expansion of h that the series and the
closed form share is checked against the binomial oracle ``h_poly``, and
numeric values against direct summation.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from kohncount import asymptotics
from kohncount.asymptotics import (
    PrecisionUnattainableError,
    _inverse_power_coeffs,
    _partial_sum_fixed,
    closed_scale,
    empirical_ratio,
    empirical_report,
    leading_coefficient_closed,
    leading_coefficient_series,
    remainder_profile,
    weyl_ball_constant,
)
from kohncount.exact import PiPolynomial, pipoly_eval
from kohncount.spectrum import CountingConvention
from tests.oracles import h_poly, lemma_ratio, to_mpf

PAPER = CountingConvention.PAPER_RESTRICTED
FULL = CountingConvention.FULL_SPECTRUM


# ---------------------------------------------------------------------------
# h polynomial


def test_h_poly_values():
    assert all(h_poly(2, k) == 2 for k in range(1, 20))
    assert h_poly(5, 1) == 4  # C(4,3) + C(0,3)
    assert h_poly(5, 4) == 36  # C(7,3) + C(3,3)
    # n = 5 collapses to (k^3 + 11k)/3
    assert all(h_poly(5, k) == (k**3 + 11 * k) // 3 for k in range(1, 30))


def test_h_polynomial_coeffs_match_h_poly():
    # sum_m a_m k^(n-2m) is h(k) at the 2n points k = +-1..+-n, more than
    # the n-1 that pin a polynomial of degree n-2
    for n in range(2, 61):
        a = _inverse_power_coeffs(n)
        assert list(a) == list(range(1, n // 2 + 1))
        assert all(c > 0 for c in a.values())
        for k in (*range(-n, 0), *range(1, n + 1)):
            assert sum(c * k ** (n - 2 * m) for m, c in a.items()) == h_poly(n, k)


def test_h_polynomial_coeffs_n5():
    # h(k) = (k^3 + 11k)/3 for n = 5
    assert _inverse_power_coeffs(5) == {1: Fraction(1, 3), 2: Fraction(11, 3)}


@pytest.mark.parametrize("n", [4, 5])
def test_series_catches_an_expansion_error(monkeypatch, n):
    # The series' partial sum evaluates h(k) from binomials and never reads
    # the a_m, so a wrong a_2 moves the closed form well outside the series'
    # certified bound.
    expand = asymptotics._inverse_power_coeffs

    def perturbed(n):
        a = expand(n)
        a[2] += Fraction(1, 1000)
        return a

    for conv in (PAPER, FULL):
        series = leading_coefficient_series(n, 1e-12, conv)
        closed = leading_coefficient_closed(n, conv)
        assert abs(series.value - closed.value) <= series.error_bound
    monkeypatch.setattr(asymptotics, "_inverse_power_coeffs", perturbed)
    for conv in (PAPER, FULL):
        series = leading_coefficient_series(n, 1e-12, conv)
        closed = leading_coefficient_closed(n, conv)
        assert abs(series.value - closed.value) > series.error_bound


def test_h_parity():
    # h(-k) = (-1)^n h(k) under generalized binomial evaluation
    for n in range(2, 11):
        for k in range(1, 51):
            assert h_poly(n, -k) == (-1) ** n * h_poly(n, k)


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_n5_paper_golden():
    report = leading_coefficient_closed(5, PAPER)
    inner = PiPolynomial(
        (Fraction(-1, 1024), Fraction(1, 18), Fraction(11, 270))
    )
    assert closed_scale(5) == 3840
    assert report.exact == inner * Fraction(1, 3840)
    assert report.exact.coeffs == (
        Fraction(-1, 3932160),
        Fraction(1, 69120),
        Fraction(11, 1036800),
    )
    assert report.error_bound == 0.0


def test_closed_form_n2_both_conventions():
    paper = leading_coefficient_closed(2, PAPER)
    assert paper.exact == PiPolynomial((Fraction(-1, 8), Fraction(1, 24)))
    full = leading_coefficient_closed(2, FULL)
    assert full.exact == PiPolynomial((0, Fraction(1, 24)))
    with mpmath.workdps(40):
        assert abs(to_mpf(full.value) - mpmath.pi**2 / 24) < mpmath.mpf(10) ** -38


def test_closed_form_convention_gap_exact():
    for n in range(2, 11):
        full = leading_coefficient_closed(n, FULL).exact
        paper = leading_coefficient_closed(n, PAPER).exact
        expected = Fraction(1, closed_scale(n)) * Fraction(1, (n - 1) ** n)
        assert full.coeffs[1:] == paper.coeffs[1:]
        assert full.coeffs[0] - paper.coeffs[0] == expected


def test_closed_form_stirling_route_matches_direct_sum():
    # the Stirling/Bernoulli chain: 2^n n! * closed(full) == sum_k k^-n h(k)
    K = 2000
    for n in range(2, 11):
        S_exact = leading_coefficient_closed(n, FULL).exact * Fraction(
            closed_scale(n)
        )
        S_value = float(pipoly_eval(S_exact))
        direct = math.fsum(h_poly(n, k) / k**n for k in range(1, K + 1))
        tail_bound = (
            2
            * (1 + (n - 2) / K) ** (n - 2)
            / (math.factorial(n - 2) * K)
        )
        assert abs(S_value - direct) <= tail_bound


# ---------------------------------------------------------------------------
# certified series


def test_series_matches_closed_small_n():
    for n in range(2, 7):
        for conv in (FULL, PAPER):
            series = leading_coefficient_series(n, 1e-12, conv)
            closed = leading_coefficient_closed(n, conv)
            assert series.error_bound <= 1e-12
            assert abs(float(series.value) - float(closed.value)) <= 2e-12


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("K", [1, 37, 2000])
@pytest.mark.parametrize("F", [8, 208])
def test_series_fixed_point_partial_sum(n, K, F):
    # each of the K floors drops less than 2^-F
    exact = sum(Fraction(h_poly(n, k), k**n) for k in range(1, K + 1))
    error = exact - Fraction(_partial_sum_fixed(n, K, F), 2**F)
    assert 0 <= error < Fraction(K, 2**F)


def test_series_n2_reference_values():
    with mpmath.workdps(40):
        full = leading_coefficient_series(2, 1e-12, FULL)
        assert abs(to_mpf(full.value) - mpmath.pi**2 / 24) <= 1e-12
        paper = leading_coefficient_series(2, 1e-12, PAPER)
        expected = mpmath.pi**2 / 24 - to_mpf(Fraction(1, 8))
        assert abs(to_mpf(paper.value) - expected) <= 1e-12


def test_series_certificate_is_sound():
    # the certified bound holds against the exact closed form
    for n in range(2, 7):
        for conv in (FULL, PAPER):
            closed = leading_coefficient_closed(n, conv)
            for eps in (1e-10, 1e-20):
                series = leading_coefficient_series(n, eps, conv)
                assert series.error_bound <= eps
                with mpmath.workdps(60):
                    assert abs(series.value - closed.value) <= series.error_bound


def test_series_reports_truncation_depth():
    report = leading_coefficient_series(3, 1e-9, FULL)
    assert report.truncation_K is not None and report.truncation_K >= 2
    assert report.method == "series"
    assert report.exact is None


def test_series_unattainable_precision():
    with pytest.raises(PrecisionUnattainableError):
        leading_coefficient_series(2, 1e-100, FULL)


def test_series_rejects_bad_eps():
    with pytest.raises(ValueError):
        leading_coefficient_series(2, 0.0, FULL)


# ---------------------------------------------------------------------------
# empirical route


def test_empirical_ratio_small_values():
    assert empirical_ratio(2, 2, FULL) == 0.5
    assert empirical_ratio(2, 2, PAPER) == 0.0


def test_empirical_ratio_converges():
    closed = float(leading_coefficient_closed(2, FULL).value)
    ratio = empirical_ratio(2, 2e5, FULL)
    assert abs(ratio - closed) / closed < 0.01


def test_empirical_report_fields():
    report = empirical_report(2, 4096, FULL)
    assert report.method == "empirical"
    assert report.lam == 4096
    assert report.error_bound > 0
    assert float(report.value) == empirical_ratio(2, 4096, FULL)


# ---------------------------------------------------------------------------
# remainder profile


def test_remainder_profile_single_sample():
    profile = remainder_profile(2, [1024.0], FULL)
    assert len(profile.samples) == 1


def test_remainder_profile_normalization():
    lams = [2.0**e for e in range(8, 15)]
    profile = remainder_profile(2, lams, FULL)
    for s, lam in zip(profile.samples, lams):
        assert s.lam == lam
        assert s.normalized == pytest.approx(
            s.residual / (lam * math.log(lam)), rel=1e-12
        )
    # a bounded profile: no sample strays far from the pack
    assert max(abs(s.normalized) for s in profile.samples) < 1.0


def test_remainder_profile_discriminates_conventions():
    # each convention's counts stay bounded only against its own constant
    lams = [2.0**e for e in range(8, 15)]
    own = remainder_profile(2, lams, PAPER)
    assert max(abs(s.normalized) for s in own.samples) < 1.0
    closed_full = leading_coefficient_closed(2, FULL)
    with mpmath.workdps(60):
        wrong = [
            float(s.count - to_mpf(closed_full.value) * mpmath.mpf(s.lam) ** 2)
            / (s.lam * math.log(s.lam))
            for s in own.samples
        ]
    assert min(abs(w) for w in wrong) > 3.0
    # and the mismatch grows like lambda/ln(lambda) instead of staying bounded
    assert abs(wrong[-1]) > 100.0


def test_remainder_profile_validation():
    with pytest.raises(ValueError):
        remainder_profile(2, [], FULL)
    with pytest.raises(ValueError):
        remainder_profile(2, [2.0], FULL)  # below ln > 1 floor
    with pytest.raises(ValueError):
        remainder_profile(2, [512.0, 256.0], FULL)


@pytest.mark.parametrize(
    "n, lambdas",
    [
        (150, [1000.0, 2000.0]),  # lambda^(n-1) overflows
        (100, [1290]),  # lambda^(n-1) does not, lambda^(n-1) ln(lambda) does
        (2, [Fraction(10**400)]),  # lambda itself is beyond the float range
    ],
)
def test_remainder_profile_rejects_envelope_beyond_floats(monkeypatch, n, lambdas):
    # checked at the largest lambda, before anything is counted
    monkeypatch.setattr(asymptotics, "count_N", None)
    with pytest.raises(ValueError, match=r"ln\(lambda\) is not a finite float"):
        remainder_profile(n, lambdas, FULL)


def test_remainder_profile_keeps_envelope_inside_floats():
    # at n = 100, lambda = 1200, lambda^99 ln(lambda) is about 5e305
    profile = remainder_profile(100, [1200], FULL)
    assert math.isfinite(profile.samples[0].normalized)
    assert profile.samples[0].normalized != 0


# ---------------------------------------------------------------------------
# Weyl constants and the partial-sum lemma


def test_weyl_paper_text_values():
    assert weyl_ball_constant(1, "paper_text").to_string() == "4*pi^4"
    assert weyl_ball_constant(2, "paper_text") == PiPolynomial((0, 0, 0, 0, 4))


def test_weyl_conventional_values():
    assert weyl_ball_constant(1, "conventional") == PiPolynomial((Fraction(1, 4),))
    assert weyl_ball_constant(2, "conventional") == PiPolynomial((Fraction(1, 64),))


def test_weyl_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_ball_constant(0, "paper_text")
    with pytest.raises(ValueError):
        weyl_ball_constant(2, "folklore")


def test_lemma_ratio_values():
    assert lemma_ratio(1, 0, 100) == pytest.approx(1.01)
    assert lemma_ratio(0, 0, 7.5) == pytest.approx(7 / 7.5)
    assert abs(lemma_ratio(3, 2, 1e4) - 1) < 1e-3


def test_lemma_ratio_inverse_y_decay():
    for a in range(5):
        for b in range(5):
            deviations = {y: abs(lemma_ratio(a, b, y) - 1) for y in (1e2, 1e3, 1e4)}
            C = max(d * y for y, d in deviations.items())
            assert C <= 20.0
            assert all(d <= C / y + 1e-15 for y, d in deviations.items())

