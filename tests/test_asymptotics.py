"""Leading-coefficient routes and remainder profiling.

The three routes (certified series, exact closed form, empirical counts) are
pitted against each other; the expansion of h that the series and the
closed form share is checked against the binomial oracle ``h_poly``, and
numeric values against direct summation.
"""

import functools
import math
import subprocess
import sys
import types
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import given, settings

from kohncount import asymptotics, spectrum
from kohncount.asymptotics import (
    _inverse_power_coeffs,
    _partial_sum_fixed,
    _select_truncation,
    _tail_bracket,
    closed_scale,
    empirical_report,
    leading_coefficient_closed,
    leading_coefficient_series,
    remainder_profile,
    weyl_ball_constant,
)
from kohncount.exact import PiPolynomial, pipoly_eval
from kohncount.spectrum import CountingConvention, WorkLimitError, count_N
from tests.oracles import (
    dirichlet_weights,
    h_poly,
    hpq_dim,
    leading_coefficient_by_heat_kernel,
    leading_coefficient_by_residues,
    lemma_ratio,
    select_truncation_by_halving,
    series_working_precision,
    tail_bracket,
    to_mpf,
)

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
    # sum_m c_m k^(n-2m) is D h(k) at the 2n points k = +-1..+-n, more than
    # the n-1 that pin a polynomial of degree n-2
    for n in range(2, 61):
        c, D = _inverse_power_coeffs(n)
        assert len(c) == n // 2
        assert all(x > 0 for x in c)
        for k in (*range(-n, 0), *range(1, n + 1)):
            expansion = sum(x * k ** (n - 2 * m) for m, x in enumerate(c, 1))
            assert expansion == D * h_poly(n, k)


def test_h_polynomial_coeffs_n5():
    # h(k) = (k^3 + 11k)/3 for n = 5
    c, D = _inverse_power_coeffs(5)
    assert [Fraction(x, D) for x in c] == [Fraction(1, 3), Fraction(11, 3)]


@pytest.mark.parametrize("n", [4, 5])
def test_series_catches_an_expansion_error(monkeypatch, n):
    # The series' partial sum evaluates h(k) from binomials and never reads
    # the a_m, so a wrong a_2 moves the closed form well outside the series'
    # certified bound.
    expand = asymptotics._inverse_power_coeffs

    def perturbed(n):
        c, D = expand(n)
        c = [1000 * x for x in c]
        c[1] += D  # a_2 + 1/1000
        return c, 1000 * D

    for conv in (PAPER, FULL):
        series = leading_coefficient_series(n, 1e-12, conv)
        closed = leading_coefficient_closed(n, conv)
        assert abs(series.value - closed.value) <= series.error_bound
    monkeypatch.setattr(asymptotics, "_inverse_power_coeffs", perturbed)
    # the perturbed series goes to a cache of its own, which the test undoes
    fresh_cache = functools.lru_cache(asymptotics._series_sum.__wrapped__)
    monkeypatch.setattr(asymptotics, "_series_sum", fresh_cache)
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


RESIDUE_NS = [*range(2, 13), 20, 30, 45, 60]


@pytest.mark.parametrize("n", RESIDUE_NS)
@pytest.mark.parametrize("conv", [FULL, PAPER])
def test_residue_route_matches_closed_form(n, conv):
    # the residue at s = n of the spectral zeta function, from the Dirichlet
    # weights of f(p, q), against the closed form from h(k) and one
    # Stirling row: the same element of Q[pi^2], exactly
    even, _ = leading_coefficient_by_residues(n, conv)
    assert even == leading_coefficient_closed(n, conv).exact


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("conv", [FULL, PAPER])
def test_heat_kernel_route_matches_closed_form(n, conv):
    # the finite part of the heat-kernel integral by quadrature at 35
    # digits, against the closed form, to 28 digits: the quadrature's
    # error grows with n, to about 6e-29 at n = 12
    quadrature = leading_coefficient_by_heat_kernel(n, conv, 35)
    with mpmath.workdps(40):
        closed = to_mpf(leading_coefficient_closed(n, conv).value)
        assert abs(quadrature - closed) <= mpmath.mpf("1e-28") * closed


@pytest.mark.parametrize("n", RESIDUE_NS)
def test_residue_route_has_no_odd_zeta(n):
    # zeta(r) at every odd r in [3, n] appears term by term, and each of
    # its coefficients cancels to exactly 0, under both conventions
    for conv in (FULL, PAPER):
        _, odd = leading_coefficient_by_residues(n, conv)
        assert sorted(odd) == list(range(3, n + 1, 2))
        assert all(c == 0 for c in odd.values())


def test_no_double_pole_at_n_minus_1():
    # a lambda^(n-1) ln(lambda) term in N needs a double pole of F(s) at
    # s = n-1, whose weight w(n-2, n-2) = a_{n-2} A_{n-2} + b_{n-2} B_{n-2}
    # is 0 at every n; the weights are first checked to expand f(p, q),
    # which is dim H_{p-n+1, q} from p = n-1 on and 0 below
    for n in (2, 3, 5, 10):
        w = dirichlet_weights(n)
        for p in range(1, n + 4):
            for q in range(1, 5):
                f = sum(w(j, k) * p**j * q**k for j in range(n) for k in range(n))
                assert f == (hpq_dim(n, p - n + 1, q) if p >= n - 1 else 0)
    for n in range(2, 201):
        assert dirichlet_weights(n)(n - 2, n - 2) == 0


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


@pytest.mark.parametrize("n", [20, 60, 150, 300])
def test_series_certificate_is_sound_at_large_n(n):
    # eps is 10^-20 of the coefficient where a float holds that, else the
    # least positive float: from n = 150 on the coefficient (about 10^-308
    # there, 10^-700 at n = 300) is below every eps, and the bound is loose
    for conv in (FULL, PAPER):
        closed = leading_coefficient_closed(n, conv)
        eps = max(float(closed.value) * 1e-20, 5e-324)
        series = leading_coefficient_series(n, eps, conv)
        assert abs(series.value - closed.value) <= series.error_bound


@pytest.mark.parametrize("n", [*range(2, 13), 30, 60, 150, 300])
def test_tail_bracket_matches_term_by_term_sums(n):
    # the tail sums that _tail_bracket takes in Horner passes, in integers
    # over one denominator, give the same bracket as the Fraction terms at
    # both points it reads: the half-width first, then the midpoint
    c, D = _inverse_power_coeffs(n)
    a = {m: Fraction(x, D) for m, x in enumerate(c, 1)}
    for K in (1, 2, 3, 10, 1000, 50126, 10**9):
        half_width, midpoint = _tail_bracket(c, D, K)
        assert (midpoint, half_width) == tail_bracket(a, K)
        assert next(_tail_bracket(c, D, K)) == half_width


def test_series_reports_truncation_depth():
    report = leading_coefficient_series(3, 1e-9, FULL)
    assert report.truncation_K is not None and report.truncation_K >= 2
    assert report.method == "series"
    assert report.exact is None


def test_series_unattainable_precision():
    with pytest.raises(WorkLimitError) as excinfo:
        leading_coefficient_series(2, 1e-100, FULL)
    assert excinfo.type is WorkLimitError
    assert not hasattr(asymptotics, "PrecisionUnattainableError")


def test_series_tries_the_term_cap(monkeypatch):
    # K doubles 2, 4, ..., 512 and then stops at the cap of 1000 rather
    # than pass it: a tolerance that K = 700 meets is met, one that needs
    # K = 1001 is not
    monkeypatch.setattr(asymptotics, "DEFAULT_MAX_TERMS", 1000)
    c, D = _inverse_power_coeffs(2)
    widths = {K: next(_tail_bracket(c, D, K)) for K in range(1, 1002)}
    target = widths[700]
    assert min(K for K in widths if widths[K] <= target) == 700
    assert _select_truncation(c, D, target) == 700
    with pytest.raises(WorkLimitError, match="more than 1000 terms") as excinfo:
        _select_truncation(c, D, (widths[1000] + widths[1001]) / 2)
    assert excinfo.type is WorkLimitError
    # the same through the public entry, with eps = 1% over the target
    scale = closed_scale(2)
    eps = float((widths[700] + widths[699]) / 2 / scale * Fraction(100, 99))
    assert widths[700] < Fraction(eps) * scale * Fraction(99, 100) < widths[699]
    assert leading_coefficient_series(2, eps, FULL).truncation_K == 700


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.sampled_from([*range(2, 13), 30, 60, 150]),
    cap=st.sampled_from([2, 3, 1000, 1024, 1025]),
    data=st.data(),
)
def test_select_truncation_matches_the_halving_search(n, cap, data):
    # targets at a half-width and halfway to the next one, from K = 1 to
    # one past the cap: the library's bisection and the halving loop find
    # the same K, or both find none within the cap
    c, D = _inverse_power_coeffs(n)
    K = data.draw(st.integers(1, cap + 1) | st.sampled_from([cap - 1, cap, cap + 1]))
    width, width_next = (next(_tail_bracket(c, D, k)) for k in (K, K + 1))
    target = data.draw(st.sampled_from([width, (width + width_next) / 2]))
    try:
        expected = select_truncation_by_halving(c, D, target, cap)
    except WorkLimitError:
        expected = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "DEFAULT_MAX_TERMS", cap)
        if expected is None:
            with pytest.raises(WorkLimitError, match=f"more than {cap} ") as excinfo:
                _select_truncation(c, D, target)
            assert excinfo.type is WorkLimitError
        else:
            assert _select_truncation(c, D, target) == expected


@pytest.mark.parametrize(
    "n, eps, digits, dps",
    [
        # the round-off allowance sets dps above digits + 10
        (2, 1e-20, 16, 28),
        (3, 1e-20, 16, 28),
        (4, 1e-24, 16, 31),
        (5, 1e-24, 16, 30),
        # digits + 10 does
        (2, 1e-12, 50, 60),
        (10, 1e-16, 16, 26),
        (60, 1e-12, 16, 26),
        (150, 1e-12, 50, 60),
    ],
)
def test_series_matches_the_floor_log10_precision_rule(n, eps, digits, dps):
    # value and error_bound rebuilt from the oracle's dps and allowance, with
    # F = ceil(dps log2(10)) + 8 fraction bits in the partial sum
    c, D = _inverse_power_coeffs(n)
    scale = closed_scale(n)
    target = Fraction(eps) * scale
    K = _select_truncation(c, D, target * Fraction(99, 100))
    working_dps, rounding = series_working_precision(c, D, K, target, digits)
    assert working_dps == dps
    F = math.ceil(dps * math.log2(10)) + 8
    tail_half_width, tail_mid = _tail_bracket(c, D, K)
    total = Fraction(_partial_sum_fixed(n, K, F), 2**F) + tail_mid
    bound = float((tail_half_width + rounding) / scale) * (1 + 2**-40) + 5e-324
    for conv, gap in ((FULL, 0), (PAPER, Fraction(1, (n - 1) ** n))):
        report = leading_coefficient_series(n, eps, conv, digits)
        assert report.truncation_K == K
        assert report.value == (total - gap) / scale
        assert report.error_bound == bound


def test_series_rejects_bad_eps():
    with pytest.raises(ValueError):
        leading_coefficient_series(2, 0.0, FULL)


def test_closed_form_checks_low_precision_before_building(monkeypatch):
    # pipoly_eval's bound and message, before the polynomial is built; the
    # upper bound is a case of test_exact's digit-cap test
    def refuse(*args):
        raise AssertionError("the closed form was built below the precision bound")

    monkeypatch.setattr(asymptotics, "_inverse_power_coeffs", refuse)
    with pytest.raises(ValueError, match=r"^precision must be >= 16 digits$"):
        leading_coefficient_closed(50, digits=15)


# each route that caps its n: a call at n, the name of its cap, and the
# module and name of the first work it does past its checks
N_CAPPED = {
    "leading_coefficient_series": (
        leading_coefficient_series, "MAX_COEFF_N", asymptotics, "_series_sum"
    ),
    "leading_coefficient_closed": (
        leading_coefficient_closed,
        "MAX_COEFF_N",
        asymptotics,
        "_inverse_power_coeffs",
    ),
    "empirical_report": (
        lambda n: empirical_report(n, 200000, PAPER),
        "MAX_COEFF_N",
        spectrum,
        "count_N",
    ),
    "weyl_ball_constant": (
        weyl_ball_constant,
        "MAX_WEYL_N",
        asymptotics,
        "PiPolynomial",
    ),
}


@pytest.mark.parametrize("name", N_CAPPED)
def test_n_cap_refuses_before_any_work(monkeypatch, name):
    # with the cap at n = 5, 5 gives what it gives uncapped, and 6 is
    # refused before any work
    call, cap, module, work = N_CAPPED[name]
    uncapped = call(5)
    monkeypatch.setattr(asymptotics, cap, 5)
    assert call(5) == uncapped

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} worked past the n cap")

    monkeypatch.setattr(module, work, refuse)
    with pytest.raises(WorkLimitError, match=r"^n must be <= 5$") as e:
        call(6)
    assert e.type is WorkLimitError


@pytest.mark.parametrize(
    "call, message",
    [
        ("leading_coefficient_series(10**5)", "n must be <= 2000"),
        ("leading_coefficient_closed(10**5)", "n must be <= 2000"),
        (
            "empirical_report(10**5, 200000, CountingConvention.FULL_SPECTRUM)",
            "n must be <= 2000",
        ),
        ("weyl_ball_constant(10**7)", "n must be <= 5000"),
    ],
)
def test_n_cap_refuses_huge_n_at_once(call, message):
    # each would run for minutes or more uncapped; the cap refuses it before
    # any work, well within the timeout
    code = (
        "from kohncount import CountingConvention, WorkLimitError, asymptotics\n"
        "try:\n"
        f"    asymptotics.{call}\n"
        "except WorkLimitError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=1
    )
    assert result.stdout == f"WorkLimitError {message}\n"
    assert result.stderr == ""


# ---------------------------------------------------------------------------
# empirical route


def test_empirical_ratio_small_values():
    assert empirical_report(2, 2, FULL).value == Fraction(1, 2)
    assert empirical_report(2, 2, PAPER).value == 0


def test_empirical_ratio_converges():
    closed = float(leading_coefficient_closed(2, FULL).value)
    ratio = float(empirical_report(2, 2e5, FULL).value)
    assert abs(ratio - closed) / closed < 0.01


def test_empirical_report_fields():
    report = empirical_report(2, 4096, FULL)
    assert report.method == "empirical"
    assert report.lam == 4096
    assert report.error_bound > 0
    assert float(report.value) == float(Fraction(count_N(2, 4096, FULL), 4096**2))


@pytest.mark.parametrize("conv", [PAPER, FULL])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [3, 5])
def test_empirical_report_clamps_half_lambda_at_two(lam, n, conv):
    # the half-lambda ratio is read at max(lambda/2, 2): at lambda = 3 the
    # clamp sets it, at lambda = 5 it does not; both ratios from count_N
    def ratio(x):
        return float(Fraction(count_N(n, x, conv)) / Fraction(x) ** n)

    half = max(Fraction(lam, 2), 2)
    report = empirical_report(n, lam, conv)
    assert report.error_bound == abs(ratio(lam) - ratio(half))


@pytest.mark.parametrize("conv", [PAPER, FULL])
@pytest.mark.parametrize(
    "lam, message",
    [
        (math.inf, "lambda must be finite"),
        (math.nan, "lambda must be finite"),
        (-math.inf, "lambda must be >= 2"),
        (1.5, "lambda must be >= 2"),
    ],
)
def test_empirical_report_checks_lambda_before_any_count(
    monkeypatch, lam, message, conv
):
    def refuse(*args, **kwargs):
        raise AssertionError("counted before lambda was checked")

    monkeypatch.setattr(spectrum, "count_N", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        empirical_report(2, lam, conv)


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
    monkeypatch.setattr(spectrum, "count_N", None)
    with pytest.raises(ValueError, match=r"ln\(lambda\) is not a finite float"):
        remainder_profile(n, lambdas, FULL)


@pytest.mark.parametrize(
    "lambdas",
    [[math.nan], [8.0, math.nan], [4.0, math.inf], [math.inf, 4.0]],
    ids=str,
)
def test_remainder_profile_rejects_non_finite_lambda(monkeypatch, lambdas):
    # with the message of count_N, wherever the lambda sits: before the
    # order and envelope checks and before any count
    monkeypatch.setattr(spectrum, "count_N", None)
    with pytest.raises(ValueError, match=r"^lambda must be finite$"):
        remainder_profile(2, lambdas, FULL)


def test_remainder_profile_keeps_envelope_inside_floats():
    # at n = 100, lambda = 1200, lambda^99 ln(lambda) is about 5e305
    profile = remainder_profile(100, [1200], FULL)
    assert math.isfinite(profile.samples[0].normalized)
    assert profile.samples[0].normalized != 0


@pytest.mark.parametrize("c, saturated", [(10**400, -math.inf), (-(10**400), math.inf)])
def test_remainder_profile_saturates_a_residual_beyond_floats(monkeypatch, c, saturated):
    # c lambda^n beyond the float range: the residual and the normalized
    # column read as +-inf, while the envelope stays finite
    closed = types.SimpleNamespace(value=Fraction(c))
    monkeypatch.setattr(asymptotics, "leading_coefficient_closed", lambda n, conv: closed)
    profile = remainder_profile(2, [4, 8.0], FULL)
    assert [s.lam for s in profile.samples] == [4.0, 8.0]
    for s in profile.samples:
        assert math.isfinite(s.lam * math.log(s.lam))
        assert s.residual == s.normalized == saturated


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

