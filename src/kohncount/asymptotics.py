"""Leading coefficient of the eigenvalue counting function, three ways.

The counting function N(lambda) grows like c * lambda^n. The constant c is
computed here by

* certified series truncation: c = (sum_{k>=1} k^-n h(k) - gap) / (2^n n!)
  with h(k) = C(k+n-2, n-2) + C(k-1, n-2), truncated with a rigorous
  two-sided tail bracket,
* an exact closed form: the same sum rewritten through Stirling numbers and
  zeta at even integers, which lands in Q[pi^2],
* empirical counting: N(lambda)/lambda^n at finite lambda.

The ``gap`` term 1/(n-1)^n is present exactly when the paper_restricted
convention drops the H_{0,q} eigenspaces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import (
    PiPolynomial,
    _floor_log10,
    _to_float,
    pipoly_eval,
    stirling_first_signed,
    zeta_even,
)
from .spectrum import CountingConvention, count_N, validate_sphere_n

__all__ = [
    "CoefficientReport",
    "RemainderProfile",
    "ProfileSample",
    "PrecisionUnattainableError",
    "closed_scale",
    "leading_coefficient_series",
    "leading_coefficient_closed",
    "empirical_ratio",
    "empirical_report",
    "remainder_profile",
    "weyl_ball_constant",
]

DEFAULT_DIGITS = 50
DEFAULT_MAX_TERMS = 10**9


class PrecisionUnattainableError(Exception):
    """Requested tolerance needs more series terms than the configured cap."""


class CoefficientReport(NamedTuple):
    """One determination of the leading coefficient, as values: the CLI
    chooses the digits it prints.

    ``value`` is a ``Fraction``: the series' value exactly, the empirical
    ratio's float exactly, and the closed form to relative 10^-(digits+20).
    ``exact`` is populated for the closed form only, ``truncation_K`` for
    the series only and ``lam`` for the empirical method only. For the
    series method ``error_bound`` is a certified bound on |true - value|;
    for the closed form it is 0; for the empirical method it is a
    self-consistency heuristic (change of the ratio between lambda/2 and
    lambda).
    """

    n: int
    convention: CountingConvention
    method: str
    exact: PiPolynomial | None
    value: Fraction
    error_bound: float
    truncation_K: int | None = None
    lam: Fraction | float | None = None


class ProfileSample(NamedTuple):
    lam: float
    count: int
    residual: float
    normalized: float


class RemainderProfile(NamedTuple):
    """Residuals N(lambda) - c*lambda^n scaled by the lambda^{n-1} ln(lambda)
    envelope, one sample per (ascending) lambda."""

    n: int
    convention: CountingConvention
    samples: tuple[ProfileSample, ...]


def closed_scale(n: int) -> int:
    """Denominator 2^n n! in front of the bracketed sum."""
    return 2**n * math.factorial(n)


def _inverse_power_coeffs(n: int) -> dict[int, Fraction]:
    """h(k)/k^n = sum_m a_m k^-2m, as {m: a_m} for m = 1..n//2.

    k(n-2)! h(k) is x(x-1)...(x-n+2) = sum_j s(n-1, j) x^j at x = k plus
    (-1)^(n-1) times it at x = -k: the terms with n-1-j odd cancel and the
    others double, so a_m = 2 s(n-1, n+1-2m) / (n-2)! > 0, as s(n-1, j) has
    the sign (-1)^(n-1-j). The series' tail and the closed form read these.
    """
    front = Fraction(2, math.factorial(n - 2))
    return {
        m: front * stirling_first_signed(n - 1, n + 1 - 2 * m)
        for m in range(1, n // 2 + 1)
    }


def _tail_derivative_bounds(
    a: dict[int, Fraction], X: Fraction
) -> tuple[Fraction, Fraction, Fraction]:
    """(integral of g over [X, inf), |g'(X)|, g''(X)) as exact rationals."""
    integral = sum(c / ((2 * m - 1) * X ** (2 * m - 1)) for m, c in a.items())
    d1 = sum(c * 2 * m / X ** (2 * m + 1) for m, c in a.items())
    d2 = sum(c * 2 * m * (2 * m + 1) / X ** (2 * m + 2) for m, c in a.items())
    return integral, d1, d2


def _tail_bracket(a: dict[int, Fraction], K: int) -> tuple[Fraction, Fraction]:
    """Certified (midpoint, half_width) for the tail sum_{k>K} g(k).

    Midpoint-rule sandwich: with X = K + 1/2,

        integral_X^inf g  -  (g''(X) + |g'(X)|)/24
            <=  sum_{k>K} g(k)  <=
        integral_X^inf g  -  |g'(X+1)|/24,

    valid because g is positive, decreasing and convex with g'' decreasing
    (all inverse-power coefficients are positive).
    """
    X = Fraction(2 * K + 1, 2)
    integral, d1, d2 = _tail_derivative_bounds(a, X)
    _, d1_next, _ = _tail_derivative_bounds(a, X + 1)
    upper_defect = (d2 + d1) / 24
    lower_defect = d1_next / 24
    midpoint = integral - (upper_defect + lower_defect) / 2
    half_width = (upper_defect - lower_defect) / 2
    return midpoint, half_width


def _select_truncation(a: dict[int, Fraction], target: Fraction) -> int:
    """Smallest K with certified tail half-width <= target."""
    K = 2
    while _tail_bracket(a, K)[1] > target:
        K *= 2
        if K > DEFAULT_MAX_TERMS:
            raise PrecisionUnattainableError(
                f"series needs more than {DEFAULT_MAX_TERMS} terms for the "
                "requested tolerance"
            )
    lo, hi = K // 2, K
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if _tail_bracket(a, mid)[1] <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _convention_gap(n: int, conv: CountingConvention) -> Fraction:
    if conv is CountingConvention.PAPER_RESTRICTED:
        return Fraction(1, (n - 1) ** n)
    return Fraction(0)


def leading_coefficient_series(
    n: int,
    eps: float = 1e-12,
    conv: CountingConvention = CountingConvention.FULL_SPECTRUM,
    digits: int = DEFAULT_DIGITS,
) -> CoefficientReport:
    """Leading coefficient by truncating sum_k k^-n h(k), with a certificate.

    The truncation index K is chosen so the certified tail bracket is
    narrower than eps * 2^n n!; the reported ``error_bound`` (on the final,
    rescaled value) is then at most eps.

    Raises :class:`PrecisionUnattainableError` when no K within
    ``DEFAULT_MAX_TERMS`` certifies the requested eps.
    """
    validate_sphere_n(n)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    a = _inverse_power_coeffs(n)
    scale = closed_scale(n)
    target = Fraction(eps) * scale

    # Leave 1% of the budget for summation round-off.
    K = _select_truncation(a, target * Fraction(99, 100))
    tail_mid, tail_half_width = _tail_bracket(a, K)

    # Round-off allocation: the sum is below 2 * sum(a_m) (zeta(2m) < 2), and
    # (3K + 10) errors of one working ulp 10^(1-dps) each are allowed for.
    # The partial sum is taken in fixed point with F > dps log2(10) fraction
    # bits, so it errs by less than K 2^-F < K 10^-dps; the rest is exact,
    # so the allowance over-covers.
    sum_bound = 2 * sum(a.values()) + 1
    denom = target / (100 * sum_bound * (3 * K + 10))
    need_dps = 1 + max(0, -_floor_log10(denom))
    dps = max(digits + 10, need_dps)
    rounding = sum_bound * (3 * K + 10) * Fraction(10) ** (1 - dps)
    F = math.ceil(dps * math.log2(10)) + 8
    partial = _partial_sum_fixed(n, K, F)
    value = (Fraction(partial, 2**F) + tail_mid - _convention_gap(n, conv)) / scale

    bound_fraction = (tail_half_width + rounding) / scale
    error_bound = float(bound_fraction) * (1 + 2**-40) + 5e-324
    return CoefficientReport(
        n=n,
        convention=conv,
        method="series",
        exact=None,
        value=value,
        error_bound=error_bound,
        truncation_K=K,
    )


def _partial_sum_fixed(n: int, K: int, F: int) -> int:
    """floor(2^F h(k) / k^n) summed over k = 1..K: the partial sum of
    sum_k k^-n h(k) in fixed point with F fraction bits, below the exact
    sum by less than K 2^-F. It takes h(k) from binomials, not from the a_m
    of ``_inverse_power_coeffs``, so the series checks that expansion."""
    comb = math.comb
    return sum(
        ((comb(k + n - 2, n - 2) + comb(k - 1, n - 2)) << F) // k**n
        for k in range(1, K + 1)
    )


def leading_coefficient_closed(
    n: int,
    conv: CountingConvention = CountingConvention.FULL_SPECTRUM,
    digits: int = DEFAULT_DIGITS,
) -> CoefficientReport:
    """Exact leading coefficient as a rational polynomial in pi^2.

    The coefficient is (S(n) - gap) / (2^n n!) with S(n) = sum_m a_m zeta(2m)
    over the a_m of ``_inverse_power_coeffs``. Each zeta(2m) is a rational
    multiple of (pi^2)^m, so a_m zeta(2m) is the whole coefficient of
    (pi^2)^m.
    """
    validate_sphere_n(n)
    a = _inverse_power_coeffs(n)
    coeffs = [-_convention_gap(n, conv)]
    coeffs += [c * zeta_even(2 * m).coeffs[m] for m, c in a.items()]
    exact = PiPolynomial(tuple(coeffs)) * Fraction(1, closed_scale(n))
    value = pipoly_eval(exact, digits)
    return CoefficientReport(
        n=n,
        convention=conv,
        method="closed_form",
        exact=exact,
        value=value,
        error_bound=0.0,
    )


def empirical_ratio(n: int, lam: Fraction | float, conv: CountingConvention) -> float:
    """Finite-lambda ratio N(lambda)/lambda^n, correctly rounded.

    The quotient is taken in exact rationals, since lambda^n overflows a
    float for large n.
    """
    validate_sphere_n(n)
    if lam < 2:
        raise ValueError("lambda must be >= 2")
    count = count_N(n, lam, conv)
    return float(Fraction(count) / Fraction(lam) ** n)


def empirical_report(
    n: int, lam: Fraction | float, conv: CountingConvention
) -> CoefficientReport:
    """Empirical coefficient with a half-lambda self-consistency heuristic."""
    ratio = empirical_ratio(n, lam, conv)
    ratio_half = empirical_ratio(n, max(lam / 2, 2.0), conv)
    return CoefficientReport(
        n=n,
        convention=conv,
        method="empirical",
        exact=None,
        value=Fraction(ratio),
        error_bound=abs(ratio - ratio_half),
        lam=lam,
    )


def remainder_profile(
    n: int, lambdas: Sequence[Fraction | float], conv: CountingConvention
) -> RemainderProfile:
    """Residuals against the closed-form constant over ascending lambdas.

    The count and c*lambda^n take lambda exactly, and the residual is
    rounded to a float once; the samples record lambda as a float.
    Normalization divides by lambda^{n-1} ln(lambda), the expected size of
    the remainder term, in floats, so that must be a finite float at the
    largest lambda. Boundedness of the normalized column is the empirical
    signature that the constant matches the enumerated spectrum.
    """
    validate_sphere_n(n)
    if not lambdas:
        raise ValueError("at least one lambda required")
    if any(lam < 4 for lam in lambdas):
        raise ValueError("all lambdas must be >= 4 (so ln(lambda) > 1)")
    if list(lambdas) != sorted(lambdas):
        raise ValueError("lambdas must be ascending")
    # the envelope grows with lambda: the largest one bounds every sample's
    try:
        top = float(lambdas[-1])
        envelope = top ** (n - 1) * math.log(top)
    except OverflowError:
        envelope = math.inf
    if not math.isfinite(envelope):
        raise ValueError(
            f"lambda^(n-1) ln(lambda) is not a finite float at n = {n}, "
            f"lambda = {lambdas[-1]}"
        )
    c = leading_coefficient_closed(n, conv).value
    samples = []
    for lam in lambdas:
        count = count_N(n, lam, conv)
        residual = _to_float(count - c * Fraction(lam) ** n)
        x = float(lam)
        normalized = residual / (x ** (n - 1) * math.log(x))
        samples.append(ProfileSample(x, count, residual, normalized))
    return RemainderProfile(n, conv, tuple(samples))


def weyl_ball_constant(n: int, normalization: str = "paper_text") -> PiPolynomial:
    """Weyl-law constant for the unit ball in R^{2n}, in two normalizations.

    ``paper_text`` multiplies by the (2 pi)^{2n} factor, giving
    (2 pi)^{2n} * omega_{2n}^2; ``conventional`` divides by it, the textbook
    placement. Both are exposed side by side and never silently swapped.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be an integer >= 1")
    omega_sq = Fraction(1, math.factorial(n) ** 2)  # omega_{2n}^2 = pi^2n/(n!)^2
    if normalization == "paper_text":
        return PiPolynomial((0,) * (2 * n) + (4**n * omega_sq,))
    if normalization == "conventional":
        return PiPolynomial((omega_sq / 4**n,))
    raise ValueError(f"unknown normalization {normalization!r}")
