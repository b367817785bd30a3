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

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

from .exact import (
    PiPolynomial,
    binomial,
    hockey_stick_sum,
    parse_pi_string,
    pipoly_eval,
    stirling_first_signed,
    zeta_even,
)
from .spectrum import CountingConvention, count_N, validate_sphere_n

if TYPE_CHECKING:
    import mpmath

__all__ = [
    "CoefficientReport",
    "RemainderProfile",
    "ProfileSample",
    "PrecisionUnattainableError",
    "h_poly",
    "h_polynomial_coeffs",
    "leading_coefficient_series",
    "leading_coefficient_closed",
    "empirical_ratio",
    "empirical_report",
    "remainder_profile",
    "weyl_ball_constant",
    "lemma_ratio",
    "report_to_record",
    "report_from_record",
    "write_profile_csv",
    "read_profile_csv",
]

DEFAULT_DIGITS = 50
DEFAULT_MAX_TERMS = 10**9


class PrecisionUnattainableError(Exception):
    """Requested tolerance needs more series terms than the configured cap."""


@dataclass(frozen=True)
class CoefficientReport:
    """One determination of the leading coefficient.

    ``exact`` is populated for the closed form only. For the series method
    ``error_bound`` is a certified bound on |true - value|; for the closed
    form it is 0; for the empirical method it is a self-consistency heuristic
    (change of the ratio between lambda/2 and lambda).
    """

    n: int
    convention: CountingConvention
    method: str
    exact: PiPolynomial | None
    value: mpmath.mpf
    error_bound: float
    digits: int = DEFAULT_DIGITS
    truncation_K: int | None = None
    lam: float | None = None


@dataclass(frozen=True)
class ProfileSample:
    lam: float
    count: int
    residual: float
    normalized: float


@dataclass(frozen=True)
class RemainderProfile:
    """Residuals N(lambda) - c*lambda^n scaled by the lambda^{n-1} ln(lambda)
    envelope; ``fitted_C`` is the max |normalized| over the upper half of the
    (ascending) samples, which ignores small-lambda transients."""

    n: int
    convention: CountingConvention
    samples: tuple[ProfileSample, ...]
    fitted_C: float


def closed_scale(n: int) -> int:
    """Denominator 2^n n! in front of the bracketed sum."""
    return 2**n * math.factorial(n)


def h_poly(n: int, k: int) -> int:
    """h(k) = C(k+n-2, n-2) + C(k-1, n-2), via generalized binomials.

    Defined for every integer k so parity properties can be tested at
    negative arguments; positive k is the case the series uses.
    """
    validate_sphere_n(n)
    return binomial(k + n - 2, n - 2) + binomial(k - 1, n - 2)


def h_polynomial_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of h as a polynomial in k, by expanding both products.

    The rising product (k+1)...(k+n-2) and falling product (k-1)...(k-n+2)
    are convolved directly, so this expansion is independent of the Stirling
    recurrence used by the closed form.
    """
    validate_sphere_n(n)
    rising = [1]
    falling = [1]
    for i in range(1, n - 1):
        rising = [0] + rising
        falling = [0] + falling
        for j in range(len(rising) - 1):
            rising[j] += i * rising[j + 1]
            falling[j] += -i * falling[j + 1]
    denom = math.factorial(n - 2)
    return tuple(Fraction(r + f, denom) for r, f in zip(rising, falling))


def _inverse_power_coeffs(n: int) -> dict[int, Fraction]:
    """g(k) = k^-n h(k) = sum_m a_m k^-2m with every a_m > 0.

    Odd powers of k cancel between the rising and falling halves (h has the
    parity of n), which is what makes the sum a polynomial in k^-2.
    """
    coeffs = {}
    for j, c in enumerate(h_polynomial_coeffs(n)):
        if c == 0:
            continue
        e = n - j
        if e % 2 != 0 or e < 2 or c < 0:
            raise AssertionError(f"unexpected term {c}*k^-{e} in h/k^n for n={n}")
        coeffs[e // 2] = c
    return coeffs


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


def _select_truncation(
    a: dict[int, Fraction], target: Fraction, max_terms: int
) -> int:
    """Smallest K with certified tail half-width <= target."""
    K = 2
    while _tail_bracket(a, K)[1] > target:
        K *= 2
        if K > max_terms:
            raise PrecisionUnattainableError(
                f"series needs more than {max_terms} terms for the requested "
                "tolerance"
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
    max_terms: int = DEFAULT_MAX_TERMS,
    truncation_K: int | None = None,
) -> CoefficientReport:
    """Leading coefficient by truncating sum_k k^-n h(k), with a certificate.

    The truncation index K is chosen so the certified tail bracket is
    narrower than eps * 2^n n!; the reported ``error_bound`` (on the final,
    rescaled value) is then at most eps. ``truncation_K`` overrides the
    choice of K for diagnostics; the certificate is still honest.

    Raises :class:`PrecisionUnattainableError` when no K within ``max_terms``
    certifies the requested eps.
    """
    validate_sphere_n(n)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    a = _inverse_power_coeffs(n)
    scale = closed_scale(n)
    target = Fraction(eps) * scale

    if truncation_K is None:
        # Leave 1% of the budget for summation round-off.
        K = _select_truncation(a, target * Fraction(99, 100), max_terms)
    else:
        K = truncation_K
    tail_mid, tail_half_width = _tail_bracket(a, K)

    # Round-off allocation for the mpmath partial sum: the sum is below
    # 2 * sum(a_m) (zeta(2m) < 2), and each of the ~3K roundings is at one
    # working ulp.
    sum_bound = 2 * sum(a.values()) + 1
    denom = target / (100 * sum_bound * (3 * K + 10))
    need_dps = 1 + max(0, -_floor_log10(denom))
    dps = max(digits + 10, need_dps)
    rounding = sum_bound * (3 * K + 10) * Fraction(10) ** (1 - dps)

    import mpmath

    with mpmath.workdps(dps):
        partial = mpmath.mpf(0)
        for k in range(1, K + 1):
            hk = math.comb(k + n - 2, n - 2) + math.comb(k - 1, n - 2)
            partial += mpmath.mpf(hk) / k**n
        total = (
            partial
            + _to_mpf(tail_mid)
            - _to_mpf(_convention_gap(n, conv))
        ) / scale
        value = +total

    bound_fraction = (tail_half_width + rounding) / scale
    error_bound = float(bound_fraction) * (1 + 2**-40) + 5e-324
    return CoefficientReport(
        n=n,
        convention=conv,
        method="series",
        exact=None,
        value=value,
        error_bound=error_bound,
        digits=digits,
        truncation_K=K,
    )


def _floor_log10(x: Fraction) -> int:
    if x <= 0:
        raise ValueError("positive value required")
    # Exact enough via bit lengths; refined by at most a couple of steps.
    est = int((x.numerator.bit_length() - x.denominator.bit_length()) * 0.30103) - 2
    while Fraction(10) ** (est + 1) <= x:
        est += 1
    return est


def _to_mpf(x: Fraction) -> mpmath.mpf:
    import mpmath

    return mpmath.mpf(x.numerator) / x.denominator


def leading_coefficient_closed(
    n: int,
    conv: CountingConvention = CountingConvention.FULL_SPECTRUM,
    digits: int = DEFAULT_DIGITS,
) -> CoefficientReport:
    """Exact leading coefficient as a rational polynomial in pi^2.

    S(n) = sum_j 2/(n-2)! * s(n-1, j) * zeta(n-j+1) over j with n-j+1 even;
    the coefficient is (S(n) - gap) / (2^n n!).
    """
    validate_sphere_n(n)
    front = Fraction(2, math.factorial(n - 2))
    S = PiPolynomial.zero()
    for j in range(n):
        l = n - j + 1
        if l % 2 != 0:
            continue
        s = stirling_first_signed(n - 1, j)
        if s == 0:
            continue
        S = S + (front * s) * zeta_even(l)
    gap = _convention_gap(n, conv)
    exact = (S - PiPolynomial.constant(gap)) * Fraction(1, closed_scale(n))
    value = pipoly_eval(exact, digits)
    return CoefficientReport(
        n=n,
        convention=conv,
        method="closed_form",
        exact=exact,
        value=value,
        error_bound=0.0,
        digits=digits,
    )


def empirical_ratio(
    n: int, lam: float, conv: CountingConvention, workers: int = 1
) -> float:
    """Finite-lambda ratio N(lambda)/lambda^n, correctly rounded.

    The quotient is taken in exact rationals, since lambda^n overflows a
    float for large n.
    """
    validate_sphere_n(n)
    if lam < 2:
        raise ValueError("lambda must be >= 2")
    count = count_N(n, lam, conv, workers=workers)
    return float(Fraction(count) / Fraction(lam) ** n)


def empirical_report(
    n: int,
    lam: float,
    conv: CountingConvention,
    digits: int = DEFAULT_DIGITS,
    workers: int = 1,
) -> CoefficientReport:
    """Empirical coefficient with a half-lambda self-consistency heuristic."""
    ratio = empirical_ratio(n, lam, conv, workers=workers)
    ratio_half = empirical_ratio(n, max(lam / 2, 2.0), conv, workers=workers)
    import mpmath

    with mpmath.workdps(digits + 10):
        value = mpmath.mpf(ratio)
    return CoefficientReport(
        n=n,
        convention=conv,
        method="empirical",
        exact=None,
        value=value,
        error_bound=abs(ratio - ratio_half),
        digits=digits,
        lam=lam,
    )


def remainder_profile(
    n: int,
    lambdas: Sequence[float],
    conv: CountingConvention,
    digits: int = DEFAULT_DIGITS,
) -> RemainderProfile:
    """Residuals against the closed-form constant over ascending lambdas.

    Normalization divides by lambda^{n-1} ln(lambda), the expected size of
    the remainder term; boundedness of the normalized column is the
    empirical signature that the constant matches the enumerated spectrum.
    """
    validate_sphere_n(n)
    if not lambdas:
        raise ValueError("at least one lambda required")
    if any(lam < 4 for lam in lambdas):
        raise ValueError("all lambdas must be >= 4 (so ln(lambda) > 1)")
    if list(lambdas) != sorted(lambdas):
        raise ValueError("lambdas must be ascending")
    closed = leading_coefficient_closed(n, conv, digits=digits)
    samples = []
    import mpmath

    with mpmath.workdps(digits + 10):
        for lam in lambdas:
            count = count_N(n, lam, conv)
            residual = float(count - closed.value * mpmath.mpf(lam) ** n)
            normalized = residual / (lam ** (n - 1) * math.log(lam))
            samples.append(
                ProfileSample(
                    lam=float(lam),
                    count=count,
                    residual=residual,
                    normalized=normalized,
                )
            )
    upper = samples[len(samples) // 2 :]
    fitted_C = max(abs(s.normalized) for s in upper)
    return RemainderProfile(
        n=n, convention=conv, samples=tuple(samples), fitted_C=fitted_C
    )


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
        return PiPolynomial.from_pi_power(4**n * omega_sq, 4 * n)
    if normalization == "conventional":
        return PiPolynomial.constant(omega_sq / 4**n)
    raise ValueError(f"unknown normalization {normalization!r}")


def lemma_ratio(a: int, b: int, y: float) -> float:
    """Ratio of the exact partial sum sum_{q<=y} C(q+b, a) to y^{a+1}/(a+1)!."""
    if a < 0 or b < 0:
        raise ValueError("a, b must be >= 0")
    if y < 1:
        raise ValueError("y must be >= 1")
    exact = hockey_stick_sum(math.floor(y), b, a)
    return exact * math.factorial(a + 1) / y ** (a + 1)


# ---------------------------------------------------------------------------
# flat-record serialization


def report_to_record(report: CoefficientReport) -> dict:
    import mpmath

    record = {
        "n": report.n,
        "convention": report.convention.value,
        "method": report.method,
        "exact": report.exact.to_string() if report.exact is not None else None,
        "value": mpmath.nstr(
            report.value, report.digits, strip_zeros=False
        ),
        "error_bound": repr(report.error_bound),
        "digits": report.digits,
    }
    if report.method == "series":
        record["K"] = report.truncation_K
    if report.method == "empirical":
        record["lambda"] = report.lam
    return record


def report_from_record(record: dict) -> CoefficientReport:
    import mpmath

    digits = int(record["digits"])
    with mpmath.workdps(digits + 10):
        value = mpmath.mpf(record["value"])
    exact = record.get("exact")
    return CoefficientReport(
        n=int(record["n"]),
        convention=CountingConvention.from_name(record["convention"]),
        method=record["method"],
        exact=parse_pi_string(exact) if exact else None,
        value=value,
        error_bound=float(record["error_bound"]),
        digits=digits,
        truncation_K=int(record["K"]) if record.get("K") is not None else None,
        lam=float(record["lambda"]) if record.get("lambda") is not None else None,
    )


def write_profile_csv(profile: RemainderProfile, stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["lambda", "count", "residual", "normalized"])
    for s in profile.samples:
        writer.writerow([repr(s.lam), s.count, repr(s.residual), repr(s.normalized)])


def read_profile_csv(stream: Iterable[str]) -> list[ProfileSample]:
    reader = csv.reader(stream)
    header = next(reader)
    if header != ["lambda", "count", "residual", "normalized"]:
        raise ValueError(f"unexpected profile CSV header: {header}")
    return [
        ProfileSample(
            lam=float(lam),
            count=int(count),
            residual=float(residual),
            normalized=float(normalized),
        )
        for lam, count, residual, normalized in reader
    ]
