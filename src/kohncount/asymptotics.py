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
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import CountingConvention, WorkLimitError, validate_sphere_n
from .exact import (
    DEFAULT_DIGITS,
    PiPolynomial,
    bernoulli,
    pipoly_eval,
    stirling_first_signed,
    validate_digits,
)

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from typing import Iterator, Sequence

__all__ = [
    "CoefficientReport",
    "RemainderProfile",
    "ProfileSample",
    "closed_scale",
    "leading_coefficient_series",
    "leading_coefficient_closed",
    "empirical_report",
    "remainder_profile",
    "weyl_ball_constant",
]

DEFAULT_MAX_TERMS = 10**9

# the largest ``coeff --n``, one cap for every method: there ``--method all
# --convention both`` takes about 20 s and prints 60 MB, and the closed form
# and the series grow at least as n^2
MAX_COEFF_N = 2000

# the largest ``weyl --n``: there ``--format json`` takes about 6 s, as its
# value is a Horner pass over 2n + 1 coefficients, and it grows about as n^3
MAX_WEYL_N = 5000


class CoefficientReport(
    namedtuple(
        "CoefficientReport",
        "n convention method exact value error_bound truncation_K lam",
        defaults=(None, None),
    )
):
    """One determination of the leading coefficient, as values: the CLI
    chooses the digits it prints.

    ``value`` is a ``Fraction``: the series' value exactly, the empirical
    ratio's float exactly, and the closed form to relative 10^-(digits+20).
    ``exact`` is populated for the closed form only, ``truncation_K`` for
    the series only and ``lam`` for the empirical method only. For the
    series method ``error_bound`` is a certified bound on |true - value|;
    for the closed form it is 0; for the empirical method it is a
    self-consistency heuristic (change of the ratio between lambda/2 and
    lambda). ``error_bound`` is a float and is at least 5e-324, so from
    about n = 150 on, where the coefficient is below 2.2e-308, the series'
    bound certifies nothing about ``value`` (ROADMAP item 12).
    """

    __slots__ = ()


# lam, residual and normalized are floats, count an int
ProfileSample = namedtuple("ProfileSample", "lam count residual normalized")


class RemainderProfile(namedtuple("RemainderProfile", "n convention samples")):
    """Residuals N(lambda) - c*lambda^n over lambda^{n-1} ln(lambda), one
    sample per (ascending) lambda; N has no lambda^{n-1} ln(lambda) term."""

    __slots__ = ()


def _validate_coeff_n(n: int, conv: CountingConvention) -> CountingConvention:
    """A sphere parameter n for a coefficient route: ``validate_sphere_n``,
    then ``WorkLimitError`` above ``MAX_COEFF_N``, before any other check;
    then the convention, read as ``CountingConvention(conv)`` and returned."""
    if validate_sphere_n(n) > MAX_COEFF_N:
        raise WorkLimitError(f"n must be <= {MAX_COEFF_N}")
    return CountingConvention(conv)


def closed_scale(n: int) -> int:
    """Denominator 2^n n! in front of the bracketed sum."""
    return 2**n * math.factorial(n)


def _inverse_power_coeffs(n: int) -> tuple[list[int], int]:
    """h(k)/k^n = sum_m a_m k^-2m for m = 1..n//2, as the integers
    c = [c_1, c_2, ...] over one denominator D: a_m = c_m / D.

    k(n-2)! h(k) is x(x-1)...(x-n+2) = sum_j s(n-1, j) x^j at x = k plus
    (-1)^(n-1) times it at x = -k: the terms with n-1-j odd cancel and the
    others double, so c_m = 2 s(n-1, n+1-2m) > 0 over D = (n-2)!, as
    s(n-1, j) has the sign (-1)^(n-1-j). The series' tail and the closed
    form read these.
    """
    c = [2 * stirling_first_signed(n - 1, n + 1 - 2 * m) for m in range(1, n // 2 + 1)]
    return c, math.factorial(n - 2)


def _tail_bracket(c: list[int], D: int, K: int) -> Iterator[Fraction]:
    """Certified half-width, then midpoint, of a bracket on the tail
    sum_{k>K} g(k), with g(x) = sum_m a_m x^-2m and a_m = c[m-1] / D. The
    search for K reads only the half-width, with ``next``, so the midpoint
    and its integral are built only when the bracket is read to the end.

    Midpoint-rule sandwich: with X = K + 1/2,

        integral_X^inf g  -  (g''(X) + |g'(X)|)/24
            <=  sum_{k>K} g(k)  <=
        integral_X^inf g  -  |g'(X+1)|/24,

    valid because g is positive, decreasing and convex with g'' decreasing
    (all inverse-power coefficients are positive).

    The sums at X = p/2, p = 2K + 1, and |g'| at X + 1 = q/2, q = 2K + 3,
    are exact rationals, each summed in a Horner pass:
    X^-(2m-1) = 2^(2m-1) p^(2M-2m) / p^(2M-1), so each is a polynomial in
    p^2 (or q^2) over one denominator. |g'(X)| = sum 2m a_m X^-(2m+1) is
    over D p^(2M+1) / 4, g''(X) = sum 2m(2m+1) a_m X^-(2m+2) over
    D p^(2M+2) / 8, and the integral over L D p^(2M-1) with
    L = lcm(1, 3, ..., 2M-1). With P = p^(2M+2) and Q = q^(2M+1), the
    half-width is then one ``Fraction`` over 12 D P Q and the midpoint one
    over 12 L D P Q.
    """
    M = len(c)
    p, q = 2 * K + 1, 2 * K + 3
    p2, q2 = p * p, q * q
    d1 = d2 = d1_next = 0
    for m, x in enumerate(c, 1):
        x = m * x << 2 * m  # 2m c_m 2^(2m-1)
        d1 = d1 * p2 + x
        d2 = d2 * p2 + (2 * m + 1) * x
        d1_next = d1_next * q2 + x
    # 6 D P Q times (g''(X) + |g'(X)|)/24 and |g'(X+1)|/24
    P, Q = p ** (2 * M + 2), q ** (2 * M + 1)
    upper, lower, denominator = (2 * d2 + p * d1) * Q, d1_next * P, 12 * D * P * Q
    yield Fraction(upper - lower, denominator)
    L = math.lcm(*range(1, 2 * M, 2))
    integral = 0
    for m, x in enumerate(c, 1):
        integral = integral * p2 + (L // (2 * m - 1) * x << 2 * m - 1)
    yield Fraction(12 * p**3 * Q * integral - L * (upper + lower), L * denominator)


def _select_truncation(c: list[int], D: int, target: Fraction) -> int:
    """Smallest K >= 2 with certified tail half-width <= target. K doubles
    up to ``DEFAULT_MAX_TERMS``, and the bracket at that cap is the last
    one tried; the half-width falls as K grows, so one bisection between
    the last two doublings finds K."""
    lo, hi = 1, 2
    while next(_tail_bracket(c, D, hi)) > target:
        if hi >= DEFAULT_MAX_TERMS:
            raise WorkLimitError(
                f"series needs more than {DEFAULT_MAX_TERMS} terms for the "
                "requested tolerance"
            )
        lo, hi = hi, min(2 * hi, DEFAULT_MAX_TERMS)
    return lo + 1 + bisect_left(
        range(lo + 1, hi), True, key=lambda K: next(_tail_bracket(c, D, K)) <= target
    )


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
    rescaled value) is then at most eps. It is a float of at least 5e-324,
    so it certifies nothing once the coefficient falls below the least
    normal float, from about n = 150 on: at n = 200 it reads 5e-324 for a
    value of about 1.57e-433 (ROADMAP item 12).

    All of the work but the convention's gap is kept for the last (n, eps,
    digits), so the other convention costs only the gap.

    Raises ``WorkLimitError`` when no K within ``DEFAULT_MAX_TERMS``
    certifies the requested eps, or, before any work, when n is above
    ``MAX_COEFF_N``; ``digits`` is checked by ``exact.validate_digits``
    after n and eps.
    """
    conv = _validate_coeff_n(n, conv)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if not math.isfinite(eps):
        raise ValueError("eps must be finite")
    validate_digits(digits)
    K, total, error_bound = _series_sum(n, eps, digits)
    value = (total - _convention_gap(n, conv)) / closed_scale(n)
    return CoefficientReport(
        n=n,
        convention=conv,
        method="series",
        exact=None,
        value=value,
        error_bound=error_bound,
        truncation_K=K,
    )


@lru_cache(maxsize=1)
def _series_sum(n: int, eps: float, digits: int) -> tuple[int, Fraction, float]:
    """(K, partial sum plus the tail's midpoint, error_bound) of
    ``leading_coefficient_series``: all of its work but the convention's
    gap, so the last one is kept for the other convention."""
    c, D = _inverse_power_coeffs(n)
    scale = closed_scale(n)
    target = Fraction(eps) * scale

    # Leave 1% of the budget for summation round-off.
    K = _select_truncation(c, D, target * Fraction(99, 100))
    tail_half_width, tail_mid = _tail_bracket(c, D, K)

    # Round-off allowance: the sum is below 2 * sum(a_m) (zeta(2m) < 2), and
    # (3K + 10) errors of one working ulp 10^(1-dps) each are allowed for.
    # dps is the least working precision of at least digits + 10 whose
    # allowance fits in the 1% of the budget left above. The partial sum is
    # taken in fixed point with F = bitlen(10^dps) + 8 > dps log2(10) fraction
    # bits, so it errs by less than K 2^-F < K 10^-dps; the rest is exact,
    # so the allowance over-covers.
    sum_bound = Fraction(2 * sum(c), D) + 1
    dps = digits + 10
    rounding = sum_bound * (3 * K + 10) * Fraction(10) ** (1 - dps)
    while rounding > target / 100:
        dps += 1
        rounding /= 10
    F = (10**dps).bit_length() + 8
    total = Fraction(_partial_sum_fixed(n, K, F), 2**F) + tail_mid
    return K, total, float((tail_half_width + rounding) / scale) * (1 + 2**-40) + 5e-324


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
    over the a_m of ``_inverse_power_coeffs``. As zeta(2m) = |B_2m| 2^(2m-1)
    / (2m)! (pi^2)^m, a_m zeta(2m) / (2^n n!) is the whole coefficient of
    (pi^2)^m, and it is made as one ``Fraction``.

    An n above ``MAX_COEFF_N`` raises ``WorkLimitError``, and then
    ``exact.validate_digits`` checks ``digits``, before the polynomial is
    built.
    """
    conv = _validate_coeff_n(n, conv)
    validate_digits(digits)
    scale = closed_scale(n)
    coeffs = [-_convention_gap(n, conv) / scale]
    c, D = _inverse_power_coeffs(n)
    factorial = 1  # (2m)!
    for m, x in enumerate(c, 1):
        factorial *= (2 * m - 1) * 2 * m
        b = bernoulli(2 * m)
        coeffs.append(
            Fraction(
                x * abs(b.numerator) << (2 * m - 1),
                D * b.denominator * factorial * scale,
            )
        )
    exact = PiPolynomial(coeffs)
    value = pipoly_eval(exact, digits)
    return CoefficientReport(
        n=n,
        convention=conv,
        method="closed_form",
        exact=exact,
        value=value,
        error_bound=0.0,
    )


def empirical_report(
    n: int, lam: Fraction | float, conv: CountingConvention
) -> CoefficientReport:
    """Empirical coefficient N(lambda)/lambda^n with a half-lambda
    self-consistency heuristic.

    Each ratio is correctly rounded: the quotient is taken in exact
    rationals, since lambda^n overflows a float for large n. The bound is
    the change of the ratio between max(lambda/2, 2) and lambda. An n above
    ``MAX_COEFF_N`` raises ``WorkLimitError`` before any count; then lambda
    is checked, before any count too, by the bound reader that ``count_N``
    uses: below 2 (-inf too) raises ``ValueError("lambda must be >= 2")``,
    and an infinite or nan float ``ValueError("lambda must be finite")``.
    """
    from .spectrum import _floor_half, count_N

    conv = _validate_coeff_n(n, conv)
    _floor_half(lam, 2, "lambda")
    ratio = float(Fraction(count_N(n, lam, conv)) / Fraction(lam) ** n)
    half = max(Fraction(lam) / 2, 2)
    ratio_half = float(Fraction(count_N(n, half, conv)) / Fraction(half) ** n)
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
    rounded to a float once, to +-inf beyond the float range; the samples
    record lambda as a float.
    Normalization divides by lambda^{n-1} ln(lambda) in floats, so that must
    be a finite float at the largest lambda. N has no lambda^{n-1} ln(lambda)
    term, so the normalized column falls like 1/ln(lambda); it stays bounded
    only against the constant that matches the enumerated spectrum.
    The lambdas are counted from the largest down, so one past the index-step
    cap of ``count_N`` is refused before any count; the samples keep the
    given order.
    """
    from .spectrum import count_N

    validate_sphere_n(n)
    conv = CountingConvention(conv)
    if not lambdas:
        raise ValueError("at least one lambda required")
    if any(isinstance(lam, float) and not math.isfinite(lam) for lam in lambdas):
        raise ValueError("lambda must be finite")
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
    for lam in reversed(lambdas):
        count = count_N(n, lam, conv)
        remainder = count - c * Fraction(lam) ** n
        try:
            residual = float(remainder)
        except OverflowError:
            residual = math.inf if remainder > 0 else -math.inf
        x = float(lam)
        normalized = residual / (x ** (n - 1) * math.log(x))
        samples.append(ProfileSample(x, count, residual, normalized))
    return RemainderProfile(n, conv, tuple(reversed(samples)))


def weyl_ball_constant(n: int, normalization: str = "paper_text") -> PiPolynomial:
    """Weyl-law constant for the unit ball in R^{2n}, in two normalizations.

    ``paper_text`` multiplies by the (2 pi)^{2n} factor, giving
    (2 pi)^{2n} * omega_{2n}^2; ``conventional`` divides by it, the textbook
    placement. Both are exposed side by side and never silently swapped.
    An n above ``MAX_WEYL_N`` raises ``WorkLimitError`` before the constant
    is built.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be an integer >= 1")
    if n > MAX_WEYL_N:
        raise WorkLimitError(f"n must be <= {MAX_WEYL_N}")
    omega_sq = Fraction(1, math.factorial(n) ** 2)  # omega_{2n}^2 = pi^2n/(n!)^2
    if normalization == "paper_text":
        return PiPolynomial((0,) * (2 * n) + (4**n * omega_sq,))
    if normalization == "conventional":
        return PiPolynomial((omega_sq / 4**n,))
    raise ValueError(f"unknown normalization {normalization!r}")
