"""Exact integer/rational combinatorics and polynomials in pi^2.

Everything here is arbitrary-precision and deterministic: binomials are total
over all integer pairs (with the generalized falling-factorial value for
negative upper index), Bernoulli and Stirling numbers are exact rationals and
integers, and zeta at even integers is represented symbolically as a rational
multiple of a power of pi^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

__all__ = [
    "PiPolynomial",
    "binomial",
    "hockey_stick_sum",
    "stirling_first_signed",
    "bernoulli",
    "zeta_even",
    "pipoly_eval",
]

MIN_EVAL_DIGITS = 16


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), total over all integer pairs.

    Conventions: C(a, b) = 0 for b < 0 and for 0 <= a < b. For a < 0 the
    generalized value a(a-1)...(a-b+1)/b! is returned, which agrees with the
    polynomial x(x-1)...(x-b+1)/b! evaluated at x = a. With these conventions
    C(., b) coincides with that polynomial at every integer.
    """
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b) if b <= a else 0
    # Reflection C(a, b) = (-1)^b C(b - a - 1, b) for a < 0.
    return (-1) ** b * math.comb(b - a - 1, b)


def hockey_stick_sum(Q: int, b: int, a: int) -> int:
    """Exact partial sum sum_{q=1}^{Q} C(q+b, a) = C(Q+b+1, a+1) - C(b+1, a+1)."""
    if Q < 0:
        raise ValueError("Q must be >= 0")
    if b < 0 or a < 0:
        raise ValueError("a, b must be >= 0")
    if Q == 0:
        return 0
    return binomial(Q + b + 1, a + 1) - binomial(b + 1, a + 1)


@lru_cache(maxsize=None)
def _stirling_row(m: int) -> tuple[int, ...]:
    # Row of signed Stirling numbers of the first kind: coefficients of
    # x(x-1)...(x-m+1), index j <-> x^j. s(m+1, j) = s(m, j-1) - m*s(m, j).
    if m == 0:
        return (1,)
    prev = _stirling_row(m - 1)
    row = [0] * (m + 1)
    for j in range(m + 1):
        lower = prev[j - 1] if 1 <= j <= m else 0
        upper = prev[j] if j < m else 0
        row[j] = lower - (m - 1) * upper
    return tuple(row)


def stirling_first_signed(m: int, j: int) -> int:
    """Signed Stirling number of the first kind s(m, j).

    Coefficient of x^j in the falling factorial x(x-1)...(x-m+1).
    """
    if m < 0 or j < 0:
        raise ValueError("m, j must be >= 0")
    if j > m:
        return 0
    return _stirling_row(m)[j]


@lru_cache(maxsize=None)
def bernoulli(l: int) -> Fraction:
    """Bernoulli number B_l (convention B_1 = -1/2).

    Defined by the recurrence sum_{j=0}^{l} C(l+1, j) B_j = 0 for l >= 1,
    with B_0 = 1. Odd indices >= 3 give 0.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return Fraction(1)
    if l % 2 == 1 and l > 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(l):
        acc += math.comb(l + 1, j) * bernoulli(j)
    return -acc / (l + 1)


@dataclass(frozen=True)
class PiPolynomial:
    """Polynomial in pi^2 with exact rational coefficients.

    ``coeffs[j]`` is the coefficient of (pi^2)^j; index 0 is the rational
    constant term. Odd powers of pi are not representable: no formula in
    scope produces one. Canonical form: no trailing zero coefficients.
    """

    coeffs: tuple[Fraction, ...] = field(default=())

    def __post_init__(self) -> None:
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "PiPolynomial":
        return cls(())

    @classmethod
    def constant(cls, value) -> "PiPolynomial":
        return cls((Fraction(value),))

    @classmethod
    def from_pi_power(cls, coefficient, exponent: int) -> "PiPolynomial":
        """The monomial coefficient * pi^exponent (even exponent >= 0)."""
        if exponent < 0 or exponent % 2 != 0:
            raise ValueError("pi exponent must be even and >= 0")
        coeffs = (Fraction(0),) * (exponent // 2) + (Fraction(coefficient),)
        return cls(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of (pi^2)^j (zero beyond the stored degree)."""
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Fraction(0)

    def terms(self) -> list[tuple[Fraction, int]]:
        """Nonzero terms as (rational coefficient, power of pi) pairs."""
        return [(c, 2 * j) for j, c in enumerate(self.coeffs) if c != 0]

    def __add__(self, other: "PiPolynomial") -> "PiPolynomial":
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return PiPolynomial(
            tuple(self.coefficient(j) + other.coefficient(j) for j in range(n))
        )

    def __neg__(self) -> "PiPolynomial":
        return PiPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "PiPolynomial") -> "PiPolynomial":
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "PiPolynomial":
        if isinstance(other, PiPolynomial):
            if self.is_zero() or other.is_zero():
                return PiPolynomial.zero()
            prod = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
            return PiPolynomial(tuple(prod))
        if isinstance(other, (int, Fraction)):
            return PiPolynomial(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def to_string(self) -> str:
        """Render as e.g. ``-1/1024 + 1/18*pi^2 + 11/270*pi^4`` (ascending)."""
        trms = self.terms()
        if not trms:
            return "0"
        parts: list[str] = []
        for i, (c, e) in enumerate(trms):
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                body = f"pi^{e}" if mag == 1 else f"{mag}*pi^{e}"
            if i == 0:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()


def zeta_even(two_m: int) -> PiPolynomial:
    """Exact zeta(2m) = |B_{2m}| 2^{2m-1} / (2m)! * (pi^2)^m as a PiPolynomial."""
    if two_m <= 0 or two_m % 2 != 0:
        raise ValueError("zeta_even requires a positive even argument")
    coeff = abs(bernoulli(two_m)) * 2 ** (two_m - 1) / Fraction(math.factorial(two_m))
    return PiPolynomial.from_pi_power(coeff, two_m)


def pipoly_eval(poly: PiPolynomial, digits: int = 50) -> mpmath.mpf:
    """Evaluate ``poly`` with pi computed to at least ``digits`` decimal digits.

    Works at digits + 10 internally so doubling the requested precision moves
    the result by far less than 10^-(digits-2). Temporarily adjusts the
    process-global mpmath precision.
    """
    if digits < MIN_EVAL_DIGITS:
        raise ValueError(f"precision must be >= {MIN_EVAL_DIGITS} digits")
    import mpmath

    with mpmath.workdps(digits + 10):
        if poly.is_zero():
            return mpmath.mpf(0)
        pi2 = mpmath.pi**2
        acc = mpmath.mpf(0)
        for c in reversed(poly.coeffs):
            acc = acc * pi2 + mpmath.mpf(c.numerator) / c.denominator
        return +acc
