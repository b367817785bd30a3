"""Exact integer/rational combinatorics and polynomials in pi^2.

Everything here is arbitrary-precision and deterministic: Bernoulli and
Stirling numbers are exact rationals and integers, and zeta at even integers
is represented symbolically as a rational multiple of a power of pi^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

__all__ = [
    "PiPolynomial",
    "stirling_first_signed",
    "bernoulli",
    "zeta_even",
    "pipoly_eval",
]

MIN_EVAL_DIGITS = 16


@lru_cache(maxsize=None)
def _stirling_row(m: int) -> tuple[int, ...]:
    # Row of signed Stirling numbers of the first kind: coefficients of
    # x(x-1)...(x-m+1), index j <-> x^j, built by multiplying in each (x - i).
    row = [1]
    for i in range(m):
        row = [lower - i * upper for lower, upper in zip([0] + row, row + [0])]
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


class PiPolynomial:
    """Polynomial in pi^2 with exact rational coefficients; immutable.

    ``coeffs[j]`` is the coefficient of (pi^2)^j; index 0 is the rational
    constant term. Odd powers of pi are not representable: no formula in
    scope produces one. Canonical form: no trailing zero coefficients.
    """

    __slots__ = ("coeffs",)
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs=()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PiPolynomial is immutable")

    def __delattr__(self, name):
        raise AttributeError("PiPolynomial is immutable")

    def __reduce__(self):
        return PiPolynomial, (self.coeffs,)

    def __eq__(self, other):
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PiPolynomial(coeffs={self.coeffs!r})"

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

    def __add__(self, other: "PiPolynomial") -> "PiPolynomial":
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return PiPolynomial(tuple(a + b for a, b in pairs))

    def __sub__(self, other: "PiPolynomial") -> "PiPolynomial":
        if not isinstance(other, PiPolynomial):
            return NotImplemented
        return self + other * -1

    def __mul__(self, other) -> "PiPolynomial":
        """Scale by an ``int`` or ``Fraction``."""
        if isinstance(other, (int, Fraction)):
            return PiPolynomial(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def to_string(self) -> str:
        """Render as e.g. ``-1/1024 + 1/18*pi^2 + 11/270*pi^4`` (ascending)."""
        terms = [(c, 2 * j) for j, c in enumerate(self.coeffs) if c != 0]
        if not terms:
            return "0"
        parts: list[str] = []
        for i, (c, e) in enumerate(terms):
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
        pi2 = mpmath.pi**2
        acc = mpmath.mpf(0)
        for c in reversed(poly.coeffs):
            acc = acc * pi2 + mpmath.mpf(c.numerator) / c.denominator
        return +acc
