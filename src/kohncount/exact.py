"""Exact integer/rational combinatorics and polynomials in pi^2.

Everything here is arbitrary-precision and deterministic: Bernoulli and
Stirling numbers are exact rationals and integers, and zeta at even integers
is represented symbolically as a rational multiple of a power of pi^2.
Values are evaluated with integers and ``Fraction`` alone: pi comes from
Machin's formula in fixed point, and ``format_significant`` prints a
rational to a given number of significant digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PiPolynomial",
    "stirling_first_signed",
    "bernoulli",
    "zeta_even",
    "pipoly_eval",
    "format_significant",
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

    def __mul__(self, other) -> "PiPolynomial":
        """Scale by an ``int`` or ``Fraction``."""
        if isinstance(other, (int, Fraction)):
            return PiPolynomial(tuple(c * other for c in self.coeffs))
        return NotImplemented

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
    return PiPolynomial((0,) * (two_m // 2) + (coeff,))


def _arccot(x: int, one: int) -> int:
    """arccot(x) = sum_k (-1)^k / ((2k+1) x^(2k+1)) in fixed point, with
    ``one`` for 1; each term is floored, and with it its power of 1/x."""
    x2 = x * x
    power = total = one // x
    k = 3
    while power:
        power //= x2
        total += (power // k) if k % 4 == 1 else -(power // k)
        k += 2
    return total


@lru_cache(maxsize=None)
def _pi_squared(bits: int) -> int:
    """pi^2 2^bits, within 2 of the true value.

    Machin's formula pi = 16 arccot(5) - 4 arccot(239) is summed with guard
    bits that hold its floors: each term errs by less than 2 units, and
    there are fewer than (bits + guard)/4 of them. pi is taken to bits + 4
    bits, so its square errs by less than 1 unit before the last floor.
    """
    guard = bits.bit_length() + 8
    one = 1 << (bits + 4 + guard)
    pi = (16 * _arccot(5, one) - 4 * _arccot(239, one)) >> guard
    return (pi * pi) >> (bits + 8)


def pipoly_eval(poly: PiPolynomial, digits: int = 50) -> Fraction:
    """``poly`` at pi, as a ``Fraction`` within relative 10^-(digits+20).

    Horner's rule runs in integers on C_j = floor(c_j 2^S) with pi^2 to B
    bits, so the sum stands for the value times 2^S. Each step floors twice,
    and each floor is carried through at most deg factors pi^2 < 10; pi^2
    errs by less than 2^(1-B). Together the sum errs by less than ``slack``.
    S is set so that the sum is about 2^B, and S and B grow until ``slack``
    is relative 10^-(digits+20). The bound is relative, as the coefficient
    at n = 600 is about 10^-1590.
    """
    if digits < MIN_EVAL_DIGITS:
        raise ValueError(f"precision must be >= {MIN_EVAL_DIGITS} digits")
    coeffs = poly.coeffs
    if not coeffs:
        return Fraction(0)
    deg = len(coeffs) - 1
    floors = 3 * 10**deg
    bits = (floors * 10 ** (digits + 20)).bit_length() + 8
    # log2 of the largest term, as pi^2 > 2^3
    top = max(
        c.numerator.bit_length() - c.denominator.bit_length() + 3 * j
        for j, c in enumerate(coeffs)
        if c
    )
    while True:
        shift = bits - top
        pi2 = _pi_squared(bits)
        scaled = [
            (c.numerator << shift) // c.denominator
            if shift >= 0
            else c.numerator // (c.denominator << -shift)
            for c in coeffs
        ]
        acc = 0
        for c in reversed(scaled):
            acc = ((acc * pi2) >> bits) + c
        # |c_j| 2^S < |C_j| + 1 bounds what the error of pi^2 moves
        moved = sum(
            j * (abs(c) + 1) * 10 ** (j - 1) for j, c in enumerate(scaled[1:], start=1)
        )
        slack = floors + (2 * moved >> bits) + 1
        # this makes slack <= 10^-(digits+20) (|acc| - slack)
        need = slack * (10 ** (digits + 20) + 1)
        if abs(acc) >= need:
            return Fraction(acc, 1 << shift) if shift >= 0 else Fraction(acc << -shift)
        bits += max(need.bit_length() - abs(acc).bit_length() + 1, 16)


def _floor_log10(x: Fraction) -> int:
    if x <= 0:
        raise ValueError("positive value required")
    p, q = x.numerator, x.denominator
    # log10(2) < 0.30103 puts this estimate at or below floor(log10 x)
    est = int((p.bit_length() - q.bit_length()) * 0.30103) - 2
    # x >= 10^(est+1), in integers
    while p * 10 ** max(-est - 1, 0) >= q * 10 ** max(est + 1, 0):
        est += 1
    return est


def format_significant(x: Fraction, digits: int) -> str:
    """x rounded half up to ``digits`` significant digits, with trailing zeros.

    With e = floor(log10 |x|) after rounding, it is spelled in fixed point
    when min(-(digits // 3), -5) < e < digits, else as ``D.DDDe+E`` or
    ``D.DDDe-E``. At e = digits - 1 the fixed form ends in ``.``; zero is
    ``0.0``. These are the spellings of mpmath's ``nstr(x, digits,
    strip_zeros=False)``, in which the outputs were first pinned. Raises
    ``ValueError`` when ``digits`` < 1.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if x == 0:
        return "0.0"
    sign = "-" if x < 0 else ""
    e = _floor_log10(abs(x))
    shift = digits - 1 - e
    num, den = abs(x.numerator), x.denominator
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    m = (2 * num + den) // (2 * den)
    if m == 10**digits:
        m //= 10
        e += 1
    s = str(m)
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            return f"{sign}0.{'0' * (-e - 1)}{s}"
        return f"{sign}{s[: e + 1]}.{s[e + 1 :]}"
    return f"{sign}{s[0]}.{s[1:]}e{e:+d}"


def _to_float(x: Fraction) -> float:
    """x rounded to 53 significant bits, ties to even, then scaled by its
    power of two: a subnormal result is rounded twice, and one beyond the
    float range is +-inf. ``float(x)`` rounds once and raises
    ``OverflowError``; this is the rule the pinned outputs were made with.
    """
    p, q = x.numerator, x.denominator
    if p == 0:
        return 0.0
    a = abs(p)
    # a/q * 2^shift in [2^52, 2^53)
    shift = 53 - (a.bit_length() - q.bit_length())
    num, den = (a << shift, q) if shift >= 0 else (a, q << -shift)
    if num >= den << 53:
        shift -= 1
        num, den = (a << shift, q) if shift >= 0 else (a, q << -shift)
    m, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    try:
        return math.ldexp(m if p > 0 else -m, -shift)
    except OverflowError:
        return math.inf if p > 0 else -math.inf
