"""Exact integer/rational combinatorics and polynomials in pi^2.

Everything here is arbitrary-precision and deterministic: Bernoulli and
Stirling numbers are exact rationals and integers, and a polynomial in pi^2
has exact rational coefficients.
Values are evaluated with integers and ``Fraction`` alone: pi comes from
Machin's formula in fixed point, and ``format_significant`` prints a
rational to a given number of significant digits by one ``decimal``
division.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "PiPolynomial",
    "stirling_first_signed",
    "bernoulli",
    "pipoly_eval",
    "format_significant",
]

MIN_EVAL_DIGITS = 16


# One row: a coefficient at n reads only row n - 1, so a loop over n keeps
# no rows it has passed.
@lru_cache(maxsize=1)
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


# (T_0, ..., T_j) with T_0 = 0 as padding, and V(1..j, j) of the recurrence
# in ``_tangent_numbers``. The pair is replaced whole when it grows, so a
# caller reads an old pair or a new one, never part of a step.
_TANGENTS: tuple[tuple[int, ...], list[int]] = ((0,), [])


def _tangent_numbers(k: int) -> tuple[int, ...]:
    """(T_0, T_1, ..., T_j) for some j >= k: the tangent numbers, tan x =
    sum_j T_j x^(2j-1) / (2j-1)!, kept for the process and extended to the
    largest k asked for.

    Brent and Harvey's recurrence (arXiv:1108.0286) starts from V(1, j) =
    (j-1)! and sets V(i, j) = (j-i) V(i, j-1) + (j-i+2) V(i-1, j) for
    i = 2..j; T_j = V(j, j). Index j reads only V(1..j-1, j-1), so each new
    T_j takes O(j) small-integer steps.
    """
    global _TANGENTS
    tangents, column = _TANGENTS
    if k < len(tangents):
        return tangents
    grown = list(tangents)
    for j in range(len(tangents), k + 1):
        v = column[0] * (j - 1) if column else 1
        step = [v]
        for i, before in zip(range(2, j + 1), [*column[1:], 0]):
            v = (j - i) * before + (j - i + 2) * v
            step.append(v)
        column = step
        grown.append(v)
    tangents = tuple(grown)
    _TANGENTS = tangents, column
    return tangents


def bernoulli(l: int) -> Fraction:
    """Bernoulli number B_l (convention B_1 = -1/2).

    Odd indices >= 3 give 0, and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
    from the integer tangent number T_k of ``_tangent_numbers``.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return Fraction(1)
    if l == 1:
        return Fraction(-1, 2)
    if l % 2 == 1:
        return Fraction(0)
    k = l // 2
    four_k = 4**k
    numerator = l * _tangent_numbers(k)[k]
    return Fraction(numerator if k % 2 else -numerator, four_k * (four_k - 1))


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

    Horner's rule runs in integers on C_j = floor(c_j 2^S) with P = pi^2 2^B
    to within 2 units, so the sum stands for the value times 2^S. Beside it
    runs a bound on the sum's error: a step that multiplies by P and floors
    carries an error e to at most (e (P + 2) + 2|sum|) / 2^B + 1, and adding
    the floored C_j adds 1 more. S is set so that the sum is about 2^B, and
    B grows until the bound is relative 10^-(digits+20). The bound is
    relative, as the coefficient at n = 600 is about 10^-1590.
    """
    if digits < MIN_EVAL_DIGITS:
        raise ValueError(f"precision must be >= {MIN_EVAL_DIGITS} digits")
    coeffs = poly.coeffs
    if not coeffs:
        return Fraction(0)
    # a first guess: each step multiplies the error by about pi^2 < 10
    bits = (3 * 10 ** (len(coeffs) - 1 + digits + 20)).bit_length() + 8
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
        pi2_up = pi2 + 2
        acc = scaled[-1]
        err = 1
        for c in reversed(scaled[:-1]):
            err = -(-(err * pi2_up + 2 * abs(acc)) >> bits) + 2
            acc = ((acc * pi2) >> bits) + c
        # this makes err <= 10^-(digits+20) (|acc| - err)
        need = err * (10 ** (digits + 20) + 1)
        if abs(acc) >= need:
            return Fraction(acc, 1 << shift) if shift >= 0 else Fraction(acc << -shift)
        bits += max(need.bit_length() - abs(acc).bit_length() + 1, 16)


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
    context = Context(prec=digits, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)
    rounded = context.divide(abs(x.numerator), x.denominator)
    e = rounded.adjusted()
    s = "".join(map(str, rounded.as_tuple().digits)).ljust(digits, "0")
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            return f"{sign}0.{'0' * (-e - 1)}{s}"
        return f"{sign}{s[: e + 1]}.{s[e + 1 :]}"
    return f"{sign}{s[0]}.{s[1:]}e{e:+d}"

