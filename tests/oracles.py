"""Slow reference algorithms that the tests compare the library against.

Each one computes the same quantity as a production path by a different
route: multiplicities by trial division per m instead of the (p, q) sieve,
and the counting sum over p, one at a time or in blocks of constant X//p,
instead of by the Dirichlet hyperbola method. ``parse_pi_string`` reads back
what ``PiPolynomial.to_string`` writes, so the tests can check that rendering.
"""

import math
from fractions import Fraction

from kohncount.exact import PiPolynomial, binomial
from kohncount.spectrum import CountingConvention, validate_sphere_n


def f_value(n, p, q):
    """Reindexed eigenspace dimension f(p, q) = f1 + f2.

    f1 = C(p-1, n-2) C(q+n-2, n-1) and f2 = C(p, n-1) C(q+n-2, n-2); for
    p >= n-1 the total equals dim H_{p-n+1, q}. The product form avoids the
    0/0 of the division form at p = n-1.
    """
    validate_sphere_n(n)
    if q < 1:
        raise ValueError("q must be >= 1")
    f1 = binomial(p - 1, n - 2) * binomial(q + n - 2, n - 1)
    f2 = binomial(p, n - 1) * binomial(q + n - 2, n - 2)
    return f1 + f2


def delta_M(n, m, conv):
    """Multiplicity of the eigenvalue 2m: sum of f(p, m/p) over divisors p.

    Divisors are restricted to p >= n (paper_restricted) or p >= n-1
    (full_spectrum), and found by trial division up to sqrt(m).
    """
    validate_sphere_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    pmin = n if conv is CountingConvention.PAPER_RESTRICTED else n - 1
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            if d >= pmin:
                total += f_value(n, d, m // d)
            other = m // d
            if other != d and other >= pmin:
                total += f_value(n, other, d)
        d += 1
    return total


def count_linear_range(n, X, p_lo, p_hi):
    """Sum of f(p, q) over p in [p_lo, p_hi], q <= X//p, one p at a time.

    O(X) steps; the inner q-sums are collapsed by the hockey-stick identity.
    """
    total = 0
    for p in range(p_lo, p_hi + 1):
        Q = X // p
        A = math.comb(Q + n - 1, n)
        B = math.comb(Q + n - 1, n - 1) - 1
        total += binomial(p - 1, n - 2) * A + binomial(p, n - 1) * B
    return total


def count_block_range(n, X, p_lo, p_hi):
    """Sum of f(p, q) over p in [p_lo, p_hi], q <= X//p, exactly.

    Iterates the O(sqrt X) blocks on which Q = X//p is constant and collapses
    each block's p-sum with a second hockey-stick identity, so both loops of
    the transposed double sum are in closed form.
    """
    total = 0
    p = p_lo
    while p <= p_hi:
        Q = X // p
        p2 = min(X // Q, p_hi)
        # Collapsed inner q-sums: A(Q) = sum_{q<=Q} C(q+n-2, n-1) = C(Q+n-1, n)
        # and B(Q) = sum_{q<=Q} C(q+n-2, n-2) = C(Q+n-1, n-1) - 1 (hockey stick).
        A = math.comb(Q + n - 1, n)
        B = math.comb(Q + n - 1, n - 1) - 1
        # sum_{p'=p}^{p2} C(p'-1, n-2) and sum_{p'=p}^{p2} C(p', n-1)
        s1 = math.comb(p2, n - 1) - math.comb(p - 1, n - 1)
        s2 = math.comb(p2 + 1, n) - math.comb(p, n)
        total += A * s1 + B * s2
        p = p2 + 1
    return total


def _parse_pi_term(term):
    if "*" in term:
        coeff_str, pi_str = term.split("*", 1)
    elif term.startswith("pi"):
        coeff_str, pi_str = "1", term
    else:
        coeff_str, pi_str = term, ""
    coeff = Fraction(coeff_str)
    if not pi_str:
        return coeff, 0
    if pi_str == "pi":
        return coeff, 1
    if not pi_str.startswith("pi^"):
        raise ValueError(f"malformed pi term: {term!r}")
    return coeff, int(pi_str[3:])


def parse_pi_string(text):
    """Inverse of ``PiPolynomial.to_string``; odd powers of pi raise ValueError."""
    text = text.strip()
    if text == "0":
        return PiPolynomial.zero()
    # normalize "a - b" into "a + -b" then split on " + "
    normalized = text.replace(" - ", " + -")
    result = PiPolynomial.zero()
    for term in normalized.split(" + "):
        coeff, exponent = _parse_pi_term(term.strip())
        result = result + PiPolynomial.from_pi_power(coeff, exponent)
    return result
