"""Slow reference algorithms that the tests compare the library against.

Each one computes the same quantity as a production path by a different
route: multiplicities by trial division per m instead of the (p, q) sieve,
and the counting sum one p at a time instead of in blocks of constant X//p.
"""

import math

from kohncount.exact import binomial
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
