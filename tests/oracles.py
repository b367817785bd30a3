"""Reference algorithms and formulas that the tests check the library against.

Each algorithm computes the same quantity as a production path by a different
route: multiplicities by trial division per m, or one divisor pair at a time
(``multiplicities_by_divisors``) or one (p, q) pair at a time
(``multiplicity_sieve``), instead of by polynomial runs, and the
counting sum over p, one at a time or in blocks of constant X//p, instead of
by the Dirichlet hyperbola method. ``count_index_range`` is the
hyperbola count with binomials at every index. ``index_term`` is one
index's term of the library's kernels in binomials, the oracle of their
sums, and ``count_from_index_terms`` closes the hyperbola from the whole
sum one index at a time, where the library takes one closed form;
``block_sums_by_maps`` sums the block kernel's terms through ``map``
pipelines instead of as written. The formulas (total
binomials, hockey-stick sums, dim H_{p,q}, eigenvalues, the h polynomial and
the partial-sum lemma ratio) are the paper's definitions, written out directly;
``harmonic_dim`` finds dim H_{p,q} from the operator instead, as the
dimension of a kernel.
``divisor_sigma`` sieves the divisor sums sigma(m), with no hyperbola and no
binomials, for the closed forms of the count and the table at n = 2 and 3.
``window_count`` sieves the divisor pairs of each m in a window (a, b] for
N(2b) - N(2a), with no hyperbola and no kernel, where b is beyond the
whole-range oracles' reach.
``bernoulli_by_recurrence`` is the defining O(l^2) recurrence of the
Bernoulli numbers, which the library takes from tangent numbers instead.
``zeta_even`` writes zeta(2m) as a multiple of (pi^2)^m from the library's
B_2m, for the tests to check against partial sums of k^-2m.
``dirichlet_weights`` expands f(p, q) into the weights of its Dirichlet
series, a double sum of zeta(s-j) zeta(s-k), and
``leading_coefficient_by_residues`` takes the leading coefficient from
that series' residue at s = n, a fourth route that shares no algebra with
the closed form's h(k) and Stirling row.
``leading_coefficient_by_heat_kernel`` takes it by quadrature, as the finite
part of the Heisenberg heat-kernel integral behind the Folland-Stein
operators, a route that shares no code with the library.
``tail_derivative_bounds`` sums the series' tail bounds term by term in
``Fraction``, and ``tail_bracket`` builds the tail bracket from them, where
the library sums both points in one pass in integers over one denominator.
``select_truncation_by_halving`` finds the series truncation K by doubling
and a hand-written halving loop, where the library ends in ``bisect_left``.
``pipoly_eval_closed_bound`` accepts the library's Horner sum on a
closed-form error bound, where the library carries a running one;
``format_significant_by_integers`` rounds in integers, with a log estimate
and a search (``floor_log10_by_search``) and a hand carry, where the
library takes one ``decimal`` division. ``series_working_precision`` takes
the series' working precision from the same floor log10, where the library
raises it one digit at a time until its round-off allowance fits.
``parse_pi_string`` reads back what ``PiPolynomial.to_string`` writes, so the
tests can check that rendering. ``csv_text`` renders rows through
``csv.writer``, and ``spectrum_csv`` and ``spectrum_json`` render spectrum
tables through the ``csv`` and ``json`` modules, for the library's and the
CLI's direct writers to match byte for byte. ``to_mpf`` takes a report's
``Fraction`` value into mpmath, which the tests use as a numeric oracle.
"""

import csv
import io
import itertools
import json
import math
import operator
from fractions import Fraction
from functools import lru_cache

import mpmath

from kohncount.asymptotics import _tail_bracket
from kohncount.exact import MIN_EVAL_DIGITS, PiPolynomial, _pi_squared, bernoulli
from kohncount.spectrum import (
    _TERM_BLOCK,
    CountingConvention,
    WorkLimitError,
    validate_sphere_n,
)


def to_mpf(x: Fraction) -> mpmath.mpf:
    """x at mpmath's working precision."""
    return mpmath.mpf(x.numerator) / x.denominator


def binomial(a, b):
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


def hockey_stick_sum(Q, b, a):
    """Exact partial sum sum_{q=1}^{Q} C(q+b, a) = C(Q+b+1, a+1) - C(b+1, a+1)."""
    if Q < 0:
        raise ValueError("Q must be >= 0")
    if b < 0 or a < 0:
        raise ValueError("a, b must be >= 0")
    if Q == 0:
        return 0
    return binomial(Q + b + 1, a + 1) - binomial(b + 1, a + 1)


def lemma_ratio(a, b, y):
    """Ratio of the exact partial sum sum_{q<=y} C(q+b, a) to y^{a+1}/(a+1)!."""
    if a < 0 or b < 0:
        raise ValueError("a, b must be >= 0")
    if y < 1:
        raise ValueError("y must be >= 1")
    exact = hockey_stick_sum(math.floor(y), b, a)
    return exact * math.factorial(a + 1) / y ** (a + 1)


def hpq_dim(n, p, q):
    """dim H_{p,q}(S^{2n-1}) for bidegree (p, q), both >= 0.

    C(n+p-1, p) C(n+q-1, q) - C(n+p-2, p-1) C(n+q-2, q-1); the zero-binomial
    conventions make p = 0 and q = 0 come out right.
    """
    validate_sphere_n(n)
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be >= 0")
    return binomial(n + p - 1, p) * binomial(n + q - 1, q) - binomial(
        n + p - 2, p - 1
    ) * binomial(n + q - 2, q - 1)


def harmonic_dim(n, p, q):
    """dim H_{p,q}(S^{2n-1}) from first principles: the dimension of the
    kernel of sum_j d/dz_j d/dzbar_j on the polynomials of bidegree (p, q).

    The monomial z^alpha zbar^beta with |alpha| = p and |beta| = q is the
    key (alpha, beta) of a dictionary of coefficients, and the operator
    sends it to sum_j alpha_j beta_j z^(alpha - e_j) zbar^(beta - e_j). The
    kernel's dimension is the number of monomials less the rank of their
    images, found by exact elimination over ``Fraction``.
    """
    validate_sphere_n(n)

    def exponents(degree):
        return [
            tuple(map(c.count, range(n)))
            for c in itertools.combinations_with_replacement(range(n), degree)
        ]

    def lower(e, j):
        return e[:j] + (e[j] - 1,) + e[j + 1 :]

    basis = [(a, b) for a in exponents(p) for b in exponents(q)]
    # each row of the echelon form by its first key, with a non-zero entry there
    pivots = {}
    for a, b in basis:
        row = {(lower(a, j), lower(b, j)): Fraction(a[j] * b[j]) for j in range(n)}
        row = {k: v for k, v in row.items() if v}
        while row and (first := min(row)) in pivots:
            pivot = pivots[first]
            factor = row[first] / pivot[first]
            for k, v in pivot.items():
                if x := row.get(k, 0) - factor * v:
                    row[k] = x
                else:
                    del row[k]
        if row:
            pivots[first] = row
    return len(basis) - len(pivots)


def eigenvalue(n, p, q):
    """Eigenvalue 2q(p+n-1) on the bidegree-(p, q) harmonics."""
    validate_sphere_n(n)
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be >= 0")
    return 2 * q * (p + n - 1)


def h_poly(n, k):
    """h(k) = C(k+n-2, n-2) + C(k-1, n-2), via generalized binomials.

    Defined for every integer k so parity properties can be tested at
    negative arguments; positive k is the case the series uses.
    """
    validate_sphere_n(n)
    return binomial(k + n - 2, n - 2) + binomial(k - 1, n - 2)


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


def multiplicity_sieve(n, m_max, conv):
    """delta M table by looping every (p, q) pair with q(p+n-1) <= m_max."""
    table = [0] * (m_max + 1)
    p_floor = 1 if conv is CountingConvention.PAPER_RESTRICTED else 0
    for p in range(p_floor, m_max + 2):
        step = p + n - 1
        if step > m_max:
            break
        for q in range(1, m_max // step + 1):
            table[q * step] += hpq_dim(n, p, q)
    return table


def multiplicities_by_divisors(n: int, M: int, pmin: int) -> list[int]:
    """The multiplicities of m = pmin..M, adding f(p, q) for one divisor
    pair at a time: O(M log M) steps, each of two multiplications."""
    q_max = M // pmin
    # C(q+n-2, n-1) and C(q+n-2, n-2) for q = 1..q_max
    A = [math.comb(q + n - 2, n - 1) for q in range(1, q_max + 1)]
    B = [math.comb(q + n - 2, n - 2) for q in range(1, q_max + 1)]
    mult = [0] * (M + 1 - pmin)
    for p in range(pmin, M + 1):
        a, b = math.comb(p - 1, n - 2), math.comb(p, n - 1)
        for i, A_q, B_q in zip(range(p - pmin, M + 1 - pmin, p), A, B):
            mult[i] += a * A_q + b * B_q
    return mult


def window_count(n, a, b):
    """{convention: N(2b) - N(2a)}, the sum of mult(m) over a < m <= b, from
    a segmented divisor sieve: every d <= isqrt(b) adds f(d, m/d) and
    f(m/d, d), once when m = d^2, at each of its multiples m >= d^2 in the
    window. f(p, q) is 0 for p < n - 1, so every pair counts in the full
    spectrum, and the paper convention drops the pairs with p = n - 1."""
    comb = math.comb

    def f(p, q):
        A, B = comb(q + n - 2, n - 1), comb(q + n - 2, n - 2)
        return comb(p - 1, n - 2) * A + comb(p, n - 1) * B

    full = column = 0
    for d in range(1, math.isqrt(b) + 1):
        for m in range(max(a // d + 1, d) * d, b + 1, d):
            for p, q in {(d, m // d), (m // d, d)}:
                value = f(p, q)
                full += value
                if p == n - 1:
                    column += value
    return {
        CountingConvention.FULL_SPECTRUM: full,
        CountingConvention.PAPER_RESTRICTED: full - column,
    }


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


def count_index_range(n: int, X: int, pmin: int, i_lo: int, i_hi: int) -> int:
    """Part of the sum of f(p, q) over pq <= X, p >= pmin, q >= 1, exactly.

    f(p, q) = a(p) A(q) + b(p) B(q) with a(p) = C(p-1, n-2), b(p) = C(p, n-1),
    A(q) = C(q+n-2, n-1) and B(q) = C(q+n-2, n-2); for p >= n-1 it equals
    dim H_{p-n+1, q}. Dirichlet hyperbola method with s = isqrt(X) and
    lo = max(s, pmin-1): the index i in [1, s] stands for the column p = i
    (every q <= X//i, when i >= pmin) and the row q = i (lo < p <= X//i).
    These cover each lattice point once, and this sums the columns and rows
    of i in [i_lo, i_hi], a subrange of [1, s]. One loop takes the indices
    whose row and column are both non-empty, with Q = X//i and its linear
    factor computed once for the pair; before it come the rows of i < pmin
    (at most n-1), after it the columns past the last row (at most one).
    Every step updates the binomials in place, at every n.
    """
    comb = math.comb
    m = n - 1
    lo = max(math.isqrt(X), pmin - 1)
    # Every row and column sum is an integer of the form (weight * big
    # binomial * linear factor) / (n(n-1)) minus a part that does not depend
    # on X//i. The numerators go to ``acc``, divided once at the end; the
    # other parts are hockey-stick sums, collected in ``rest``.
    # Rows: over lo < p <= Q = X//i, a(p) sums to C(Q, n-1) - C(lo, n-1) and
    # b(p) to C(Q+1, n) - C(lo+1, n) = C(Q, n-1) (Q+1)/n - C(lo+1, n); also
    # A(i) = B(i) i/(n-1). The row is empty once Q <= lo.
    # Columns: over q <= Q = X//i, A(q) sums to C(Q+n-1, n) = D Q/n with
    # D = C(Q+n-1, n-1) and B(q) to D - 1; also b(i) = a(i) i/(n-1).
    # With L = (n-1)Q + n i, row i adds B(i) C(Q, n-1) (L + n-1) to ``acc``
    # and column i adds a(i) D L.
    acc = rest = 0
    j = min(i_hi, X // (lo + 1))  # the last non-empty row
    k = max(i_lo, pmin)  # the first column
    w = comb(i_lo + n - 2, n - 2)  # B(i), updated in place
    for i in range(i_lo, min(j, k - 1) + 1):
        Q = X // i
        acc += w * comb(Q, m) * (m * Q + n * i + m)
        w = w * (i + m) // (i + 1)
    a = comb(k - 1, n - 2)  # a(i), updated in place
    for i in range(k, j + 1):
        Q = X // i
        L = m * Q + n * i
        acc += w * comb(Q, m) * (L + m) + a * comb(Q + m, m) * L
        w = w * (i + m) // (i + 1)
        a = a * i // (i - n + 2)
    for i in range(max(k, j + 1), i_hi + 1):
        Q = X // i
        acc += a * comb(Q + m, m) * (m * Q + n * i)
        a = a * i // (i - n + 2)
    if i_lo <= j:
        rest += comb(lo, m) * (comb(j + m, n) - comb(i_lo + n - 2, n))
        rest += comb(lo + 1, n) * (comb(j + m, m) - comb(i_lo + n - 2, m))
    if k <= i_hi:
        rest += comb(i_hi + 1, n) - comb(k, n)
    return acc // (n * m) - rest


def index_term(n, i, Q):
    """T(i, Q), what index i adds to the numerator that the library's
    hyperbola kernels sum, in its binomial form (see ``count_N``)."""
    m = n - 1
    T = binomial(i + n - 2, n - 2) * binomial(Q, m) * (m * Q + n * i + m)
    return T + binomial(i - 1, n - 2) * binomial(Q + m, m) * (m * Q + n * i)


def count_from_index_terms(n, X, total):
    """The full count from ``total``, the sum of T(i, X//i) over the indices
    [1, j] that ``count_N`` sums: total / (n(n-1)) less what the rows and
    columns of those indices leave out of it, added one index at a time
    rather than in closed form. That part of row i is
    A(i) C(lo, n-1) + B(i) C(lo+1, n), and of column i b(i)."""
    m = n - 1
    s = math.isqrt(X)
    lo = max(s, n - 2)
    rest = sum(
        binomial(i + n - 2, m) * binomial(lo, m)
        + binomial(i + n - 2, n - 2) * binomial(lo + 1, n)
        + binomial(i, m)
        for i in range(1, min(s, X // lo) + 1)
    )
    return total // (n * m) - rest


def block_sums_by_maps(n: int, X: int, i_lo: int, i_hi: int) -> int:
    """The sum of T(i, X//i) over i in [i_lo, i_hi] for n = 2 and 3, as
    ``spectrum._block_sums`` returns it, with the parts that hold Q = X//i
    built from C pipelines instead of evaluated as written: per block of
    ``_TERM_BLOCK`` indices, Q by ``map`` of ``X.__floordiv__``, the factors
    linear in i as ``range``s, 3i^2 + i - 3 by ``accumulate`` from its
    forward differences (3x^2 + x - 3, 6x + 4, 6), and ``map`` of
    ``operator.mul``, ``add`` and ``sub``.
    """
    mul, add, sub = operator.mul, operator.add, operator.sub
    total = 0
    for x in range(i_lo, i_hi + 1, _TERM_BLOCK):
        y = min(x + _TERM_BLOCK, i_hi + 1)
        Qs = list(map(X.__floordiv__, range(x, y)))
        if n == 2:
            v = map(mul, map(add, Qs, range(2 * x + 1, 2 * y, 2)), Qs)
        else:
            w = itertools.accumulate(
                range(6 * x + 4, 6 * y, 6), initial=3 * x * x + x - 3
            )
            v = map(add, map(mul, Qs, range(2 * x, 2 * y, 2)), w)
            v = map(mul, v, map(add, Qs, itertools.repeat(1)))
            v = map(mul, map(sub, v, range(6 * x, 6 * y, 6)), Qs)
        total += sum(v)
    if n == 2:
        return 2 * total + (i_lo + i_hi) * (i_hi - i_lo + 1)
    return total + 6 * (math.comb(i_hi + 1, 3) - math.comb(i_lo, 3))


def divisor_sigma(M):
    """sigma(m), the sum of the divisors of m, for m = 0..M (sigma(0) = 0):
    each d adds itself to every multiple of d."""
    sigma = [0] * (M + 1)
    for d in range(1, M + 1):
        sigma[d::d] = [x + d for x in sigma[d::d]]
    return sigma


@lru_cache(maxsize=None)
def bernoulli_by_recurrence(l):
    """Bernoulli number B_l (B_1 = -1/2) from the recurrence
    sum_{j=0}^{l} C(l+1, j) B_j = 0 for l >= 1, with B_0 = 1."""
    if l < 0:
        raise ValueError("l must be >= 0")
    if l == 0:
        return Fraction(1)
    if l % 2 == 1 and l > 1:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(l):
        acc += math.comb(l + 1, j) * bernoulli_by_recurrence(j)
    return -acc / (l + 1)


def zeta_even(two_m):
    """Exact zeta(2m) = |B_{2m}| 2^{2m-1} / (2m)! * (pi^2)^m as a PiPolynomial,
    with the library's Bernoulli number."""
    if two_m <= 0 or two_m % 2 != 0:
        raise ValueError("zeta_even requires a positive even argument")
    coeff = abs(bernoulli(two_m)) * 2 ** (two_m - 1) / Fraction(math.factorial(two_m))
    return PiPolynomial((0,) * (two_m // 2) + (coeff,))


def _factor_product(shift, k):
    """k! C(x + shift, k) as its integer coefficients of x^0 .. x^k, the
    product of the linear factors x + shift - t for t < k."""
    coeffs = [1]
    for t in range(k):
        c = shift - t
        coeffs = [c * x + y for x, y in zip([*coeffs, 0], [0, *coeffs])]
    return coeffs


def dirichlet_weights(n):
    """The weights of the Dirichlet series F(s) = sum_{p,q>=1} f(p, q)
    (pq)^-s of the full count, as a function w: F(s) = sum_{j,k} w(j, k)
    zeta(s-j) zeta(s-k) over j, k in [0, n-1], w(j, k) the coefficient of
    p^j q^k in f(p, q).

    f = a(p) A(q) + b(p) B(q) with a(p) = C(p-1, n-2), b(p) = C(p, n-1),
    A(q) = C(q+n-2, n-1) and B(q) = C(q+n-2, n-2), each expanded here from
    its linear factors; both products share the denominator (n-2)! (n-1)!."""
    a = [*_factor_product(-1, n - 2), 0]
    b = _factor_product(0, n - 1)
    A = _factor_product(n - 2, n - 1)
    B = [*_factor_product(n - 2, n - 2), 0]
    D = math.factorial(n - 2) * math.factorial(n - 1)
    return lambda j, k: Fraction(a[j] * A[k] + b[j] * B[k], D)


def leading_coefficient_by_residues(n, conv):
    """c = lim N(lambda)/lambda^n from the residue at s = n of the spectral
    zeta function, as (even, odd): ``even`` the PiPolynomial of the zeta
    values at even integers, and ``odd`` {r: coefficient of zeta(r)} for
    every odd r that appears, kept symbolic.

    With X = lambda/2, Perron's formula gives N ~ Res_{s=n} F(s) X^n / n, so
    c = Res / (n 2^n). Only the terms with j or k = n-1 have a pole at
    s = n, where zeta(s-n+1) has residue 1: Res = sum_{k<n-1}
    (w_{n-1,k} + w_{k,n-1}) zeta(n-k). zeta(2m) = |B_2m| 2^(2m-1)/(2m)!
    (pi^2)^m, with B_2m from ``bernoulli_by_recurrence``. The paper
    convention drops the H_{0,q} family, whose series
    sum_q C(q+n-1, n-1) ((n-1)q)^-s has at s = n the residue
    (n-1)^-n times the q^(n-1) coefficient of C(q+n-1, n-1).
    """
    w = dirichlet_weights(n)
    m = n - 1
    even = [Fraction(0)] * (n // 2 + 1)
    odd = {}
    for k in range(m):
        r, residue = n - k, (w(m, k) + w(k, m)) / (n * 2**n)
        if r % 2:
            odd[r] = residue
        else:
            b = bernoulli_by_recurrence(r)
            even[r // 2] += residue * abs(b) * 2 ** (r - 1) / math.factorial(r)
    if conv is CountingConvention.PAPER_RESTRICTED:
        g = _factor_product(n - 1, m)[m]
        even[0] -= Fraction(g, math.factorial(m) * m**n * n * 2**n)
    return PiPolynomial(even), odd


def leading_coefficient_by_heat_kernel(n, conv, digits):
    """c as an mpf of ``digits`` digits, by quadrature of the Heisenberg
    heat-kernel integral, with no code of the library:

        c_full = 1/(2^(n-1) n! (n-1)!) * integral over R of
                 (tau/sinh tau)^(n-1) e^((n-1)tau) - (2 tau_+)^(n-1),

    where tau_+ = max(tau, 0). (tau/sinh tau)^(n-1) e^(alpha tau)
    integrates to the Weyl constant of the Folland-Stein operator L_alpha
    on S^(2n-1) (Folland and Stein 1974; Beals, Greiner and Stanton
    1984), whose eigenvalue 2pq + (n-1-alpha)p + (n-1+alpha)q is the Kohn
    Laplacian's 2q(p+n-1) at alpha = n-1. There the CR functions' eigenvalue
    (n-1-alpha)p falls to 0 and the integral has a pole, which the
    (2 tau_+)^(n-1) term removes: the Kohn Laplacian's c is its finite part.

    Both sides are integrated over [0, 1, 10, inf) in forms that do not
    cancel: for tau > 0 the integrand is
    (2tau)^(n-1) ((1 - e^(-2tau))^(-(n-1)) - 1), and at t = -tau > 0 it is
    (2t)^(n-1) e^(-2(n-1)t) / (1 - e^(-2t))^(n-1); the naive form loses
    every digit. Expanding (1 - e^(-2tau))^(-(n-1)) term by term gives back
    sum_k k^-n h(k), so the route is independent as code (quadrature),
    not as algebra. The paper convention subtracts the H_{0,q} family's
    1/((n-1)^n 2^n n!).
    """
    m = n - 1
    with mpmath.workdps(digits):

        def right(tau):
            return (2 * tau) ** m * ((-mpmath.expm1(-2 * tau)) ** -m - 1)

        def left(t):
            return (2 * t) ** m * mpmath.exp(-2 * m * t) / (-mpmath.expm1(-2 * t)) ** m

        nodes = [0, 1, 10, mpmath.inf]
        integral = mpmath.quad(right, nodes) + mpmath.quad(left, nodes)
        c = integral / (2**m * math.factorial(n) * math.factorial(m))
        if conv is CountingConvention.PAPER_RESTRICTED:
            c -= mpmath.mpf(1) / (m**n * 2**n * math.factorial(n))
        return +c


def tail_derivative_bounds(a, X):
    """(integral of g over [X, inf), |g'(X)|, g''(X)) for g(x) = sum_m a_m
    x^-2m, given as {m: a_m}, one ``Fraction`` term at a time."""
    integral = sum(c / ((2 * m - 1) * X ** (2 * m - 1)) for m, c in a.items())
    d1 = sum(c * 2 * m / X ** (2 * m + 1) for m, c in a.items())
    d2 = sum(c * 2 * m * (2 * m + 1) / X ** (2 * m + 2) for m, c in a.items())
    return integral, d1, d2


def tail_bracket(a, K):
    """(midpoint, half_width) of the series' midpoint-rule sandwich for the
    tail sum_{k>K} g(k), from the term-by-term sums at X = K + 1/2 and
    X + 1, as ``asymptotics._tail_bracket`` defines it (which yields the
    half-width first)."""
    X = Fraction(2 * K + 1, 2)
    integral, d1, d2 = tail_derivative_bounds(a, X)
    _, d1_next, _ = tail_derivative_bounds(a, X + 1)
    upper_defect, lower_defect = (d2 + d1) / 24, d1_next / 24
    midpoint = integral - (upper_defect + lower_defect) / 2
    return midpoint, (upper_defect - lower_defect) / 2


def select_truncation_by_halving(c, D, target, max_terms):
    """Smallest K >= 2 whose certified tail half-width is <= target, as
    ``asymptotics._select_truncation`` finds it: K doubles up to max_terms,
    the bracket at that cap is the last one tried, and the last doubling
    step is halved until one K is left."""
    lo, hi = 1, 2
    while next(_tail_bracket(c, D, hi)) > target:
        if hi >= max_terms:
            raise WorkLimitError(
                f"series needs more than {max_terms} terms for the "
                "requested tolerance"
            )
        lo, hi = hi, min(2 * hi, max_terms)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if next(_tail_bracket(c, D, mid)) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def pipoly_eval_closed_bound(poly, digits=50):
    """``poly`` at pi within relative 10^-(digits+20), by the same Horner's
    rule as the library, accepted on a closed-form error bound: each step
    floors twice, each floor is carried through at most deg factors
    pi^2 < 10, and pi^2 errs by less than 2^(1-B), so the sum errs by less
    than ``slack``."""
    if digits < MIN_EVAL_DIGITS:
        raise ValueError(f"precision must be >= {MIN_EVAL_DIGITS} digits")
    coeffs = poly.coeffs
    if not coeffs:
        return Fraction(0)
    deg = len(coeffs) - 1
    floors = 3 * 10**deg
    bits = (floors * 10 ** (digits + 20)).bit_length() + 8
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
        need = slack * (10 ** (digits + 20) + 1)
        if abs(acc) >= need:
            return Fraction(acc, 1 << shift) if shift >= 0 else Fraction(acc << -shift)
        bits += max(need.bit_length() - abs(acc).bit_length() + 1, 16)


def floor_log10_by_search(x):
    """floor(log10 x) for a rational x > 0, from a bit-length estimate
    raised one power of ten at a time."""
    if x <= 0:
        raise ValueError("positive value required")
    p, q = x.numerator, x.denominator
    # log10(2) < 0.30103 puts this estimate at or below floor(log10 x)
    est = int((p.bit_length() - q.bit_length()) * 0.30103) - 2
    while p * 10 ** max(-est - 1, 0) >= q * 10 ** max(est + 1, 0):
        est += 1
    return est


def series_working_precision(c, D, K, target, digits):
    """(dps, round-off allowance) of ``asymptotics._series_sum`` at
    truncation K, from a floor log10: u = target / (100 sum_bound (3K + 10))
    is the largest working ulp whose allowance sum_bound (3K + 10) u fits in
    target / 100, and dps = 1 - floor(log10 u), raised to digits + 10 if it
    is below that."""
    sum_bound = Fraction(2 * sum(c), D) + 1
    u = target / (100 * sum_bound * (3 * K + 10))
    dps = max(digits + 10, 1 + max(0, -floor_log10_by_search(u)))
    return dps, sum_bound * (3 * K + 10) * Fraction(10) ** (1 - dps)


def format_significant_by_integers(x, digits):
    """x rounded half up to ``digits`` significant digits in integers, spelled
    as ``exact.format_significant`` spells it."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if x == 0:
        return "0.0"
    sign = "-" if x < 0 else ""
    e = floor_log10_by_search(abs(x))
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


def _parse_pi_term(term):
    if "*" in term:
        coeff_str, pi_str = term.split("*", 1)
    elif term.startswith("pi"):
        coeff_str, pi_str = "1", term
    elif term.startswith("-pi"):
        coeff_str, pi_str = "-1", term[1:]
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
    """Inverse of ``PiPolynomial.to_string``; an odd or repeated power of pi
    raises ValueError."""
    text = text.strip()
    if text == "0":
        return PiPolynomial()
    # normalize "a - b" into "a + -b" then split on " + "
    normalized = text.replace(" - ", " + -")
    by_exponent = {}
    for term in normalized.split(" + "):
        coeff, exponent = _parse_pi_term(term.strip())
        if exponent < 0 or exponent % 2 != 0:
            raise ValueError(f"odd or negative power of pi: {term!r}")
        if exponent in by_exponent:
            raise ValueError(f"repeated power of pi: {term!r}")
        by_exponent[exponent] = coeff
    degree = max(by_exponent) // 2
    return PiPolynomial(tuple(by_exponent.get(2 * j, 0) for j in range(degree + 1)))


def csv_text(rows, delimiter=","):
    """Rows through ``csv.writer``, which quotes any field that needs it."""
    buf = io.StringIO()
    csv.writer(buf, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def spectrum_csv(entries, delimiter=","):
    """The spectrum table through ``csv.writer``."""
    cumulative = itertools.accumulate(mult for _, mult in entries)
    rows = [(ev, mult, c) for (ev, mult), c in zip(entries, cumulative)]
    return csv_text([("eigenvalue", "multiplicity", "cumulative"), *rows], delimiter)


def spectrum_json(entries, header):
    """The spectrum table as one dict payload, through ``json.dumps(indent=2)``."""
    cumulative = itertools.accumulate(mult for _, mult in entries)
    payload = {
        **header,
        "entries": [
            dict(eigenvalue=ev, multiplicity=mult, cumulative=c)
            for (ev, mult), c in zip(entries, cumulative)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
