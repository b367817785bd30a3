"""Output checks for ``kohncount`` commands that share no code with ``src/``.

Every check returns ``None`` when the output is right and a one-line reason
when it is not. The counting oracle is the Dirichlet hyperbola method, which
splits the lattice points under pq <= X at sqrt(X); the program instead walks
the blocks on which X // p is constant, so the two share no algorithm. The
coefficient oracle sums h(k)/k^n through numerical zeta values from mpmath,
with no use of Stirling or Bernoulli numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

PAPER = "paper_restricted"
FULL = "full_spectrum"
CONVENTIONS = {"paper": PAPER, "full": FULL}


def comb(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


# ---------------------------------------------------------------------------
# counting


def _divisor_floor(n: int, conv: str) -> int:
    return n if conv == PAPER else n - 1


@lru_cache(maxsize=None)
def hyperbola_count(n: int, X: int, conv: str) -> int:
    """Number of eigenvalues <= 2X with multiplicity, in O(sqrt X) steps.

    Memoised, so repeated passes pay for each (n, X, convention) once.

    The multiplicity of 2pq is f(p, q) = a1(p) b1(q) + a2(p) b2(q) over
    p >= pmin, q >= 1, with a1 = C(p-1, n-2), b1 = C(q+n-2, n-1),
    a2 = C(p, n-1), b2 = C(q+n-2, n-2). For each product the hyperbola
    method gives sum_{pq<=X} a(p) b(q) =
    sum_{p<=s} a(p) B(X//p) + sum_{q<=s} b(q) A(X//q) - A(s) B(s),
    s = isqrt(X), with the prefix sums A, B in closed form.
    """
    pmin = _divisor_floor(n, conv)

    def A1(P: int) -> int:  # sum_{p=pmin}^{P} C(p-1, n-2)
        return comb(P, n - 1) - comb(pmin - 1, n - 1) if P >= pmin else 0

    def A2(P: int) -> int:  # sum_{p=pmin}^{P} C(p, n-1)
        return comb(P + 1, n) - comb(pmin, n) if P >= pmin else 0

    def B1(Q: int) -> int:  # sum_{q=1}^{Q} C(q+n-2, n-1)
        return comb(Q + n - 1, n)

    def B2(Q: int) -> int:  # sum_{q=1}^{Q} C(q+n-2, n-2)
        return comb(Q + n - 1, n - 1) - 1 if Q >= 1 else 0

    s = math.isqrt(X)
    total = -(A1(s) * B1(s) + A2(s) * B2(s))
    for p in range(pmin, s + 1):
        Q = X // p
        total += comb(p - 1, n - 2) * B1(Q) + comb(p, n - 1) * B2(Q)
    for q in range(1, s + 1):
        P = X // q
        total += comb(q + n - 2, n - 1) * A1(P) + comb(q + n - 2, n - 2) * A2(P)
    return total


def convention_gap_count(n: int, X: int) -> int:
    """N_full - N_paper: the eigenspaces H_{0,q}, sum_{q <= X/(n-1)} C(q+n-1, n-1)."""
    return comb(X // (n - 1) + n, n) - 1


# ---------------------------------------------------------------------------
# leading coefficient


def _poly_mul_linear(poly: list[Fraction], root_shift: int) -> list[Fraction]:
    """poly(k) * (k + root_shift), coefficients ascending."""
    out = [Fraction(0)] * (len(poly) + 1)
    for j, c in enumerate(poly):
        out[j] += c * root_shift
        out[j + 1] += c
    return out


def _binomial_poly(shift: int, m: int) -> list[Fraction]:
    """C(k + shift, m) as a polynomial in k (ascending coefficients)."""
    poly = [Fraction(1)]
    for i in range(m):
        poly = _poly_mul_linear(poly, shift - i)
    return [c / math.factorial(m) for c in poly]


@lru_cache(maxsize=None)
def coefficient(n: int, conv: str, digits: int) -> mpmath.mpf:
    """c = (sum_k h(k)/k^n - gap) / (2^n n!) with h(k) = C(k+n-2, n-2) + C(k-1, n-2).

    Expands h in powers of k and sums each power against mpmath's zeta, at a
    working precision raised by the size of the coefficients so cancellation
    cannot eat the requested digits (the sum itself is >= h(1) >= 1).
    """
    h = [a + b for a, b in zip(_binomial_poly(n - 2, n - 2), _binomial_poly(-1, n - 2))]
    magnitude = sum(abs(c) for c in h) + 1
    dps = digits + 20 + len(str(magnitude.numerator // magnitude.denominator))
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for j, c in enumerate(h):
            if c:
                total += mpmath.mpf(c.numerator) / c.denominator * mpmath.zeta(n - j)
        if conv == PAPER:
            total -= mpmath.mpf(1) / mpmath.mpf(n - 1) ** n
        value = total / (2**n * math.factorial(n))
    return value


def coefficient_gap(n: int) -> Fraction:
    """c_full - c_paper = (n-1)^-n / (2^n n!)."""
    return Fraction(1, (n - 1) ** n * 2**n * math.factorial(n))


def parse_pi_polynomial(text: str) -> dict[int, Fraction]:
    """``-1/1024 + 1/18*pi^2 - pi^4`` -> {0: -1/1024, 2: 1/18, 4: -1}."""
    terms: dict[int, Fraction] = {}
    tokens = text.strip().split(" ")
    sign = 1
    for tok in tokens:
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, has_pi, power = tok.partition("pi")
        coeff = coeff.rstrip("*") or "1"
        exponent = 0 if not has_pi else (int(power[1:]) if power else 1)
        terms[exponent] = terms.get(exponent, Fraction(0)) + sign * Fraction(coeff)
        sign = 1
    return {e: c for e, c in terms.items() if c}


def eval_pi_polynomial(terms: dict[int, Fraction], digits: int) -> mpmath.mpf:
    magnitude = sum(abs(c) * 10**e for e, c in terms.items()) + 1
    dps = digits + 20 + len(str(int(magnitude)))
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for e, c in terms.items():
            total += mpmath.mpf(c.numerator) / c.denominator * mpmath.pi**e
        return +total


def weyl_exact(n: int, normalization: str) -> str:
    """Expected ``weyl`` string: 4^n/(n!)^2 pi^(4n), or 1/(4^n (n!)^2)."""
    omega_sq = Fraction(1, math.factorial(n) ** 2)
    if normalization == "paper-text":
        return f"{_rational(4**n * omega_sq)}*pi^{4 * n}"
    return _rational(omega_sq / 4**n)


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# per-command checks


METHODS = {
    "series": ["series"],
    "closed": ["closed_form"],
    "empirical": ["empirical"],
    "all": ["series", "closed_form", "empirical"],
}


def check(req: dict, out: str) -> str | None:
    """Check one request's stdout: None when right, else the reason."""
    try:
        return CHECKS[req["cmd"]](req, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # JSONDecodeError is a ValueError
        return f"unparsable output: {exc!r}"


def _check_count(req: dict, out: str) -> str | None:
    got = parse_count(req["fmt"], out)
    n, lam, conv = req["n"], req["lam"], CONVENTIONS[req["conv"]]
    if req.get("oracle", True):
        want = hyperbola_count(n, lam // 2, conv)
        if got != want:
            return f"count {got} != hyperbola oracle {want}"
    return None


def _check_spectrum(req: dict, out: str) -> str | None:
    rows = parse_spectrum(req["fmt"], out)
    n, lam_max, conv = req["n"], req["lam"], CONVENTIONS[req["conv"]]
    cumulative, prev = 0, 0
    for ev, mult, cum in rows:
        if ev % 2 or ev <= prev or ev > lam_max or mult <= 0:
            return f"bad spectrum row {ev} {mult}"
        cumulative += mult
        if cum != cumulative:
            return f"cumulative {cum} != running sum {cumulative} at {ev}"
        prev = ev
    want = hyperbola_count(n, lam_max // 2, conv)
    if cumulative != want:
        return f"final cumulative {cumulative} != hyperbola oracle {want}"
    return None


def _check_converge(req: dict, out: str) -> str | None:
    lines = out.splitlines()
    if lines[0] != "lambda,count,residual,normalized":
        return f"bad converge header {lines[0]!r}"
    rows = list(csv.reader(lines[1:]))
    if len(rows) != len(req["lams"]):
        return f"{len(rows)} converge rows for {len(req['lams'])} lambdas"
    conv = CONVENTIONS[req["conv"]]
    for (lam_s, count_s, _, _), lam in zip(rows, req["lams"]):
        if float(lam_s) != lam:
            return f"converge row lambda {lam_s} != {lam}"
        want = hyperbola_count(req["n"], lam // 2, conv)
        if int(count_s) != want:
            return f"converge count {count_s} at {lam} != hyperbola oracle {want}"
    return None


def _check_weyl(req: dict, out: str) -> str | None:
    want = weyl_exact(req["n"], req["norm"])
    fmt = req["fmt"]
    if fmt == "text":
        got = out.rstrip("\n")
    elif fmt == "csv":
        got = list(csv.reader(io.StringIO(out)))[1][2]
    else:
        got = json.loads(out)["exact"]
    if got != want:
        return f"weyl {got!r} != {want!r}"
    return None


def _check_coeff(req: dict, out: str) -> str | None:
    reports = parse_coeff(req["fmt"], out)
    n = req["n"]
    methods = METHODS[req["method"]]
    convs = [PAPER, FULL] if req["conv"] == "both" else [CONVENTIONS[req["conv"]]]
    if sorted((r["convention"], r["method"]) for r in reports) != sorted(
        (c, m) for c in convs for m in methods
    ):
        return "coeff reports do not match the requested methods and conventions"
    closed = {}
    for r in reports:
        digits = int(r.get("digits") or req["precision"])
        with mpmath.workdps(digits + 20):
            value = mpmath.mpf(r["value"])
            truth = coefficient(n, r["convention"], digits)
            rounding = abs(truth) * mpmath.mpf(10) ** (3 - digits)
            if r["method"] == "series":
                bound = mpmath.mpf(r["error_bound"])
                if abs(value - truth) > bound + rounding:
                    return f"series value misses the oracle by more than {r['error_bound']}"
            elif r["method"] == "closed_form":
                terms = parse_pi_polynomial(r["exact"])
                closed[r["convention"]] = terms
                if abs(eval_pi_polynomial(terms, digits) - truth) > rounding:
                    return "closed exact form does not evaluate to the oracle"
                if abs(value - truth) > rounding:
                    return "closed value differs from the oracle"
            else:
                lam = int(float(r["lambda"]))
                want = hyperbola_count(n, lam // 2, r["convention"]) / lam**n
                if abs(float(value) - want) > 1e-12 * want:
                    return f"empirical value {float(value)!r} != oracle {want!r}"
    if len(closed) == 2:
        pa, fu = closed[PAPER], closed[FULL]
        if {e: c for e, c in pa.items() if e} != {e: c for e, c in fu.items() if e}:
            return "closed forms differ beyond the constant term"
        if fu.get(0, 0) - pa.get(0, 0) != coefficient_gap(n):
            return "closed forms do not differ by the convention gap"
    return None


CHECKS = {
    "count": _check_count,
    "spectrum": _check_spectrum,
    "converge": _check_converge,
    "weyl": _check_weyl,
    "coeff": _check_coeff,
}


def check_count_group(results: list[tuple[dict, int]]) -> str | None:
    """Equal counts for --workers 1 and 2, and the convention-gap identity.

    ``results`` holds (request, parsed count) for one (n, lambda).
    """
    by_conv: dict[str, set[int]] = {}
    for req, got in results:
        by_conv.setdefault(CONVENTIONS[req["conv"]], set()).add(got)
    for conv, counts in by_conv.items():
        if len(counts) != 1:
            return f"{conv} counts differ across --workers: {sorted(counts)}"
    if PAPER in by_conv and FULL in by_conv:
        req = results[0][0]
        (paper,), (full,) = by_conv[PAPER], by_conv[FULL]
        want = convention_gap_count(req["n"], req["lam"] // 2)
        if full - paper != want:
            return f"N_full - N_paper = {full - paper} != C(X/(n-1)+n, n) - 1 = {want}"
    return None


# ---------------------------------------------------------------------------
# output parsers


def parse_count(fmt: str, out: str) -> int:
    if fmt == "text":
        return int(out.strip())
    if fmt == "json":
        return int(json.loads(out)["count"])
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["n", "lambda", "convention", "count"]:
        raise ValueError(f"bad count header {rows[0]}")
    return int(rows[1][3])


def parse_spectrum(fmt: str, out: str) -> list[tuple[int, int, int]]:
    if fmt == "json":
        return [
            (e["eigenvalue"], e["multiplicity"], e["cumulative"])
            for e in json.loads(out)["entries"]
        ]
    lines = out.splitlines()
    sep = "," if fmt == "csv" else " "
    if lines[0] != sep.join(["eigenvalue", "multiplicity", "cumulative"]):
        raise ValueError(f"bad spectrum header {lines[0]!r}")
    return [tuple(int(v) for v in line.split(sep)) for line in lines[1:]]


def parse_coeff(fmt: str, out: str) -> list[dict]:
    if fmt == "json":
        return json.loads(out)["reports"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    reports = []
    for block in out.strip("\n").split("\n\n"):
        fields = dict(line.split(" = ", 1) for line in block.splitlines())
        if "method" in fields:  # the trailing block holds the gap lines
            reports.append(fields)
    return reports
