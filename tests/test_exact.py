"""Exact-arithmetic layer: binomials, Stirling/Bernoulli, zeta, pi-polynomials,
and the decimal rendering of exact values (against mpmath).

Expected values are frozen from independent oracles defined in this file
(direct products, polynomial expansion, brute-force sums, numeric series).
"""

import copy
import math
import pickle
import subprocess
import sys
from fractions import Fraction

import hypothesis.strategies as st
import mpmath
import pytest
from hypothesis import example, given, settings

from kohncount import WorkLimitError, asymptotics, exact
from kohncount.asymptotics import (
    leading_coefficient_closed,
    leading_coefficient_series,
    weyl_ball_constant,
)
from kohncount.exact import (
    PiPolynomial,
    _pi_squared,
    bernoulli,
    format_significant,
    pipoly_eval,
    stirling_first_signed,
    validate_digits,
)
from kohncount.spectrum import CountingConvention
from tests.oracles import (
    bernoulli_by_recurrence,
    binomial,
    format_significant_by_integers,
    hockey_stick_sum,
    parse_pi_string,
    pipoly_eval_closed_bound,
    to_mpf,
    zeta_even,
)

# ---------------------------------------------------------------------------
# oracles


def falling_factorial_coeffs(m):
    """Coefficients of x(x-1)...(x-m+1), expanded term by term."""
    coeffs = [1]
    for i in range(m):
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] += -i * coeffs[j + 1]
    return coeffs


def rising_factorial_coeffs(m):
    coeffs = [1]
    for i in range(m):
        coeffs = [0] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] += i * coeffs[j + 1]
    return coeffs


def binomial_product_oracle(a, b):
    """a(a-1)...(a-b+1)/b! as an exact Fraction (any integer a, b >= 0)."""
    num = 1
    for i in range(b):
        num *= a - i
    return Fraction(num, math.factorial(b))


# ---------------------------------------------------------------------------
# binomial (the total-binomial oracle in oracles.py)


def test_binomial_small_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 3) == 0  # b > a >= 0
    assert binomial(3, -1) == 0  # negative lower index


def test_binomial_pascal_rule():
    for a in range(1, 61):
        for b in range(0, a + 1):
            assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=12))
@settings(derandomize=True, max_examples=300)
def test_binomial_matches_falling_factorial_polynomial(a, b):
    assert binomial(a, b) == binomial_product_oracle(a, b)


def test_binomial_reflection_identity():
    # C(k+n-2, n-2) = (-1)^n C(-k-1, n-2)
    for n in range(2, 11):
        for k in range(1, 31):
            assert binomial(k + n - 2, n - 2) == (-1) ** n * binomial(-k - 1, n - 2)


# ---------------------------------------------------------------------------
# hockey stick (oracles.py)


def test_hockey_stick_examples():
    assert hockey_stick_sum(100, 0, 1) == 5050
    assert hockey_stick_sum(0, 3, 7) == 0
    assert hockey_stick_sum(4, 3, 2) == 52  # C(4,2)+C(5,2)+C(6,2)+C(7,2)
    assert sum(binomial(q + 3, 2) for q in range(1, 5)) == 52


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)
@settings(derandomize=True, max_examples=200)
def test_hockey_stick_matches_brute_force(Q, b, a):
    assert hockey_stick_sum(Q, b, a) == sum(binomial(q + b, a) for q in range(1, Q + 1))


def test_hockey_stick_rejects_negative():
    with pytest.raises(ValueError):
        hockey_stick_sum(-1, 0, 0)
    with pytest.raises(ValueError):
        hockey_stick_sum(3, -1, 0)


# ---------------------------------------------------------------------------
# Stirling numbers


def test_stirling_signed_against_expansion():
    for m in range(0, 11):
        coeffs = falling_factorial_coeffs(m)
        for j in range(0, m + 1):
            assert stirling_first_signed(m, j) == coeffs[j]
        assert stirling_first_signed(m, m + 3) == 0


def test_stirling_frozen_values():
    assert stirling_first_signed(3, 2) == -3  # x^3 - 3x^2 + 2x
    assert stirling_first_signed(4, 1) == -6
    assert all(stirling_first_signed(m, m) == 1 for m in range(0, 11))


@pytest.mark.parametrize("m, j", [(-1, 0), (0, -1)])
def test_stirling_rejects_negative_arguments(m, j):
    with pytest.raises(ValueError, match=r"^m, j must be >= 0$"):
        stirling_first_signed(m, j)


def test_stirling_deep_row():
    # s(m, 1) = (-1)^(m-1) (m-1)!; the row is built without recursion
    assert stirling_first_signed(1000, 1) == -math.factorial(999)


def test_stirling_rows_cached_one_at_a_time():
    # a loop over n keeps only the last row, and one n builds its row once:
    # the series and the closed form under both conventions read row n - 1
    exact._stirling_row.cache_clear()
    for m in range(1, 60):
        stirling_first_signed(m, 1)
    assert exact._stirling_row.cache_info().currsize == 1
    exact._stirling_row.cache_clear()
    asymptotics._series_sum.cache_clear()
    for conv in CountingConvention:
        leading_coefficient_series(40, conv=conv)
        leading_coefficient_closed(40, conv)
    assert exact._stirling_row.cache_info().misses == 1


def test_stirling_unsigned_from_rising_factorial():
    # |s(m, j)| is the coefficient of x^j in x(x+1)...(x+m-1)
    for m in range(0, 11):
        coeffs = rising_factorial_coeffs(m)
        for j in range(0, m + 1):
            assert abs(stirling_first_signed(m, j)) == coeffs[j]
    assert abs(stirling_first_signed(3, 2)) == 3


def test_stirling_sign_pattern_and_row_sums():
    for m in range(0, 9):
        row = [stirling_first_signed(m, j) for j in range(m + 1)]
        assert all(abs(s) == (-1) ** (m - j) * s for j, s in enumerate(row))
        assert sum(abs(s) for s in row) == math.factorial(m)


# ---------------------------------------------------------------------------
# Bernoulli numbers


def test_bernoulli_defining_recurrence():
    # sum_{j=0}^{l} C(l+1, j) B_j = 0 for l >= 1
    for l in range(1, 25):
        total = sum(binomial(l + 1, j) * bernoulli(j) for j in range(l + 1))
        assert total == 0


def test_bernoulli_matches_recurrence():
    # the tangent-number route against the O(l^2) defining recurrence
    for l in range(301):
        assert bernoulli(l) == bernoulli_by_recurrence(l), l


def test_tangent_numbers_kept_for_the_process():
    # a smaller index reads the numbers already made; a larger one extends them
    kept = exact._tangent_numbers(40)
    assert exact._tangent_numbers(10) is kept
    assert exact._tangent_numbers(len(kept))[: len(kept)] == kept
    assert kept[:5] == (0, 1, 2, 16, 272)


@pytest.mark.parametrize("l", [302, 500, 598, 600, 601, 998, 1000, 1001, 1500, 2000])
def test_bernoulli_matches_mpmath(l):
    p, q = mpmath.bernfrac(l)
    assert bernoulli(l) == Fraction(int(p), int(q))


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(5) == 0


def test_bernoulli_rejects_negative_index():
    with pytest.raises(ValueError, match=r"^l must be >= 0$"):
        bernoulli(-1)


def test_bernoulli_odd_vanish_even_alternate():
    assert all(bernoulli(l) == 0 for l in range(3, 30, 2))
    signs = [1 if bernoulli(l) > 0 else -1 for l in range(2, 22, 2)]
    assert signs == [(-1) ** (m + 1) for m in range(1, 11)]


# ---------------------------------------------------------------------------
# zeta at even integers


def test_zeta_even_closed_forms():
    assert zeta_even(2) == PiPolynomial((0, Fraction(1, 6)))
    assert zeta_even(4) == PiPolynomial((0, 0, Fraction(1, 90)))
    assert zeta_even(6) == PiPolynomial((0, 0, 0, Fraction(1, 945)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_zeta_even_against_partial_sums(m):
    # partial sum of k^-2m to 10^6 terms, gap bounded by the integral tail
    terms = 10**6
    partial = math.fsum(k ** (-2 * m) for k in range(1, terms + 1))
    tail_bound = terms ** (1 - 2 * m) / (2 * m - 1)
    value = float(pipoly_eval(zeta_even(2 * m), 30))
    assert abs(value - partial) <= tail_bound + 1e-12


def test_zeta_even_rejects_bad_input():
    for bad in (0, -2, 3):
        with pytest.raises(ValueError):
            zeta_even(bad)


# ---------------------------------------------------------------------------
# PiPolynomial algebra

fractions_strategy = st.fractions(
    min_value=-100, max_value=100, max_denominator=60
)
poly_strategy = st.lists(fractions_strategy, max_size=5).map(
    lambda cs: PiPolynomial(tuple(cs))
)


def test_pipoly_canonical_form():
    assert PiPolynomial((Fraction(1), Fraction(0), Fraction(0))).coeffs == (
        Fraction(1),
    )
    assert PiPolynomial((0, 0)) == PiPolynomial()
    assert PiPolynomial().to_string() == "0"


def test_pipoly_value_semantics():
    # immutable, equal and hashed by the canonical coefficients, and copied
    # or pickled through its constructor
    p = PiPolynomial((1, Fraction(1, 6), 0))
    q = PiPolynomial(coeffs=(Fraction(1), Fraction(1, 6)))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != PiPolynomial((1,)) and p != p.coeffs
    for mutate in (lambda: setattr(p, "coeffs", ()), lambda: delattr(p, "coeffs")):
        with pytest.raises(AttributeError):
            mutate()
    assert p.coeffs == (Fraction(1), Fraction(1, 6))
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p
    assert repr(p) == "PiPolynomial(coeffs=(Fraction(1, 1), Fraction(1, 6)))"


@given(poly_strategy, fractions_strategy)
@settings(derandomize=True, max_examples=150)
def test_pipoly_scaling_distributes(p, c):
    assert (p * c) * 2 == p * (2 * c)


def test_pipoly_scales_by_no_other_type():
    # __mul__ returns NotImplemented, so Python raises TypeError
    with pytest.raises(TypeError):
        PiPolynomial((1,)) * "x"


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ((1, -2, 1), "1 - 2*pi^2 + pi^4"),
        ((0, -1), "-pi^2"),
        ((-1, 0, 1), "-1 + pi^4"),
        ((Fraction(-1, 2), 1, -1), "-1/2 + pi^2 - pi^4"),
        ((0, 0, Fraction(3, 7)), "3/7*pi^4"),
        ((), "0"),
        ((0, 0), "0"),
    ],
)
def test_pipoly_to_string_spelling(coeffs, text):
    # the exact spelling, which the round trip through parse_pi_string does
    # not pin: a later term's sign is " - ", not " + -", and a unit
    # coefficient above the constant is written by its sign alone
    assert PiPolynomial(coeffs).to_string() == text


@given(poly_strategy, poly_strategy)
@example(PiPolynomial((0, -1)), PiPolynomial((-1, 0, 1)))
@settings(derandomize=True, max_examples=100)
def test_pipoly_string_round_trip(p, q):
    for poly in (p, q):
        assert parse_pi_string(poly.to_string()) == poly


def test_pipoly_rejects_odd_pi_powers():
    for text in ("pi", "2*pi^3", "1 + pi^5", "pi^2 + 3*pi^2"):
        with pytest.raises(ValueError):
            parse_pi_string(text)


# ---------------------------------------------------------------------------
# evaluation


def test_pipoly_eval_zero():
    assert pipoly_eval(PiPolynomial(), 30) == 0


def test_pipoly_eval_of_a_large_integer_is_exact():
    # terms above 2^bits are summed unscaled, so an integer constant stays
    # exact however large it is
    assert pipoly_eval(PiPolynomial((10**400,)), 16) == 10**400


def test_pipoly_eval_zeta2_30_digits():
    value = pipoly_eval(zeta_even(2), 30)
    with mpmath.workdps(40):
        reference = mpmath.mpf("1.64493406684822643647241516664602518922")
        assert abs(to_mpf(value) - reference) < mpmath.mpf(10) ** -28


def test_pipoly_eval_two_precision_consistency():
    poly = PiPolynomial(
        (Fraction(-1, 1024), Fraction(1, 18), Fraction(11, 270))
    )
    for digits in (30, 50):
        v1 = pipoly_eval(poly, digits)
        v2 = pipoly_eval(poly, 2 * digits)
        with mpmath.workdps(4 * digits):
            assert abs(to_mpf(v1) - to_mpf(v2)) < mpmath.mpf(10) ** -(digits - 2)


def test_pipoly_eval_rejects_low_precision():
    with pytest.raises(ValueError):
        pipoly_eval(PiPolynomial(), 8)


@pytest.mark.parametrize("bits", [1, 8, 64, 300, 5000])
def test_pi_squared_within_two_units(bits):
    with mpmath.workdps(bits // 3 + 60):
        assert abs(_pi_squared(bits) - mpmath.pi**2 * 2**bits) < 2


def test_pi_squared_keeps_the_last_precision_only():
    # a sweep over precisions holds one pi^2, not one per precision
    _pi_squared.cache_clear()
    for digits in (16, 200):
        pipoly_eval(PiPolynomial((0, 1)), digits)
    assert _pi_squared.cache_info().currsize == 1


@pytest.mark.parametrize("n", [2, 5, 60, 600])
@pytest.mark.parametrize("conv", list(CountingConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("digits", [16, 50])
def test_pipoly_eval_error_is_relative(n, conv, digits):
    # the coefficient is about 10^-1590 at n = 600
    poly = leading_coefficient_closed(n, conv, digits).exact
    value = pipoly_eval(poly, digits)
    with mpmath.workdps(digits + 60):
        pi2 = mpmath.pi**2
        reference = sum(to_mpf(c) * pi2**j for j, c in enumerate(poly.coeffs))
        assert abs(to_mpf(value) - reference) <= abs(reference) * mpmath.mpf(10) ** -(
            digits + 20
        )


def test_pipoly_eval_under_cancellation():
    # pi^2 - 9.8696044 is about 1.1e-8: the sum must gain the bits it cancels
    poly = PiPolynomial((Fraction(-98696044, 10**7), 1))
    value = pipoly_eval(poly, 30)
    with mpmath.workdps(120):
        reference = mpmath.pi**2 - to_mpf(Fraction(98696044, 10**7))
        assert abs(to_mpf(value) - reference) <= abs(reference) * mpmath.mpf(10) ** -50


def test_pipoly_eval_under_cancellation_carries_its_error():
    # (pi^2 - 9.8696044)^20, expanded, has terms near 10^20 and a value near
    # 10^-160: the error carried through the 20 steps, not the first
    # precision, decides how far the bits grow
    r = Fraction(98696044, 10**7)
    poly = PiPolynomial(tuple(math.comb(20, j) * (-r) ** (20 - j) for j in range(21)))
    value = pipoly_eval(poly, 30)
    with mpmath.workdps(400):
        reference = (mpmath.pi**2 - to_mpf(r)) ** 20
        assert abs(to_mpf(value) - reference) <= abs(reference) * mpmath.mpf(10) ** -50


# ---------------------------------------------------------------------------
# decimal and float rendering of exact values, against mpmath

FORMAT_DIGITS = st.sampled_from([16, 17, 30, 50, 80])


def nstr(x: Fraction, digits: int) -> str:
    with mpmath.workdps(digits + 60):
        return mpmath.nstr(to_mpf(x), digits, strip_zeros=False)


@given(st.floats(allow_nan=False, allow_infinity=False), FORMAT_DIGITS)
@settings(derandomize=True, max_examples=400)
def test_format_significant_matches_nstr_on_floats(x, digits):
    expected = mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)
    assert format_significant(Fraction(x), digits) == expected


@given(
    st.integers(min_value=-(10**30), max_value=10**30).filter(bool),
    st.integers(min_value=1, max_value=10**30),
    st.integers(min_value=-1600, max_value=1600),
    st.integers(min_value=0, max_value=40),
    FORMAT_DIGITS,
)
@settings(derandomize=True, max_examples=400)
def test_format_significant_matches_nstr_on_pi_powers(num, den, ten, k, digits):
    # r pi^2k is evaluated 60 digits past the printed ones, on both sides;
    # |exponents| past about 1050 take mpmath's scaled path
    r = Fraction(num, den) * Fraction(10) ** ten
    value = pipoly_eval(PiPolynomial((0,) * k + (r,)), digits + 60)
    with mpmath.workdps(digits + 60):
        reference = to_mpf(r) * mpmath.pi ** (2 * k)
        expected = mpmath.nstr(reference, digits, strip_zeros=False)
    assert format_significant(value, digits) == expected


@pytest.mark.parametrize(
    "x, digits, expected",
    [
        # fixed while min(-(digits // 3), -5) < e < digits
        ("1.2345e-4", 16, "0.0001234500000000000"),
        ("1.2345e-5", 16, "1.234500000000000e-5"),
        ("1.5e-9", 30, "0.00000000150000000000000000000000000000"),
        ("1.5e-10", 30, "1.50000000000000000000000000000e-10"),
        # at e = digits - 1 the fixed form ends in its point
        ("1.2e15", 16, "1200000000000000."),
        ("1.2e16", 16, "1.200000000000000e+16"),
        # a carry out of the last digit moves the exponent
        ("9.99999999999999999", 16, "10.00000000000000"),
        ("9.9999999999999999e15", 16, "1.000000000000000e+16"),
        ("0.99999999999999996", 16, "1.000000000000000"),
        ("0.99999999999999994", 16, "0.9999999999999999"),
        # 2^-23 = 1.1920928955078125e-7: a tie, rounded half up
        ("1.1920928955078125e-7", 16, "1.192092895507813e-7"),
        ("-1.25e-7", 16, "-1.250000000000000e-7"),
        ("-2/3", 17, "-0.66666666666666667"),
        ("0", 16, "0.0"),
    ],
)
def test_format_significant_cases(x, digits, expected):
    assert format_significant(Fraction(x), digits) == expected
    assert nstr(Fraction(x), digits) == expected


@pytest.mark.parametrize("x, digits", [(Fraction(1, 3), 0), (Fraction(12345), -1)])
def test_format_significant_rejects_digits_below_one(x, digits):
    # these gave '0.0' and '0.e+4'
    with pytest.raises(ValueError, match="digits must be >= 1"):
        format_significant(x, digits)


# each library entry that takes a digit count: a call at d digits, and the
# module and name of the first work it does past its checks
DIGIT_CAPPED = {
    "pipoly_eval": (
        lambda d: pipoly_eval(PiPolynomial((0, 1)), d), exact, "_pi_squared"
    ),
    "format_significant": (
        lambda d: format_significant(Fraction(1, 3), d), exact, "Context"
    ),
    "leading_coefficient_series": (
        lambda d: leading_coefficient_series(2, digits=d), asymptotics, "_series_sum"
    ),
    "leading_coefficient_closed": (
        lambda d: leading_coefficient_closed(2, digits=d),
        asymptotics,
        "_inverse_power_coeffs",
    ),
}


@pytest.mark.parametrize("name", DIGIT_CAPPED)
def test_digit_cap_refuses_before_any_work(monkeypatch, name):
    # with the cap at 20 digits, 20 gives what it gives uncapped, and 21 is
    # refused before any work
    call, module, work = DIGIT_CAPPED[name]
    uncapped = call(20)
    monkeypatch.setattr(exact, "MAX_EVAL_DIGITS", 20)
    assert call(20) == uncapped

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} worked past the digit cap")

    monkeypatch.setattr(module, work, refuse)
    with pytest.raises(WorkLimitError, match=r"^precision must be <= 20 digits$") as e:
        call(21)
    assert e.type is WorkLimitError


# the entries that evaluate, and so take exact.validate_digits: all but
# format_significant, which prints from 1 digit on
EVALUATING = [name for name in DIGIT_CAPPED if name != "format_significant"]


@pytest.mark.parametrize("name", EVALUATING)
@pytest.mark.parametrize(
    "digits, message",
    [
        # the series took 15 before its floor was validate_digits'
        (15, r"^precision must be >= 16 digits$"),
        # 50.0 failed with an AttributeError from int.bit_length in the work
        (50.0, r"^precision must be an integer$"),
    ],
)
def test_digit_floor_refuses_before_any_work(monkeypatch, name, digits, message):
    # 16 digits are taken, and 15 or a float refused before any work
    call, module, work = DIGIT_CAPPED[name]
    call(16)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} worked past the digit check")

    monkeypatch.setattr(module, work, refuse)
    with pytest.raises(ValueError, match=message):
        call(digits)


def test_validate_digits_returns_the_bounds():
    assert validate_digits(exact.MIN_EVAL_DIGITS) == 16
    assert validate_digits(exact.MAX_EVAL_DIGITS) == 10**5


@pytest.mark.parametrize(
    "call",
    [
        "exact.pipoly_eval(exact.PiPolynomial((0, 1)), 10**6)",
        "exact.format_significant(Fraction(1, 3), 10**8)",
        "asymptotics.leading_coefficient_series(2, digits=10**7)",
    ],
)
def test_digit_cap_refuses_huge_precision_at_once(call):
    # each ran past 10 s uncapped; the cap of 10^5 digits refuses it before
    # any work, well within the timeout
    code = (
        "from fractions import Fraction\n"
        "from kohncount import WorkLimitError, asymptotics, exact\n"
        "try:\n"
        f"    {call}\n"
        "except WorkLimitError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=1
    )
    assert result.stdout == "WorkLimitError precision must be <= 100000 digits\n"
    assert result.stderr == ""


def test_format_significant_rounds_exact_ties_up():
    # a decimal tie that no binary value holds: nstr sees a neighbour
    for x, expected in [
        ("0.99999999999999995", "1.000000000000000"),
        ("-0.12345678901234565", "-0.1234567890123457"),
    ]:
        assert format_significant(Fraction(x), 16) == expected


def test_format_significant_prints_past_the_int_str_cap():
    # outside cli.main the 4300-digit int <-> str cap of Python 3.11+ holds
    assert format_significant(Fraction(1, 3), 5000) == "0." + "3" * 5000


# ---------------------------------------------------------------------------
# decimal rounding against the integer oracles it replaced: same bytes


@pytest.mark.parametrize(
    "x, digits",
    [
        (Fraction(5, 2), 1),
        (Fraction(-35, 1000), 1),
        (Fraction(125, 1000), 2),
        (Fraction(10) ** 400 * Fraction(15, 10), 1),
        (Fraction(1, 10**1700) * Fraction(95, 10), 1),
        (Fraction(10) ** -1700, 200),
        (Fraction(10) ** 400, 200),
        (Fraction(1), 1),
    ],
)
def test_format_significant_matches_integer_oracle_at_edges(x, digits):
    assert format_significant(x, digits) == format_significant_by_integers(x, digits)


@given(
    st.integers(min_value=-(10**40), max_value=10**40).filter(bool),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=-1700, max_value=400),
    st.integers(min_value=1, max_value=200),
)
@settings(derandomize=True, max_examples=400)
def test_format_significant_matches_integer_oracle(num, den, ten, digits):
    x = Fraction(num, den) * Fraction(10) ** ten
    assert format_significant(x, digits) == format_significant_by_integers(x, digits)


@given(st.data(), st.integers(min_value=-1700, max_value=400), st.integers(1, 200))
@settings(derandomize=True, max_examples=400)
def test_format_significant_matches_integer_oracle_on_ties_and_carries(
    data, ten, digits
):
    # m + 1/2 with m of `digits` digits is an exact tie, rounded half up;
    # at m = 99...9 it carries into a new digit (9.99...95 -> 10.00...0)
    top = 10**digits - 1
    m = data.draw(st.one_of(st.just(top), st.integers(10 ** (digits - 1), top)))
    for x in (Fraction(2 * m + 1, 2) * Fraction(10) ** ten, -Fraction(2 * m + 1, 2)):
        assert format_significant(x, digits) == format_significant_by_integers(
            x, digits
        )


@pytest.mark.parametrize("n", [*range(2, 41), 60, 150, 300, 600])
def test_pipoly_eval_matches_closed_bound_oracle_on_closed_forms(n):
    for conv in CountingConvention:
        poly = leading_coefficient_closed(n, conv).exact
        for digits in (16, 50):
            assert pipoly_eval(poly, digits) == pipoly_eval_closed_bound(poly, digits)


def test_pipoly_eval_matches_closed_bound_oracle_on_weyl_constants():
    for n in range(1, 61):
        for normalization in ("paper_text", "conventional"):
            poly = weyl_ball_constant(n, normalization)
            for digits in (16, 50):
                assert pipoly_eval(poly, digits) == pipoly_eval_closed_bound(
                    poly, digits
                )


@pytest.mark.parametrize("places", [1, 5, 10, 30, 60])
@pytest.mark.parametrize("digits", [16, 50])
def test_pipoly_eval_matches_closed_bound_oracle_under_cancellation(places, digits):
    # pi^2 - r for r = pi^2 cut to `places` decimals is about 10^-places:
    # both grow the precision past the first, and print the same digits
    with mpmath.workdps(places + 30):
        r = Fraction(int(mpmath.floor(mpmath.pi**2 * 10**places)), 10**places)
    poly = PiPolynomial((-r, 1))
    assert format_significant(pipoly_eval(poly, digits), digits) == format_significant(
        pipoly_eval_closed_bound(poly, digits), digits
    )
