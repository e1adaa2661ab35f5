"""Series classification, truncation tails and the radius check of a truncation."""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracefluct import series
from tracefluct.combinatorics import _profile_table, single_flat_count
from tracefluct.distributions import rademacher
from tracefluct.series import (
    ALPHA_CRITICAL,
    CASE_A,
    CASE_B,
    CASE_C,
    LEADING_WEIGHT,
    AnalyticSeries,
    classify_polynomial,
)


def test_classification():
    assert classify_polynomial([0.0, 1.0]) == CASE_A           # x
    assert classify_polynomial([0.0, 0.0, 1.0]) == CASE_B      # x^2
    assert classify_polynomial([1.0, 0.0, 0.0, 0.0, 1.0]) == CASE_B
    assert classify_polynomial([0.0, 0.0, 0.0, 1.0]) == CASE_A  # x^3 alone
    assert classify_polynomial([0.0, -6.0, 0.0, 1.0]) == CASE_C  # x^3 - 6x
    # x^5 - 30x is the degree-5 cancellation: 5*C(4,2) = 30
    assert classify_polynomial([0.0, -30.0, 0.0, 0.0, 0.0, 1.0]) == CASE_C
    assert classify_polynomial([0.0, -29.0, 0.0, 0.0, 0.0, 1.0]) == CASE_A
    # the constant term carries no weight: x^3 - 6x + 5 is case C, x^3 + x^2 - 6x case B
    assert classify_polynomial([5.0, -6.0, 0.0, 1.0]) == CASE_C
    assert classify_polynomial([0.0, -6.0, 1.0, 1.0]) == CASE_B
    # the cancellation is exact: a relative miss of 1e-13 leaves a weight-1 amplitude
    assert classify_polynomial([0.0, -6.0 * (1 + 1e-13), 0.0, 1.0]) == CASE_A
    # a constant has no amplitude at any weight
    assert classify_polynomial([3.0]) == classify_polynomial([0.0]) == CASE_A


def _leading_table_weight(row):
    """The fewest flat steps of a profile with a nonzero count in the row's table; None if none."""
    table = _profile_table(tuple(row))
    weights = table.flats.sum(axis=1)[(table.count != 0) & table.flats.any(axis=1)]
    return int(weights.min()) if weights.size else None


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=15), st.sampled_from([None, 0, 1]),
       st.booleans(), st.integers(-9, 9))
def test_case_is_the_leading_weight_of_the_profile_table(row, drop, cancel, shift):
    # integer rows up to the table's cap, optionally with the powers >= 1 of one parity dropped
    # and c_1 cancelling the weight-1 amplitude, so that cases B and C are drawn as well as A
    row = [0 if j and j % 2 == drop else c for j, c in enumerate(row)]
    if cancel and len(row) > 1:
        row[1] = -sum(c * single_flat_count(j) for j, c in enumerate(row) if j % 2 and j > 1)
    case, lead = classify_polynomial(row), _leading_table_weight(row)
    assert case == CASE_A if lead is None else LEADING_WEIGHT[case] == lead, (row, case, lead)
    assert classify_polynomial([row[0] + shift, *row[1:]]) == case


def test_polynomial_constructor():
    f = AnalyticSeries.polynomial([0, 1, 0, 2])
    assert f.degree == 3
    assert f.coefficient(1) == 1 and f.coefficient(3) == 2
    assert f.coefficient(9) == 0.0
    assert f.case == CASE_A
    assert f.tail_majorant(3, 4.0) == 0.0
    # trailing zeros are dropped
    assert AnalyticSeries.polynomial([0, 1, 0, 0]).degree == 1


def test_case_validation_rejects_mismatch():
    # a polynomial's case is its classification: a forced case A of x^2 would be
    # scaled at alpha_c = 1/2 and given case A's sigma^2 = 0 under the uniform law
    def tagged(coeffs, case):
        return AnalyticSeries(label="p", radius=math.inf, case=case, degree=len(coeffs) - 1,
                              coeffs=tuple(coeffs))

    for coeffs, case, classified in (([0, 1, 1], CASE_B, CASE_A), ([0, -5, 0, 1], CASE_C, CASE_A),
                                     ([0, 0, 1], CASE_A, CASE_B)):
        with pytest.raises(ValueError, match=f"of case {classified}, not case {case}"):
            tagged(coeffs, case)
    assert tagged([0, -6, 0, 1], CASE_C).case == CASE_C  # the normal form is case C


def test_a_polynomial_is_classified_once(monkeypatch):
    # the exact Fraction sum of a row with odd coefficients is taken once, in __post_init__
    calls = []

    def counted(coeffs):
        calls.append(coeffs)
        return classify_polynomial(coeffs)

    monkeypatch.setattr(series, "classify_polynomial", counted)
    assert AnalyticSeries.polynomial((5, -6, 0, 1)).case == CASE_C
    assert calls == [(5.0, -6.0, 0.0, 1.0)]


def test_monomial_and_alpha_critical():
    f = AnalyticSeries.monomial(3)
    assert f.coefficient(3) == 1.0
    assert f.case == CASE_A
    assert ALPHA_CRITICAL[f.case] == 0.5
    assert ALPHA_CRITICAL[AnalyticSeries.monomial(2).case] == 0.25
    g = AnalyticSeries.polynomial([0, -6, 0, 1])
    assert ALPHA_CRITICAL[g.case] == pytest.approx(1 / 6)


def test_exponential_series_tail():
    f = AnalyticSeries.exponential(1 / 8)
    # value check against math.exp
    assert f.evaluate(0.7) == pytest.approx(math.exp(0.7 / 8), rel=1e-12)
    k = f.truncation_degree(3.0, 1e-9, scale=100)
    tail = f.tail_majorant(k, 3.0)
    assert 100 * tail <= 1e-9
    # the tail bound really dominates the dropped terms
    dropped = sum(abs(f.coefficient(j)) * 3.0**j for j in range(k + 1, k + 200))
    assert dropped <= tail


def test_radius_check():
    slow = AnalyticSeries.cauchy("geometric", lambda j: 2.0**-j, 1.0, 2.0, CASE_A)
    with pytest.raises(ValueError, match=r"radius 2 <= 3; .* under the law rademacher"):
        slow.truncate(rademacher(), 1e-9, 1e5)
    assert AnalyticSeries.monomial(2).truncate(rademacher(), 1e-9, 1e5) == ([0.0, 0.0, 1.0], 0.0)


def test_infinite_series_needs_a_tail_bound():
    with pytest.raises(ValueError, match="tail bound"):
        AnalyticSeries(label="bare", radius=4.0, case=CASE_A, coeff_fn=lambda j: 4.0**-j)
    with pytest.raises(ValueError, match="Cauchy"):
        AnalyticSeries.cauchy("bad", lambda j: 1.0, 1.0, math.inf, CASE_A)


def test_tail_refuses_non_geometric():
    # radius 3.5 series probed at x = 3.5: terms do not decay, so no degree is certified
    s = AnalyticSeries.cauchy("edge", lambda j: 3.5**-j, 1.0, 3.5, CASE_A)
    assert s.tail_majorant(5, 3.5) == math.inf
    with pytest.raises(ValueError, match="meets tolerance 1"):
        s.truncation_degree(3.5, 1.0)


def _even_exponential(j):
    return 0.0 if j % 2 else 1.0 / math.factorial(j)


def _odd_exponential(j):
    return 1.0 / math.factorial(j) if j % 2 else 0.0


# 1/j! <= e^rho rho^-j for every j and rho
def test_cosh_tail_skips_zero_coefficients():
    cosh = AnalyticSeries.cauchy("cosh", _even_exponential, math.exp(20.0), 20.0, CASE_B)
    # the odd zeros are allowed, and the bound covers all that is dropped
    assert cosh.tail_majorant(0, 3.0) >= math.cosh(3.0) - 1.0
    coeffs, tail = cosh.truncate(rademacher(), 1e-9, 1e5)
    k = len(coeffs) - 1
    dropped = 1e5 * math.fsum(_even_exponential(j) * 3.0**j for j in range(k + 1, k + 100))
    assert dropped <= tail <= 1e-9


def test_sinh_value_skips_zero_coefficients():
    sinh = AnalyticSeries.cauchy("sinh", _odd_exponential, math.exp(20.0), 20.0, CASE_A)
    assert sinh.evaluate(1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)


@pytest.mark.parametrize("rate, degree, tail", [
    (1e-200, 0, 2.9999999999999337e-195),
    (0.0, 0, 0.0),
    (-0.3, 15, 9.351550050574592e-10),
    (0.125, 12, 4.7853938685540874e-11),
    (0.5, 19, 1.4719235288890188e-10),
    (1.0, 25, 7.090651135736272e-10),
])
def test_exponential_truncation_pins(rate, degree, tail):
    # a series without zero coefficients keeps its truncation degree bit for bit; its tail, now
    # rounded up, lies at or above the round-to-nearest value pinned here and within 1e-12 of it
    coeffs, got = AnalyticSeries.exponential(rate).truncate(rademacher(), 1e-9, 1e5)
    assert len(coeffs) - 1 == degree and tail <= got <= tail * (1 + 1e-12)


def test_numerically_finite_series_sums_exactly():
    # exp(0*x) = 1 and exp(1e-200*x), whose coefficients underflow past j = 1
    assert AnalyticSeries.exponential(0.0).evaluate(2.0) == 1.0
    assert AnalyticSeries.exponential(0.0).tail_majorant(0, 12.0) == 0.0
    tiny = AnalyticSeries.exponential(1e-200)
    first = tiny.coefficient(1) * 3.0  # the rest underflows; the tail rounds up past it
    assert first <= tiny.tail_majorant(0, 3.0) <= first * (1 + 1e-12)


def test_exponential_coefficients_are_rounded_once():
    # rate^j / j! is the exact rational rounded to nearest: within half an ulp of its 200-bit
    # value, +-inf past the float range and 0 or subnormal below it
    assert AnalyticSeries.exponential(1e-200).coefficient(1) == 1e-200
    rng = random.Random(29)
    draws = [(math.copysign(10.0 ** rng.uniform(-6.0, 3.0), rng.random() - 0.5), rng.randrange(201))
             for _ in range(2_000)]
    draws += [(math.copysign(10.0 ** rng.uniform(-308.0, 308.0), rng.random() - 0.5), rng.randrange(4))
              for _ in range(500)]
    with mpmath.workprec(200):
        for rate, j in draws:
            got = AnalyticSeries.exponential(rate).coefficient(j)
            want = mpmath.mpf(rate) ** j / mpmath.factorial(j)
            if math.isinf(got):
                assert abs(want) > sys.float_info.max and got * want > 0, (rate, j)
            else:
                assert abs(mpmath.mpf(got) - want) <= mpmath.mpf(math.ulp(got)) / 2, (rate, j)


def test_exponential_running_coefficients_are_each_rounded_once():
    # the series carries one running numerator and denominator from c_0 on; every c_j must be
    # the exact rational rate^j / j! formed alone and rounded once, its sign and overflow included
    rng = random.Random(31)
    rates = [0.3, -1.7, 1e-200, 12.5, 1e300, 0.0, -0.0, -5e-324, 700.0]
    rates += [math.copysign(10.0 ** rng.uniform(-8.0, 8.0), rng.random() - 0.5) for _ in range(40)]
    for rate in rates:
        num, den = rate.as_integer_ratio()  # den is a power of two
        want = []
        for j in range(201):
            try:
                want.append(num**j / (math.factorial(j) << (den.bit_length() - 1) * j))  # rounds once
            except OverflowError:
                want.append(math.copysign(math.inf, rate) if j % 2 else math.inf)
        got = AnalyticSeries.exponential(rate).coefficients_upto(200)
        assert [(c, math.copysign(1.0, c)) for c in got] == [
            (c, math.copysign(1.0, c)) for c in want], rate


def test_value_certified_inside_the_radius():
    # c_j = 3.5^-j at x = 2 has term ratio 4/7 throughout; the Cauchy bound certifies it
    s = AnalyticSeries.cauchy("geo", lambda j: 3.5**-j, 1.0, 3.5, CASE_A)
    assert s.evaluate(2.0) == pytest.approx(7.0 / 3.0, rel=1e-15)
    assert s.evaluate(1.0) == pytest.approx(1.0 / (1.0 - 1.0 / 3.5), rel=1e-15)
    with pytest.raises(ValueError, match="radius"):
        s.evaluate(-3.5)


def _zigzag(j):
    return 4.0**-j if j % 2 == 0 else 0.1 * 4.0**-j


def test_zigzag_tail_dominates_the_dropped_terms():
    # magnitudes that fall by 1/40 then rise by 10/4: a ratio below 1/2 says nothing of the rest
    s = AnalyticSeries.cauchy("zigzag", _zigzag, 1.0, 4.0, CASE_A)
    coeffs, tail = s.truncate(rademacher(), 1e-9, 1e5)
    k = len(coeffs) - 1
    dropped = 1e5 * math.fsum(_zigzag(j) * 3.0**j for j in range(k + 1, 500))
    assert dropped <= tail <= 1e-9


@settings(max_examples=60, deadline=None)
@given(
    units=st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0)),
                   min_size=1, max_size=12),
    m=st.floats(0.1, 10.0),
    rho=st.floats(1.0, 4.0),
    share=st.floats(-0.75, 0.75),
    k=st.integers(0, 40),
)
@example(units=[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0], m=3.0, rho=2.0, share=1e-12, k=26)  # a subnormal tail
def test_cauchy_tail_dominates_random_coefficients(units, m, rho, share, k):
    # c_j = m u_(j mod L) rho^-j with |u| <= 1: zeros, zigzags and sign flips all obey the estimate
    def coeff(j):
        return m * units[j % len(units)] * rho**-j

    s = AnalyticSeries.cauchy("random", coeff, m, rho, CASE_A)
    x = share * rho
    long = range(k + 400)
    dropped = math.fsum(abs(coeff(j)) * abs(x) ** j for j in long if j > k)
    assert dropped <= s.tail_majorant(k, abs(x)) * (1 + 1e-12)  # the bound can be tight
    value = math.fsum(coeff(j) * x**j for j in long)
    rounding = 1e-15 * math.fsum(abs(coeff(j) * x**j) for j in long)
    assert abs(s.evaluate(x) - value) <= 1e-17 + rounding


def test_cauchy_tail_is_at_least_its_exact_value():
    # m q^(k+1) / (1 - q) at the exact q = x / rho, in 200 bits, over seeded draws whose tails
    # reach from past the float range down to subnormals and below
    rng = random.Random(20260)
    subnormal = 0
    with mpmath.workprec(200):
        for _ in range(20_000):
            m, rho = 10.0 ** rng.uniform(-320.0, 300.0), 10.0 ** rng.uniform(-3.0, 3.0)
            share = 1.0 - 10.0 ** -rng.uniform(0.0, 16.0) if rng.random() < 0.5 else rng.random()
            x, k = share * rho, rng.randrange(401)
            got = AnalyticSeries.cauchy("c", lambda j: 0.0, m, rho, CASE_A).tail_majorant(k, x)
            q = mpmath.mpf(x) / mpmath.mpf(rho)
            want = mpmath.mpf(m) * q ** (k + 1) / (1 - q) if q < 1 else mpmath.inf
            assert got >= want, (m, rho, x, k)
            subnormal += 0 < want < 2.0 ** -1022
    assert subnormal >= 500


def test_exponential_tail_is_at_least_its_exact_value():
    # t_(k+1) / (1 - q) at the exact q = |rate| x / (k + 2), in 200 bits, over seeded draws whose
    # tails reach from past the float range down to subnormals and below; the first draw's
    # t_(k+1) underflowed to 0.0 when it was formed as a product
    rng = random.Random(20261)
    draws = [(0.8455218009140536, 24.728568551218544, 182)] + [
        (math.copysign(10.0 ** rng.uniform(-3.0, 1.5), rng.random() - 0.5),
         10.0 ** rng.uniform(-2.0, 1.5), rng.randrange(201)) for _ in range(20_000)]
    subnormal = 0
    with mpmath.workprec(200):
        for rate, x, k in draws:
            got = AnalyticSeries.exponential(rate).tail_majorant(k, x)
            p = abs(mpmath.mpf(rate)) * mpmath.mpf(x)
            q = p / (k + 2)
            want = p ** (k + 1) / mpmath.factorial(k + 1) / (1 - q) if q < 1 else mpmath.inf
            assert got >= want, (rate, x, k)
            subnormal += 2.0 ** -1074 <= want < 2.0 ** -1022
    assert subnormal >= 200
