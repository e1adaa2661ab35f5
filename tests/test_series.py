"""Series classification, truncation tails and radius checks."""

import math

import pytest

from tracefluct.series import (
    ALPHA_CRITICAL,
    CASE_A,
    CASE_B,
    CASE_C,
    AnalyticSeries,
    classify_polynomial,
    require_radius,
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
    with pytest.raises(ValueError, match="case B"):
        AnalyticSeries.polynomial([0, 1, 1], case=CASE_B)
    with pytest.raises(ValueError, match="case C"):
        AnalyticSeries.polynomial([0, -5, 0, 1], case=CASE_C)
    AnalyticSeries.polynomial([0, -6, 0, 1], case=CASE_C)  # normal form accepted


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
    slow = AnalyticSeries(
        label="geometric", radius=2.0, case=CASE_A, coeff_fn=lambda j: 2.0**-j
    )
    with pytest.raises(ValueError, match="radius"):
        require_radius(slow, bound=1.0)
    require_radius(AnalyticSeries.monomial(2), bound=1.0)


def test_tail_refuses_non_geometric():
    # radius 3.5 series probed at x = 3.5: terms do not decay
    s = AnalyticSeries(
        label="edge", radius=3.5, case=CASE_A, coeff_fn=lambda j: 3.5**-j
    )
    with pytest.raises(ValueError, match="geometric"):
        s.tail_majorant(5, 3.5)


def _even_exponential(j):
    return 0.0 if j % 2 else 1.0 / math.factorial(j)


def _odd_exponential(j):
    return 1.0 / math.factorial(j) if j % 2 else 0.0


def test_cosh_tail_skips_zero_coefficients():
    cosh = AnalyticSeries(label="cosh", radius=math.inf, case=CASE_B, coeff_fn=_even_exponential)
    # the odd zeros neither end the walk nor supply a ratio
    assert cosh.tail_majorant(0, 3.0) >= math.cosh(3.0) - 1.0
    coeffs, tail = cosh.truncate(1.0, 1e-9, 1e5)
    k = len(coeffs) - 1
    dropped = 1e5 * math.fsum(_even_exponential(j) * 3.0**j for j in range(k + 1, k + 100))
    assert dropped <= tail <= 1e-9


def test_sinh_value_skips_zero_coefficients():
    sinh = AnalyticSeries(label="sinh", radius=math.inf, case=CASE_A, coeff_fn=_odd_exponential)
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
    # a series without zero coefficients keeps its truncation bit for bit
    coeffs, got = AnalyticSeries.exponential(rate).truncate(1.0, 1e-9, 1e5)
    assert (len(coeffs) - 1, got) == (degree, tail)


def test_numerically_finite_series_sums_exactly():
    # exp(0*x) = 1 and exp(1e-200*x), whose coefficients underflow past j = 1
    assert AnalyticSeries.exponential(0.0).evaluate(2.0) == 1.0
    assert AnalyticSeries.exponential(0.0).tail_majorant(0, 12.0) == 0.0
    tiny = AnalyticSeries.exponential(1e-200)
    assert tiny.tail_majorant(0, 3.0) == tiny.coefficient(1) * 3.0


def test_value_refused_where_terms_stay_above_half_ratio():
    # c_j = 3.5^-j at x = 2 has term ratio 4/7 throughout: inside the radius, never certified
    s = AnalyticSeries(label="geo", radius=3.5, case=CASE_A, coeff_fn=lambda j: 3.5**-j)
    with pytest.raises(ValueError, match="not certified summable"):
        s.evaluate(2.0)
    assert s.evaluate(1.0) == pytest.approx(1.0 / (1.0 - 1.0 / 3.5), rel=1e-15)
