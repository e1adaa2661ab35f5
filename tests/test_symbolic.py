"""Trace polynomial oracle: spec examples, dense cross-checks, coefficient identities."""

import numpy as np
import pytest

from tracefluct.combinatorics import MultiIndex, profile_count
from tracefluct.distributions import rademacher, uniform_sqrt3
from tracefluct.hamiltonian import sample_potential, trace_moments
from tracefluct.symbolic import (
    SiteMonomial,
    exact_expectation_trace_power,
    trace_power_polynomial,
    verify_interior_identity,
)


def test_site_monomial_basics():
    m = SiteMonomial(((2, 1), (5, 3)))
    assert m.degree == 4
    assert m.min_site == 2
    prof = m.profile()
    assert prof == MultiIndex.from_counts({0: 1, 3: 3})
    with pytest.raises(ValueError):
        SiteMonomial(((5, 1), (2, 1)))


def test_trace_k1():
    poly = trace_power_polynomial(4, 1)
    assert poly.constant == 0
    assert {str(m): c for m, c in poly.terms.items()} == {
        "V(1)": 1, "V(2)": 1, "V(3)": 1, "V(4)": 1,
    }


def test_trace_k2():
    poly = trace_power_polynomial(5, 2)
    assert poly.constant == 8  # 2N - 2
    expected = {SiteMonomial(((n, 2),)): 1 for n in range(1, 6)}
    assert poly.terms == expected


def test_trace_k4_constant():
    assert trace_power_polynomial(6, 4).constant == 6 * 6 - 10


def test_trace_k0():
    poly = trace_power_polynomial(7, 0)
    assert poly.constant == 7 and not poly.terms


def test_caps_enforced():
    with pytest.raises(ValueError, match="power cap"):
        trace_power_polynomial(10, 13)
    with pytest.raises(ValueError, match="site cap"):
        trace_power_polynomial(65, 2)


@pytest.mark.parametrize("n,k", [(2, 3), (5, 4), (12, 6), (20, 8), (30, 12)])
def test_polynomial_evaluation_matches_numeric_trace(n, k):
    s = sample_potential(n, 0.4, uniform_sqrt3(), seed=n * 10 + k)
    poly = trace_power_polynomial(n, k)
    h = np.diag(s) + np.eye(n, k=1) + np.eye(n, k=-1)
    dense = np.trace(np.linalg.matrix_power(h, k))
    banded = trace_moments(s, k)[k]
    val = poly.evaluate(s)
    assert val == pytest.approx(dense, rel=1e-10)
    assert val == pytest.approx(banded, rel=1e-10)


def test_polynomial_evaluation_exact_for_integers():
    poly = trace_power_polynomial(6, 6)
    v = [1, -2, 0, 3, -1, 2]
    h = np.diag(np.array(v, dtype=float)) + np.eye(6, k=1) + np.eye(6, k=-1)
    dense = np.trace(np.linalg.matrix_power(h, 6))
    assert poly.evaluate(v) == int(round(dense))
    assert isinstance(poly.evaluate(v), int)


def test_coefficient_examples():
    poly = trace_power_polynomial(20, 3)
    delta = MultiIndex.delta()
    assert poly.coefficient(delta, 10) == 6  # interior equals the path count
    assert poly.coefficient(delta, 1) < 6    # boundary clipping removes pairs
    # parity: |beta| and k of opposite parity never appears
    assert poly.coefficient(MultiIndex.two_delta(), 10) == 0
    with pytest.raises(ValueError, match="fit"):
        poly.coefficient(delta, 21)


@pytest.mark.parametrize("k", range(1, 9))
def test_interior_identity_n20(k):
    report = verify_interior_identity(20, k)
    assert report.ok, (report.interior_violations, report.boundary_violations)
    assert report.checked_interior > 0


def test_interior_identity_requires_window():
    with pytest.raises(ValueError, match="N > 2k"):
        verify_interior_identity(3, 6)


def test_boundary_monotonicity_n12_k6():
    poly = trace_power_polynomial(12, 6)
    for mono, coeff in poly.terms.items():
        assert coeff <= profile_count(6, mono.profile())


def test_expectation_k2_rademacher():
    alpha = 0.37
    got = exact_expectation_trace_power(5, 2, alpha, rademacher())
    want = 8 + sum(n ** (-2 * alpha) for n in range(1, 6))
    assert got == pytest.approx(want, rel=1e-14)


def test_expectation_centered_k1():
    assert exact_expectation_trace_power(5, 1, 0.5, uniform_sqrt3()) == 0.0


def test_expectation_matches_monte_carlo_k4():
    # the oracle defines the number; a simple ensemble mean must agree
    n, k, alpha = 6, 4, 0.5
    want = exact_expectation_trace_power(n, k, alpha, rademacher())
    m = 4000
    vals = np.empty(m)
    for r in range(m):
        s = sample_potential(n, alpha, rademacher(), seed=50_000 + r)
        vals[r] = trace_moments(s, k)[k]
    se = vals.std(ddof=1) / np.sqrt(m)
    assert abs(vals.mean() - want) <= 3 * se
