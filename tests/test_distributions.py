"""Moment bookkeeping and sampling for the site-variable laws."""

from fractions import Fraction

import numpy as np
import pytest

from tracefluct.combinatorics import MultiIndex
from tracefluct.distributions import (
    from_moments,
    rademacher,
    two_point,
    uniform_sqrt3,
    uniform_symmetric,
)


def test_rademacher_moments():
    d = rademacher()
    assert d.moment(0) == 1
    assert d.moment(1) == 0
    assert d.moment(2) == 1
    assert d.moment(7) == 0
    assert d.moment(8) == 1
    assert d.bound == 1.0
    assert d.variance == 1


def test_uniform_sqrt3_moments_exact():
    d = uniform_sqrt3()
    assert d.moment(2) == 1
    assert d.moment(4) == Fraction(9, 5)
    assert d.moment(6) == Fraction(27, 7)
    assert d.moment(3) == 0
    assert abs(d.bound**2 - 3.0) < 1e-12


def test_uniform_float_moments():
    d = uniform_symmetric(2.0)
    assert d.moment(2) == pytest.approx(4.0 / 3.0)
    assert d.moment(1) == 0


def test_two_point_moments():
    # values +-1 with equal weight reproduces the sign law
    d = two_point(1, -1, Fraction(1, 2))
    assert d.moment(2) == 1 and d.moment(3) == 0
    # asymmetric centered law: 2 w.p. 1/5, -1/2 w.p. 4/5
    d2 = two_point(2, Fraction(-1, 2), Fraction(1, 5))
    assert d2.moment(1) == 0
    assert d2.moment(2) == Fraction(4, 5) + Fraction(4, 5) * Fraction(1, 4)


def test_uncentered_rejected():
    with pytest.raises(ValueError, match="centered"):
        two_point(1, -2, Fraction(1, 2))
    with pytest.raises(ValueError, match="centered"):
        from_moments([1.0, 0.3, 1.0], bound=1.0)


def test_moment_list_limits():
    d = from_moments([1.0, 0.0, 1.0, 0.0, 1.8], bound=1.5)
    assert d.moment(4) == 1.8
    with pytest.raises(ValueError, match="moments up to order"):
        d.moment(5)
    with pytest.raises(ValueError, match="cannot be sampled"):
        d.sample_xs(np.random.default_rng(0), 10)


def test_moment_product():
    d = uniform_sqrt3()
    beta = MultiIndex.from_counts({0: 2, 3: 2})
    assert d.moment_product(beta) == 1  # E[X^2]^2
    beta_odd = MultiIndex.from_counts({0: 1, 1: 2})
    assert d.moment_product(beta_odd) == 0
    assert d.abs_moment_product(MultiIndex.from_counts({0: 4})) == Fraction(9, 5)


def test_sampling_support_and_moments():
    rng = np.random.default_rng(123)
    xs = rademacher().sample_xs(rng, 10_000)
    assert set(np.unique(xs)) == {-1.0, 1.0}

    d = uniform_symmetric(np.sqrt(3.0))
    xs = d.sample_xs(np.random.default_rng(7), 1_000_000)
    assert np.all(np.abs(xs) <= d.bound + 1e-12)
    assert abs(xs.mean()) < 0.005
    assert abs(np.mean(xs**2) - 1.0) < 0.01


def test_rademacher_sampling_matches_threshold_form():
    xs = rademacher().sample_xs(np.random.default_rng(2024), 100_001)
    u = np.random.default_rng(2024).random(100_001)
    assert np.array_equal(xs, np.where(u < 0.5, -1.0, 1.0))


def test_two_point_sampling_frequencies():
    d = two_point(2, Fraction(-1, 2), Fraction(1, 5))
    xs = d.sample_xs(np.random.default_rng(11), 200_000)
    assert set(np.unique(xs)) == {-0.5, 2.0}
    assert abs(np.mean(xs == 2.0) - 0.2) < 0.005
