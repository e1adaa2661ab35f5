"""Moment bookkeeping and sampling for the site-variable laws."""

import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest

from tracefluct.distributions import (
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


@pytest.mark.parametrize("law", [rademacher(), uniform_sqrt3(), uniform_symmetric(2.0),
                                 two_point(2, Fraction(-1, 2), Fraction(1, 5))], ids=lambda d: d.name)
def test_moments_are_computed_once_per_order(law):
    first = [law.moment(m) for m in range(13)]
    assert all(law.moment(m) is v for m, v in enumerate(first))
    for m, v in enumerate(first):
        uncached = law._moment(m)
        assert v == uncached and type(v) is type(uncached)
    # the cache is not part of the law: equality, hashing and pickling ignore it
    fresh = dataclasses.replace(law)
    assert fresh == law and hash(fresh) == hash(law)
    assert pickle.loads(pickle.dumps(law)).moment(4) == first[4]


def test_counts_moment():
    d = uniform_sqrt3()
    assert d.counts_moment((2, 2)) == 1  # E[X^2]^2
    # the same product from the counts in any order
    assert d.counts_moment((2, 4)) == d.counts_moment((4, 2)) == Fraction(9, 5)
    assert d.counts_moment((2, 1)) == 0 and d.counts_moment(()) == 1


def random_sample_xs(law, rng, n):
    """Oracle: X_1..X_n from one random() double per index, by the plain transforms."""
    x = rng.random(n)
    if law.kind == "rademacher":
        x -= 0.5  # u = 0.5 gives +0.0, so the sign is + exactly where u >= 0.5
        np.copysign(1.0, x, out=x)
    elif law.kind == "uniform":
        x *= 2.0
        x -= 1.0
        x *= law.bound
    else:
        (v1, v2), (p1, _) = law.values, law.probs
        x = np.where(x < float(p1), float(v1), float(v2))
    return x


def sampler_scale(law, scale):
    """The scale as `sample_xs` takes it: s, or -1/s for the sign law."""
    return -1.0 / scale if law.kind == "rademacher" else scale


def draw(law, rng, n):
    """X_1..X_n from the sampler, at unit site scale."""
    out = np.empty(n)
    law.sample_xs(rng, out, sampler_scale(law, np.ones(n)))
    return out


def test_sampling_support_and_moments():
    rng = np.random.default_rng(123)
    xs = draw(rademacher(), rng, 10_000)
    assert set(np.unique(xs)) == {-1.0, 1.0}

    d = uniform_symmetric(np.sqrt(3.0))
    xs = draw(d, np.random.default_rng(7), 1_000_000)
    assert np.all(np.abs(xs) <= d.bound + 1e-12)
    assert abs(xs.mean()) < 0.005
    assert abs(np.mean(xs**2) - 1.0) < 0.01


def test_rademacher_sampling_matches_threshold_form():
    xs = draw(rademacher(), np.random.default_rng(2024), 100_001)
    u = np.random.default_rng(2024).random(100_001)
    assert np.array_equal(xs, np.where(u < 0.5, -1.0, 1.0))


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
@pytest.mark.parametrize("law", [
    rademacher(), uniform_sqrt3(), two_point(2, Fraction(-1, 2), Fraction(1, 5)),
], ids=["rademacher", "uniform-sqrt3", "two-point"])
def test_sampler_matches_random_oracle(law, bit_generator):
    # the sign law reads raw words, whose bit 63 is u >= 0.5 for (next64 >> 11) 2^-53 doubles;
    # draws split at any point continue one stream, and the scale divides each X exactly
    n = 20_001
    scale = np.arange(1, n + 1, dtype=float) ** 0.3
    for seed in range(20):
        xs = random_sample_xs(law, np.random.Generator(bit_generator(seed)), n)
        rng = np.random.Generator(bit_generator(seed))
        out = np.empty(n)
        for lo, hi in ((0, 1), (1, 7), (7, 16_391), (16_391, n)):
            law.sample_xs(rng, out[lo:hi], sampler_scale(law, scale[lo:hi]))
        assert np.array_equal(out, xs / scale), seed


def test_two_point_sampling_frequencies():
    d = two_point(2, Fraction(-1, 2), Fraction(1, 5))
    xs = draw(d, np.random.default_rng(11), 200_000)
    assert set(np.unique(xs)) == {-0.5, 2.0}
    assert abs(np.mean(xs == 2.0) - 0.2) < 0.005
