"""Numeric kernels against dense-matrix and eigensolver oracles."""

import numpy as np
import pytest

from tracefluct.distributions import rademacher, uniform_sqrt3
from tracefluct.hamiltonian import (
    _prefix_trace_moments,
    dense_matrix,
    derive_seed,
    eigenvalues,
    sample_potential,
    trace_f,
    trace_moments,
)
from tracefluct.series import AnalyticSeries


def dense_trace_powers(values, k_max):
    """Oracle: traces of matrix powers via dense matrix multiplication."""
    h = dense_matrix(values)
    out = [float(len(values))]
    p = np.eye(len(values))
    for _ in range(k_max):
        p = p @ h
        out.append(float(np.trace(p)))
    return np.array(out)


# ---------------------------------------------------------------- sampling


def test_sample_support():
    s = sample_potential(50, 0.7, rademacher(), seed=42)
    n = np.arange(1, 51, dtype=float)
    assert np.all(np.abs(s.values) == 1.0 / n**0.7)
    assert set(np.unique(s.xs)) == {-1.0, 1.0}


def test_sample_prefix_stability():
    for dist in (rademacher(), uniform_sqrt3()):
        small = sample_potential(100, 0.5, dist, seed=9)
        big = sample_potential(1000, 0.5, dist, seed=9)
        assert np.array_equal(small.values, big.values[:100])
        assert np.array_equal(big.prefix(100).values, small.values)


def test_sample_determinism_and_seed_derivation():
    a = sample_potential(64, 0.4, uniform_sqrt3(), seed=1234)
    b = sample_potential(64, 0.4, uniform_sqrt3(), seed=1234)
    assert np.array_equal(a.values, b.values)
    c = sample_potential(64, 0.4, uniform_sqrt3(), seed=1235)
    assert not np.array_equal(a.values, c.values)
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_potential(0, 0.5, rademacher(), seed=1)
    with pytest.raises(ValueError):
        sample_potential(10, 0.0, rademacher(), seed=1)


# ------------------------------------------------------------ trace moments


def test_free_traces():
    v = np.zeros(10)
    t = trace_moments(v, 4)
    assert t[0] == 10
    assert t[1] == 0
    assert t[2] == 18    # 2N - 2
    assert t[3] == 0
    assert t[4] == 50    # 6N - 10


def test_single_site():
    t = trace_moments(np.array([0.37]), 5)
    assert np.allclose(t, 0.37 ** np.arange(6))


@pytest.mark.parametrize("n,k_max", [(1, 6), (2, 6), (7, 8), (20, 8)])
def test_trace_moments_vs_dense(n, k_max):
    s = sample_potential(n, 0.35, uniform_sqrt3(), seed=100 + n)
    assert np.allclose(trace_moments(s, k_max), dense_trace_powers(s.values, k_max),
                       rtol=1e-12, atol=1e-12)


def _majorant(values, k):
    """N (2 + max|V|)^k bounds every term of Tr H^k; tolerances scale with it."""
    return len(values) * (2.0 + np.max(np.abs(values))) ** k


@pytest.mark.parametrize("n", range(1, 25))
def test_trace_moments_sweep_vs_dense(n):
    s = sample_potential(n, 0.35, uniform_sqrt3(), seed=500 + n)
    dense = dense_trace_powers(s.values, 13)
    for k in range(14):
        t = trace_moments(s, k)
        assert t.shape == (k + 1,)
        for p in range(k + 1):
            assert abs(t[p] - dense[p]) <= 1e-13 * _majorant(s.values, p), (k, p)


@pytest.mark.parametrize("n_max", [1, 2, 7, 24])
def test_grid_pass_matches_per_size_calls(n_max):
    # every prefix size: those <= ceil(k/2) put the window on the left edge,
    # and neighbouring sizes (n, n+1) move the window by one site
    v = sample_potential(n_max, 0.3, rademacher(), seed=900 + n_max).values
    sizes = tuple(range(1, n_max + 1))
    for k in range(14):
        grid = _prefix_trace_moments(v, k, sizes)
        assert grid.shape == (n_max, k + 1)
        for row, n in zip(grid, sizes):
            one = trace_moments(v[:n], k)
            for p in range(k + 1):
                assert abs(row[p] - one[p]) <= 1e-13 * _majorant(v[:n], p), (k, n, p)


def test_grid_pass_on_a_sparse_grid():
    v = sample_potential(3000, 0.2, uniform_sqrt3(), seed=31).values
    sizes = (5, 6, 700, 2999, 3000)
    grid = _prefix_trace_moments(v, 12, sizes)
    for row, n in zip(grid, sizes):
        one = trace_moments(v[:n], 12)
        assert np.all(np.abs(row - one) <= 1e-13 * _majorant(v[:n], np.arange(13)))


def test_trace_moments_vs_eigenvalues_n500():
    s = sample_potential(500, 0.5, rademacher(), seed=77)
    t = trace_moments(s, 10)
    lam = eigenvalues(s, tol=1e-12)
    power_sums = np.array([np.sum(lam**k) for k in range(11)])
    rel = np.abs(t - power_sums) / np.maximum(1.0, np.abs(t))
    assert np.all(rel <= 1e-8)


def test_overflow_guard():
    with pytest.raises(OverflowError, match="abort"):
        trace_moments(np.full(4, 1e200), 2)


@pytest.mark.parametrize("values, k_max", [
    (np.full(4, 1e120), 3),              # entries of H^2 are fine, Tr H^3 overflows
    (np.array([1e305, -1e305, 0.0, 0.0]), 1),  # Tr H = 0, entries of H^1 too large
    (np.array([np.nan, 0.0, 0.0]), 2),
])
def test_overflow_guard_traces_and_entries(values, k_max):
    with pytest.raises(OverflowError, match="abort"):
        trace_moments(values, k_max)
    with pytest.raises(OverflowError, match="abort"):
        _prefix_trace_moments(np.concatenate([values, np.zeros(5)]), k_max,
                              (values.size, values.size + 5))


# ------------------------------------------------------------- eigenvalues


def test_free_laplacian_spectrum():
    n = 1000
    lam = eigenvalues(np.zeros(n), tol=1e-12)
    expected = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(lam - expected)) < 1e-8


def test_eigenvalues_single_site():
    assert eigenvalues(np.array([0.25])) == pytest.approx([0.25])


def test_spectrum_inclusion():
    for seed in range(5):
        s = sample_potential(200, 0.3, uniform_sqrt3(), seed=seed)
        lam = eigenvalues(s)
        edge = 2.0 + s.dist.bound
        assert np.all(lam >= -edge - 1e-9)
        assert np.all(lam <= edge + 1e-9)


# ------------------------------------------------------------------ trace_f


def test_trace_f_linear():
    s = sample_potential(37, 0.45, rademacher(), seed=5)
    res = trace_f(s, AnalyticSeries.monomial(1))
    assert res.value == pytest.approx(np.sum(s.values), rel=1e-14)
    assert res.tail_bound == 0.0


def test_trace_f_odd_free_operator():
    f = AnalyticSeries.polynomial([0, -6, 0, 1])
    res = trace_f(np.zeros(10), f)
    assert res.value == 0.0


def test_trace_f_exponential_vs_eigensolver():
    s = sample_potential(100, 0.5, rademacher(), seed=3)
    f = AnalyticSeries.exponential(1 / 8)
    res = trace_f(s, f, tail_tol=1e-9)
    lam = eigenvalues(s, tol=1e-13)
    oracle = np.sum(np.exp(lam / 8.0))
    assert res.tail_bound <= 1e-9
    assert res.value == pytest.approx(oracle, abs=1e-7)


def test_trace_f_radius_rejected():
    s = sample_potential(10, 0.5, rademacher(), seed=1)
    tight = AnalyticSeries.from_coefficients(
        lambda j: 2.5**-j, radius=2.5, case="A", label="tight"
    )
    with pytest.raises(ValueError, match="radius"):
        trace_f(s, tight)
