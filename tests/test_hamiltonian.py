"""Numeric kernels against dense-matrix, sparse-matrix and eigensolver oracles."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tracefluct import hamiltonian
from tracefluct.distributions import rademacher, two_point, uniform_sqrt3, uniform_symmetric
from tracefluct.hamiltonian import (
    _prefix_trace_moments,
    dense_matrix,
    derive_seed,
    eigenvalues,
    sample_potential,
    trace_moments,
)
from tracefluct.montecarlo import EnsembleConfig, run_ensemble
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
    assert set(np.unique(np.sign(s.values))) == {-1.0, 1.0}


def test_sample_prefix_stability():
    for dist in (rademacher(), uniform_sqrt3()):
        small = sample_potential(100, 0.5, dist, seed=9)
        big = sample_potential(1000, 0.5, dist, seed=9)
        assert np.array_equal(small.values, big.values[:100])


def test_sample_determinism_and_seed_derivation():
    a = sample_potential(64, 0.4, uniform_sqrt3(), seed=1234)
    b = sample_potential(64, 0.4, uniform_sqrt3(), seed=1234)
    assert np.array_equal(a.values, b.values)
    c = sample_potential(64, 0.4, uniform_sqrt3(), seed=1235)
    assert not np.array_equal(a.values, c.values)
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)


@pytest.mark.parametrize("dist", [
    rademacher(), uniform_sqrt3(), uniform_symmetric(0.7),
    two_point(2, Fraction(-1, 2), Fraction(1, 5)), two_point(-1, 3, Fraction(3, 4)),
], ids=["rademacher", "uniform-sqrt3", "uniform-0.7", "two-point-hi-lo", "two-point-lo-hi"])
def test_sampling_matches_reference_forms(dist):
    # the in-place transforms give the very doubles of the plain array expressions
    n, alpha = 10_001, 0.3
    for seed in range(4):
        u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(n)
        if dist.kind == "rademacher":
            xs = 2.0 * (u >= 0.5) - 1.0
        elif dist.kind == "uniform":
            xs = (2.0 * u - 1.0) * dist.half_width
        else:
            (v1, v2), (p1, _) = dist.values, dist.probs
            xs = np.where(u < float(p1), float(v1), float(v2))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        assert np.array_equal(dist.sample_xs(rng, n), xs)
        values = xs / np.arange(1, n + 1, dtype=float) ** alpha
        assert np.array_equal(sample_potential(n, alpha, dist, seed).values, values)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_potential(0, 0.5, rademacher(), seed=1)
    with pytest.raises(ValueError):
        sample_potential(10, 0.0, rademacher(), seed=1)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_sample_rejects_non_finite_alpha(alpha):
    # a NaN exponent would give V = [X_1, nan, nan, ...] and fail only in the kernel
    with pytest.raises(ValueError, match="positive and finite"):
        sample_potential(5, alpha, rademacher(), seed=1)


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


@pytest.mark.parametrize("sizes", [(1, 2), (2,), (1, 1), (2, 1)])
def test_grid_pass_rejects_a_bad_grid(sizes):
    # a size past the sample has no sites to read: the free 2-site chain's Tr H^2 is 2, not 0
    with pytest.raises(ValueError, match="strictly increasing"):
        _prefix_trace_moments(np.zeros(1), 2, sizes)


def test_grid_pass_on_a_sparse_grid():
    v = sample_potential(3000, 0.2, uniform_sqrt3(), seed=31).values
    sizes = (5, 6, 700, 2999, 3000)
    grid = _prefix_trace_moments(v, 12, sizes)
    for row, n in zip(grid, sizes):
        one = trace_moments(v[:n], 12)
        assert np.all(np.abs(row - one) <= 1e-13 * _majorant(v[:n], np.arange(13)))


@pytest.mark.parametrize("chunk", [1, 5, 7])
@pytest.mark.parametrize("n_max", [1, 2, 7, 13, 40])
def test_chunked_grid_pass_vs_dense(chunk, n_max, monkeypatch):
    # chunks shorter than the halo, chains of at most 2 ceil(k/2) sites, a cut
    # at every size, and long stretches between cuts that need interior chunks
    monkeypatch.setattr(hamiltonian, "_CHUNK", chunk)
    v = sample_potential(n_max, 0.35, uniform_sqrt3(), seed=1300 + n_max).values
    dense = {n: dense_trace_powers(v[:n], 13) for n in range(1, n_max + 1)}
    spread = tuple(n for n in sorted({1, 3, n_max // 2, n_max}) if 1 <= n <= n_max)
    grids = {tuple(range(1, n_max + 1)), (n_max,), spread}
    for k in range(14):
        powers = np.arange(k + 1)
        for sizes in grids:
            grid = _prefix_trace_moments(v, k, sizes)
            for row, n in zip(grid, sizes):
                bound = 1e-13 * _majorant(v[:n], powers)
                assert np.all(np.abs(row - dense[n][:k + 1]) <= bound), (k, sizes, n)


def integer_trace_powers(n, k_max):
    """Oracle: exact traces of the free chain's powers, via integer dense matrices."""
    h = np.eye(n, k=1, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)
    out, p = [n], np.eye(n, dtype=np.int64)
    for _ in range(k_max):
        p = p @ h
        out.append(int(np.trace(p)))
    return out


@pytest.mark.parametrize("chunk", [1, 5, 7])
def test_free_chain_traces_are_exact(chunk, monkeypatch):
    # with v = 0 every band entry is a walk count below 2^53, so the implicit unit
    # bands, which then carry the whole trace, must give exact integers
    monkeypatch.setattr(hamiltonian, "_CHUNK", chunk)
    exact = {n: integer_trace_powers(n, 13) for n in range(1, 41)}
    for n_max in (1, 2, 7, 13, 40):
        v = np.zeros(n_max)
        grids = {tuple(range(1, n_max + 1)), (n_max,),
                 tuple(sorted({1, 2, n_max // 3, n_max - 1, n_max} & set(range(1, n_max + 1))))}
        for k in range(14):
            for sizes in grids:
                grid = _prefix_trace_moments(v, k, sizes)
                for row, n in zip(grid, sizes):
                    assert row.tolist() == exact[n][:k + 1], (k, sizes, n)


def test_law_bound_certifies_before_band_work(monkeypatch):
    def no_band_work(*args, **kwargs):
        raise AssertionError("built bands for an uncertified bound")

    v = np.zeros(10)  # harmless itself; the law's bound is what the caller vouches for
    monkeypatch.setattr(hamiltonian, "_chain_sums", no_band_work)
    with pytest.raises(OverflowError, match="abort"):
        _prefix_trace_moments(v, 13, (5, 10), bound=1e30)  # 10 * (2 + 1e30)^13 > 1e300
    monkeypatch.undo()
    assert _prefix_trace_moments(v, 13, (5, 10), bound=1.0).shape == (2, 14)


def test_grid_pass_at_chunk_boundaries_vs_sparse_powers():
    # eigenvalues of 3e4 sites take seconds; banded sparse powers are an independent oracle
    from scipy import sparse

    c = hamiltonian._CHUNK
    sizes = (c - 1, c, c + 1, 2 * c + 3)
    v = sample_potential(sizes[-1], 0.5, rademacher(), seed=78).values
    grid = _prefix_trace_moments(v, 13, sizes)
    for row, n in zip(grid, sizes):
        ones = np.ones(n - 1)
        h = sparse.diags([ones, v[:n], ones], [-1, 0, 1], format="csr")
        power, traces = sparse.identity(n, format="csr"), [float(n)]
        for _ in range(13):
            power = power @ h
            traces.append(power.diagonal().sum())
        assert np.all(np.abs(row - traces) <= 1e-12 * np.maximum(1.0, np.abs(row))), n


def test_kernel_memory_is_flat_in_n():
    v = sample_potential(10**6, 0.3, rademacher(), seed=5).values
    tracemalloc.start()
    try:
        _prefix_trace_moments(v, 12, (10**6,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # 2 * 7 whole-chain bands of 1e6 doubles would take 112 MB


def test_trace_moments_vs_eigenvalues_n500():
    s = sample_potential(500, 0.5, rademacher(), seed=77)
    t = trace_moments(s, 10)
    lam = eigenvalues(s)
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
    lam = eigenvalues(np.zeros(n))
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


# ------------------------------------------ Tr f(H) of one ensemble replica


def replica_trace(f, n, alpha, dist, seed):
    """Replica 0's raw Tr f(H) from run_ensemble, with that replica's potential."""
    config = EnsembleConfig(alpha=alpha, dist=dist, functions=(f,), n_grid=(n,),
                            replicas=1, base_seed=seed)
    raw = run_ensemble(config).raw[0, 0, 0]
    return raw, sample_potential(n, alpha, dist, derive_seed(seed, 0))


def test_trace_f_linear():
    raw, s = replica_trace(AnalyticSeries.monomial(1), 37, 0.45, rademacher(), 5)
    assert raw == pytest.approx(np.sum(s.values), rel=1e-14)


def test_trace_f_odd_free_operator():
    # Tr H^3 - 6 Tr H = sum V^3 - 3 (V_1 + V_N): zero on the free operator
    f = AnalyticSeries.polynomial([0, -6, 0, 1])
    raw, s = replica_trace(f, 40, 0.45, uniform_sqrt3(), 7)
    v = s.values
    assert raw == pytest.approx(np.sum(v**3) - 3 * (v[0] + v[-1]), rel=1e-12, abs=1e-12)


def test_trace_f_exponential_vs_eigensolver():
    raw, s = replica_trace(AnalyticSeries.exponential(1 / 8), 100, 0.5, rademacher(), 3)
    oracle = np.sum(np.exp(eigenvalues(s) / 8.0))
    assert raw == pytest.approx(oracle, abs=1e-7)


def test_trace_f_radius_rejected():
    tight = AnalyticSeries.cauchy("tight", lambda j: 2.5**-j, 1.0, 2.5, "A")
    with pytest.raises(ValueError, match="radius"):
        replica_trace(tight, 10, 0.5, rademacher(), 1)
