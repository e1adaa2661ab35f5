"""Numeric kernels against dense-matrix, sparse-matrix and eigensolver oracles."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tracefluct import hamiltonian
from tracefluct.distributions import rademacher, two_point, uniform_sqrt3, uniform_symmetric
from tracefluct.hamiltonian import (
    _CHUNK,
    _chain_sums,
    _grid_traces,
    _replica_traces,
    _site_scale,
    derive_seed,
    eigenvalues,
    sample_potential,
    trace_moments,
)
from tracefluct.montecarlo import EnsembleConfig, run_ensemble
from tracefluct.series import AnalyticSeries


def dense_trace_powers(values, k_max):
    """Oracle: traces of matrix powers via dense matrix multiplication."""
    n = len(values)
    h = np.diag(values) + np.eye(n, k=1) + np.eye(n, k=-1)
    out = [float(n)]
    p = np.eye(n)
    for _ in range(k_max):
        p = p @ h
        out.append(float(np.trace(p)))
    return np.array(out)


def unit_rows(k):
    """The coefficient rows e_0 .. e_k, whose traces are Tr H^0 .. Tr H^k."""
    return [(0,) * p + (1,) for p in range(k + 1)]


def grid_moments(v, k, sizes, bound=None):
    """[Tr H^0, ..., Tr H^k] of every prefix size, one pass over v: shape (len(sizes), k + 1)."""
    return _grid_traces(v[None], unit_rows(k), sizes, bound=bound)[0]


# ---------------------------------------------------------------- sampling


def test_sample_support():
    s = sample_potential(50, 0.7, rademacher(), seed=42)
    n = np.arange(1, 51, dtype=float)
    assert np.all(np.abs(s) == 1.0 / n**0.7)
    assert set(np.unique(np.sign(s))) == {-1.0, 1.0}


def test_sample_prefix_stability():
    for dist in (rademacher(), uniform_sqrt3()):
        small = sample_potential(100, 0.5, dist, seed=9)
        big = sample_potential(1000, 0.5, dist, seed=9)
        assert np.array_equal(small, big[:100])


def test_sample_determinism_and_seed_derivation():
    a = sample_potential(64, 0.4, uniform_sqrt3(), seed=1234)
    b = sample_potential(64, 0.4, uniform_sqrt3(), seed=1234)
    assert np.array_equal(a, b)
    c = sample_potential(64, 0.4, uniform_sqrt3(), seed=1235)
    assert not np.array_equal(a, c)
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
            xs = (2.0 * u - 1.0) * dist.bound
        else:
            (v1, v2), (p1, _) = dist.values, dist.probs
            xs = np.where(u < float(p1), float(v1), float(v2))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        out = np.empty(n)
        dist.sample_xs(rng, out, dist.sample_divisor(np.ones(n)))
        assert np.array_equal(out, xs)
        values = xs / np.arange(1, n + 1, dtype=float) ** alpha
        assert np.array_equal(sample_potential(n, alpha, dist, seed), values)


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("dist", [rademacher(), uniform_sqrt3()], ids=["rademacher", "uniform"])
def test_scale_past_the_cache_matches_the_cached_array(dist, alpha, monkeypatch):
    # past the block's prefix each window computes its own slice of n^alpha: the same doubles
    n = 3 * _CHUNK + 11
    whole = _site_scale(0, n, alpha, dist)
    for lo, hi in ((0, 1000), (990, 1001), (1001, 17_400), (_CHUNK - 3, 2 * _CHUNK + 5), (n - 7, n)):
        assert np.array_equal(_site_scale(lo, hi, alpha, dist), whole[lo:hi]), (lo, hi)
    sizes = (5, _CHUNK + 3, n)
    cached = stream_traces(alpha, dist, 4, 12, sizes)
    monkeypatch.setattr(hamiltonian, "_SCALE_CACHE_SITES", 1000)
    assert np.array_equal(stream_traces(alpha, dist, 4, 12, sizes), cached)


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
    assert np.allclose(trace_moments(s, k_max), dense_trace_powers(s, k_max),
                       rtol=1e-12, atol=1e-12)


def _majorant(values, k):
    """N (2 + max|V|)^k bounds every term of Tr H^k; tolerances scale with it."""
    return len(values) * (2.0 + np.max(np.abs(values))) ** k


@pytest.mark.parametrize("n", range(1, 25))
def test_trace_moments_sweep_vs_dense(n):
    s = sample_potential(n, 0.35, uniform_sqrt3(), seed=500 + n)
    dense = dense_trace_powers(s, 13)
    for k in range(14):
        t = trace_moments(s, k)
        assert t.shape == (k + 1,)
        for p in range(k + 1):
            assert abs(t[p] - dense[p]) <= 1e-13 * _majorant(s, p), (k, p)


@pytest.mark.parametrize("n_max", [1, 2, 7, 24])
def test_grid_pass_matches_per_size_calls(n_max):
    # every prefix size: those <= ceil(k/2) put the window on the left edge,
    # and neighbouring sizes (n, n+1) move the window by one site
    v = sample_potential(n_max, 0.3, rademacher(), seed=900 + n_max)
    sizes = tuple(range(1, n_max + 1))
    for k in range(14):
        grid = grid_moments(v, k, sizes)
        assert grid.shape == (n_max, k + 1)
        for row, n in zip(grid, sizes):
            one = trace_moments(v[:n], k)
            for p in range(k + 1):
                assert abs(row[p] - one[p]) <= 1e-13 * _majorant(v[:n], p), (k, n, p)


@pytest.mark.parametrize("sizes", [(1, 2), (2,), (1, 1), (2, 1)])
def test_grid_pass_rejects_a_bad_grid(sizes):
    # a size past the sample has no sites to read: the free 2-site chain's Tr H^2 is 2, not 0
    with pytest.raises(ValueError, match="strictly increasing"):
        grid_moments(np.zeros(1), 2, sizes)


def test_grid_pass_on_a_sparse_grid():
    v = sample_potential(3000, 0.2, uniform_sqrt3(), seed=31)
    sizes = (5, 6, 700, 2999, 3000)
    grid = grid_moments(v, 12, sizes)
    for row, n in zip(grid, sizes):
        one = trace_moments(v[:n], 12)
        assert np.all(np.abs(row - one) <= 1e-13 * _majorant(v[:n], np.arange(13)))


@pytest.mark.parametrize("chunk", [1, 5, 7])
@pytest.mark.parametrize("n_max", [1, 2, 7, 13, 40])
def test_chunked_grid_pass_vs_dense(chunk, n_max, monkeypatch):
    # chunks shorter than the halo, chains of at most 2 ceil(k/2) sites, a cut
    # at every size, and long stretches between cuts that need interior chunks
    monkeypatch.setattr(hamiltonian, "_CHUNK", chunk)
    v = sample_potential(n_max, 0.35, uniform_sqrt3(), seed=1300 + n_max)
    dense = {n: dense_trace_powers(v[:n], 13) for n in range(1, n_max + 1)}
    spread = tuple(n for n in sorted({1, 3, n_max // 2, n_max}) if 1 <= n <= n_max)
    grids = {tuple(range(1, n_max + 1)), (n_max,), spread}
    for k in range(14):
        powers = np.arange(k + 1)
        for sizes in grids:
            grid = grid_moments(v, k, sizes)
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
                grid = grid_moments(v, k, sizes)
                for row, n in zip(grid, sizes):
                    assert row.tolist() == exact[n][:k + 1], (k, sizes, n)


LAWS = [rademacher(), uniform_sqrt3(), two_point(2, Fraction(-1, 2), Fraction(1, 5))]


def stream_traces(alpha, dist, seed, k, sizes):
    """A replica's grid moments, its potential drawn chunk by chunk as the pass reaches it."""
    return _replica_traces(alpha, dist, unit_rows(k), sizes, [seed])[0][0].T


@pytest.mark.parametrize("dist", LAWS, ids=["rademacher", "uniform", "two-point"])
@pytest.mark.parametrize("k", [1, 3, 12, 14])
def test_streamed_traces_match_the_whole_potential(dist, k):
    # the same doubles in the same chunks: each row of a block of two streamed replicas is
    # bit-identical to the pass over its own drawn array
    top = (k + 1) // 2
    grids = [(_CHUNK - top,), (_CHUNK + top,), (3 * _CHUNK + 5,),
             (_CHUNK - top, _CHUNK + top, 3 * _CHUNK + 5), (5, _CHUNK, 2 * _CHUNK + top + 1)]
    for seed, sizes in enumerate(grids):
        seeds = [seed, seed + len(grids)]
        for streamed, s in zip(_replica_traces(0.3, dist, unit_rows(k), sizes, seeds)[0], seeds):
            whole = sample_potential(sizes[-1], 0.3, dist, s)
            assert np.array_equal(streamed.T, grid_moments(whole, k, sizes)), sizes
            if len(sizes) == 1:
                assert np.array_equal(streamed[:, 0], trace_moments(whole, k)), sizes


@pytest.mark.parametrize("dist", LAWS, ids=["rademacher", "uniform", "two-point"])
@pytest.mark.parametrize("k", [1, 3, 12])
def test_replica_block_reuses_buffers_without_leaks(dist, k, monkeypatch):
    # chains of every length pass through one band buffer and one window block per call:
    # 2 B + 3 replicas give the very doubles of one call per replica, with a scale prefix
    # that covers every size (blocks of B) and with one that ends inside the grid (of 2 B)
    monkeypatch.setattr(hamiltonian, "_CHUNK", 5)
    calls = []  # per _replica_traces call, its band buffer and the window of each block
    band_buffer, block = hamiltonian._band_buffer, hamiltonian._PotentialBlock

    def counted(*args):
        calls.append([band_buffer(*args)])
        return calls[-1][0]

    def recorded(*args):
        calls[-1].append(args[-1])
        return block(*args)

    monkeypatch.setattr(hamiltonian, "_band_buffer", counted)
    monkeypatch.setattr(hamiltonian, "_PotentialBlock", recorded)
    rows = [*unit_rows(k)[1:], (1.5, 0.0, -2.0, 0.25)[:k + 1]]
    b = hamiltonian._REPLICA_BLOCK
    sizes, seeds = (2, 4, 13, 14, 37), [derive_seed(3, r) for r in range(2 * b + 3)]
    one = np.concatenate([_replica_traces(0.3, dist, rows, sizes, [seed])[0] for seed in seeds])
    assert [[w.shape[0] for w in windows] for _, *windows in calls] == [[1]] * len(seeds)
    for prefix, blocks in ((64, [b, b, 3]), (20, [2 * b, 3])):
        monkeypatch.setattr(hamiltonian, "_SCALE_CACHE_SITES", prefix)
        calls.clear()
        assert np.array_equal(_replica_traces(0.3, dist, rows, sizes, seeds)[0], one), prefix
        ((_, *windows),) = calls
        assert [w.shape[0] for w in windows] == blocks
        assert len({w.ctypes.data for w in windows}) == 1  # one block, its first rows reused
    empty, sample_s, trace_s = _replica_traces(0.3, dist, rows, sizes, [])
    assert empty.shape == (0, len(rows), len(sizes)) and sample_s == trace_s == 0.0


def at_page_offset(shape, offset):
    """An uninitialised C-contiguous float array whose first double sits ``offset`` bytes into a page."""
    size = 8 * math.prod(shape)
    raw = np.empty(size + 4096, dtype=np.uint8)
    start = (offset - raw.ctypes.data) % 4096
    return raw[start:start + size].view(np.float64).reshape(shape)


@pytest.mark.parametrize("rows", [[(0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)], [(0, 0, 0, 1, 1)]],
                         ids=["deg12", "x3+x4"])
def test_band_layout_never_changes_a_bit(rows):
    # the buffer's page-aligned base and padded rows move addresses only: a plain buffer and
    # one at page offset 0x10, where a fresh mmap puts it, give the very same traces
    c, top = _CHUNK, hamiltonian._halo(rows)
    v = sample_potential(2 * c + 3, 0.2, uniform_sqrt3(), seed=4)
    bands = hamiltonian._band_buffer(rows, v.size)
    assert bands.shape == (2, top, c + 2 * top)
    assert bands.ctypes.data % 4096 == 0
    assert bands.strides == (top * bands.strides[1], bands.strides[1], 8)
    assert bands.strides[1] % 4096 == hamiltonian._ROW_RESIDUE
    shifted = at_page_offset(bands.shape, 0x10)
    assert shifted.ctypes.data % 4096 == 0x10
    for sizes in [(c - 1,), (c,), (c + 1,), (2 * c + 3,), (c - 1, c, c + 1, 2 * c + 3)]:
        want = _grid_traces(v[None], rows, sizes, bands)
        for other in (np.empty(bands.shape), shifted):
            assert np.array_equal(_grid_traces(v[None], rows, sizes, other), want), sizes


def test_rows_below_power_four_build_no_bands():
    # the buffer takes the kernel's halo: rows that stop at power 3, or carry only zeros above
    # it, get no band rows and a window of _CHUNK sites
    for rows in ([(0, 1), (0, 0, 0, 1)], [(1, 0, 2, 0, 0.0)]):
        assert hamiltonian._band_buffer(rows, 10 * _CHUNK).shape == (2, 0, _CHUNK)
    assert hamiltonian._band_buffer([(0, 0, 0, 0, 1), (0, 1)], 10).shape == (2, 2, 10)


@pytest.mark.parametrize("chunk, n", [(3, 40), (7, 40), (_CHUNK, 2 * _CHUNK + 9)])
def test_masked_powers_match_the_full_kernel(chunk, n, monkeypatch):
    # a row's trace is the fsum of the full kernel's moments over the row's powers, to the bit
    monkeypatch.setattr(hamiltonian, "_CHUNK", chunk)
    v = sample_potential(n, 0.3, uniform_sqrt3(), seed=8)
    sizes = (2, 9, n // 2 + 1, n)
    rng = np.random.default_rng(chunk)
    for k in range(1, 15):
        full = grid_moments(v, k, sizes)
        rows = []
        for powers in ({k}, {1}, set(range(2, k + 1, 2)), set(rng.choice(k + 1, 3).tolist())):
            row = np.zeros(k + 1)  # padded to k + 1, so the bands and chunks are the full kernel's
            row[sorted(powers)] = rng.normal(size=len(powers))
            rows.append(tuple(row.tolist()))
        got = _grid_traces(v[None], rows, sizes)[0]
        for i, moments in enumerate(full):
            want = [math.fsum(c * moments[j] for j, c in enumerate(row) if c) for row in rows]
            assert got[i].tolist() == want, (k, rows)
    # and the chain sums make no sum of a power no row uses
    sums = _chain_sums(v[:40], 14, np.empty((2, 7, 40)), (0, 20, 40), frozenset({2, 9}))
    assert not np.delete(sums, [2, 9], axis=1).any() and sums[:, [2, 9]].all()


def test_law_bound_certifies_before_band_work(monkeypatch):
    def no_band_work(*args, **kwargs):
        raise AssertionError("built bands for an uncertified bound")

    v = np.zeros(10)  # harmless itself; the law's bound is what the caller vouches for
    monkeypatch.setattr(hamiltonian, "_chain_sums", no_band_work)
    with pytest.raises(OverflowError, match="abort"):
        grid_moments(v, 13, (5, 10), bound=1e30)  # 10 * (2 + 1e30)^13 > 1e300
    monkeypatch.undo()
    assert grid_moments(v, 13, (5, 10), bound=1.0).shape == (2, 14)


def sparse_trace_powers(values, k_max):
    """Oracle: [Tr H^0, ..., Tr H^k_max] of the chain on ``values`` via banded sparse powers."""
    from scipy import sparse

    n = len(values)
    ones = np.ones(n - 1)
    h = sparse.diags([ones, values, ones], [-1, 0, 1], shape=(n, n), format="csr")
    power, traces = sparse.identity(n, format="csr"), [float(n)]
    for _ in range(k_max):
        power = power @ h
        traces.append(power.diagonal().sum())
    return traces


def row_traces(rows, traces):
    """Tr f(H) of each coefficient row, from the traces of the powers."""
    return [math.fsum(c * traces[j] for j, c in enumerate(row)) for row in rows]


def test_grid_pass_at_chunk_boundaries_vs_sparse_powers():
    # eigenvalues of 3e4 sites take seconds; banded sparse powers are an independent oracle.
    # The unit rows, and rows that mix powers <= 3 (site sums) with powers >= 4 (bands)
    c = hamiltonian._CHUNK
    sizes = (c - 1, c, c + 1, 2 * c + 3)
    v = sample_potential(sizes[-1], 0.5, rademacher(), seed=78)
    mixed = [(0, 0, 0, 1, 1), (0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)]  # x^3 + x^4, the deg-12 row
    grid, mixed_grid = grid_moments(v, 13, sizes), _grid_traces(v[None], mixed, sizes)[0]
    for row, mixed_row, n in zip(grid, mixed_grid, sizes):
        traces = sparse_trace_powers(v[:n], 13)
        assert np.all(np.abs(row - traces) <= 1e-12 * np.maximum(1.0, np.abs(row))), n
        want = np.array(row_traces(mixed, traces))
        assert np.all(np.abs(mixed_row - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), n


@pytest.mark.parametrize("dist", LAWS, ids=["rademacher", "uniform", "two-point"])
def test_low_powers_make_no_band_work(dist, monkeypatch):
    # Tr H, Tr H^2 and Tr H^3 are site power sums plus edge terms, on arrays and on streams
    def no_band_work(*args, **kwargs):
        raise AssertionError("built bands for rows with no power >= 4")

    monkeypatch.setattr(hamiltonian, "_chain_sums", no_band_work)
    rows = [(0, 1), (0, 0, 0, 1), (0, -2, 1, 1), (1, 1)]  # x, x^3, x^3 - 2x + x^2, 1 + x
    sizes = (1, 2, 3, _CHUNK - 1, _CHUNK + 2, 2 * _CHUNK + 3)
    v = sample_potential(sizes[-1], 0.5, dist, seed=29)
    whole = _grid_traces(v[None], rows, sizes)[0]
    streamed = _replica_traces(0.5, dist, rows, sizes, [29])[0][0].T
    for got_whole, got_streamed, n in zip(whole, streamed, sizes):
        want = np.array(row_traces(rows, sparse_trace_powers(v[:n], 3)))
        bound = 1e-12 * np.abs(want)
        assert np.all(np.abs(got_whole - want) <= bound), n
        assert np.all(np.abs(got_streamed - want) <= bound), n


def test_kernel_memory_is_flat_in_n():
    v = sample_potential(10**6, 0.3, rademacher(), seed=5)
    tracemalloc.start()
    try:
        grid_moments(v, 12, (10**6,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # 2 * 7 whole-chain bands of 1e6 doubles would take 112 MB


def test_replica_memory_is_flat_in_n(monkeypatch):
    # no length-N array: a window of sites, its band buffers and the capped scale cache
    monkeypatch.setattr(hamiltonian, "_SCALE_CACHE_SITES", _CHUNK)
    tracemalloc.start()
    try:
        stream_traces(0.3, uniform_sqrt3(), 5, 12, (10**5, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # the potential alone would take 8 MB


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
        grid_moments(np.concatenate([values, np.zeros(5)]), k_max, (values.size, values.size + 5))


# ------------------------------------------------------------- eigenvalues


def test_free_laplacian_spectrum():
    n = 1000
    lam = eigenvalues(np.zeros(n))
    expected = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(lam - expected)) < 1e-8


def test_eigenvalues_single_site():
    assert eigenvalues(np.array([0.25])) == pytest.approx([0.25])


def test_spectrum_inclusion():
    dist = uniform_sqrt3()
    for seed in range(5):
        lam = eigenvalues(sample_potential(200, 0.3, dist, seed=seed))
        edge = 2.0 + dist.bound
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
    assert raw == pytest.approx(np.sum(s), rel=1e-14)


def test_trace_f_odd_free_operator():
    # Tr H^3 - 6 Tr H = sum V^3 - 3 (V_1 + V_N): zero on the free operator
    f = AnalyticSeries.polynomial([0, -6, 0, 1])
    raw, v = replica_trace(f, 40, 0.45, uniform_sqrt3(), 7)
    assert raw == pytest.approx(np.sum(v**3) - 3 * (v[0] + v[-1]), rel=1e-12, abs=1e-12)


def test_trace_f_exponential_vs_eigensolver():
    raw, s = replica_trace(AnalyticSeries.exponential(1 / 8), 100, 0.5, rademacher(), 3)
    oracle = np.sum(np.exp(eigenvalues(s) / 8.0))
    assert raw == pytest.approx(oracle, abs=1e-7)


def test_trace_f_radius_rejected():
    tight = AnalyticSeries.cauchy("tight", lambda j: 2.5**-j, 1.0, 2.5, "A")
    with pytest.raises(ValueError, match="radius"):
        replica_trace(tight, 10, 0.5, rademacher(), 1)
