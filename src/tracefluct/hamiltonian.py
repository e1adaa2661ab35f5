"""Numeric side: sampled decaying potentials and traces of operator powers.

The operator on n = 1..N sites is symmetric tridiagonal with unit
hopping and diagonal V(n) = X_n / n^alpha (free boundary: site 1 couples
only to site 2).  Its spectrum lies in [-2-C_X, 2+C_X] when |X| <= C_X.

Sampling is counter-based (Philox keyed by the seed, one uniform per
site), so the first N values of a sample are identical for every larger
size drawn from the same seed.  That prefix stability is what lets one
realisation be followed across a growing size grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec

_OVERFLOW_LIMIT = 1e300


def derive_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit stream seed for (base_seed, index)."""
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class PotentialSample:
    """One realisation V(1..N) of the decaying random potential."""

    n_sites: int
    alpha: float
    seed: int
    dist: DistributionSpec
    values: np.ndarray  # V(n) = X_n / n^alpha


def sample_potential(n_sites: int, alpha: float, dist: DistributionSpec, seed: int) -> PotentialSample:
    """Draw V(n) = X_n / n^alpha for n = 1..n_sites, prefix-stable in the seed."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    if alpha <= 0:
        raise ValueError("the decay exponent must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    xs = dist.sample_xs(rng, n_sites)
    return PotentialSample(
        n_sites=n_sites, alpha=alpha, seed=seed, dist=dist,
        values=xs / _site_scale(n_sites, alpha),
    )


@lru_cache(maxsize=4)
def _site_scale(n_sites: int, alpha: float) -> np.ndarray:
    """Read-only n^alpha for n = 1..n_sites, shared by every replica of an ensemble."""
    scale = np.arange(1, n_sites + 1, dtype=float) ** alpha
    scale.flags.writeable = False
    return scale


def _as_values(sample) -> np.ndarray:
    values = getattr(sample, "values", sample)
    return np.asarray(values, dtype=float)


def trace_moments(sample, k_max: int) -> np.ndarray:
    """[Tr H^0, ..., Tr H^k_max] via half powers of the tridiagonal operator.

    Uses Tr H^(a+b) = sum_d w_d <(H^a)_d, (H^b)_d> over the upper bands d
    (w_0 = 1, w_d = 2), with a = ceil(p/2) and b = floor(p/2), so only
    H^1 .. H^ceil(k_max/2) are formed: about k_max^2/8 band updates plus
    about k_max^2/4 length-N reductions, and O(N * k_max) memory.

    The reductions are BLAS-free (``np.einsum``, never ``@`` or
    ``np.dot``): with threads unpinned, an OpenBLAS dot product of 1e5
    doubles intermittently takes milliseconds instead of microseconds.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    v = _as_values(sample)
    return _prefix_trace_moments(v, k_max, (v.size,))[0]


def _band_powers(v: np.ndarray, top: int):
    """Yield (a, H^(a-1), H^a) for a = 1..top as upper-band arrays.

    Row d of an array holds (H^a)_{i,i+d} for i < n-d, zero-padded to
    length n, for d = 0..min(top, n-1).  The two buffers alternate, so
    each step overwrites the arrays the step before it yielded.
    """
    n = v.size
    width = max(min(top, n - 1), 0) + 1
    # one allocation: two separate buffers of this size were handed back to
    # the OS and faulted in again on every call (1.9 vs 3.5 ms at N=1e5, k=3)
    prev, cur = np.zeros((2, width, n))
    cur[0] = 1.0
    for a in range(1, top + 1):
        prev, cur = cur, prev
        old_top = min(a - 1, n - 1)  # bandwidth of H^(a-1)
        for d in range(min(a, n - 1) + 1):
            # (H^a)_{i,i+d} = (H^(a-1))_{i,i+d-1} + (H^(a-1))_{i,i+d} v_{i+d} + (H^(a-1))_{i,i+d+1}
            row = cur[d, :n - d]
            if d <= old_top:
                np.multiply(prev[d, :n - d], v[d:], out=row)
                if d:
                    row += prev[d - 1, :n - d]
            else:
                row[:] = prev[d - 1, :n - d]
            if d < old_top:
                row += prev[d + 1, :n - d]  # its last slot is padding
        if old_top >= 1:
            cur[0, 1:] += prev[1, :n - 1]  # (H^(a-1))_{i,i-1} by symmetry
        yield a, prev, cur


def _pair_trace(high: np.ndarray, low: np.ndarray, b: int, start: int, stop: int) -> float:
    """Rows [start, stop) of Tr H^(a+b) from the bands of H^a (high) and H^b (low)."""
    width = min(b, high.shape[0] - 1) + 1
    per_band = np.einsum("ij,ij->i", high[:width, start:stop], low[:width, start:stop])
    return per_band[0] + 2.0 * per_band[1:].sum()


def _prefix_trace_moments(v: np.ndarray, k_max: int, sizes: tuple[int, ...]) -> np.ndarray:
    """Trace moments of every prefix size in one pass: shape (len(sizes), k_max + 1).

    ``sizes`` is strictly increasing and ends at ``v.size``.  With rows
    counted from 0, the pair term of row i of Tr H_n^p equals that of the
    full chain when i + a < n (no walk of a steps from i leaves the first
    n sites), so a smaller size n sums the full bands over rows [0, n - a)
    and takes rows [n - a, n) from the local chain v[max(0, n - 2 top):n]
    with top = ceil(k_max/2) >= a, whose walks of a steps stay inside it.
    """
    top = (k_max + 1) // 2
    out = np.empty((len(sizes), k_max + 1))
    out[:, 0] = sizes
    windows = [(n, max(0, n - 2 * top)) for n in sizes[:-1]]
    steps = zip(_band_powers(v, top), *(_band_powers(v[lo:n], top) for n, lo in windows))
    with np.errstate(over="ignore", invalid="ignore"):  # the guards below raise instead
        for (a, prev, cur), *local in steps:
            for p in range(2 * a - 1, min(2 * a, k_max) + 1):
                b = p - a
                low = cur if b == a else prev
                out[-1, p] = _pair_trace(cur, low, b, 0, v.size)
                for s, ((n, lo), (_, lprev, lcur)) in enumerate(zip(windows, local)):
                    cut = max(n - a, 0)
                    out[s, p] = (_pair_trace(cur, low, b, 0, cut)
                                 + _pair_trace(lcur, lcur if b == a else lprev, b, cut - lo, n - lo))
            if 2 * a > k_max:
                # Tr H^(2a) >= (any entry of H^a)^2 certified every earlier power;
                # this last one has no square trace, so scan its entries.
                for arr in (cur, *(step[2] for step in local)):
                    peak = max(arr.max(initial=0.0), -arr.min(initial=0.0))
                    if not peak <= _OVERFLOW_LIMIT:
                        raise OverflowError(
                            f"entries of H^{a} exceed {_OVERFLOW_LIMIT:g} (max {peak:g}); aborting"
                        )
    bad = ~(np.abs(out) <= _OVERFLOW_LIMIT)
    if bad.any():
        p = int(np.argmax(bad.any(axis=0)))
        raise OverflowError(f"Tr H^{p} exceeds {_OVERFLOW_LIMIT:g} or is not finite; aborting")
    return out


def eigenvalues(sample) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric tridiagonal operator.

    An independent oracle for the trace kernel: LAPACK's default
    tridiagonal driver (stemr, multiple relatively robust
    representations), accurate to a small multiple of machine precision
    times the spectral radius.  scipy is imported here, off the CLI's
    import path.
    """
    from scipy.linalg import eigh_tridiagonal

    v = _as_values(sample)
    off = np.ones(max(v.size - 1, 0))
    return np.sort(eigh_tridiagonal(v, off, eigvals_only=True))


def dense_matrix(values) -> np.ndarray:
    """Dense N x N form of the operator; for small-N cross-checks."""
    v = _as_values(values)
    h = np.diag(v)
    n = v.size
    if n > 1:
        idx = np.arange(n - 1)
        h[idx, idx + 1] = 1.0
        h[idx + 1, idx] = 1.0
    return h
