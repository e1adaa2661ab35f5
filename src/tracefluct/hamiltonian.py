"""Numeric side: sampled decaying potentials and traces of operator powers.

The operator on n = 1..N sites is symmetric tridiagonal with unit
hopping and diagonal V(n) = X_n / n^alpha (free boundary: site 1 couples
only to site 2).  Its spectrum lies in [-2-C_X, 2+C_X] when |X| <= C_X.

Sampling is counter-based (Philox keyed by the seed, one uniform per
site), so the first N values of a sample are identical for every larger
size drawn from the same seed.  That prefix stability is what lets one
realisation be followed across a growing size grid.

Traces of powers are read off banded powers H^1 .. H^ceil(k/2) that are
built for a fixed number of rows at a time, so a replica needs
O(N + _CHUNK * k) memory: its potential plus cache-sized band buffers.
A low power's trace is the sum of its diagonal band, a high power's pairs
two half powers, and no band whose entries are known is built: H^1 is
the potential itself, and the top band of every power is all ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec

_OVERFLOW_LIMIT = 1e300

#: Rows per chunk of the trace kernel.  Its band buffers, 2 ceil(k/2) rows
#: of _CHUNK + 2 ceil(k/2) doubles, stay cache-sized at any N; a
#: constant, so every machine and worker count sums in the same order.
_CHUNK = 16384


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
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"the decay exponent alpha must be positive and finite, got {alpha}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    values = dist.sample_xs(rng, n_sites)
    values /= _site_scale(n_sites, alpha)
    return PotentialSample(n_sites=n_sites, alpha=alpha, seed=seed, dist=dist, values=values)


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

    Only H^1 .. H^top, top = ceil(k_max/2), are formed.  For p <= top,
    Tr H^p is the sum of the diagonal band of H^p; above it, Tr H^(a+b) =
    sum_d w_d <(H^a)_d, (H^b)_d> over the upper bands d (w_0 = 1, w_d = 2),
    with a = ceil(p/2) and b = floor(p/2).  H^1 is read off the potential,
    and the top band of every power, (H^a)_{i,i+a} = 1, is never stored:
    a read of it is a scalar add, a product with it a plain sum.  That is
    about 3 top^2/2 array passes of band updates plus
    top + sum_{top < p <= k_max} ceil(p/2) reductions per site: 7 passes in
    all at k_max = 3, and 85 at k_max = 12.
    The bands are built chunk by chunk, so memory is O(N + _CHUNK * k_max),
    the input included.

    The reductions are BLAS-free (``np.einsum``, never ``@`` or
    ``np.dot``): with threads unpinned, an OpenBLAS dot product of 1e5
    doubles intermittently takes milliseconds instead of microseconds.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    v = _as_values(sample)
    return _prefix_trace_moments(v, k_max, (v.size,))[0]


def _check_power_bound(n_sites: int, peak: float, k_max: int) -> None:
    """Certify n_sites * (2 + peak)^k_max <= 1e300 for a potential with |V| <= peak.

    Every entry of H^a is at most ||H||^a <= (2 + peak)^a, so under this
    bound no band entry, product or trace of a power up to k_max
    overflows.  A NaN peak fails it too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = n_sites * np.float64(2.0 + peak) ** k_max
    if not bound <= _OVERFLOW_LIMIT:
        raise OverflowError(
            f"traces of H^{k_max} are bounded only by N (2 + max|V|)^k = "
            f"{n_sites} * (2 + {peak:g})^{k_max}, which exceeds {_OVERFLOW_LIMIT:g}; "
            f"aborting before any trace work"
        )


def _band_buffer(k_max: int, n_sites: int) -> np.ndarray:
    """Scratch band powers for `_prefix_trace_moments` on up to n_sites sites; reusable across calls."""
    top = (k_max + 1) // 2
    return np.empty((2, top, min(n_sites, _CHUNK + 2 * top)))


def _chain_sums(w: np.ndarray, k_max: int, bands: np.ndarray, cuts: tuple[int, ...]) -> np.ndarray:
    """Per-power row terms of the free chain on sites w, summed over row ranges.

    Row r of the result holds, for p = 1..k_max, the sum over rows
    [cuts[r], cuts[r+1]) of the row terms of Tr H^p.  For p <= top =
    ceil(k_max/2) the row term is (H^p)_ii; above it, it is row i of
    sum_d w_d <(H^a)_d, (H^b)_d> with a = ceil(p/2), b = floor(p/2).  The
    two split a trace among rows differently, but both sum to Tr H^p, and
    both keep each row's term within top sites of the row.

    H^a is held as its bands 0 .. a-1: band d holds (H^a)_{i,i+d} for
    i < m - d, and its last d slots are zero padding.  H^1 is w itself;
    for a >= 2 the bands go into ``bands``, whose two power buffers
    alternate, one step apart.  Band a is never stored: (H^a)_{i,i+a} = 1
    for i < m - a, so every read of it is a scalar add over those rows.
    Only the padding is zeroed; every other slot is written before it is
    read.
    """
    top = (k_max + 1) // 2
    m = w.size
    for d in range(1, top):
        bands[:, d, max(m - d, 0):m] = 0.0
    spans = list(zip(cuts, cuts[1:]))
    per_band = np.zeros((len(spans), k_max + 1, top + 1))
    prev, cur = None, w[None, :]  # H^1: its one stored band, the diagonal, is w itself
    for a in range(1, top + 1):
        if a > 1:
            prev, cur = cur, bands[a % 2, :a, :m]
            for d in range(min(a, m)):
                # (H^a)_{i,i+d} = (H^(a-1))_{i,i+d-1} + (H^(a-1))_{i,i+d} w_{i+d} + (H^(a-1))_{i,i+d+1}
                # where band a-1 of H^(a-1) is its implicit ones and band a is empty
                row = cur[d, :m - d]
                if d == a - 1:
                    np.add(prev[d - 1, :m - d], w[d:], out=row)
                    continue
                np.multiply(prev[d, :m - d], w[d:], out=row)
                if a == 2 and d == 0:  # both neighbours of the diagonal of H^1 are its ones
                    row += 2.0
                    row[0] -= 1.0
                    row[-1] -= 1.0
                    continue
                if d + 1 < a - 1:
                    row += prev[d + 1, :m - d]  # its last slot is padding
                else:
                    row[:m - d - 1] += 1.0
                if d:
                    row += prev[d - 1, :m - d]
                else:
                    row[1:] += prev[1, :m - 1]  # (H^(a-1))_{i,i-1} by symmetry
        for r, (start, stop) in enumerate(spans):
            per_band[r, a, 0] = cur[0, start:stop].sum()
            for p in range(max(2 * a - 1, top + 1), min(2 * a, k_max) + 1):
                b = p - a
                low = cur if b == a else prev
                np.einsum("ij,ij->i", cur[:b, start:stop], low[:b, start:stop],
                          out=per_band[r, p, :b])
                # band b of H^b is all ones on rows i < m - b
                if b < a:
                    per_band[r, p, b] = cur[b, start:stop].sum()
                else:
                    per_band[r, p, b] = max(min(stop, m - b) - start, 0)
    return per_band[..., 0] + 2.0 * per_band[..., 1:].sum(axis=-1)


def _prefix_trace_moments(v: np.ndarray, k_max: int, sizes: tuple[int, ...],
                          bands: np.ndarray | None = None, bound: float | None = None) -> np.ndarray:
    """Trace moments of every prefix size in one pass: shape (len(sizes), k_max + 1).

    ``sizes`` is strictly increasing and ends by ``v.size`` (else a ValueError); ``bands`` is
    an optional `_band_buffer` for ``v.size`` sites, reused between calls.
    ``bound`` is a known bound on |V| (a law's support), certified against
    overflow in place of a scan of ``v`` for its largest magnitude.

    With rows counted from 0, the row terms of Tr H^p (see `_chain_sums`)
    depend only on the sites within top = ceil(k_max/2) of the row: the
    diagonal entry (H^p)_ii of a power p <= top on the sites within p/2,
    and row i of a pair of half powers on sites i - top .. i + top.  So
    the rows are walked in chunks of _CHUNK, each built as a free chain
    with a halo of top sites on both sides.  Every grid size n is a chunk
    cut: its chain ends at n, the rows before n - top go into one running
    sum shared by all later sizes (no walk from them reaches n), and the
    last top rows are summed for size n alone.
    """
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or (sizes and sizes[-1] > v.size):
        raise ValueError(f"sizes {sizes} must be strictly increasing and at most {v.size}")
    out = np.empty((len(sizes), k_max + 1))
    out[:, 0] = sizes
    if k_max == 0:
        return out
    if bound is None:
        bound = np.maximum(v.max(initial=0.0), -v.min(initial=0.0))
    _check_power_bound(v.size, bound, k_max)
    top = (k_max + 1) // 2
    if bands is None:
        bands = _band_buffer(k_max, v.size)
    running = np.zeros(k_max + 1)
    start = 0  # rows [0, start) of every later size are in running
    for row, n in zip(out, sizes):
        while n - start > _CHUNK + top:
            lo = max(start - top, 0)
            stop = start + _CHUNK
            running += _chain_sums(v[lo:stop + top], k_max, bands, (start - lo, stop - lo))[0]
            start = stop
        lo = max(start - top, 0)
        cut = max(start, n - top)
        shared, own = _chain_sums(v[lo:n], k_max, bands, (start - lo, cut - lo, n - lo))
        running += shared
        row[1:] = (running + own)[1:]
        start = cut
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
    times the spectral radius.  It is O(N^2): 10.7 s for one chain of
    16,385 sites on a 2-vCPU VM, so the kernel's chunk-boundary test
    checks against sparse matrix powers instead.  scipy is imported here,
    off the CLI's import path.
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
