"""Numeric side: sampled decaying potentials and traces of operator powers.

The operator on n = 1..N sites is symmetric tridiagonal with unit
hopping and diagonal V(n) = X_n / n^alpha (free boundary: site 1 couples
only to site 2).  Its spectrum lies in [-2-C_X, 2+C_X] when |X| <= C_X.

Sampling is counter-based (Philox keyed by the seed, one 64-bit word per
site), so the first N values of a sample are identical for every larger
size drawn from the same seed.  That prefix stability is what lets one
realisation be followed across a growing size grid.

Tr H, Tr H^2 and Tr H^3 are site power sums S_c = sum_{i<=n} V_i^c plus
edge terms, S_1, S_2 + 2(n-1) and S_3 + 6 S_1 - 3(V_1 + V_n), as a closed
path of p <= 3 steps keeps its flat steps on one site.  A power p >= 4 is
read off banded powers up to H^ceil(p_max/2), built for a fixed number of
rows at a time; a replica's sites are drawn chunk by chunk as well, so it
needs O(_CHUNK * k) memory at any N.  No band whose entries are known is
built: H^1 is the potential itself, and the top band of every power is
all ones.

The replica pass takes coefficient rows (c_0, ..., c_K) in and gives each
replica's traces sum_j c_j Tr H^j at every grid size out, summing only the
powers some row uses; ``trace_moments`` is that pass on the unit rows.  The
chunk cuts come from the grid sizes alone, so replicas walk them in blocks of
_REPLICA_BLOCK: each window is one (B, m) block of the B potentials, drawn with
one scale slice n^alpha, with S_1 and S_3 one reduction each over all B rows
and the band kernel run row by row through one band buffer.  An array of
potentials is a block too.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .distributions import DistributionSpec

_OVERFLOW_LIMIT = 1e300

#: Rows per chunk of the trace kernel.  Its band buffers, 2 ceil(k/2) rows
#: of _CHUNK + 2 ceil(k/2) doubles, stay cache-sized at any N; a
#: constant, so every machine and worker count sums in the same order.
#: The buffer's base is page-aligned and its rows are padded to a stride of
#: _ROW_RESIDUE bytes past a multiple of 4 KiB, so that every row starts on
#: a cache line wherever the allocator puts the block.
_CHUNK = 16384

#: Band-buffer row stride, in bytes past a multiple of 4 KiB.  In a sweep of
#: the deg-12 replica block on a page-aligned base (fresh processes, median
#: of 16 rounds, 2-vCPU Xeon VM), every residue that is a multiple of 64 B
#: (0, 64, 128, 192, 256, 512, 4032) took 0.134-0.138 s of trace time, and
#: 32, 96 and 160 B took 0.147-0.151 s; a base at page offset 0x10, where a
#: fresh mmap puts it, took 0.18-0.19 s, and 0x20 took 0.17 s.  So what
#: counts is that every row starts on a 64-byte cache line.  256 rather than
#: 0 also keeps up to 16 rows apart modulo 4 KiB, against 4K aliasing, though
#: no residue here showed that cost.
_ROW_RESIDUE = 256

#: Sites up to which `_replica_traces` computes the scale n^alpha once, 8 MB of doubles.
_SCALE_CACHE_SITES = 1 << 20

#: Replicas that walk the chunk grid together in `_replica_traces`, B.  A block pays the
#: pass's per-window overhead once, and each of its replicas holds a window row of
#: _CHUNK + 2 ceil(k/2) doubles (131 KB); its band kernel still runs a row at a time, as a
#: (B, m) batch of bands leaves L2.  4 is the smallest B with the whole gain on the bench's
#: low-degree run, and 8 added 0.1-0.4 MB of peak RSS.  Past the scale prefix a window
#: computes n^alpha for its block, about 4 ns a site against a 4.6 ns draw, so there the
#: block is twice as large; its 1 MB is small beside the 8 MB prefix.  No trace depends on B.
_REPLICA_BLOCK = 4


def derive_seed(base_seed: int, index: int) -> int:
    """Stable 64-bit stream seed for (base_seed, index)."""
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1, np.uint64)[0])


def sample_potential(n_sites: int, alpha: float, dist: DistributionSpec, seed: int) -> np.ndarray:
    """The potential array V(n) = X_n / n^alpha, n = 1..n_sites; prefix-stable in the seed."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"the decay exponent alpha must be positive and finite, got {alpha}")
    block = _PotentialBlock(n_sites, alpha, dist, [seed], np.empty(0), np.empty((1, n_sites)))
    return block[:, 0:n_sites][0]


class _PotentialBlock:
    """B seeds' potentials V(1..size), sliced like a (B, size) array, but only at windows
    [:, lo:hi] that fit ``window``, a (B, m) block, and move forward (lo and hi never fall;
    lo is at most the last hi).  Sites shared with the last window move to its front, and
    each seed's Philox stream draws the rest in place into its own row; Philox is
    counter-based, so they are the doubles of one long draw.  A window takes its scale
    n^alpha once for all B rows: a slice of ``scale``, the `_site_scale` of a prefix of
    sites, when it ends in it, else its own `_site_scale`."""

    def __init__(self, size: int, alpha: float, dist: DistributionSpec, seeds: list[int],
                 scale: np.ndarray, window: np.ndarray) -> None:
        self.shape = (len(seeds), size)
        self.alpha, self.dist, self.scale, self.window = alpha, dist, scale, window
        self.rngs = [np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
                     for seed in seeds]
        self.lo = self.hi = 0  # window[:, :hi - lo] holds sites [lo, hi)
        self.sample_s = 0.0  # seconds spent in __getitem__

    def __getitem__(self, key: tuple[slice, slice]) -> np.ndarray:
        t0 = time.perf_counter()
        lo, hi = key[1].start, key[1].stop
        w, kept = self.window, self.hi - lo
        w[:, :kept] = w[:, lo - self.lo:self.hi - self.lo]
        scale = (self.scale[self.hi:hi] if hi <= self.scale.size
                 else _site_scale(self.hi, hi, self.alpha, self.dist))
        for rng, row in zip(self.rngs, w):
            self.dist.sample_xs(rng, row[kept:hi - lo], scale)
        self.lo, self.hi = lo, hi
        self.sample_s += time.perf_counter() - t0
        return w[:, :hi - lo]


def _site_scale(lo: int, hi: int, alpha: float, dist: DistributionSpec) -> np.ndarray:
    """n^alpha, n = lo+1..hi, as the divisor ``dist.sample_xs`` takes; one array of hi - lo
    doubles, raised in place (``**=`` takes the same fast paths as ``**``)."""
    scale = np.arange(lo + 1, hi + 1, dtype=float)
    scale **= alpha
    return dist.sample_divisor(scale)


def trace_moments(sample, k_max: int) -> np.ndarray:
    """[Tr H^0, ..., Tr H^k_max]: the `_grid_traces` of the unit rows e_0 .. e_k_max at the
    sample's own size, each trace a row's one term 1 * Tr H^p.

    Tr H, Tr H^2 and Tr H^3 are S_1, S_2 + 2(n-1) and S_3 + 6 S_1 - 3(V_1 + V_n),
    S_c = sum_i V_i^c: one pass per site sum.  For k_max >= 4, only H^1 ..
    H^top, top = ceil(k_max/2), are formed.  For 4 <= p <= top, Tr H^p is the
    sum of the diagonal band of H^p; above it, Tr H^(a+b) =
    sum_d w_d <(H^a)_d, (H^b)_d> over the upper bands d (w_0 = 1, w_d = 2),
    with a = ceil(p/2) and b = floor(p/2).  H^1 is read off the potential,
    and the top band of every power, (H^a)_{i,i+a} = 1, is never stored:
    a read of it is a scalar add, a product with it a plain sum.  That is
    3 site-sum passes plus, for k_max >= 4, about 3 top^2/2 array passes of
    band updates, one reduction per diagonal band (4 <= p <= top) and
    ceil(p/2) per pair (p > max(top, 3)): 3 passes in all at k_max = 3,
    and 85 at k_max = 12.
    The bands are built chunk by chunk, so beyond the input they take
    O(_CHUNK * k_max) memory.

    The reductions are BLAS-free (``np.einsum``, never ``@`` or
    ``np.dot``): with threads unpinned, an OpenBLAS dot product of 1e5
    doubles intermittently takes milliseconds instead of microseconds.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    v = np.asarray(sample, dtype=float)
    return _grid_traces(v[None], [(0,) * p + (1,) for p in range(k_max + 1)], (v.size,))[0, 0]


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


def _halo(rows) -> int:
    """ceil(p/2) for the highest power p >= 4 with a nonzero coefficient in some row, else 0:
    the band rows of every power `_chain_sums` builds, and the sites of halo a chunk of
    `_grid_traces` takes on each side (site sums need none)."""
    high = [j for row in rows for j, c in enumerate(row) if c != 0.0 and j >= 4]
    return (max(high) + 1) // 2 if high else 0


def _band_buffer(rows, n_sites: int) -> np.ndarray:
    """Scratch band powers for `_grid_traces` of the rows on up to n_sites sites; reusable across calls.

    Shape (2, top, m), top = `_halo` of the rows and m = min(n_sites, _CHUNK + 2 top), a
    window of sites per row.  The base is page-aligned and the rows are padded to a
    stride of _ROW_RESIDUE bytes past a multiple of 4 KiB; only the addresses depend on
    this, never a sum.
    """
    top = _halo(rows)
    m = min(n_sites, _CHUNK + 2 * top)
    if not top:  # no band rows, so no layout to fix
        return np.empty((2, 0, m))
    stride = m + (_ROW_RESIDUE // 8 - m) % 512  # in doubles; 512 doubles are 4 KiB
    size = 2 * top * stride * 8
    raw = np.empty(size + 4096, dtype=np.uint8)
    start = -raw.ctypes.data % 4096
    return raw[start:start + size].view(np.float64).reshape(2, top, stride)[:, :, :m]


def _chain_sums(w: np.ndarray, k_max: int, bands: np.ndarray, cuts: tuple[int, ...],
                powers: frozenset[int]) -> np.ndarray:
    """Per-power row terms of the free chain on sites w, summed over row ranges.

    Row r of the result holds, for p in ``powers`` (0 for the other p <= k_max),
    the sum over rows [cuts[r], cuts[r+1]) of the row terms of Tr H^p.  For p <= top =
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
            if a in powers:
                per_band[r, a, 0] = cur[0, start:stop].sum()
            for p in powers.intersection(range(max(2 * a - 1, top + 1), min(2 * a, k_max) + 1)):
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


def _site_sums(w: np.ndarray, cuts: tuple[int, ...], low: frozenset[int], k_max: int) -> np.ndarray:
    """S_c = sum_i w_bi^c over each row range [cuts[r], cuts[r+1]) of each potential w_b of
    the block w, at [b, r, c] for each c in ``low``; the other columns are 0.  BLAS-free, as
    `_chain_sums` is.  S_1 and S_3 are one reduction over all B rows, with the bits of one
    per row; S_2 is one per row, since the block form of its einsum sums in another order."""
    sums = np.zeros((w.shape[0], len(cuts) - 1, k_max + 1))
    for r, (start, stop) in enumerate(zip(cuts, cuts[1:])):
        x = w[:, start:stop]
        for c in low if stop > start else ():
            if c == 2:
                sums[:, r, c] = [np.einsum("i,i->", row, row) for row in x]
            else:
                sums[:, r, c] = x.sum(axis=1) if c == 1 else np.einsum("ij,ij,ij->i", x, x, x)
    return sums


def _grid_traces(v: np.ndarray | _PotentialBlock, rows, sizes: tuple[int, ...],
                 bands: np.ndarray | None = None, bound: float | None = None) -> np.ndarray:
    """Tr f(H) of every coefficient row (c_0, ..., c_K) at every prefix size of each of B
    potentials, in one pass: shape (B, len(sizes), len(rows)), each the fsum of c_j Tr H^j
    over the row's nonzero c_j.

    ``v`` is the potentials: a (B, n) array, or a `_PotentialBlock` (with ``bound``), which
    draws each window's sites as the pass reaches them.
    ``sizes`` is strictly increasing and ends by n (else a ValueError); ``bands`` is
    an optional `_band_buffer` of the rows for n sites, reused between calls.
    ``bound`` is a known bound on |V| (a law's support), certified against
    overflow in place of a scan of ``v`` for its largest magnitude.
    Tr H^p is summed only for a p that some row uses: for p <= 3 from site
    sums (see `trace_moments`), and for p >= 4 by `_chain_sums`, whose bands
    go up to half the highest such p, so rows with no power >= 4 build none.

    With rows counted from 0, a site sum's row term is its own site, and the
    row terms of Tr H^p, p >= 4 (see `_chain_sums`), depend only on the sites
    within top = ceil(p_max/2) of the row, p_max the highest such p used (top
    = 0 with none): the diagonal entry (H^p)_ii of a power p <= top on the
    sites within p/2, and row i of a pair of half powers on sites i - top ..
    i + top.  So the rows are walked in chunks of _CHUNK, each built as a
    free chain with a halo of top sites on both sides.  Every grid size n is
    a chunk cut: its chain ends at n, the rows before n - top go into one
    running sum shared by all later sizes (no walk from them reaches n), and
    the last top rows are summed for size n alone.  The cuts depend on the
    sizes alone, so the B potentials walk them together: each window is one
    (B, m) block, `_site_sums` takes it whole, `_chain_sums` runs on each
    row through the one ``bands``, and the running sums are a (B, k+1)
    array.  Every potential sums the same windows in the same order
    as it would alone, so its traces do not depend on B.
    """
    n_max = v.shape[-1]
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or (sizes and sizes[-1] > n_max):
        raise ValueError(f"sizes {sizes} must be strictly increasing and at most {n_max}")
    k_max = max((len(row) - 1 for row in rows), default=0)
    # Tr H^p of each potential and size; 0 for a p no row uses (Tr H^3 fills Tr H)
    moments = np.zeros((v.shape[0], len(sizes), k_max + 1))
    moments[..., 0] = sizes
    if k_max:
        if bound is None:
            bound = np.maximum(v.max(initial=0.0), -v.min(initial=0.0))
        _check_power_bound(n_max, bound, k_max)
        if bands is None:
            bands = _band_buffer(rows, n_max)
        powers = frozenset(j for row in rows for j, c in enumerate(row) if c != 0.0)
        low = powers & {1, 2, 3} | ({1} if 3 in powers else set())  # Tr H^3 needs S_1
        high = powers - {0, 1, 2, 3}
        top = _halo(rows)

        def window_sums(w, cuts):
            sums = _site_sums(w, cuts, low, k_max)
            for row, row_sums in zip(w, sums) if high else ():
                row_sums[:, :max(high) + 1] += _chain_sums(row, max(high), bands, cuts, high)
            return sums

        running = np.zeros((v.shape[0], k_max + 1))
        start = 0  # rows [0, start) of every later size are in running
        for moment, n in zip(moments.transpose(1, 0, 2), sizes):
            while n - start > _CHUNK + top:
                lo = max(start - top, 0)
                stop = start + _CHUNK
                w = v[:, lo:stop + top]
                v1 = w[:, 0].copy() if start == 0 else v1  # V_1, read from the first window
                running += window_sums(w, (start - lo, stop - lo))[:, 0]
                start = stop
            lo = max(start - top, 0)
            cut = max(start, n - top)
            w = v[:, lo:n]
            v1 = w[:, 0].copy() if start == 0 else v1
            sums = window_sums(w, (start - lo, cut - lo, n - lo))
            running += sums[:, 0]
            moment[:, 1:] = (running + sums[:, 1])[:, 1:]
            if 2 in low:
                moment[:, 2] += 2.0 * (n - 1)
            if 3 in low:
                moment[:, 3] += 6.0 * moment[:, 1] - 3.0 * (v1 + w[:, -1])
            start = cut
        bad = ~(np.abs(moments) <= _OVERFLOW_LIMIT)
        if bad.any():
            p = int(np.argmax(bad.any(axis=(0, 1))))
            raise OverflowError(f"Tr H^{p} exceeds {_OVERFLOW_LIMIT:g} or is not finite; aborting")
    out = np.empty((v.shape[0], len(sizes), len(rows)))
    for traces, moment in zip(out.reshape(-1, len(rows)), moments.reshape(-1, k_max + 1).tolist()):
        traces[:] = [math.fsum(c * moment[j] for j, c in enumerate(row) if c != 0.0) for row in rows]
    return out


def _replica_traces(alpha: float, dist: DistributionSpec, rows, sizes: tuple[int, ...],
                    seeds: list[int]) -> tuple[np.ndarray, float, float]:
    """`_grid_traces` of the rows for the replicas of ``seeds``, shape (len(seeds), len(rows),
    len(sizes)), with their summed sampling and trace seconds.  Replica r's potential is
    drawn from seeds[r] as the pass reaches it, and bounded by the law's bound.  The
    replicas walk the grid in blocks of B = _REPLICA_BLOCK seeds, 2 B past the scale prefix
    (the last block partial), and one band buffer, one (min(B, replicas), m) window block
    and one scale of the first _SCALE_CACHE_SITES sites serve every block."""
    bands = _band_buffer(rows, sizes[-1])
    scale = _site_scale(0, min(sizes[-1], _SCALE_CACHE_SITES), alpha, dist)
    b = _REPLICA_BLOCK if sizes[-1] <= _SCALE_CACHE_SITES else 2 * _REPLICA_BLOCK
    # a chunk's sites with their halo, as long as a band row, for each replica of a block
    window = np.empty((min(b, len(seeds)), bands.shape[-1]))
    out = np.empty((len(seeds), len(rows), len(sizes)))
    sample_s = trace_s = 0.0
    for i in range(0, len(seeds), b):
        block = seeds[i:i + b]
        t0 = time.perf_counter()
        v = _PotentialBlock(sizes[-1], alpha, dist, block, scale, window[:len(block)])
        out[i:i + len(block)] = _grid_traces(v, rows, sizes, bands, dist.bound).transpose(0, 2, 1)
        sample_s += v.sample_s
        trace_s += time.perf_counter() - t0 - v.sample_s
    return out, sample_s, trace_s


def eigenvalues(sample) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric tridiagonal operator.

    An independent oracle for the trace kernel: LAPACK's sterf
    (eigenvalues only, by the root-free QR iteration), accurate to a small
    multiple of machine precision times the spectral radius.  It is
    O(N^2): 5.3 s for one chain of 16,385 sites on a 2-vCPU VM, where the
    default driver stemr took 10.7 s, so the kernel's chunk-boundary test
    checks against sparse matrix powers instead.  scipy is imported here,
    off the CLI's import path.
    """
    from scipy.linalg import eigh_tridiagonal

    v = np.asarray(sample, dtype=float)
    off = np.ones(max(v.size - 1, 0))
    return np.sort(eigh_tridiagonal(v, off, eigvals_only=True, lapack_driver="sterf"))
