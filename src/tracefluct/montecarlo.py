"""Ensemble simulation and statistical checks of the trace fluctuations.

An ensemble draws M independent potential realisations, evaluates the
trace of each test function along a growing size grid (one realisation
per replica, prefix-stable across the grid), centers at the exact mean,
and normalises by the fluctuation scale.

The variance of the centered trace grows like

    g_t(N) = N^(1-t) / (1-t)   (0 < t < 1),      log N   (t = 1),

with t = alpha / alpha_critical for the function's case, so the
normalised fluctuation is the centered trace divided by sqrt(g_t(N));
its variance then approaches the case's limiting sigma^2.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import MultiIndex, _check_cap, _profile_table, _row_key, single_flat_count
from .distributions import DistributionSpec
from .expansion import _check_row, _fold
from .hamiltonian import (_band_buffer, _check_power_bound, _prefix_trace_moments, derive_seed,
                          sample_potential)
from .series import ALPHA_CRITICAL, LEADING_WEIGHT, AnalyticSeries

#: Certified bound on the dropped part of the case A single-flat series.
_SIGMA_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class ScalingFunction:
    """Fluctuation scale g_t; samples are normalised by sqrt(g_t(N))."""

    t: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t <= 1.0:
            raise ValueError("the scaling index t must lie in (0, 1]")

    def g(self, n: int) -> float:
        if n < 2:
            raise ValueError("the scale is positive only for N >= 2")
        if self.t == 1.0:
            return math.log(n)
        return n ** (1.0 - self.t) / (1.0 - self.t)

    def normalizer(self, n: int) -> float:
        return math.sqrt(self.g(n))


# --------------------------------------------------------------- ensembles


@dataclass(frozen=True)
class EnsembleConfig:
    """Reproducible description of one ensemble run."""

    alpha: float
    dist: DistributionSpec
    functions: tuple[AnalyticSeries, ...]
    n_grid: tuple[int, ...]
    replicas: int
    base_seed: int
    tail_tol: float = 1e-9
    workers: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not self.functions:
            raise ValueError("need at least one test function")
        if self.replicas < 0:
            raise ValueError("replica count must be >= 0")
        if self.workers < 0:
            raise ValueError("worker count must be >= 0 (0 = all cores)")
        if list(self.n_grid) != sorted(set(self.n_grid)) or min(self.n_grid, default=0) < 2:
            raise ValueError("the size grid must be strictly increasing with N >= 2")

    def resolved_case(self) -> str:
        cases = {f.case for f in self.functions}
        if len(cases) != 1:
            raise ValueError(f"test functions mix fluctuation cases {sorted(cases)}")
        return cases.pop()

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "dist": self.dist.name,
            "functions": [f.label for f in self.functions],
            "n_grid": list(self.n_grid),
            "replicas": self.replicas,
            "base_seed": self.base_seed,
            "case": self.resolved_case(),
            "tail_tol": self.tail_tol,
            "workers": self.workers,
        }


@dataclass
class EnsembleResult:
    """Raw traces, exact centers and normalised fluctuations of a run."""

    config: EnsembleConfig
    case: str
    alpha_c: float
    f_labels: tuple[str, ...]
    n_grid: tuple[int, ...]
    raw: np.ndarray       # shape (replicas, functions, grid sizes)
    centers: np.ndarray   # shape (functions, grid sizes)
    center_s: float       # wall time of the centering loop; never written to an artifact
    sample_s: float       # sampling seconds, summed over replicas in the processes that ran them
    trace_s: float        # trace kernel and Tr f seconds, summed the same way
    degrees: tuple[int, ...]  # truncation degree K of each function
    tails: tuple[float, ...]  # certified bound on each function's dropped tail at the largest N

    def _fi(self, f_label: str) -> int:
        return self.f_labels.index(f_label)

    def _ni(self, n: int) -> int:
        return self.n_grid.index(n)

    def raw_traces(self, f_label: str, n: int) -> np.ndarray:
        return self.raw[:, self._fi(f_label), self._ni(n)]

    def centered(self, f_label: str, n: int) -> np.ndarray:
        return self.raw_traces(f_label, n) - self.centers[self._fi(f_label), self._ni(n)]

    @property
    def scaled_defined(self) -> bool:
        """Whether alpha is at most the critical exponent, where the normalised fluctuation exists."""
        return self.config.alpha / self.alpha_c <= 1.0 + 1e-12

    def scaling_t(self) -> float:
        if not self.scaled_defined:
            raise ValueError(
                f"alpha={self.config.alpha:g} exceeds the critical exponent "
                f"{self.alpha_c:g}; the normalised fluctuation is not defined"
            )
        return min(self.config.alpha / self.alpha_c, 1.0)

    def scaled(self, f_label: str, n: int, t: float | None = None) -> np.ndarray:
        scale = ScalingFunction(self.scaling_t() if t is None else t)
        return self.centered(f_label, n) / scale.normalizer(n)


def _replica_block(alpha: float, dist: DistributionSpec, coeff_rows: tuple[tuple[float, ...], ...],
                   n_grid: tuple[int, ...], seeds: list[int]) -> tuple[np.ndarray, float, float]:
    """Raw traces for a block of replicas, shape (len(seeds), n_functions, len(n_grid)),
    with the block's summed sampling and trace seconds."""
    k_max = max((len(row) - 1 for row in coeff_rows), default=0)
    out = np.empty((len(seeds), len(coeff_rows), len(n_grid)))
    n_max = n_grid[-1]
    bands = _band_buffer(k_max, n_max)  # one scratch for every chunk of every replica
    sample_s = trace_s = 0.0
    for r, seed in enumerate(seeds):
        t0 = time.perf_counter()
        sample = sample_potential(n_max, alpha, dist, seed)
        t1 = time.perf_counter()
        grid_moments = _prefix_trace_moments(sample.values, k_max, n_grid, bands, dist.bound)
        for ni, moments in enumerate(grid_moments):
            for fi, row in enumerate(coeff_rows):
                out[r, fi, ni] = math.fsum(
                    c * moments[j] for j, c in enumerate(row) if c != 0.0
                )
        sample_s += t1 - t0
        trace_s += time.perf_counter() - t1
    return out, sample_s, trace_s


def run_ensemble(config: EnsembleConfig) -> EnsembleResult:
    """Run the ensemble described by ``config``; bit-reproducible.

    Replica r uses the stream seed derived from (base_seed, r); its
    potential at every grid size is a prefix of its largest sample, so a
    single realisation is followed across the grid.  Aggregation is a
    fixed fold in replica order, and the output is identical for any
    worker count.
    """
    case = config.resolved_case()
    if not config.dist.samplable:
        raise ValueError(f"{config.dist.name} cannot be sampled")
    truncations = [f.truncate(config.dist.bound, config.tail_tol, config.n_grid[-1])
                   for f in config.functions]
    coeff_rows = tuple(tuple(coeffs) for coeffs, _ in truncations)
    for row in coeff_rows:
        _check_row(row, config.n_grid[0])  # the smallest size, before any sample is drawn
    # |V| <= the law's bound, so this certifies every replica's kernel before any work;
    # each replica's kernel takes the bound too, and never scans its potential
    _check_power_bound(config.n_grid[-1], config.dist.bound,
                       max(len(row) - 1 for row in coeff_rows))

    seeds = [derive_seed(config.base_seed, r) for r in range(config.replicas)]
    workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)
    if workers <= 1 or config.replicas <= 1:
        results = [_replica_block(config.alpha, config.dist, coeff_rows, config.n_grid, seeds)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~18 ms of imports a serial run skips

        chunk = (config.replicas + workers - 1) // workers
        blocks = [seeds[i:i + chunk] for i in range(0, len(seeds), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replica_block, config.alpha, config.dist, coeff_rows,
                            config.n_grid, block)
                for block in blocks
            ]
            results = [fut.result() for fut in futures]
    raws, sample_times, trace_times = zip(*results)

    t0 = time.perf_counter()
    centers = np.array([
        [_fold(row, n, config.alpha, config.dist, f.label).reconstructed_mean
         for n in config.n_grid]
        for f, row in zip(config.functions, coeff_rows)
    ])
    center_s = time.perf_counter() - t0
    return EnsembleResult(
        config=config,
        case=case,
        alpha_c=ALPHA_CRITICAL[case],
        f_labels=tuple(f.label for f in config.functions),
        n_grid=tuple(config.n_grid),
        raw=np.concatenate(raws, axis=0),
        centers=centers,
        center_s=center_s,
        sample_s=sum(sample_times),
        trace_s=sum(trace_times),
        degrees=tuple(len(row) - 1 for row in coeff_rows),
        tails=tuple(tail for _, tail in truncations),
    )


# ------------------------------------------------------- limiting variances


def _lag_covariance_sum(beta: MultiIndex, beta2: MultiIndex, dist: DistributionSpec):
    """sum over lags of Cov(X^beta, X^(beta2 + lag)), beta placed at 0; only the lags at which
    the placements share a site count, and the sum is exact for a law with rational moments."""
    mean = dist.moment_product(beta) * dist.moment_product(beta2)
    total = 0
    for lag in range(-beta2.span, beta.span + 1):
        merged = Counter(dict(beta.pairs)) + Counter({h + lag: c for h, c in beta2.pairs})
        if len(merged) < len(beta.pairs) + len(beta2.pairs):
            total += dist.moment_product(MultiIndex.from_counts(merged)) - mean
    return total


def sigma_sq_for(series: AnalyticSeries, dist: DistributionSpec) -> float:
    """Limiting variance of the normalised fluctuation, in every case.

    A case of flat weight w (``LEADING_WEIGHT``) fluctuates at leading order
    as sum_n n^(-w alpha) Y_n, Y_n = sum_{|beta| = w} a_beta (X^beta - E X^beta)
    placed at site n; sigma^2 is its long-run variance, sum_{beta, beta'}
    a_beta a_beta' sum_lag Cov(X^beta, X^(beta' + lag)).  Each amplitude
    a_beta = sum_l c_l (closed l-paths of profile beta) is one entry of the
    row's profile table, which the ensemble centers read.  The one weight-1
    amplitude, of delta, is summed in closed form through the smallest K with
    tail_majorant(K, 3) <= ``_SIGMA_TAIL_TOL`` instead, since an infinite case A
    series needs more terms than the table's cap: single_flat_count(j) <= 3^j.
    """
    w = LEADING_WEIGHT[series.case]
    if w == 1:
        amplitudes = [(MultiIndex.delta(),
                       series._weighted_sum(single_flat_count, 3.0, _SIGMA_TAIL_TOL))]
    else:
        degree = series.truncation_degree(2.0 + dist.bound, 1e-12)
        _check_cap(degree)
        table = _profile_table(_row_key(series.coefficients_upto(degree)))
        amplitudes = [(MultiIndex(pairs), float(table[pairs].count))
                      for pairs in sorted(table, key=lambda pairs: (len(pairs), pairs))
                      if sum(c for _, c in pairs) == w]
    total = 0.0
    for beta, a in amplitudes:
        for beta2, a2 in amplitudes:
            total += a * a2 * float(_lag_covariance_sum(beta, beta2, dist))
    return total


# ----------------------------------------------------------- normality stats


@dataclass
class NormalityStats:
    count: int
    variance: float
    skewness: float
    excess_kurtosis: float
    sigma_sq_theory: float | None = None
    variance_ratio: float | None = None
    degenerate: bool = False
    ks_distance: float | None = None

    def to_dict(self) -> dict:
        def clean(x):
            return None if x is None or (isinstance(x, float) and math.isnan(x)) else x

        return {
            "count": self.count,
            "variance": clean(self.variance),
            "skewness": clean(self.skewness),
            "excess_kurtosis": clean(self.excess_kurtosis),
            "sigma_sq_theory": clean(self.sigma_sq_theory),
            "variance_ratio": clean(self.variance_ratio),
            "degenerate": self.degenerate,
            "ks_distance": clean(self.ks_distance),
        }


def _skew_kurtosis(x: np.ndarray) -> tuple[float, float]:
    """Sample skewness m3/m2^1.5 and excess kurtosis m4/m2^2 - 3 (biased central moments)."""
    d = x - x.mean()
    d2 = d * d
    m2 = float(d2.mean())
    m3 = float((d2 * d).mean())
    m4 = float((d2 * d2).mean())
    return m3 / m2**1.5, m4 / m2**2 - 3.0


def _ks_normal(x: np.ndarray, scale: float) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov distance of x from N(0, scale^2)."""
    root = scale * math.sqrt(2.0)
    cdf = np.array([0.5 * (1.0 + math.erf(v / root)) for v in np.sort(x).tolist()])
    steps = np.arange(cdf.size + 1) / cdf.size  # the empirical cdf on each side of a jump
    return float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))


def normality_stats(samples: np.ndarray, sigma_sq_theory: float | None = None) -> NormalityStats:
    """Moment diagnostics of one sample set against a centered normal."""
    x = np.asarray(samples, dtype=float)
    m = x.size
    if m < 2:
        raise ValueError("need at least two samples")
    var = float(np.var(x, ddof=1))
    # spreads at the rounding floor are treated as a point mass
    noise_floor = float(np.ptp(x)) <= 1e-9 * max(1.0, abs(float(np.mean(x))))
    degenerate = (var == 0.0 or noise_floor
                  or (sigma_sq_theory is not None and sigma_sq_theory == 0.0))
    if var == 0.0 or noise_floor:
        skew = kurt = float("nan")
    else:
        skew, kurt = _skew_kurtosis(x)
    out = NormalityStats(
        count=m, variance=var, skewness=skew, excess_kurtosis=kurt,
        sigma_sq_theory=sigma_sq_theory,
        variance_ratio=(var / sigma_sq_theory
                        if sigma_sq_theory not in (None, 0.0) else None),
        degenerate=degenerate,
    )
    if var > 0.0 and not noise_floor:
        out.ks_distance = _ks_normal(x, math.sqrt(var))
    return out


@dataclass
class CltReport:
    """Per (function, size) normality diagnostics of the scaled fluctuations."""

    t_scaling: float
    entries: dict = field(default_factory=dict)  # (f_label, n) -> NormalityStats

    def entry(self, f_label: str, n: int) -> NormalityStats:
        return self.entries[(f_label, n)]

    def to_dict(self) -> dict:
        return {
            "t_scaling": self.t_scaling,
            "entries": [
                {"f": f, "n_sites": n, **st.to_dict()}
                for (f, n), st in self.entries.items()
            ],
        }


def clt_check(result: EnsembleResult, sigma_theory: dict | None = None) -> CltReport:
    """Normality diagnostics of the scaled fluctuations, per function and size."""
    if result.raw.shape[0] < 100:
        raise ValueError("the diagnostics need at least 100 replicas")
    report = CltReport(t_scaling=result.scaling_t())
    for f in result.f_labels:
        theory = (sigma_theory or {}).get(f)
        for n in result.n_grid:
            report.entries[(f, n)] = normality_stats(result.scaled(f, n), sigma_sq_theory=theory)
    return report


# --------------------------------------------------------------- joint limit


@dataclass
class CorrelationReport:
    f_labels: tuple[str, ...]
    matrices: dict = field(default_factory=dict)        # n -> ndarray
    undefined_pairs: dict = field(default_factory=dict)  # n -> list[(f_i, f_j)]

    def matrix(self, n: int) -> np.ndarray:
        return self.matrices[n]


def joint_correlation(result: EnsembleResult) -> CorrelationReport:
    """Empirical correlation of the fluctuations across the test functions.

    Scaling by any common factor cancels, so the centered samples are
    correlated directly.  Pairs involving a zero-variance column are
    reported as undefined (NaN) rather than guessed.
    """
    if len(result.f_labels) < 2:
        raise ValueError("the joint limit needs at least two test functions")
    if result.raw.shape[0] < 2:
        raise ValueError("need at least two replicas")
    report = CorrelationReport(f_labels=result.f_labels)
    nf = len(result.f_labels)
    for n in result.n_grid:
        cols = np.stack([result.centered(f, n) for f in result.f_labels])
        sd = cols.std(axis=1, ddof=1)
        mat = np.full((nf, nf), np.nan)
        undefined = []
        np.fill_diagonal(mat, 1.0)
        for i in range(nf):
            for j in range(i + 1, nf):
                if sd[i] == 0.0 or sd[j] == 0.0:
                    undefined.append((result.f_labels[i], result.f_labels[j]))
                    continue
                c = np.corrcoef(cols[i], cols[j])[0, 1]
                mat[i, j] = mat[j, i] = float(c)
        report.matrices[n] = mat
        report.undefined_pairs[n] = undefined
    return report


# --------------------------------------------------------- convergence regime


@dataclass
class ConvergencePair:
    f_label: str
    n_small: int
    n_large: int
    diff_variance: float
    # sigma^2 zeta(2 alpha, N_small + 1), case A only: the case C edge term -3 V_N (variance
    # 9 N^(-2 alpha)) outlasts sigma^2 zeta(6 alpha, N_small + 1), 13-47x it for x^3 - 6x at 0.3
    variance_bound: float | None
    bound_ratio: float | None
    supercritical: bool           # the scaled fluctuation is not defined (alpha above critical)


@dataclass
class ConvergenceReport:
    alpha: float
    alpha_c: float
    pairs: list = field(default_factory=list)


def convergence_check(result: EnsembleResult) -> ConvergenceReport:
    """Stability of the unscaled fluctuation along the coupled size grid.

    For each adjacent size pair the variance of the per-replica
    fluctuation difference is compared against the leading-term bound
    sigma^2(f) * sum_{n > N_small} n^(-2*alpha) (finite only above the
    case A critical exponent; the tail diverges below it, which the
    report flags instead of asserting convergence).
    """
    if len(result.n_grid) < 2:
        raise ValueError("need at least two grid sizes")
    alpha = result.config.alpha
    report = ConvergenceReport(alpha=alpha, alpha_c=result.alpha_c)
    supercritical = not result.scaled_defined
    for fi, f in enumerate(result.f_labels):
        series = result.config.functions[fi]
        bound_const = sigma_sq_for(series, result.config.dist) if series.case == "A" else None
        for n_small, n_large in zip(result.n_grid[:-1], result.n_grid[1:]):
            diffs = result.centered(f, n_large) - result.centered(f, n_small)
            var = float(np.var(diffs, ddof=1)) if diffs.size >= 2 else float("nan")
            bound = None
            if bound_const is not None:
                tail = math.inf
                if 2 * alpha > 1:
                    from scipy.special import zeta  # here, so scipy stays off the import path

                    tail = float(zeta(2 * alpha, n_small + 1))
                bound = bound_const * tail
            report.pairs.append(ConvergencePair(
                f_label=f, n_small=n_small, n_large=n_large,
                diff_variance=var,
                variance_bound=bound,
                bound_ratio=(var / bound if bound not in (None, 0.0, math.inf) else None),
                supercritical=supercritical,
            ))
    return report
