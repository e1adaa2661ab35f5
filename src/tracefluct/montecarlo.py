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
from dataclasses import dataclass, field, fields

import numpy as np

from .combinatorics import _profile_table, _row_key, single_flat_count
from .distributions import DistributionSpec
from .expansion import _check_row, _fold, _power_sum_tail
from .hamiltonian import _check_power_bound, _replica_traces, derive_seed
from .series import ALPHA_CRITICAL, LEADING_WEIGHT, AnalyticSeries

#: Certified bound on the dropped part of the case A single-flat series.
_SIGMA_TAIL_TOL = 1e-12


def variance_scale(n: int, t: float) -> float:
    """Fluctuation scale g_t(N); samples are normalised by sqrt(g_t(N))."""
    if not 0.0 < t <= 1.0:
        raise ValueError("the scaling index t must lie in (0, 1]")
    if n < 2:
        raise ValueError("the scale is positive only for N >= 2")
    return math.log(n) if t == 1.0 else n ** (1.0 - t) / (1.0 - t)


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
    case: str = field(init=False)  # the functions' one fluctuation case
    rows: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)  # each c_0..c_K
    tails: tuple[float, ...] = field(init=False, repr=False, compare=False)  # at the largest N

    def __post_init__(self) -> None:
        """Refuse a run that cannot finish before any of it starts, and fix its truncations."""
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not self.functions:
            raise ValueError("need at least one test function")
        labels = [f.label for f in self.functions]
        if len(set(labels)) != len(labels):  # results are looked up by label
            raise ValueError(f"test function labels repeat: {labels}")
        if self.replicas < 0:
            raise ValueError("replica count must be >= 0")
        if self.base_seed < 0:  # a SeedSequence entropy word, never negative
            raise ValueError(f"the base seed must be >= 0, got {self.base_seed}")
        if self.workers < 0:
            raise ValueError("worker count must be >= 0 (0 = all usable cores)")
        if list(self.n_grid) != sorted(set(self.n_grid)) or min(self.n_grid, default=0) < 2:
            raise ValueError("the size grid must be strictly increasing with N >= 2")
        cases = {f.case for f in self.functions}
        if len(cases) != 1:
            raise ValueError(f"test functions mix fluctuation cases {sorted(cases)}")
        truncations = [f.truncate(self.dist, self.tail_tol, self.n_grid[-1]) for f in self.functions]
        rows = tuple(tuple(coeffs) for coeffs, _ in truncations)
        for row in rows:
            _check_row(row, self.n_grid[0])  # the smallest size
        # |V| <= the law's bound, so this certifies every replica's kernel; each replica's
        # kernel takes the bound too, and never scans its potential
        _check_power_bound(self.n_grid[-1], self.dist.bound, max(len(row) - 1 for row in rows))
        object.__setattr__(self, "case", cases.pop())
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "tails", tuple(tail for _, tail in truncations))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "dist": self.dist.name,
            "functions": [f.label for f in self.functions],
            "n_grid": list(self.n_grid),
            "replicas": self.replicas,
            "base_seed": self.base_seed,
            "case": self.case,
            "tail_tol": self.tail_tol,
            "workers": self.workers,
        }


@dataclass
class EnsembleResult:
    """Raw traces, exact centers and normalised fluctuations of a run."""

    config: EnsembleConfig
    alpha_c: float
    f_labels: tuple[str, ...]
    n_grid: tuple[int, ...]
    raw: np.ndarray       # shape (replicas, functions, grid sizes)
    centers: np.ndarray   # shape (functions, grid sizes)
    center_s: float       # wall time of the centering loop; never written to an artifact
    sample_s: float       # seconds drawing potentials, summed over every chunk of every replica
    trace_s: float        # the rest of the replica loop (trace kernel and Tr f), summed the same way
    site_sum_errors: tuple[float, ...]  # each function's largest site-sum error bound over the grid

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
        scale = variance_scale(n, self.scaling_t() if t is None else t)
        return self.centered(f_label, n) / math.sqrt(scale)


def run_ensemble(config: EnsembleConfig) -> EnsembleResult:
    """Run the ensemble described by ``config``; bit-reproducible.

    Replica r uses the stream seed derived from (base_seed, r); its
    potential at every grid size is a prefix of its largest sample, so a
    single realisation is followed across the grid.  Aggregation is a
    fixed fold in replica order, and the output is identical for any
    worker count.
    """
    seeds = [derive_seed(config.base_seed, r) for r in range(config.replicas)]
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = config.workers or usable
    if workers <= 1 or config.replicas <= 1:
        results = [_replica_traces(config.alpha, config.dist, config.rows, config.n_grid, seeds)]
    else:
        from concurrent.futures import ProcessPoolExecutor  # ~18 ms of imports a serial run skips

        chunk = (config.replicas + workers - 1) // workers
        blocks = [seeds[i:i + chunk] for i in range(0, len(seeds), chunk)]
        # a fork pool starts every worker at the first submit: one process per block
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            futures = [
                pool.submit(_replica_traces, config.alpha, config.dist, config.rows,
                            config.n_grid, block)
                for block in blocks
            ]
            results = [fut.result() for fut in futures]
    raws, sample_times, trace_times = zip(*results)

    t0 = time.perf_counter()
    folds = [[_fold(row, n, config.alpha, config.dist, f.label) for n in config.n_grid]
             for f, row in zip(config.functions, config.rows)]
    centers = np.array([[rep.reconstructed_mean for rep in reps] for reps in folds])
    center_s = time.perf_counter() - t0
    return EnsembleResult(
        config=config,
        alpha_c=ALPHA_CRITICAL[config.case],
        f_labels=tuple(f.label for f in config.functions),
        n_grid=tuple(config.n_grid),
        raw=np.concatenate(raws, axis=0),
        centers=centers,
        center_s=center_s,
        sample_s=sum(sample_times),
        trace_s=sum(trace_times),
        site_sum_errors=tuple(max(rep.site_sum_error for rep in reps) for reps in folds),
    )


# ------------------------------------------------------- limiting variances


def _lag_merge(flats: np.ndarray):
    """(p, q, groups, group): the triples (p, q, lag), in (lag, p, q) order, at which flat-count
    row p at 0 and row q at lag share a site.  Triple t merges into row p plus row q shifted by
    the lag, read from its lowest flat: ``groups[group[t]]``, the groups being distinct."""
    s = int(np.flatnonzero(flats.any(axis=0)).max(initial=0))  # the widest span
    flats = flats[:, :s + 1]
    # placed[i, p]: the sites, as bits, of row p placed at lag i - s, so at site s for lag 0
    placed = ((flats > 0) @ (1 << np.arange(s + 1))) << np.arange(2 * s + 1)[:, None]
    lag, p, q = np.nonzero(placed[s, :, None] & placed[:, None, :])
    t, h = np.arange(len(p))[:, None], np.arange(s + 1)
    merged = np.zeros((len(p), 3 * s + 1), dtype=np.int8)  # no merged count exceeds 2 K <= 28
    merged[t, s + h] = flats[p]
    merged[t, lag[:, None] + h] += flats[q]
    first = np.argmax(merged > 0, axis=1)[:, None]
    merged = merged[t, first + np.arange(2 * s + 1)]
    # np.unique over each row as one byte string: ~10x faster than over axis=0
    groups, group = np.unique(merged.view(np.dtype((np.void, 2 * s + 1))).ravel(), return_inverse=True)
    return p, q, groups.view(np.int8).reshape(-1, 2 * s + 1), group


def _lag_covariance_sums(flats: np.ndarray, dist: DistributionSpec) -> np.ndarray:
    """Entry (p, q): sum over lags of Cov(X^beta_p, X^(beta_q + lag)) for flat-count rows beta,
    over the ``_lag_merge`` triples; each group's moment is read once, each pair's moments
    add in lag order, and E X^beta_p E X^beta_q times the pair's lag count comes off once,
    exact for a law with rational moments."""
    p, q, groups, group = _lag_merge(flats)
    mean = dist.counts_moment(flats)
    out, lags = np.zeros((len(flats), len(flats)), dtype=object), np.zeros((len(flats),) * 2, int)
    np.add.at(out, (p, q), dist.counts_moment(groups)[group])
    np.add.at(lags, (p, q), 1)
    return out - lags * np.outer(mean, mean)


def sigma_sq_for(series: AnalyticSeries, dist: DistributionSpec) -> float:
    """Limiting variance of the normalised fluctuation, in every case.

    A case of flat weight w (``LEADING_WEIGHT``) fluctuates at leading order
    as sum_n n^(-w alpha) Y_n, Y_n = sum_{|beta| = w} a_beta (X^beta - E X^beta)
    placed at site n; sigma^2 is its long-run variance, sum_{beta, beta'}
    a_beta a_beta' sum_lag Cov(X^beta, X^(beta' + lag)).  Each amplitude
    a_beta = sum_l c_l (closed l-paths of profile beta) is one row's count in the
    row's profile table, which the ensemble centers read.  Every amplitude is read off
    one truncation, at the smallest K with tail_majorant(K, 3) <= ``_SIGMA_TAIL_TOL``: no
    closed l-path count exceeds 3^l, so it is certified under every law.  The one weight-1
    amplitude, of delta, is summed in closed form, as an infinite case A series can pass the table's cap.
    """
    w = LEADING_WEIGHT[series.case]
    coeffs = series.coefficients_upto(series.truncation_degree(3.0, _SIGMA_TAIL_TOL))
    if w == 1:
        flats = np.ones((1, 1), dtype=np.int64)
        amplitudes = [math.fsum(c * single_flat_count(j) for j, c in enumerate(coeffs) if c)]
    else:
        table = _profile_table(_row_key(coeffs))
        # summed in profile order, fewest levels first
        lead = sorted(np.flatnonzero(table.flats.sum(axis=1) == w).tolist(), key=lambda p: (
            np.count_nonzero(table.flats[p]), [(h, c) for h, c in enumerate(table.flats[p]) if c]))
        flats, amplitudes = table.flats[lead], [float(c) for c in table.count[lead]]
    cov = _lag_covariance_sums(flats, dist)
    total = 0.0
    for p, a in enumerate(amplitudes):
        for q, a2 in enumerate(amplitudes):
            total += a * a2 * float(cov[p, q])
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
        """Every field in declaration order, NaN written as None (JSON null)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: None if isinstance(v, float) and math.isnan(v) else v
                for k, v in values.items()}


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


def clt_check(result: EnsembleResult) -> CltReport:
    """Normality diagnostics of the scaled fluctuations, per function and size,
    each against the function's limiting variance ``sigma_sq_for``."""
    if result.raw.shape[0] < 100:
        raise ValueError("the diagnostics need at least 100 replicas")
    report = CltReport(t_scaling=result.scaling_t())
    for series, f in zip(result.config.functions, result.f_labels):
        theory = sigma_sq_for(series, result.config.dist)
        for n in result.n_grid:
            report.entries[(f, n)] = normality_stats(result.scaled(f, n), sigma_sq_theory=theory)
    return report


# --------------------------------------------------------------- joint limit


@dataclass
class CorrelationReport:
    f_labels: tuple[str, ...]
    matrices: dict = field(default_factory=dict)  # n -> ndarray

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
    for n in result.n_grid:
        cols = np.stack([result.centered(f, n) for f in result.f_labels])
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero-variance row gives NaN
            mat = np.corrcoef(cols)
        mat = np.triu(mat) + np.triu(mat, 1).T  # corrcoef's (i, j) and (j, i) may differ in the last bit
        np.fill_diagonal(mat, 1.0)
        report.matrices[n] = mat
    return report


# --------------------------------------------------------- convergence regime


@dataclass
class ConvergencePair:
    f_label: str
    n_small: int
    n_large: int
    diff_variance: float
    # sigma^2 (T + E), T the Euler-Maclaurin tail sum_{n > N_small} n^(-2 alpha) and E its
    # certified remainder, case A only: the case C edge term -3 V_N (variance 9 N^(-2 alpha))
    # outlasts sigma^2 zeta(6 alpha, N_small + 1), 13-47x it for x^3 - 6x at 0.3
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
    sigma^2(f) * sum_{n > N_small} n^(-2*alpha), the sum taken with its
    Euler-Maclaurin remainder added (finite only above the case A critical
    exponent; the tail diverges below it, which the report flags instead
    of asserting convergence).
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
                tail, err = _power_sum_tail(np.array([2 * alpha]), n_small, math.inf)
                bound = bound_const * float(tail[0] + err[0])
            report.pairs.append(ConvergencePair(
                f_label=f, n_small=n_small, n_large=n_large,
                diff_variance=var,
                variance_bound=bound,
                bound_ratio=(var / bound if bound not in (None, 0.0, math.inf) else None),
                supercritical=supercritical,
            ))
    return report
