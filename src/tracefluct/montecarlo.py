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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .combinatorics import (
    MultiIndex,
    profile_count,
    same_level_pair_count,
    single_flat_count,
)
from .distributions import DistributionSpec
from .expansion import exact_mean_trace_power
from .hamiltonian import _prefix_trace_moments, derive_seed, sample_potential
from .series import ALPHA_CRITICAL, AnalyticSeries, require_radius

_SIGMA_MAX_TERMS = 300


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
    case: str | None = None       # override; otherwise inferred from the functions
    tail_tol: float = 1e-9
    workers: int = 1

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not self.functions:
            raise ValueError("need at least one test function")
        if self.replicas < 0:
            raise ValueError("replica count must be >= 0")
        if list(self.n_grid) != sorted(set(self.n_grid)) or min(self.n_grid, default=0) < 2:
            raise ValueError("the size grid must be strictly increasing with N >= 2")

    def resolved_case(self) -> str:
        if self.case is not None:
            return self.case
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

    def _fi(self, f_label: str) -> int:
        return self.f_labels.index(f_label)

    def _ni(self, n: int) -> int:
        return self.n_grid.index(n)

    def raw_traces(self, f_label: str, n: int) -> np.ndarray:
        return self.raw[:, self._fi(f_label), self._ni(n)]

    def centered(self, f_label: str, n: int) -> np.ndarray:
        return self.raw_traces(f_label, n) - self.centers[self._fi(f_label), self._ni(n)]

    def scaling_t(self) -> float:
        t = self.config.alpha / self.alpha_c
        if t > 1.0 + 1e-12:
            raise ValueError(
                f"alpha={self.config.alpha:g} exceeds the critical exponent "
                f"{self.alpha_c:g}; the normalised fluctuation is not defined"
            )
        return min(t, 1.0)

    def scaled(self, f_label: str, n: int, t: float | None = None) -> np.ndarray:
        scale = ScalingFunction(self.scaling_t() if t is None else t)
        return self.centered(f_label, n) / scale.normalizer(n)


def _replica_block(alpha: float, dist: DistributionSpec, coeff_rows: tuple[tuple[float, ...], ...],
                   n_grid: tuple[int, ...], seeds: list[int]) -> np.ndarray:
    """Raw traces for a block of replicas: shape (len(seeds), n_functions, len(n_grid))."""
    k_max = max((len(row) - 1 for row in coeff_rows), default=0)
    out = np.empty((len(seeds), len(coeff_rows), len(n_grid)))
    n_max = n_grid[-1]
    for r, seed in enumerate(seeds):
        sample = sample_potential(n_max, alpha, dist, seed)
        grid_moments = _prefix_trace_moments(sample.values, k_max, n_grid)
        for ni, moments in enumerate(grid_moments):
            for fi, row in enumerate(coeff_rows):
                out[r, fi, ni] = math.fsum(
                    c * moments[j] for j, c in enumerate(row) if c != 0.0
                )
    return out


def run_ensemble(config: EnsembleConfig) -> EnsembleResult:
    """Run the ensemble described by ``config``; bit-reproducible.

    Replica r uses the stream seed derived from (base_seed, r); its
    potential at every grid size is a prefix of its largest sample, so a
    single realisation is followed across the grid.  Aggregation is a
    fixed fold in replica order, and the output is identical for any
    worker count.
    """
    case = config.resolved_case()
    alpha_c = ALPHA_CRITICAL.get(case)
    if alpha_c is None:
        raise ValueError(f"case {case!r} has no critical exponent; tag the functions A, B or C")
    if not config.dist.samplable:
        raise ValueError(f"{config.dist.name} cannot be sampled")
    n_max = max(config.n_grid)
    coeff_rows = []
    for f in config.functions:
        require_radius(f, config.dist.bound)
        deg = f.truncation_degree(config.dist.bound + 2.0, config.tail_tol, scale=n_max)
        coeff_rows.append(tuple(f.coefficients_upto(deg)))
    coeff_rows = tuple(coeff_rows)

    seeds = [derive_seed(config.base_seed, r) for r in range(config.replicas)]
    workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)
    if workers <= 1 or config.replicas <= 1:
        raw = _replica_block(config.alpha, config.dist, coeff_rows, config.n_grid, seeds)
    else:
        chunk = (config.replicas + workers - 1) // workers
        blocks = [seeds[i:i + chunk] for i in range(0, len(seeds), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_replica_block, config.alpha, config.dist, coeff_rows,
                            config.n_grid, block)
                for block in blocks
            ]
            raw = np.concatenate([fut.result() for fut in futures], axis=0)

    centers = np.empty((len(config.functions), len(config.n_grid)))
    for ni, n in enumerate(config.n_grid):
        mean_cache: dict[int, float] = {}
        for fi, row in enumerate(coeff_rows):
            total = 0.0
            for j, c in enumerate(row):
                if c == 0.0:
                    continue
                if j not in mean_cache:
                    mean_cache[j] = exact_mean_trace_power(n, j, config.alpha, config.dist)
                total += c * mean_cache[j]
            centers[fi, ni] = total
    return EnsembleResult(
        config=config,
        case=case,
        alpha_c=alpha_c,
        f_labels=tuple(f.label for f in config.functions),
        n_grid=tuple(config.n_grid),
        raw=raw if config.replicas else np.empty((0, len(config.functions), len(config.n_grid))),
        centers=centers,
    )


# ------------------------------------------------------- limiting variances


def case_a_sigma_sq(series: AnalyticSeries, dist: DistributionSpec,
                    tail_tol: float = 1e-12) -> float:
    """Limiting variance for a general (case A) function.

    The square of the odd-coefficient sum against the single-flat path
    counts, times the law's variance.  Infinite series are summed until
    the remaining tail is certified below ``tail_tol``.
    """
    eta_sq = float(dist.variance)
    if series.is_polynomial:
        kernel = math.fsum(
            series.coefficient(j) * single_flat_count(j)
            for j in range(1, series.degree + 1, 2)
        )
        return kernel * kernel * eta_sq
    kernel = 0.0
    prev = None
    for j in range(1, _SIGMA_MAX_TERMS, 2):
        term = series.coefficient(j) * single_flat_count(j)
        kernel += term
        size = abs(term)
        if prev is not None and prev > 0 and size / prev < 0.5:
            tail = size * (size / prev) / (1.0 - size / prev)
            if tail <= tail_tol * max(1.0, abs(kernel)):
                return kernel * kernel * eta_sq
        prev = size if size > 0 else prev
    raise ValueError(
        f"single-flat series for {series.label} was not certified summable "
        f"at tolerance {tail_tol:g}"
    )


def case_b_sigma_sq(series: AnalyticSeries, dist: DistributionSpec,
                    s_max: int | None = None) -> float:
    """Limiting variance for an even-coefficient (case B) function.

    Two pieces: the shared-level flat pairs against the fourth-moment
    excess, plus split-level pairs at each separation against the squared
    variance.  Path counts come from the closed form (shared level) and
    enumeration (split levels).
    """
    if series.is_polynomial:
        if any(series.coefficient(j) != 0 for j in range(1, series.degree + 1, 2)):
            raise ValueError(f"{series.label} has odd coefficients; not a case B function")
        degree = series.degree
    elif series.case == "B":
        degree = series.truncation_degree(2.0 + dist.bound, 1e-12)
    else:
        raise ValueError(f"{series.label} is not tagged as a case B function")

    s_hi = max((degree - 2) // 2 + 1, 1)
    if s_max is not None:
        if s_max < s_hi:
            raise ValueError(
                f"s_max={s_max} cannot cover separations up to {s_hi} "
                f"for degree {degree}"
            )
        s_hi = s_max
    fourth_excess = float(dist.moment(4) - dist.variance**2)
    eta_four = float(dist.variance) ** 2

    shared = math.fsum(
        series.coefficient(j) * same_level_pair_count(j)
        for j in range(2, degree + 1, 2)
    )
    total = shared * shared * fourth_excess
    for s in range(1, s_hi + 1):
        split = math.fsum(
            series.coefficient(j) * profile_count(j, MultiIndex.delta_pair(s))
            for j in range(2, degree + 1, 2)
        )
        total += split * split * eta_four
    return total


def sigma_sq_for(series: AnalyticSeries, dist: DistributionSpec) -> float | None:
    """Dispatch on the case tag; None for case C (no closed form here)."""
    if series.case == "A":
        return case_a_sigma_sq(series, dist)
    if series.case == "B":
        return case_b_sigma_sq(series, dist)
    return None


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
    variance_ci99: tuple[float, float] | None = None
    skewness_ci99: tuple[float, float] | None = None
    kurtosis_ci99: tuple[float, float] | None = None

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


def normality_stats(samples: np.ndarray, sigma_sq_theory: float | None = None,
                    ks: bool = False, bootstrap: int = 0,
                    bootstrap_seed: int = 0) -> NormalityStats:
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
        skew = float(stats.skew(x))
        kurt = float(stats.kurtosis(x, fisher=True))
    out = NormalityStats(
        count=m, variance=var, skewness=skew, excess_kurtosis=kurt,
        sigma_sq_theory=sigma_sq_theory,
        variance_ratio=(var / sigma_sq_theory
                        if sigma_sq_theory not in (None, 0.0) else None),
        degenerate=degenerate,
    )
    if ks and var > 0.0 and not noise_floor:
        out.ks_distance = float(stats.kstest(x, "norm", args=(0.0, math.sqrt(var))).statistic)
    if bootstrap > 0 and var > 0.0 and not noise_floor:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(bootstrap_seed)))
        vs = np.empty(bootstrap)
        sk = np.empty(bootstrap)
        ku = np.empty(bootstrap)
        for b in range(bootstrap):
            rs = x[rng.integers(0, m, size=m)]
            vs[b] = np.var(rs, ddof=1)
            sk[b] = stats.skew(rs)
            ku[b] = stats.kurtosis(rs, fisher=True)
        q = [0.5, 99.5]
        out.variance_ci99 = tuple(np.percentile(vs, q))
        out.skewness_ci99 = tuple(np.percentile(sk, q))
        out.kurtosis_ci99 = tuple(np.percentile(ku, q))
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


def clt_check(result: EnsembleResult, sigma_theory: dict | None = None,
              t: float | None = None, ks: bool = False, bootstrap: int = 0) -> CltReport:
    """Normality diagnostics of the scaled fluctuations, per function and size."""
    if result.raw.shape[0] < 100:
        raise ValueError("the diagnostics need at least 100 replicas")
    t_eff = result.scaling_t() if t is None else t
    report = CltReport(t_scaling=t_eff)
    for f in result.f_labels:
        theory = (sigma_theory or {}).get(f)
        for n in result.n_grid:
            report.entries[(f, n)] = normality_stats(
                result.scaled(f, n, t=t_eff), sigma_sq_theory=theory,
                ks=ks, bootstrap=bootstrap,
            )
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
    diff_quantiles: dict          # {"q50": ..., "q90": ..., "max": ...}
    diff_variance: float
    variance_bound: float | None  # leading-term bound, case A only
    bound_ratio: float | None
    supercritical: bool           # alpha > alpha_critical for the case


@dataclass
class ConvergenceReport:
    alpha: float
    alpha_c: float
    pairs: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "alpha_c": self.alpha_c,
            "pairs": [
                {
                    "f": p.f_label, "n_small": p.n_small, "n_large": p.n_large,
                    **p.diff_quantiles,
                    "diff_variance": p.diff_variance,
                    "variance_bound": p.variance_bound,
                    "bound_ratio": p.bound_ratio,
                    "supercritical": p.supercritical,
                }
                for p in self.pairs
            ],
        }


def convergence_check(result: EnsembleResult) -> ConvergenceReport:
    """Stability of the unscaled fluctuation along the coupled size grid.

    For each adjacent size pair the per-replica fluctuation difference is
    summarised, and its variance is compared against the leading-term
    bound sigma^2(f) * sum_{n > N_small} n^(-2*alpha) (finite only above
    the case A critical exponent; the tail diverges below it, which the
    report flags instead of asserting convergence).
    """
    if len(result.n_grid) < 2:
        raise ValueError("need at least two grid sizes")
    alpha = result.config.alpha
    report = ConvergenceReport(alpha=alpha, alpha_c=result.alpha_c)
    supercritical = alpha > result.alpha_c
    for fi, f in enumerate(result.f_labels):
        series = result.config.functions[fi]
        bound_const = None
        if series.case == "A":
            bound_const = case_a_sigma_sq(series, result.config.dist)
        for n_small, n_large in zip(result.n_grid[:-1], result.n_grid[1:]):
            diffs = result.centered(f, n_large) - result.centered(f, n_small)
            var = float(np.var(diffs, ddof=1)) if diffs.size >= 2 else float("nan")
            bound = None
            if bound_const is not None:
                tail = (float(special.zeta(2 * alpha, n_small + 1))
                        if 2 * alpha > 1 else math.inf)
                bound = bound_const * tail
            report.pairs.append(ConvergencePair(
                f_label=f, n_small=n_small, n_large=n_large,
                diff_quantiles={
                    "q50": float(np.quantile(np.abs(diffs), 0.5)) if diffs.size else float("nan"),
                    "q90": float(np.quantile(np.abs(diffs), 0.9)) if diffs.size else float("nan"),
                    "max": float(np.max(np.abs(diffs))) if diffs.size else float("nan"),
                },
                diff_variance=var,
                variance_bound=bound,
                bound_ratio=(var / bound if bound not in (None, 0.0, math.inf) else None),
                supercritical=supercritical,
            ))
    return report
