"""Exact decomposition of E[Tr H^k] and its aggregation over a series.

For the N-site operator with potential V(n) = X_n / n^alpha the mean
trace of a power splits, exactly and for every finite N, into

    linear * N + constant                (flat-step-free paths)
  + boundary correction                 (edge-clipped coefficients)
  + sum_j  coeff_j * sum_{i<=N} i^(-j*alpha)   (interior placements)
  + placement correction                (multi-site weight collapse)

where ``coeff_j`` sums path counts against moments over the canonical
weight-j profiles.  Everything is evaluated without asymptotic
approximation and without the symbolic polynomial, which stays an
independent oracle; the decomposition reproduces it to rounding error.
The site sums over i = 1..N all read one array u_i = i^(-alpha): the
powers u^j are running products and each sum is numpy's pairwise sum,
whose error for these same-sign terms is a few eps * log2(N) relative.

One fold, ``_fold``, reads the decomposition of a coefficient row
c_0..c_K off that row's one profile table in
:mod:`tracefluct.combinatorics`: the c_l-weighted path counts for the
interior, and the depth histograms for the flat-free offset and the edge
windows.  Every mean is a view of it: the unit row e_k
(``power_expansion``, ``exact_mean_trace_power``), a truncated series
(``series_expansion``, ``exact_mean_trace_f``) and each ensemble center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import (
    MultiIndex,
    ProfileWindows,
    _check_cap,
    _profile_table,
    _row_key,
    _unit_row,
)
from .distributions import DistributionSpec
from .series import AnalyticSeries

_EPS_CUTOFF = 1e-12


def divergent_power_cutoff(alpha: float) -> int:
    """Largest j with j*alpha <= 1: the orders whose partial power sums diverge.

    The boundary case j*alpha == 1 (logarithmic growth) is included.
    """
    if alpha <= 0:
        raise ValueError("the decay exponent must be positive")
    return max(0, math.floor((1.0 + _EPS_CUTOFF) / alpha))


def _decay(m: int, alpha: float) -> np.ndarray:
    """u_i = i^(-alpha) for the sites i = 1..m, the one array every site sum reads."""
    return np.arange(1, m + 1, dtype=float) ** -alpha


def _decay_powers(u: np.ndarray, n: int, top: int):
    """Yield (j, u_i^j over i = 1..n) for j = 1..top, each power one product from the last."""
    p = u[:n]
    for j in range(1, top + 1):
        if j > 1:
            p = p * u[:n]
        yield j, p


def power_partial_sum(n: int, j: int, alpha: float) -> float:
    """sum_{i=1..n} i^(-j*alpha): the running product of i^(-alpha), pairwise-summed by numpy."""
    if n < 1 or j < 1:
        raise ValueError("need n >= 1 and j >= 1")
    for _, p in _decay_powers(_decay(n, alpha), n, j):
        pass
    return float(p.sum())


def _placed_weight(beta: MultiIndex, u: np.ndarray, start: int, n: int) -> np.ndarray:
    """prod_h (i+h)^(-alpha*c_h) over i = start..start+n-1: ``beta`` placed with lowest site i.

    ``u`` is ``_decay`` over at least start + n - 1 + span(beta) sites;
    the integer powers are products.
    """
    w = None
    for h, c in beta.pairs:
        seg = u[start - 1 + h:start - 1 + h + n]
        for _ in range(c):
            w = seg.copy() if w is None else w * seg
    return w


def _edge_defects(table, u: np.ndarray, dist: DistributionSpec, n: int | None = None):
    """Yield (coefficient - path count) * E[V^beta] * weight over the clipped placements.

    A path of profile beta placed with its lowest flat at site iota leaves
    [1, N] on the left when its depth below reaches iota, and on the right
    when its depth above exceeds N - iota - span(beta).  A closed k-path
    spans at most k/2 levels, so for N > 2k no path is clipped at both
    edges, and each edge clips a placement by its distance to that edge
    alone: the coefficients are read off the profile table's depth
    histograms at a cost independent of N.  Only the left window is
    yielded when ``n`` is None.
    """
    for pairs, win in table.items():
        if not pairs:
            continue
        beta = MultiIndex(pairs)
        ex = dist.moment_product(beta)
        if ex == 0:
            continue
        exf = float(ex)
        clipped = [sum(win.below[iota:]) for iota in range(1, len(win.below))]
        weights = _placed_weight(beta, u, 1, len(clipped)).tolist()
        yield from (-a * exf * w for a, w in zip(clipped, weights))
        if n is None:
            continue
        start = n - beta.span - len(win.above) + 2
        clipped = [sum(win.above[max(n - iota - beta.span + 1, 0):])
                   for iota in range(start, n + 1)]
        weights = _placed_weight(beta, u, start, len(clipped)).tolist()
        yield from (-a * exf * w for a, w in zip(clipped, weights))


def boundary_correction_limit(k: int, alpha: float, dist: DistributionSpec) -> float:
    """Large-N limit of the boundary correction of Tr H^k: the left window alone."""
    return math.fsum(_edge_defects(_profile_table(_unit_row(k)), _decay(k + 1, alpha), dist))


@dataclass
class ExpansionReport:
    """All constants of the exact mean decomposition for one power or series.

    ``reconstructed_mean`` assembles the pieces and must reproduce the
    oracle mean identically:

        linear_coeff * N + constant_coeff + boundary + placement
            + sum_j powersum_coeffs[j] * powersums[j].

    ``remainder`` collects the parts that stay bounded as N grows:
    constant + boundary + placement + the power-sum terms of order
    beyond ``m_cutoff``.
    """

    kind: str
    label: str
    n_sites: int
    alpha: float
    dist_name: str
    linear_coeff: float
    constant_coeff: float
    boundary: float
    placement: float
    powersum_coeffs: dict[int, float]
    powersums: dict[int, float]  # S_j(N) for every order j of powersum_coeffs
    m_cutoff: int
    truncation_degree: int
    tail_bound: float

    @property
    def reconstructed_mean(self) -> float:
        tail = math.fsum(
            c * self.powersums[j] for j, c in self.powersum_coeffs.items() if c != 0.0
        )
        return (self.linear_coeff * self.n_sites + self.constant_coeff
                + self.boundary + self.placement + tail)

    @property
    def remainder(self) -> float:
        beyond = math.fsum(
            c * self.powersums[j]
            for j, c in self.powersum_coeffs.items() if c != 0.0 and j > self.m_cutoff
        )
        return self.constant_coeff + self.boundary + self.placement + beyond

    def leading_coefficients(self) -> dict[int, float]:
        """Coefficients of the growing terms: order 0 (the N term) up to the cutoff."""
        out = {0: self.linear_coeff}
        for j in range(1, self.m_cutoff + 1):
            out[j] = self.powersum_coeffs.get(j, 0.0)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "n_sites": self.n_sites,
            "alpha": self.alpha,
            "dist": self.dist_name,
            "linear_coeff": self.linear_coeff,
            "constant_coeff": self.constant_coeff,
            "boundary": self.boundary,
            "placement": self.placement,
            "powersum_coeffs": {str(j): c for j, c in self.powersum_coeffs.items()},
            "powersums": {str(j): s for j, s in self.powersums.items()},
            "m_cutoff": self.m_cutoff,
            "truncation_degree": self.truncation_degree,
            "tail_bound": self.tail_bound,
            "remainder": self.remainder,
            "reconstructed_mean": self.reconstructed_mean,
        }


def _check_row(coeffs, n: int) -> None:
    """Reject a row beyond the enumeration cap, or with N <= 2K for its top nonzero power K."""
    _check_cap(len(coeffs) - 1)
    top = max((l for l, c in enumerate(coeffs) if c != 0.0), default=0)
    if n <= 2 * top:
        raise ValueError("the fast mean requires N > 2k; use the symbolic oracle below that")


def _fold(coeffs, n: int, alpha: float, dist: DistributionSpec, label: str,
          kind: str = "series", tail_bound: float = 0.0) -> ExpansionReport:
    """Read the decomposition of sum_l c_l E[Tr H^l] off the row's one profile table.

    The flat-free profile gives the linear and constant terms, each
    weight-j profile its moment-weighted count to the power-sum
    coefficient of order j, and each multi-level profile one sum of its
    collapse defect prod_h (i+h)^(-alpha*c_h) - i^(-alpha*weight) over
    i = 1..N.  Every site sum reads one array u_i = i^(-alpha): S_j(N)
    and the weight-j defects share the running power u^j.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"the decay exponent alpha must be positive and finite, got {alpha}")
    _check_row(coeffs, n)
    table = _profile_table(_row_key(coeffs))
    free = table.get((), ProfileWindows(0, (), ()))
    top = len(coeffs) - 1
    powersum_coeffs = {j: 0 for j in range(1, top + 1)}
    spread: dict[int, list] = {}  # weight -> (multi-level profile, count * moment)
    for pairs, win in table.items():
        if not pairs:
            continue
        beta = MultiIndex(pairs)
        ex = dist.moment_product(beta)
        if ex == 0:
            continue
        powersum_coeffs[beta.weight] += win.count * ex
        if not beta.is_single_level():
            spread.setdefault(beta.weight, []).append((beta, win.count * float(ex)))
    u = _decay(n + top, alpha)  # a profile of a K-path spans fewer than K levels
    powersums, placement = {}, []
    for j, p in _decay_powers(u, n, top):
        powersums[j] = float(p.sum())
        for beta, scale in spread.get(j, ()):
            defect = _placed_weight(beta, u, 1, n)
            defect -= p
            placement.append(scale * float(defect.sum()))
    return ExpansionReport(
        kind=kind,
        label=label,
        n_sites=n,
        alpha=alpha,
        dist_name=dist.name,
        linear_coeff=float(free.count),
        constant_coeff=float(-sum(d * m for hist in (free.below, free.above)
                                  for d, m in enumerate(hist))),
        boundary=math.fsum(_edge_defects(table, u, dist, n)),
        placement=math.fsum(placement),
        powersum_coeffs={j: float(c) for j, c in powersum_coeffs.items()},
        powersums=powersums,
        m_cutoff=divergent_power_cutoff(alpha),
        truncation_degree=top,
        tail_bound=tail_bound,
    )


def power_expansion(k: int, n: int, alpha: float, dist: DistributionSpec) -> ExpansionReport:
    """Full decomposition report for a single power Tr H^k: the fold of the unit row e_k."""
    return _fold(_unit_row(k), n, alpha, dist, f"x^{k}", kind="power")


def series_expansion(series: AnalyticSeries, n: int, alpha: float,
                     dist: DistributionSpec, tail_tol: float = 1e-9) -> ExpansionReport:
    """Aggregate the power decompositions over a series' coefficients.

    The series is truncated by the same per-site tail policy as the
    numeric trace (:meth:`AnalyticSeries.truncate`).  The report's growing
    part carries the aggregated coefficients up to the divergence cutoff;
    everything else lands in ``remainder``.
    """
    coeffs, tail = series.truncate(dist.bound, tail_tol, n)
    return _fold(coeffs, n, alpha, dist, series.label, tail_bound=tail)


def exact_mean_trace_power(n: int, k: int, alpha: float, dist: DistributionSpec) -> float:
    """E[Tr H^k], exactly, for N > 2k; matches the symbolic oracle wherever both are computable."""
    return power_expansion(k, n, alpha, dist).reconstructed_mean


def exact_mean_trace_f(series: AnalyticSeries, n: int, alpha: float,
                       dist: DistributionSpec, tail_tol: float = 1e-9) -> float:
    """E[Tr f(H)] of the truncated series."""
    return series_expansion(series, n, alpha, dist, tail_tol).reconstructed_mean
