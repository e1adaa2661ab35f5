"""Exact decomposition of E[Tr H^k] and its aggregation over a series.

For the N-site operator with potential V(n) = X_n / n^alpha the mean
trace of a power splits, exactly and for every finite N, into

    linear * N + constant                (flat-step-free paths)
  + boundary correction                 (edge-clipped coefficients)
  + sum_j  coeff_j * sum_{i<=N} i^(-j*alpha)   (interior placements)
  + placement correction                (multi-site weight collapse)

where ``coeff_j`` sums path counts against moments over the canonical
weight-j profiles.  Nothing is evaluated from the symbolic polynomial,
which stays an independent oracle; the decomposition reproduces it to
rounding error.

No site sum costs more than a fixed number of terms at any N.  The first
_HEAD = 64 sites are summed term by term, and the rest of each power sum
by Euler-Maclaurin (``_power_sum_tail``) with eight Bernoulli terms and
a certified remainder.  Past the head each multi-site collapse defect
prod_h (i+h)^(-alpha*c_h) - i^(-alpha*w) is its binomial series
sum_m e_m i^(-alpha*w-m), cut after _BINOMIAL_TERMS orders with a
certified bound, so the placement correction is a few power-sum tails
too.  The edge windows are the suffix sums of each profile's depth
histograms against its placed weights, read on the head at the left edge
and on the last K sites at the right.  The same tails taken to N = inf
give the limit of the bounded remainder, and the summed remainder bounds
give the report's ``site_sum_error``.

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

from .combinatorics import _check_cap, _profile_table, _row_key, _unit_row
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


# Bernoulli numbers B_2k / (2k)! for k = 1..8, the Euler-Maclaurin corrections
_EULER_MACLAURIN = tuple(
    b / math.factorial(2 * k)
    for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                           -3617 / 510), start=1)
)
_HEAD = 64  # sites i <= _HEAD are summed term by term; Euler-Maclaurin takes the rest
_HEAD_SITES = np.arange(1.0, _HEAD + 1)
_BINOMIAL_TERMS = 20  # orders m of each collapse defect's expansion in 1/i past the head


def _power_sum_tail(s: np.ndarray, a: int, b: float) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{i=a+1..b} i^(-s), a bound on its Euler-Maclaurin remainder) per exponent s > 0.

    The integral of x^(-s) over [a, b] is a^(1-s) expm1((1-s) log(b/a)) / (1-s),
    exactly log(b/a) at s = 1.  ``b`` may be inf, where the sum is inf for
    s <= 1.  Every derivative of x^(-s) keeps one sign, so the remainder
    after p Bernoulli terms is at most |B_2p|/(2p)! = 2 zeta(2p)/(2 pi)^(2p)
    times |f^(2p-1)(a) - f^(2p-1)(b)|, where f^(n)(x) = (-1)^n (s)_n x^(-s-n).
    """
    s = np.asarray(s, dtype=float)
    if b <= a:
        return np.zeros_like(s), np.zeros_like(s)
    a, b = float(a), float(b)
    t = 1.0 - s
    log_ratio = math.log(b / a)
    at_log = t == 0.0
    t_safe = np.where(at_log, 1.0, t)
    total = np.where(at_log, log_ratio, a ** t * np.expm1(t_safe * log_ratio) / t_safe)
    fa, fb = a ** -s, b ** -s
    total += (fb - fa) / 2
    rise, da, db = s, fa / a, fb / b  # (s)_(2k-1), a^(-s-2k+1), b^(-s-2k+1)
    for k, c in enumerate(_EULER_MACLAURIN):
        if k:
            rise = rise * (s + 2 * k - 1) * (s + 2 * k)
            da, db = da / (a * a), db / (b * b)
        total += c * rise * (da - db)
    return total, abs(c) * rise * (da - db)


def _power_sums(s: np.ndarray, n: float) -> tuple[np.ndarray, np.ndarray]:
    """(sum_{i=1..n} i^(-s), its certified error) per exponent: the head, then the tail."""
    tail, err = _power_sum_tail(s, _HEAD, n)
    return (_HEAD_SITES[:min(n, _HEAD)] ** -s[:, None]).sum(axis=1) + tail, err


def power_partial_sum(n: int, j: int, alpha: float) -> float:
    """sum_{i=1..n} i^(-j*alpha): the first sites term by term, Euler-Maclaurin beyond."""
    if n < 1 or j < 1:
        raise ValueError("need n >= 1 and j >= 1")
    return float(_power_sums(np.array([j * alpha]), n)[0][0])


def _row_profiles(table, dist: DistributionSpec):
    """(flats, count, moment, left, right) of the profiles beta with flats and E[V^beta] != 0.

    Row p is the p-th such record row: its flat counts, path count and E[V^beta],
    exact where the row and the law are.  A closed K-path spans at most K/2 levels,
    so for N > 2K each edge clips a placement by its own distance alone:
    ``left[p, i-1]`` counts the paths clipped with the lowest flat at site i, the
    below histogram's suffix sum from depth i, and ``right[p, j]`` those clipped at
    site N - j, the above histogram's suffix sum from depth max(j - span + 1, 0).
    Both are zero past the window, which the kept depths and the spans size.
    """
    moment = dist.counts_moment(table.flats)
    keep = table.flats.any(axis=1) & (moment != 0)
    flats, (below, above) = table.flats[keep], table.kept[:, keep]
    span = flats.shape[1] - 1 - np.argmax(flats[:, ::-1] > 0, axis=1)
    left, right = (np.cumsum(h[keep, ::-1], axis=1)[:, ::-1].astype(float)
                   for h in (table.below, table.above))
    depth = np.maximum(np.arange(max(span + above, default=1) - 1) - span[:, None] + 1, 0)
    return (flats, table.count[keep], moment[keep], left[:, 1:max(below, default=1)],
            np.take_along_axis(right, depth, axis=1))


def _placed_weights(flats: np.ndarray, sites: np.ndarray, alpha: float) -> np.ndarray:
    """prod_h (i+h)^(-alpha*c_h) at (p, i): counts row c = ``flats[p]`` placed with lowest site i.

    Each factor (i+h)^(-alpha*c) is taken once per count c and offset h,
    and the factors multiply in level order.
    """
    shifted = sites + np.arange(flats.shape[1])[:, None]
    powers = np.array([shifted ** (-alpha * c) for c in range(flats.max(initial=0) + 1)])
    w = np.ones((len(flats), len(sites)))
    for h, c in enumerate(flats.T):
        w *= powers[c, h]
    return w


def _defect_series(counts: list[int], alpha: float) -> tuple[np.ndarray, float]:
    """(e_1..e_M, bound) for prod_h (1 + h/i)^(-alpha*c_h) = 1 + sum_m e_m i^(-m) at i > _HEAD.

    ``counts`` is a profile's counts row c_0, c_1, ...  The majorant
    prod_h (1 - h x)^(-alpha*c_h) has the coefficients |e_m| dominated term
    by term and none negative, so at rho = 1/(span+1) they are at most its
    value there times rho^-m.  Past M the series is then at most ``bound``
    * i^(-M-1) at every site i > _HEAD.
    """
    pairs = [(h, c) for h, c in enumerate(counts) if c]
    e = np.zeros(_BINOMIAL_TERMS + 1)
    e[0] = 1.0
    orders = np.arange(_BINOMIAL_TERMS)
    for h, c in pairs:
        if h:
            a = alpha * c
            binomial = np.cumprod((-a - orders) / (orders + 1) * h)
            e = np.convolve(e, np.concatenate(([1.0], binomial)))[:_BINOMIAL_TERMS + 1]
    r = pairs[-1][0] + 1
    majorant = math.prod((1 - h / r) ** (-alpha * c) for h, c in pairs)
    return e[1:], majorant * r ** (_BINOMIAL_TERMS + 1) / (1 - r / (_HEAD + 1))


def _placement(flats, scales, head, alpha: float, n: int) -> tuple[float, float, float]:
    """(placement correction at N = n, its N = inf limit, its certified error).

    ``flats``, ``scales`` and ``head`` give each profile's counts row, count
    times moment and placed weights on the head.  Each multi-level profile's
    collapse defect is summed over the head term by term, and past it as
    sum_m e_m T(alpha*w + m), whose truncation is at most the
    ``_defect_series`` bound times T(alpha*w + M + 1), T the power-sum tail.
    """
    multi = np.count_nonzero(flats, axis=1) > 1
    if not multi.any():
        return 0.0, 0.0, 0.0
    flats, scales, w = flats[multi], scales[multi], flats[multi].sum(axis=1, keepdims=True)
    heads = head[multi] - _HEAD_SITES ** (-alpha * w)
    e, bounds = (np.array(x) for x in zip(*(_defect_series(row, alpha) for row in flats.tolist())))
    s = (alpha * w + np.arange(1, _BINOMIAL_TERMS + 2)).ravel()
    tails, errs = (x.reshape(len(flats), -1) for x in _power_sum_tail(s, _HEAD, n))
    limits = _power_sum_tail(s, _HEAD, math.inf)[0].reshape(len(flats), -1)
    value = scales * (heads[:, :n].sum(axis=1) + (e * tails[:, :-1]).sum(axis=1))
    limit = scales * (heads.sum(axis=1) + (e * limits[:, :-1]).sum(axis=1))
    err = np.abs(scales) * ((np.abs(e) * errs[:, :-1]).sum(axis=1)
                            + bounds * (tails[:, -1] + errs[:, -1]))
    return math.fsum(value), math.fsum(limit), math.fsum(err)


@dataclass
class ExpansionReport:
    """All constants of the exact mean decomposition for one power or series.

    ``reconstructed_mean`` assembles the pieces and must reproduce the
    oracle mean identically:

        linear_coeff * N + constant_coeff + boundary + placement
            + sum_j powersum_coeffs[j] * powersums[j].

    ``remainder`` collects the parts that stay bounded as N grows:
    constant + boundary + placement + the power-sum terms of order
    beyond ``m_cutoff``; ``remainder_limit`` is its value at N = inf.
    ``site_sum_error`` bounds what the Euler-Maclaurin remainders and the
    truncated collapse expansions can move ``reconstructed_mean`` by;
    floating-point rounding is not in it.
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
    remainder_limit: float
    site_sum_error: float

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
            "remainder_limit": self.remainder_limit,
            "site_sum_error": self.site_sum_error,
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
    collapse defect prod_h (i+h)^(-alpha*c_h) - i^(-alpha*w) over
    i = 1..N.  Past the head that defect is sum_m e_m i^(-alpha*w-m), so
    every site sum is a head of _HEAD terms plus Euler-Maclaurin tails, at
    N and at N = inf, and the cost does not depend on N.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"the decay exponent alpha must be positive and finite, got {alpha}")
    _check_row(coeffs, n)
    table = _profile_table(_row_key(coeffs))
    top = len(coeffs) - 1
    flats, count, moment, left, right = _row_profiles(table, dist)
    powersum_coeffs = np.zeros(top + 1, dtype=object)
    np.add.at(powersum_coeffs, flats.sum(axis=1), count * moment)
    orders = np.arange(1, top + 1)
    c = powersum_coeffs[1:].astype(float)
    sums, sums_err = _power_sums(alpha * orders, n)
    m_cutoff = divergent_power_cutoff(alpha)
    beyond = orders[(orders > m_cutoff) & (c != 0)]  # the convergent orders that count
    limits = c[beyond - 1] * _power_sums(alpha * beyond, math.inf)[0]
    head = _placed_weights(flats, _HEAD_SITES, alpha)
    moments = moment.astype(float)
    scales = (count * moments).astype(float)
    placement, placement_limit, placement_err = _placement(flats, scales, head, alpha, n)
    free = ~table.flats.any(axis=1)  # the flat-free profile, if the row has one
    constant = float(-sum((table.below[free] + table.above[free]) @ np.arange(table.below.shape[1])))
    # (coefficient - path count) * E[V^beta] * weight over the clipped placements of each edge
    left = (-left * moments[:, None] * head[:, :left.shape[1]]).ravel()
    right_sites = n - np.arange(right.shape[1], dtype=float)
    right = (-right * moments[:, None] * _placed_weights(flats, right_sites, alpha)).ravel()
    return ExpansionReport(
        kind=kind,
        label=label,
        n_sites=n,
        alpha=alpha,
        dist_name=dist.name,
        linear_coeff=float(sum(table.count[free])),
        constant_coeff=constant,
        boundary=math.fsum(np.concatenate((left, right))),
        placement=placement,
        powersum_coeffs={j: float(cj) for j, cj in enumerate(c, start=1)},
        powersums={j: float(v) for j, v in enumerate(sums, start=1)},
        m_cutoff=m_cutoff,
        truncation_degree=top,
        tail_bound=tail_bound,
        remainder_limit=math.fsum([constant, *left, placement_limit, *limits]),
        site_sum_error=math.fsum(np.abs(c) * sums_err) + placement_err,
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
    coeffs, tail = series.truncate(dist, tail_tol, n)
    return _fold(coeffs, n, alpha, dist, series.label, tail_bound=tail)


def exact_mean_trace_power(n: int, k: int, alpha: float, dist: DistributionSpec) -> float:
    """E[Tr H^k], exactly, for N > 2k; matches the symbolic oracle wherever both are computable."""
    return power_expansion(k, n, alpha, dist).reconstructed_mean


def exact_mean_trace_f(series: AnalyticSeries, n: int, alpha: float,
                       dist: DistributionSpec, tail_tol: float = 1e-9) -> float:
    """E[Tr f(H)] of the truncated series."""
    return series_expansion(series, n, alpha, dist, tail_tol).reconstructed_mean
