"""Ensemble machinery: determinism, sigma evaluators, diagnostics."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import special, stats

from tracefluct.combinatorics import (
    FLAT,
    MultiIndex,
    _profile_table,
    enumerate_closed_paths,
    single_flat_count,
)
from tracefluct.distributions import rademacher, two_point, uniform_sqrt3
from tracefluct.hamiltonian import derive_seed, sample_potential
from tracefluct.montecarlo import (
    EnsembleConfig,
    ScalingFunction,
    clt_check,
    convergence_check,
    joint_correlation,
    normality_stats,
    run_ensemble,
    sigma_sq_for,
)
from tracefluct.series import LEADING_WEIGHT, AnalyticSeries
from tracefluct.symbolic import trace_power_polynomial


def brute_sigma_a(coeffs, dist):
    """Oracle: the case A variance from raw path enumeration."""
    kernel = 0.0
    for j in range(1, len(coeffs)):
        if coeffs[j] == 0:
            continue
        # a closed path with exactly one flat step has the profile delta
        n_single = sum(1 for p in enumerate_closed_paths(j) if p.steps.count(FLAT) == 1)
        kernel += coeffs[j] * n_single
    return kernel**2 * float(dist.variance)


def brute_sigma_b(coeffs, dist):
    """Oracle: the case B variance from raw path enumeration."""
    degree = len(coeffs) - 1
    shared = 0.0
    split: dict[int, float] = {}
    for j in range(2, degree + 1):
        if coeffs[j] == 0:
            continue
        for p in enumerate_closed_paths(j):
            prof = p.flat_profile()
            if prof == MultiIndex.two_delta():
                shared += coeffs[j]
            elif prof.weight == 2 and len(prof.pairs) == 2:
                s = prof.pairs[1][0]
                split[s] = split.get(s, 0.0) + coeffs[j]
    eta_sq = float(dist.variance)
    total = shared**2 * (float(dist.moment(4)) - eta_sq**2)
    total += sum(v**2 for v in split.values()) * eta_sq**2
    return total


# ------------------------------------------------------------------ scaling


def test_scaling_function():
    g = ScalingFunction(0.6)
    assert g.g(100) == pytest.approx(100**0.4 / 0.4)
    assert g.normalizer(100) == pytest.approx(math.sqrt(100**0.4 / 0.4))
    assert ScalingFunction(1.0).g(1000) == pytest.approx(math.log(1000))
    with pytest.raises(ValueError):
        ScalingFunction(0.0)
    with pytest.raises(ValueError):
        ScalingFunction(1.2)
    with pytest.raises(ValueError):
        ScalingFunction(0.5).g(1)


# --------------------------------------------------------------- ensembles


def small_config(**overrides):
    base = dict(
        alpha=0.3,
        dist=rademacher(),
        functions=(AnalyticSeries.monomial(1), AnalyticSeries.monomial(3)),
        n_grid=(50, 200),
        replicas=8,
        base_seed=99,
    )
    base.update(overrides)
    return EnsembleConfig(**base)


def test_run_ensemble_deterministic():
    a = run_ensemble(small_config())
    b = run_ensemble(small_config())
    assert np.array_equal(a.raw, b.raw)
    assert np.array_equal(a.centers, b.centers)


def test_run_ensemble_worker_count_invariant():
    serial = run_ensemble(small_config(workers=1))
    parallel = run_ensemble(small_config(workers=2))
    assert np.array_equal(serial.raw, parallel.raw)


def test_run_ensemble_empty():
    res = run_ensemble(small_config(replicas=0))
    assert res.raw.shape == (0, 2, 2)
    assert res.centers.shape == (2, 2)


def test_run_ensemble_reports_its_truncations():
    # the degree and certified tail are the ones the ensemble truncated at, at its largest N
    f = AnalyticSeries.exponential(1 / 8)
    config = EnsembleConfig(alpha=0.5, dist=rademacher(),
                            functions=(f, AnalyticSeries.monomial(3)),
                            n_grid=(30, 100), replicas=1, base_seed=3)
    res = run_ensemble(config)
    coeffs, tail = f.truncate(1.0, config.tail_tol, 100)
    assert res.degrees == (len(coeffs) - 1, 3) and res.tails == (tail, 0.0)
    assert 0.0 < tail <= config.tail_tol


def test_linear_trace_is_exact_sum():
    res = run_ensemble(small_config())
    f = "x^1"
    for n in res.n_grid:
        for r in range(res.config.replicas):
            s = sample_potential(n, 0.3, rademacher(), derive_seed(99, r))
            assert res.raw_traces(f, n)[r] == pytest.approx(np.sum(s.values), rel=1e-14)
    # and the pipeline's scaled value matches the direct formula
    direct = np.array([
        np.sum(sample_potential(200, 0.3, rademacher(), derive_seed(99, r)).values)
        for r in range(res.config.replicas)
    ])
    t = res.scaling_t()
    scale = math.sqrt(200 ** (1 - t) / (1 - t))
    assert np.allclose(res.scaled(f, 200), direct / scale, rtol=1e-12)


def test_grid_coupling_prefix():
    res = run_ensemble(small_config())
    # the small-size trace is recomputable from the large-size potential prefix
    for r in range(res.config.replicas):
        big = sample_potential(200, 0.3, rademacher(), derive_seed(99, r))
        assert res.raw_traces("x^1", 50)[r] == pytest.approx(
            np.sum(big.values[:50]), rel=1e-14)


def test_case_mismatch_rejected():
    with pytest.raises(ValueError, match="mix"):
        run_ensemble(small_config(
            functions=(AnalyticSeries.monomial(1), AnalyticSeries.monomial(2))
        ))


def test_scaling_guard_above_critical():
    res = run_ensemble(small_config(alpha=0.8, n_grid=(50, 100)))
    assert not res.scaled_defined
    with pytest.raises(ValueError, match="critical"):
        res.scaled("x^1", 100)
    # explicit index still works
    assert res.scaled("x^1", 100, t=0.5).shape == (8,)


# ------------------------------------------------------------------- sigmas


def test_case_a_examples():
    d = rademacher()
    assert sigma_sq_for(AnalyticSeries.monomial(1), d) == 1.0
    assert sigma_sq_for(AnalyticSeries.monomial(3), d) == 36.0
    u = uniform_sqrt3()
    assert sigma_sq_for(AnalyticSeries.monomial(3), u) == 36.0 * float(u.variance)


def test_case_a_matches_brute_force():
    d = uniform_sqrt3()
    for coeffs in ([0, 1], [0, 0.5, 0, 2], [1, -1, 2, 3, 0, 1], [0, 0, 0, 1, 0, 0, 0, 2]):
        f = AnalyticSeries.polynomial(coeffs)
        assert sigma_sq_for(f, d) == pytest.approx(brute_sigma_a(f.coeffs, d), abs=1e-12)


def test_case_a_infinite_series():
    f = AnalyticSeries.exponential(1 / 8)
    val = sigma_sq_for(f, rademacher())
    want = brute_sigma_a([f.coefficient(j) for j in range(14)], rademacher())
    assert val == pytest.approx(want, rel=1e-9)


def test_case_a_skips_a_zero_coefficient():
    # c_j = 4^-j with c_3 = 0: the zero leaves the kernel and its Cauchy bound intact
    g = AnalyticSeries.cauchy("g", lambda j: 0.0 if j == 3 else 4.0**-j, 1.0, 4.0, "A")
    kernel = math.fsum(4.0**-j * single_flat_count(j) for j in range(1, 400, 2) if j != 3)
    assert sigma_sq_for(g, rademacher()) == pytest.approx(kernel**2, rel=1e-12)
    assert kernel**2 == pytest.approx(0.0848, abs=1e-4)


@pytest.mark.parametrize("rate, sigma_sq", [(0.125, 0.016119036523024557),
                                            (1.0, 5.196509150626617)])
def test_case_a_exponential_pins(rate, sigma_sq):
    assert sigma_sq_for(AnalyticSeries.exponential(rate), rademacher()) == sigma_sq


def test_case_a_refuses_uncertifiable_tail():
    # single_flat_count(j) <= 3^j, and the Cauchy bound of a radius-2.2 series is inf at x = 3
    slow = AnalyticSeries.cauchy("slow", lambda j: 2.2**-j, 1.0, 2.2, "A")
    with pytest.raises(ValueError, match="meets tolerance"):
        sigma_sq_for(slow, rademacher())


def test_case_b_examples():
    u = uniform_sqrt3()
    assert sigma_sq_for(AnalyticSeries.monomial(2), u) == pytest.approx(0.8, abs=1e-15)
    assert sigma_sq_for(AnalyticSeries.monomial(2), rademacher()) == 0.0
    assert sigma_sq_for(AnalyticSeries.monomial(4), u) == pytest.approx(67.2, abs=1e-12)


def test_case_b_matches_brute_force():
    u = uniform_sqrt3()
    for coeffs in ([0, 0, 1], [0, 0, 1, 0, 1], [2, 0, -1, 0, 0, 0, 0.5],
                   [0, 0, 0, 0, 0, 0, 0, 0, 1]):
        f = AnalyticSeries.polynomial(coeffs)
        assert sigma_sq_for(f, u) == pytest.approx(brute_sigma_b(f.coeffs, u), abs=1e-12)


DEG12 = AnalyticSeries.polynomial([0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])


@pytest.mark.parametrize(("dist", "want"), [(uniform_sqrt3(), 128882991.2),
                                            (rademacher(), 80994056.0)], ids=["uni", "rad"])
def test_case_b_deg12_pinned(dist, want):
    assert sigma_sq_for(DEG12, dist) == pytest.approx(want, rel=1e-15)


def test_ensemble_and_variance_walk_the_row_once():
    # the centers and the case B amplitudes read one profile table of the row
    _profile_table.cache_clear()
    dist = uniform_sqrt3()
    run_ensemble(EnsembleConfig(alpha=0.2, dist=dist, functions=(DEG12,), n_grid=(30,),
                                replicas=2, base_seed=5))
    sigma_sq_for(DEG12, dist)
    assert _profile_table.cache_info().misses == 1


def test_sigma_dispatch():
    assert sigma_sq_for(AnalyticSeries.monomial(1), rademacher()) == 1.0
    assert sigma_sq_for(AnalyticSeries.monomial(2), uniform_sqrt3()) == pytest.approx(0.8)
    # case C: Tr H^3 - 6 Tr H is sum_n V_n^3 off the edges, so sigma^2 = E X^6
    x3_6x = AnalyticSeries.polynomial([0, -6, 0, 1])
    assert sigma_sq_for(x3_6x, rademacher()) == 1.0
    assert sigma_sq_for(x3_6x, uniform_sqrt3()) == pytest.approx(27 / 7, rel=1e-15)


def weight_part_variance(coeffs, n, w, dist):
    """Oracle: the exact variance of the weight-w monomials of sum_j c_j Tr H^j on n sites,
    at alpha = 0, from the expanded trace polynomials and the law's moments."""
    poly: dict[tuple, Fraction] = {}
    for j, c in enumerate(coeffs):
        if c:
            for mono, count in trace_power_polynomial(n, j).terms.items():
                if mono.degree == w:
                    poly[mono.sites] = poly.get(mono.sites, 0) + Fraction(c) * count
    moments = [dist.moment(m) for m in range(2 * w + 1)]

    def mean(counts):
        return math.prod(moments[c] for c in counts)

    at_site: dict[int, list] = {}
    for sites in poly:
        for site, _ in sites:
            at_site.setdefault(site, []).append(sites)
    var = Fraction(0)
    for sites, a in poly.items():  # monomials on disjoint sites are independent
        for other in {o for site, _ in sites for o in at_site[site]}:
            merged = Counter(dict(sites))
            merged.update(dict(other))
            cov = mean(merged.values()) - mean(c for _, c in sites) * mean(c for _, c in other)
            var += a * poly[other] * cov
    return var


@pytest.mark.parametrize("dist", [rademacher(), uniform_sqrt3(), two_point(2, -1, Fraction(1, 3))],
                         ids=["rad", "uni", "two-point"])
@pytest.mark.parametrize("coeffs", [
    [0, 0, 0, 1], [1, 2, 3, 4, 5],
    [0, 0, 0, 0, 1], [0, 0, 1, 0, -3, 0, 2],
    [0, -6, 0, 1], [0, -30, 0, 0, 0, 1], [0, 30, 0, -10, 0, 1], [0, -52, 0, 2, 0, -1, 0, 0.5],
], ids=["A-x3", "A-deg4", "B-x4", "B-deg6", "C-x3", "C-x5", "C-deg5", "C-deg7"])
def test_sigma_sq_is_the_growth_of_the_exact_variance(coeffs, dist):
    # past the edges (N >= 3K + 4) the variance of the leading part grows by sigma^2 per site
    f = AnalyticSeries.polynomial(coeffs)
    w, n = LEADING_WEIGHT[f.case], 3 * f.degree + 4
    growth = weight_part_variance(coeffs, n + 1, w, dist) - weight_part_variance(coeffs, n, w, dist)
    assert sigma_sq_for(f, dist) == pytest.approx(float(growth), rel=1e-12)


# -------------------------------------------------------------- diagnostics


def test_normality_stats_selftest():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    x = rng.standard_normal(10_000)
    st = normality_stats(x, sigma_sq_theory=1.0)
    assert abs(st.variance - 1.0) < 0.05
    assert abs(st.skewness) < 0.08
    assert abs(st.excess_kurtosis) < 0.15
    assert st.ks_distance < 0.02


def _fixed_samples():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(77)))
    for n in (400, 1000):
        yield rng.standard_normal(n)
        yield rng.exponential(size=n) - 1.0


@pytest.mark.parametrize("x", list(_fixed_samples()), ids=["normal-400", "exp-400",
                                                          "normal-1000", "exp-1000"])
def test_normality_stats_match_scipy(x):
    st = normality_stats(x)
    s = math.sqrt(st.variance)
    assert st.skewness == pytest.approx(float(stats.skew(x)), rel=1e-12)
    assert st.excess_kurtosis == pytest.approx(float(stats.kurtosis(x, fisher=True)), rel=1e-12)
    ks = float(stats.kstest(x, "norm", args=(0.0, s)).statistic)
    assert st.ks_distance == pytest.approx(ks, rel=1e-12)


def test_normality_stats_degenerate():
    st = normality_stats(np.zeros(500), sigma_sq_theory=0.0)
    assert st.variance == 0.0
    assert st.degenerate
    assert math.isnan(st.skewness)


def test_variance_ignores_center_errors():
    # the variance diagnostic recenters empirically, so a constant shift in
    # the centering constants must not move it
    cfg = small_config(replicas=150, n_grid=(300,))
    res = run_ensemble(cfg)
    before = normality_stats(res.scaled("x^3", 300)).variance
    res.centers = res.centers + 5.0
    after = normality_stats(res.scaled("x^3", 300)).variance
    assert after == pytest.approx(before, rel=1e-12)


def test_clt_check_requires_replicas():
    res = run_ensemble(small_config())
    with pytest.raises(ValueError, match="100"):
        clt_check(res)


def test_clt_check_small_run():
    cfg = small_config(replicas=150, n_grid=(400,))
    res = run_ensemble(cfg)
    rep = clt_check(res, sigma_theory={"x^1": 1.0, "x^3": 36.0})
    e = rep.entry("x^1", 400)
    assert e.count == 150
    assert e.variance_ratio == pytest.approx(e.variance / 1.0)
    assert 0.5 < e.variance_ratio < 1.5
    d = rep.to_dict()
    assert d["entries"][0]["count"] == 150


def test_joint_correlation_properties():
    cfg = small_config(replicas=200, n_grid=(300,))
    res = run_ensemble(cfg)
    rep = joint_correlation(res)
    m = rep.matrix(300)
    assert m.shape == (2, 2)
    assert m[0, 0] == 1.0 and m[1, 1] == 1.0
    assert m[0, 1] == m[1, 0]
    assert -1.0 <= m[0, 1] <= 1.0
    # x and x^3 share the dominant linear term
    assert m[0, 1] > 0.8


def test_joint_correlation_scaled_function_is_exact():
    f1 = AnalyticSeries.monomial(1)
    f2 = AnalyticSeries.polynomial([0, 2], label="2x")
    cfg = small_config(functions=(f1, f2), replicas=120, n_grid=(100,))
    rep = joint_correlation(run_ensemble(cfg))
    assert rep.matrix(100)[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_joint_correlation_degenerate_pair_flagged():
    # under the sign law x^2 has constant trace: zero variance
    f1 = AnalyticSeries.monomial(2)
    f2 = AnalyticSeries.polynomial([0, 0, 2], label="2x^2")
    cfg = small_config(functions=(f1, f2), dist=rademacher(), alpha=0.2,
                       replicas=120, n_grid=(100,))
    rep = joint_correlation(run_ensemble(cfg))
    assert rep.undefined_pairs[100] == [("x^2", "2x^2")]
    assert math.isnan(rep.matrix(100)[0, 1])


def test_convergence_check_supercritical():
    cfg = small_config(alpha=0.8, functions=(AnalyticSeries.monomial(1),),
                       replicas=200, n_grid=(2000, 10_000))
    res = run_ensemble(cfg)
    rep = convergence_check(res)
    pair = rep.pairs[0]
    assert pair.supercritical
    # exact tail variance: eta^2 * sum_{n>2000} n^(-1.6) bounds the empirical one
    assert pair.diff_variance <= 1.5 * pair.variance_bound
    assert pair.variance_bound == pytest.approx(float(special.zeta(1.6, 2001)), rel=1e-12)


def test_convergence_check_reads_the_scaling_decision():
    # just above alpha_c, inside the 1e-12 band, the run is scaled with t = 1, so not supercritical
    res = run_ensemble(small_config(alpha=0.5000000000001, n_grid=(50, 100)))
    assert res.scaled_defined and res.scaling_t() == 1.0
    assert not convergence_check(res).pairs[0].supercritical


def test_convergence_check_subcritical_flagged():
    cfg = small_config(alpha=0.4, functions=(AnalyticSeries.monomial(1),),
                       replicas=150, n_grid=(500, 5000))
    rep = convergence_check(run_ensemble(cfg))
    pair = rep.pairs[0]
    assert not pair.supercritical
    assert pair.variance_bound == math.inf  # tail diverges below critical
    assert pair.diff_variance > 1.0  # fluctuations keep growing


def test_convergence_check_requires_coupling():
    with pytest.raises(ValueError, match="two grid sizes"):
        convergence_check(run_ensemble(small_config(n_grid=(100,))))


def test_deterministic_linear_tail_bound():
    # alpha = 2: the difference of linear traces is bounded by the absolute tail
    cfg = small_config(alpha=2.0, functions=(AnalyticSeries.monomial(1),),
                       replicas=50, n_grid=(100, 10_000))
    res = run_ensemble(cfg)
    tail = sum(n**-2.0 for n in range(101, 10_001))
    diffs = res.centered("x^1", 10_000) - res.centered("x^1", 100)
    # centering is deterministic, so compare the raw difference against C_X * tail
    raw_diffs = res.raw_traces("x^1", 10_000) - res.raw_traces("x^1", 100)
    assert np.all(np.abs(raw_diffs) <= 1.0 * tail + 1e-15)
    assert diffs.shape == (50,)
