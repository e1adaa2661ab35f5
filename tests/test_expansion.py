"""Exact mean decomposition: constants, corrections, and the oracle identity."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from test_combinatorics import record_rows
from tracefluct.combinatorics import MultiIndex, _profile_table, _unit_row, profile_counts
from tracefluct.distributions import rademacher, two_point, uniform_sqrt3
from tracefluct.expansion import (
    _HEAD,
    _fold,
    _power_sum_tail,
    divergent_power_cutoff,
    exact_mean_trace_f,
    exact_mean_trace_power,
    power_expansion,
    power_partial_sum,
    series_expansion,
)
from tracefluct.series import AnalyticSeries
from tracefluct.symbolic import exact_expectation_trace_power, trace_power_polynomial


@lru_cache(maxsize=None)
def full_polynomial(n, k):
    """The N-site oracle polynomial, shared by both laws (seconds to build at k = 12)."""
    return trace_power_polynomial(n, k)


def direct_boundary_correction(n, k, alpha, dist):
    """Oracle: the boundary-window defect from the full N-site polynomial."""
    poly = full_polynomial(n, k)
    parts = []
    for beta, count in profile_counts(k).items():
        if beta.weight == 0:
            continue
        ex = float(dist.counts_moment([c for _, c in beta.pairs]))
        if ex == 0:
            continue
        for iota in list(range(1, k)) + list(range(n - k + 1, n + 1)):
            a = 0
            if 1 <= iota and iota + beta.span <= n:
                a = poly.coefficient(beta, iota)
            w = math.prod((iota + h) ** (-alpha * c) for h, c in beta.pairs)
            parts.append((a - count) * ex * w)
    return math.fsum(parts)


DEG12_ROW = (0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)


def table_entries(table):
    """Yield ((profile pairs, field, depth), value) over a profile table's counts and histograms."""
    for pairs, (count, below, above) in record_rows(table).items():
        for field, hist in (("count", (count,)), ("below", below), ("above", above)):
            for d, v in enumerate(hist):
                yield (pairs, field, d), v


# -------------------------------------------------------------- row tables


@pytest.mark.parametrize("row", [(0.5, 1, 1, -2, 2), DEG12_ROW], ids=["mixed", "deg12"])
def test_row_table_is_linear_in_the_row(row):
    want = Counter()
    for l, c in enumerate(row):
        for key, v in table_entries(_profile_table(_unit_row(l))):
            want[key] += c * v
    got = {key: v for key, v in table_entries(_profile_table(row)) if v}
    assert got == pytest.approx({key: v for key, v in want.items() if v}, rel=1e-15)


def test_series_expansion_walks_the_row_once():
    f = AnalyticSeries.polynomial(DEG12_ROW)  # float coefficients
    _profile_table.cache_clear()
    series_expansion(f, 30, 0.2, uniform_sqrt3())
    assert _profile_table.cache_info().misses == 1
    # an integer-valued float row shares the integer row's cache entry: it must stay exact
    assert all(type(c) is int for c in _profile_table(DEG12_ROW).count)


# ---------------------------------------------------------------- constants


def test_flat_free_constants_values():
    # the linear and constant terms of Tr H^k come from its flat-free paths alone
    for k, want in [(2, (2.0, -2.0)), (4, (6.0, -10.0)), (3, (0.0, 0.0)), (0, (1.0, 0.0))]:
        rep = power_expansion(k, 30, 0.5, rademacher())
        assert (rep.linear_coeff, rep.constant_coeff) == want


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_flat_free_constants_vs_dense_trace(k):
    rep = power_expansion(k, 2 * k + 2, 0.5, rademacher())
    n = 8
    h = np.diag(np.zeros(n)) + np.eye(n, k=1) + np.eye(n, k=-1)
    dense = np.trace(np.linalg.matrix_power(h, k))
    assert rep.linear_coeff * n + rep.constant_coeff == int(round(dense))


def test_power_sum_coefficient_examples():
    assert power_expansion(4, 30, 0.5, rademacher()).powersum_coeffs[2] == 8
    assert power_expansion(2, 30, 0.5, uniform_sqrt3()).powersum_coeffs[2] == 1
    # weight 4 at k=4 is the all-flat path; fourth moment 9/5
    assert power_expansion(4, 30, 0.5, uniform_sqrt3()).powersum_coeffs[4] == 1.8


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("dist", [rademacher(), uniform_sqrt3()], ids=["rad", "uni"])
def test_first_order_coefficient_vanishes(k, dist):
    assert power_expansion(k, 2 * k + 2, 0.5, dist).powersum_coeffs[1] == 0


@pytest.mark.parametrize("k", range(1, 11))
def test_coefficient_parity(k):
    coeffs = power_expansion(k, 2 * k + 2, 0.5, uniform_sqrt3()).powersum_coeffs
    for j in range(1, k + 1):
        if (k - j) % 2 == 1:
            assert coeffs[j] == 0


# --------------------------------------------------------------- power sums


def test_power_partial_sum_values():
    assert power_partial_sum(1, 3, 0.5) == 1.0
    h100 = sum(1.0 / i for i in range(1, 101))
    assert power_partial_sum(100, 2, 0.5) == pytest.approx(h100, rel=1e-14)


def compensated_power_sum(n, j, alpha):
    """Oracle: sum_{i<=n} i^(-j*alpha) from pow on each site, summed exactly rounded."""
    i = np.arange(1, n + 1, dtype=float)
    return math.fsum(i ** (-j * alpha))


def compensated_placement(row, n, alpha, dist):
    """Oracle: the placement correction from pow-built collapse defects, each summed by fsum."""
    i = np.arange(1, n + 1, dtype=float)
    parts = []
    for pairs, (count, _, _) in record_rows(_profile_table(row)).items():
        beta = MultiIndex(pairs)
        ex = dist.counts_moment([c for _, c in pairs])
        if len(pairs) <= 1 or ex == 0:
            continue
        placed = np.ones(n)
        for h, c in pairs:
            placed = placed * (i + h) ** (-alpha * c)
        parts.append(count * float(ex) * math.fsum(placed - i ** (-alpha * beta.weight)))
    return math.fsum(parts)


@pytest.mark.parametrize("n", [10**3, 10**5])
@pytest.mark.parametrize("j", range(6, 13))
def test_power_partial_sum_matches_hurwitz_zeta(j, n):
    # j * alpha > 1: S_j(N) = zeta(j*alpha) - zeta(j*alpha, N + 1)
    want = float(zeta(j * 0.2) - zeta(j * 0.2, n + 1))
    assert power_partial_sum(n, j, 0.2) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [10**3, 10**5])
@pytest.mark.parametrize("j", range(1, 6))
def test_power_partial_sum_matches_compensated_sum(j, n):
    # j * alpha <= 1, where the zeta values diverge
    assert power_partial_sum(n, j, 0.2) == pytest.approx(
        compensated_power_sum(n, j, 0.2), rel=1e-13)


@pytest.mark.parametrize("dist", [rademacher(), uniform_sqrt3()], ids=["rad", "uni"])
def test_deg12_site_sums_match_compensated_sums(dist):
    n, alpha = 10**5, 0.2
    rep = series_expansion(AnalyticSeries.polynomial(DEG12_ROW), n, alpha, dist)
    assert rep.placement == pytest.approx(compensated_placement(DEG12_ROW, n, alpha, dist),
                                          rel=1e-13)
    assert rep.powersums == pytest.approx(
        {j: compensated_power_sum(n, j, alpha) for j in range(1, 13)}, rel=1e-13)


def test_power_partial_sum_log_growth():
    # at j*alpha = 1 the sum grows like log N
    s_small = power_partial_sum(10**3, 2, 0.5)
    s_big = power_partial_sum(10**6, 2, 0.5)
    assert abs((s_big - s_small) - math.log(10**3)) < 0.01


def test_power_partial_sum_bounded_when_convergent():
    alpha, j = 0.8, 2
    s = power_partial_sum(10**5, j, alpha)
    assert s <= 1.0 + 1.0 / (j * alpha - 1.0)
    assert power_partial_sum(10**4, j, alpha) <= s  # monotone


@settings(max_examples=60, deadline=None)
@given(s=st.floats(min_value=0.0, max_value=4.0, exclude_min=True),
       n=st.one_of(st.integers(1, _HEAD), st.integers(_HEAD + 1, 20_000)))
def test_power_partial_sum_matches_fsum(s, n):
    # the head of _HEAD sites plus the Euler-Maclaurin tail, against every site summed exactly
    want = math.fsum(np.arange(1, n + 1, dtype=float) ** -s)
    assert power_partial_sum(n, 1, s) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("s", [1.2, 2.4])
def test_power_sum_tail_matches_hurwitz_zeta_at_large_n(s):
    n = 10**9
    (got,), (err,) = _power_sum_tail(np.array([s]), _HEAD, n)
    assert got == pytest.approx(float(zeta(s, _HEAD + 1) - zeta(s, n + 1)), rel=1e-13)
    assert 0.0 < err < 1e-28


@pytest.mark.parametrize("s", [0.3, 1.0, 2.0])
def test_power_sum_tail_remainder_bound_holds(s):
    # from a = 4 the Euler-Maclaurin remainder is far above rounding, and must stay under its bound
    (got,), (err,) = _power_sum_tail(np.array([s]), 4, 1000)
    want = math.fsum(np.arange(5, 1001, dtype=float) ** -s)
    assert 1e-12 < err < 1e-8
    assert abs(got - want) <= err


@pytest.mark.parametrize("n", [1, 7, _HEAD])
def test_power_sums_up_to_the_head_are_direct(n):
    got, err = _power_sum_tail(np.array([0.4, 1.0, 2.5]), _HEAD, n)
    assert got.tolist() == err.tolist() == [0.0, 0.0, 0.0]
    want = math.fsum(np.arange(1, n + 1, dtype=float) ** -0.4)
    assert power_partial_sum(n, 2, 0.2) == pytest.approx(want, rel=1e-15)


def test_exact_mean_memory_does_not_grow_with_n():
    args = (14, 0.2, uniform_sqrt3())
    exact_mean_trace_power(30, *args)  # builds the row's profile table, which N does not touch
    tracemalloc.start()
    try:
        val = exact_mean_trace_power(10**9, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(val) and peak < 2e6


def test_divergent_power_cutoff():
    assert divergent_power_cutoff(0.26) == 3
    assert divergent_power_cutoff(0.3) == 3
    assert divergent_power_cutoff(0.25) == 4   # boundary j*alpha == 1 included
    assert divergent_power_cutoff(0.5) == 2
    assert divergent_power_cutoff(0.8) == 1
    assert divergent_power_cutoff(2.0) == 0


# ---------------------------------------------------------------- boundary


def test_boundary_trivial_cases():
    assert power_expansion(1, 30, 0.5, rademacher()).boundary == 0.0
    assert power_expansion(2, 10, 0.5, rademacher()).boundary == 0.0
    with pytest.raises(ValueError, match="N > 2k"):
        power_expansion(4, 8, 0.5, rademacher())


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 12])
@pytest.mark.parametrize("dist", [rademacher(), uniform_sqrt3()], ids=["rad", "uni"])
def test_boundary_matches_direct_window_sum(k, dist):
    # N = 2k + 1 is the smallest N the fold admits, where the two windows come closest
    smallest = (2 * k + 1,) if k <= 8 else ()
    for n in smallest + ((2 * k + 2, 25, 40) if k <= 6 else (2 * k + 2, 40)):
        got = power_expansion(k, n, 0.45, dist).boundary
        want = direct_boundary_correction(n, k, 0.45, dist)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("row", [(0, 0, 1) + (0,) * 10, (0, 0, 1, 0, 1) + (0,) * 9],
                         ids=["x2-deg12", "x2+x4-deg13"])
@pytest.mark.parametrize("dist", [rademacher(), uniform_sqrt3()], ids=["rad", "uni"])
def test_trailing_zero_coefficients_leave_the_fold_unchanged(row, dist):
    # a truncated series can end in zeros; the windows are sized by the profiles, not the row
    top = max(l for l, c in enumerate(row) if c)
    for n in (2 * top + 1, 2 * top + 5, 11):
        got, want = (_fold(r, n, 0.3, dist, "f") for r in (row, row[:top + 1]))
        assert (got.boundary, got.placement, got.reconstructed_mean, got.remainder_limit,
                got.site_sum_error) == (want.boundary, want.placement, want.reconstructed_mean,
                                        want.remainder_limit, want.site_sum_error)


def test_boundary_left_window_stable_right_window_decays():
    k, alpha, dist = 4, 0.5, rademacher()
    limit = power_expansion(k, 10**12, alpha, dist).boundary  # the right window is below 1e-5
    b20, b40, b800 = (power_expansion(k, n, alpha, dist).boundary for n in (20, 40, 800))
    # the left-window part is N-independent; the rest shrinks toward 0
    assert abs(b800 - limit) < abs(b40 - limit) < abs(b20 - limit)
    assert abs(b800 - limit) < 5e-3


# --------------------------------------------------------------- placement


def test_placement_trivial_cases():
    # single-level profiles carry no collapse error
    assert power_expansion(2, 50, 0.5, uniform_sqrt3()).placement == 0.0
    # all surviving profiles at k=4 under a symmetric law are single-level
    for n in (10, 100, 1000):
        assert power_expansion(4, n, 0.5, rademacher()).placement == 0.0


def test_placement_bound_and_monotonicity():
    k, alpha, d = 6, 0.5, uniform_sqrt3()
    prev = None
    for n in (10**2, 10**3, 10**4):
        val = power_expansion(k, n, alpha, d).placement
        if prev is not None:
            assert val <= prev + 1e-15  # decreasing: the collapse defect accumulates
        prev = val
    # successive values differ by less than the remaining tail allows
    assert abs(power_expansion(k, 10**4, alpha, d).placement
               - power_expansion(k, 10**3, alpha, d).placement) < 1e-3


# ------------------------------------------------------------- exact means


def test_exact_mean_k1_and_k2():
    assert exact_mean_trace_power(100, 1, 0.5, rademacher()) == 0.0
    h100 = sum(1.0 / i for i in range(1, 101))
    got = exact_mean_trace_power(100, 2, 0.5, rademacher())
    assert got == pytest.approx(198 + h100, rel=1e-13)


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("dist", [
    rademacher(), uniform_sqrt3(), two_point(2, Fraction(-1, 2), Fraction(1, 5)),
], ids=["rad", "uni", "two"])
def test_exact_mean_matches_symbolic(k, alpha, dist):
    for n in (2 * k + 2, 30):
        fast = exact_mean_trace_power(n, k, alpha, dist)
        oracle = exact_expectation_trace_power(n, k, alpha, dist)
        assert fast == pytest.approx(oracle, rel=1e-11, abs=1e-11)


def test_exact_mean_k4_alpha03():
    n = 30
    fast = exact_mean_trace_power(n, 4, 0.3, rademacher())
    oracle = exact_expectation_trace_power(n, 4, 0.3, rademacher())
    assert abs(fast - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_exact_mean_large_n_runs_fast():
    val = exact_mean_trace_power(10**5, 4, 0.3, rademacher())
    assert np.isfinite(val)


@pytest.mark.parametrize("dist, k, want", [
    (rademacher(), 4, 613355.8174626197),
    (rademacher(), 8, 7434505.550489189),
    (rademacher(), 12, 103119809.75929613),
    (uniform_sqrt3(), 4, 613392.2674718869),
    (uniform_sqrt3(), 8, 7438232.758182697),
    (uniform_sqrt3(), 12, 103292590.61435677),
], ids=["rad-4", "rad-8", "rad-12", "uni-4", "uni-8", "uni-12"])
def test_exact_mean_large_n_values(dist, k, want):
    # values of the direct O(N * #profiles) placed-weight sum the fold replaced
    assert exact_mean_trace_power(10**5, k, 0.2, dist) == pytest.approx(want, rel=1e-12)


def test_series_mean_large_n_value():
    # the degree-12 reference mean of the benchmark (bench/reference.json)
    f = AnalyticSeries.polynomial([0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    want = 141053231.80054912
    d = uniform_sqrt3()
    assert exact_mean_trace_f(f, 10**5, 0.2, d) == pytest.approx(want, rel=1e-12)
    assert series_expansion(f, 10**5, 0.2, d).reconstructed_mean == pytest.approx(want, rel=1e-12)


# ----------------------------------------------------------------- reports


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_power_report_identity(k):
    n, alpha, d = 30, 0.35, uniform_sqrt3()
    rep = power_expansion(k, n, alpha, d)
    oracle = exact_expectation_trace_power(n, k, alpha, d)
    assert rep.reconstructed_mean == pytest.approx(oracle, rel=1e-11)
    assert rep.reconstructed_mean == pytest.approx(
        exact_mean_trace_power(n, k, alpha, d), rel=1e-13)
    assert rep.powersum_coeffs.get(1, 0.0) == 0.0


def test_series_report_x2():
    # quadratic: growing part is 2N - 2 + eta^2 * S_2(N)
    f = AnalyticSeries.polynomial([0, 0, 1])
    rep = series_expansion(f, 10**4, 0.3, rademacher())
    assert rep.linear_coeff == 2.0
    assert rep.constant_coeff == -2.0
    assert rep.powersum_coeffs[2] == 1.0
    assert rep.m_cutoff == 3
    # degree <= cutoff: the remainder is purely constant + boundary + placement
    assert rep.remainder == pytest.approx(rep.constant_coeff + rep.boundary + rep.placement)
    assert rep.boundary == 0.0 and rep.placement == 0.0
    assert rep.leading_coefficients() == {0: 2.0, 1: 0.0, 2: 1.0, 3: 0.0}


def test_series_report_identity_vs_power_sums():
    f = AnalyticSeries.polynomial([0.5, 0, 1, 0, 2])
    n, alpha, d = 40, 0.26, uniform_sqrt3()
    rep = series_expansion(f, n, alpha, d)
    direct = math.fsum(
        c * exact_mean_trace_power(n, l, alpha, d)
        for l, c in enumerate(f.coeffs) if c
    )
    assert rep.reconstructed_mean == pytest.approx(direct, rel=1e-12)
    assert rep.reconstructed_mean == pytest.approx(
        exact_mean_trace_f(f, n, alpha, d), rel=1e-12)


def test_series_report_exponential_truncation():
    f = AnalyticSeries.exponential(1 / 8)
    n, alpha, d = 30, 0.5, rademacher()
    rep = series_expansion(f, n, alpha, d, tail_tol=1e-9)
    assert rep.tail_bound <= 1e-9
    direct = math.fsum(
        f.coefficient(l) * exact_expectation_trace_power(n, l, alpha, d)
        for l in range(rep.truncation_degree + 1)
    )
    assert rep.reconstructed_mean == pytest.approx(direct, rel=1e-10)


def test_series_report_remainder_trend():
    # the bounded part settles as N grows
    f = AnalyticSeries.polynomial([0, 0, 1, 0, 1])
    d = rademacher()
    rems = [series_expansion(f, n, 0.26, d).remainder for n in (10**3, 10**4, 10**5)]
    gaps = [abs(rems[1] - rems[0]), abs(rems[2] - rems[1])]
    assert gaps[1] < gaps[0]  # Cauchy trend


@pytest.mark.parametrize("dist", [rademacher(), uniform_sqrt3()], ids=["rad", "uni"])
def test_remainder_limit_x2(dist):
    # E Tr H^2 = 2N - 2 + E X^2 S_2(N), and S_2(N) -> zeta(1.2) at alpha = 0.6
    rep = series_expansion(AnalyticSeries.polynomial([0, 0, 1]), 100, 0.6, dist)
    assert rep.remainder_limit == pytest.approx(-2.0 + float(zeta(1.2)), rel=1e-12)


def test_remainder_limit_is_approached():
    f, d = AnalyticSeries.polynomial(DEG12_ROW), uniform_sqrt3()
    reps = [series_expansion(f, n, 0.2, d) for n in (10**3, 10**5, 10**7, 10**9)]
    limit = reps[0].remainder_limit
    assert all(r.remainder_limit == pytest.approx(limit, rel=1e-14) for r in reps)
    gaps = [abs(r.remainder - limit) for r in reps]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # the slowest piece is c_6 S_6: the gap shrinks like N^(1 - 6 alpha), 10^-0.4 per two decades
    assert gaps[3] / gaps[2] == pytest.approx(100 ** (1 - 6 * 0.2), rel=0.01)


def test_report_to_dict_roundtrip():
    rep = power_expansion(4, 30, 0.5, rademacher())
    d = rep.to_dict()
    assert d["kind"] == "power"
    assert d["reconstructed_mean"] == rep.reconstructed_mean
    assert set(d["powersum_coeffs"]) == {"1", "2", "3", "4"}
