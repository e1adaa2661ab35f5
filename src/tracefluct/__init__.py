"""Trace statistics of the 1D discrete Schrodinger operator with random
decaying potential: exact path-combinatoric trace expansions, exact mean
decompositions, and Monte Carlo fluctuation experiments."""

from .combinatorics import (
    DEFAULT_ENUMERATION_CAP,
    LatticePath,
    MultiIndex,
    closed_path_count,
    enumerate_closed_paths,
    flat_profile,
    flat_weight_bound,
    flat_weight_count,
    profile_count,
    profile_counts,
    profile_windows,
    same_level_pair_count,
    single_flat_count,
)
from .distributions import (
    DistributionSpec,
    from_moments,
    rademacher,
    two_point,
    uniform_sqrt3,
    uniform_symmetric,
)
from .series import ALPHA_CRITICAL, AnalyticSeries, classify_polynomial
from .hamiltonian import (
    PotentialSample,
    derive_seed,
    eigenvalues,
    sample_potential,
    trace_moments,
)
from .symbolic import (
    SiteMonomial,
    TracePolynomial,
    coefficient_identity_report,
    diag_entry_polynomial,
    exact_expectation_trace_power,
    trace_power_polynomial,
    verify_interior_identity,
)
from .expansion import (
    ExpansionReport,
    divergent_power_cutoff,
    exact_mean_trace_f,
    exact_mean_trace_power,
    power_expansion,
    power_partial_sum,
    series_expansion,
)
from .montecarlo import (
    CltReport,
    EnsembleConfig,
    EnsembleResult,
    ScalingFunction,
    clt_check,
    convergence_check,
    joint_correlation,
    normality_stats,
    run_ensemble,
    sigma_sq_for,
)
from .acceptance import run_criteria

__version__ = "0.1.0"
