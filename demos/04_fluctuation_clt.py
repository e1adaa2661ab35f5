"""Fluctuations of Tr f(H) below the critical decay exponent.

Centered at the exact mean and divided by the square root of the
fluctuation scale g_t(N), the trace fluctuation approaches a centered
normal whose variance the package evaluates in closed form.  A moderate
ensemble is enough to see variance, skewness and kurtosis settle.
"""

from tracefluct import (
    AnalyticSeries,
    EnsembleConfig,
    clt_check,
    rademacher,
    run_ensemble,
    uniform_sqrt3,
)

# general (case A) function: alpha_c = 1/2, scale index t = 2*alpha
f = AnalyticSeries.monomial(3)
cfg = EnsembleConfig(alpha=0.3, dist=rademacher(), functions=(f,),
                     n_grid=(2000, 20_000), replicas=400, base_seed=41)
rep = clt_check(run_ensemble(cfg))
theory = rep.entry(f.label, cfg.n_grid[0]).sigma_sq_theory
print(f"x^3 under the sign law, alpha=0.3 (limiting sigma^2 = {theory:g}):")
for n in cfg.n_grid:
    e = rep.entry(f.label, n)
    print(f"  N={n:6d}: scaled variance {e.variance:8.3f} (ratio {e.variance_ratio:.3f}), "
          f"skew {e.skewness:+.3f}, excess kurtosis {e.excess_kurtosis:+.3f}")

# even (case B) function: alpha_c = 1/4, needs a law with fourth-moment excess
f2 = AnalyticSeries.monomial(2)
cfg2 = EnsembleConfig(alpha=0.2, dist=uniform_sqrt3(), functions=(f2,),
                      n_grid=(20_000,), replicas=400, base_seed=42)
e2 = clt_check(run_ensemble(cfg2)).entry(f2.label, 20_000)
print(f"\nx^2 under the uniform law, alpha=0.2 (limiting sigma^2 = {e2.sigma_sq_theory:g}):")
print(f"  N=20000: scaled variance {e2.variance:.3f} (ratio {e2.variance_ratio:.3f})")

# the same even function under the sign law is degenerate: x^2 has constant trace
cfg3 = EnsembleConfig(alpha=0.2, dist=rademacher(), functions=(f2,),
                      n_grid=(20_000,), replicas=400, base_seed=43)
e3 = clt_check(run_ensemble(cfg3)).entry(f2.label, 20_000)
print(f"\nx^2 under the sign law is a point mass: variance {e3.variance:.2e}, "
      f"limiting sigma^2 = {e3.sigma_sq_theory:g}, degenerate={e3.degenerate}")
