"""The exact mean of Tr H^k and its finite-N decomposition.

The mean splits into a linear-in-N part from flat-free walks, partial
power sums weighted by moment-dressed path counts, and two bounded
corrections (edge clipping and multi-site weight collapse).  The
assembly is an identity, not an asymptotic: it matches the symbolic
oracle to rounding error, and its cost does not depend on N.
"""

from tracefluct import (
    exact_expectation_trace_power,
    exact_mean_trace_power,
    power_expansion,
    series_expansion,
    AnalyticSeries,
    uniform_sqrt3,
)

dist = uniform_sqrt3()
alpha = 0.35

print("Decomposition of E[Tr H^6] at N=30, alpha=0.35, uniform law:")
rep = power_expansion(6, 30, alpha, dist)
print(f"  linear part     : {rep.linear_coeff:g} * N + {rep.constant_coeff:g}")
for j, c in sorted(rep.powersum_coeffs.items()):
    if c:
        print(f"  order-{j} power sum: coeff {c:.6g}, S_{j}(N) = {rep.powersums[j]:.6f}")
print(f"  boundary        : {rep.boundary:+.6f}")
print(f"  placement       : {rep.placement:+.6f}")
print(f"  assembled mean  : {rep.reconstructed_mean:.12f}")
print(f"  symbolic oracle : {exact_expectation_trace_power(30, 6, alpha, dist):.12f}")

print("\nThe same machinery at Monte Carlo scale (N = 10^6, k = 4):")
print(f"  E[Tr H^4] = {exact_mean_trace_power(10**6, 4, 0.3, dist):.6f}")

print("\nSeries aggregation for f(x) = x^4 + x^2 at alpha = 0.26:")
f = AnalyticSeries.polynomial([0, 0, 1, 0, 1])
for n in (10**3, 10**4, 10**5):
    rep = series_expansion(f, n, 0.26, dist)
    lead = rep.leading_coefficients()
    print(f"  N = {n:>6d}: growing part {lead[0]:g}*N "
          + " ".join(f"+ {c:g}*S_{j}(N)" for j, c in lead.items() if j and c)
          + f", remainder {rep.remainder:+.6f}")
