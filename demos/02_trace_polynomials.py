"""Exact trace polynomials and the interior coefficient identity.

Tr H^k is an integer-coefficient polynomial in the site potentials.
Away from the edges each coefficient equals a pure path count; at the
edges clipping can only lower it.  The symbolic expansion is the oracle
for both statements, and it reproduces the numeric trace exactly.
"""

from tracefluct import (
    MultiIndex,
    profile_count,
    rademacher,
    sample_potential,
    trace_moments,
    trace_power_polynomial,
    verify_interior_identity,
)

poly = trace_power_polynomial(8, 4)
print("Tr H^4 over 8 sites:")
print(f"  constant term (flat-free walks): {poly.constant}")
for mono in sorted(poly.terms, key=lambda m: (m.degree, m.sites))[:6]:
    print(f"  {str(mono):14s} coefficient {poly.terms[mono]}")
print(f"  ... {poly.total_terms()} monomials in total")

print("\nInterior vs boundary coefficients of V(n)^1... at k=3, N=20:")
delta = MultiIndex.delta()
poly3 = trace_power_polynomial(20, 3)
for iota in (1, 2, 3, 10):
    tag = "interior" if 3 <= iota <= 17 else "boundary"
    print(f"  site {iota:2d} ({tag}): coefficient {poly3.coefficient(delta, iota)} "
          f"vs path count {profile_count(3, delta)}")

report = verify_interior_identity(20, 6)
print(f"\nIdentity check at N=20, k=6: {report.checked_interior} interior and "
      f"{report.checked_boundary} boundary placements, "
      f"{len(report.interior_violations) + len(report.boundary_violations)} violations")

s = sample_potential(12, 0.4, rademacher(), seed=2)
exact = trace_power_polynomial(12, 6).evaluate(s)
numeric = trace_moments(s, 6)[6]
print(f"\nPolynomial vs banded numeric trace at N=12, k=6: "
      f"{exact:.12f} vs {numeric:.12f} (diff {abs(exact - numeric):.2e})")
