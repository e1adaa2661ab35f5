"""Exact trace polynomials of operator powers in formal site variables.

Tr(H^k) for the N-site tridiagonal operator is a polynomial in the site
potentials V(1)..V(N) with nonnegative integer coefficients: each
monomial counts the (start site, closed path) pairs whose walk stays
inside [1, N] and whose flat steps visit exactly the monomial's sites.
This module expands that polynomial exactly and is the ground-truth
oracle for every coefficient identity used elsewhere.  It is meant for
small N and k (see the caps); the large-N mean lives in
:mod:`tracefluct.expansion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from .combinatorics import (
    MultiIndex,
    enumerate_closed_paths,
    profile_count,
    profile_counts,
)
from .distributions import DistributionSpec

#: Default caps keeping the exhaustive expansion desk-scale.
DEFAULT_POWER_CAP = 12
DEFAULT_SITE_CAP = 64


@dataclass(frozen=True)
class SiteMonomial:
    """Product of site variables: ((site, exponent), ...) with sites increasing."""

    sites: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        positions = [s for s, _ in self.sites]
        if positions != sorted(set(positions)):
            raise ValueError("sites must be strictly increasing")
        if any(e < 1 for _, e in self.sites):
            raise ValueError("exponents must be >= 1")

    @classmethod
    def from_profile(cls, beta: MultiIndex, iota: int) -> "SiteMonomial":
        """Place a canonical profile with its lowest level at site ``iota``."""
        return cls(tuple((iota + h, c) for h, c in beta.pairs))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.sites)

    @property
    def min_site(self) -> int:
        return self.sites[0][0]

    @property
    def max_site(self) -> int:
        return self.sites[-1][0]

    def profile(self) -> MultiIndex:
        """The canonical profile of this monomial, iota recorded."""
        return MultiIndex.from_counts(dict(self.sites))

    def __str__(self) -> str:
        return "*".join(
            f"V({s})" if e == 1 else f"V({s})^{e}" for s, e in self.sites
        ) or "1"


def _check_caps(n_sites: int, k: int, power_cap: int | None, site_cap: int | None) -> None:
    pcap = DEFAULT_POWER_CAP if power_cap is None else power_cap
    scap = DEFAULT_SITE_CAP if site_cap is None else site_cap
    if k > pcap:
        raise ValueError(f"symbolic expansion for k={k} exceeds the power cap of {pcap}")
    if n_sites > scap:
        raise ValueError(f"symbolic expansion for N={n_sites} exceeds the site cap of {scap}")
    if n_sites < 1:
        raise ValueError("need at least one site")
    if k < 0:
        raise ValueError("power must be >= 0")


@dataclass
class TracePolynomial:
    """Integer-coefficient polynomial in the site variables V(1..N).

    ``constant`` is the flat-step-free contribution (the value at V == 0);
    ``terms`` maps each monomial to the number of (site, path) pairs
    producing it, so every stored coefficient is >= 1.
    """

    n_sites: int
    power: int
    constant: int
    terms: dict[SiteMonomial, int] = field(default_factory=dict)

    def coefficient(self, beta: MultiIndex, iota: int) -> int:
        """Coefficient of the profile ``beta`` placed with lowest site ``iota``."""
        if beta.weight == 0:
            raise ValueError("the empty profile addresses the constant term")
        if iota < 1 or iota + beta.span > self.n_sites:
            raise ValueError(
                f"placement at iota={iota} does not fit within [1, {self.n_sites}]"
            )
        return self.terms.get(SiteMonomial.from_profile(beta, iota), 0)

    def evaluate(self, potential) -> float:
        """Plug a concrete potential vector in; exact for exact inputs."""
        values = list(potential)
        if len(values) != self.n_sites:
            raise ValueError("potential length must equal the site count")
        total = self.constant
        for mono, coeff in self.terms.items():
            prod = coeff
            for site, exp in mono.sites:
                prod = prod * values[site - 1] ** exp
            total = total + prod
        return total

    def expectation(self, alpha: float, dist: DistributionSpec) -> float:
        """E[Tr H^k] under V(n) = X_n / n^alpha with X ~ dist."""
        if alpha <= 0:
            raise ValueError("the decay exponent must be positive")
        parts = [float(self.constant)]
        for mono, coeff in self.terms.items():
            m = 1.0
            for site, exp in mono.sites:
                mm = dist.moment(exp)  # raises if the law lacks this moment
                if mm == 0:
                    m = 0.0
                    break
                m *= float(mm) * site ** (-alpha * exp)
            if m != 0.0:
                parts.append(coeff * m)
        return math.fsum(parts)

    def total_terms(self) -> int:
        return len(self.terms)


@lru_cache(maxsize=None)
def _path_geometry(k: int, cap: int | None) -> tuple:
    """Per closed path: (sorted flat (level, count) pairs or None, min level, max level)."""
    out = []
    for p in enumerate_closed_paths(k, cap):
        ys = p.levels()
        flats = p.flat_levels()
        if flats:
            counts: dict[int, int] = {}
            for h in flats:
                counts[h] = counts.get(h, 0) + 1
            pairs = tuple(sorted(counts.items()))
        else:
            pairs = None
        out.append((pairs, min(ys), max(ys)))
    return tuple(out)


def trace_power_polynomial(n_sites: int, k: int, power_cap: int | None = None,
                           site_cap: int | None = None) -> TracePolynomial:
    """Exact expansion of Tr(H^k) over the N-site operator.

    Iterates (start site, closed path) pairs, keeping those whose walk
    stays inside [1, N]; the flat-step levels of a kept pair contribute
    one count to the corresponding site monomial.
    """
    _check_caps(n_sites, k, power_cap, site_cap)
    constant = 0
    terms: dict[tuple[tuple[int, int], ...], int] = {}
    for pairs, y_min, y_max in _path_geometry(k, power_cap):
        lo = max(1, 1 - y_min)
        hi = min(n_sites, n_sites - y_max)
        if hi < lo:
            continue
        if pairs is None:
            constant += hi - lo + 1
            continue
        for i in range(lo, hi + 1):
            key = tuple((i + h, c) for h, c in pairs)
            terms[key] = terms.get(key, 0) + 1
    poly = TracePolynomial(n_sites=n_sites, power=k, constant=constant)
    poly.terms = {SiteMonomial(key): v for key, v in terms.items()}
    return poly


def diag_entry_polynomial(n_sites: int, k: int, site: int, power_cap: int | None = None,
                          site_cap: int | None = None) -> TracePolynomial:
    """Exact expansion of the single diagonal entry (H^k)_{site,site}."""
    _check_caps(n_sites, k, power_cap, site_cap)
    if not 1 <= site <= n_sites:
        raise ValueError("site out of range")
    constant = 0
    terms: dict[SiteMonomial, int] = {}
    for pairs, y_min, y_max in _path_geometry(k, power_cap):
        if site + y_min < 1 or site + y_max > n_sites:
            continue
        if pairs is None:
            constant += 1
            continue
        mono = SiteMonomial(tuple((site + h, c) for h, c in pairs))
        terms[mono] = terms.get(mono, 0) + 1
    return TracePolynomial(n_sites=n_sites, power=k, constant=constant, terms=terms)


@dataclass
class InteriorIdentityReport:
    """Outcome of checking trace coefficients against pure path counts."""

    n_sites: int
    power: int
    interior_window: tuple[int, int]
    checked_interior: int = 0
    checked_boundary: int = 0
    #: (beta, iota, coefficient, path count) for interior coefficients != count
    interior_violations: list = field(default_factory=list)
    #: (beta, iota, coefficient, path count) for boundary coefficients > count
    boundary_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.interior_violations and not self.boundary_violations


def coefficient_identity_report(poly: TracePolynomial) -> InteriorIdentityReport:
    """Compare an expanded polynomial's coefficients against pure path counts.

    Placements whose lowest site lies in [k, N-k] must carry exactly the
    profile's closed-path count; all other placements may only fall short
    of it (edge clipping removes pairs, never adds them).
    """
    n_sites, k = poly.n_sites, poly.power
    report = InteriorIdentityReport(
        n_sites=n_sites, power=k, interior_window=(k, n_sites - k)
    )
    for beta, count in profile_counts(k).items():
        if beta.weight == 0:
            continue
        for iota in range(1, n_sites - beta.span + 1):
            coeff = poly.coefficient(beta, iota)
            if k <= iota <= n_sites - k:
                report.checked_interior += 1
                if coeff != count:
                    report.interior_violations.append((beta, iota, coeff, count))
            else:
                report.checked_boundary += 1
                if coeff > count:
                    report.boundary_violations.append((beta, iota, coeff, count))
    # completeness: every stored monomial must be dominated by its path count
    for mono, coeff in poly.terms.items():
        beta = mono.profile()
        if coeff > profile_count(k, beta):
            report.boundary_violations.append(
                (beta, mono.min_site, coeff, profile_count(k, beta))
            )
    return report


def verify_interior_identity(n_sites: int, k: int, power_cap: int | None = None,
                             site_cap: int | None = None) -> InteriorIdentityReport:
    """Expand Tr H^k and check every coefficient against its path count."""
    if n_sites <= 2 * k:
        raise ValueError("need N > 2k for a non-empty interior window")
    return coefficient_identity_report(trace_power_polynomial(n_sites, k, power_cap, site_cap))


def exact_expectation_trace_power(n_sites: int, k: int, alpha: float,
                                  dist: DistributionSpec, power_cap: int | None = None,
                                  site_cap: int | None = None) -> float:
    """Small-N oracle for E[Tr H^k]: expand symbolically, then take moments."""
    return trace_power_polynomial(n_sites, k, power_cap, site_cap).expectation(alpha, dist)
