"""Analytic test functions given by Taylor coefficients around the origin.

A series is classified into one of three fluctuation cases:

* ``A`` -- general coefficients (critical decay exponent 1/2),
* ``B`` -- even coefficients only (critical exponent 1/4),
* ``C`` -- odd coefficients only, with the linear coefficient tuned to
  cancel the single-flat contribution of the higher odd powers
  (critical exponent 1/6).

Polynomials are classified automatically; infinite series carry an
explicit tag.  The convergence radius must exceed ``bound + 2`` for the
operator norm of the series to converge on the operators built here;
that check happens where a distribution is known.

A polynomial is summed exactly.  Every sum over an infinite series (the
truncation tail, the pointwise value, the case A kernel) is one walk,
``_certified_sum``; zero coefficients are allowed anywhere.  It skips
exact zeros and ends at a ratio below 1/2 between consecutive nonzero
magnitudes (closing with the geometric tail bound), at a nonzero
magnitude below 1e-300, or after ``_MAX_TERMS`` zeros in a row (a
numerically finite series such as exp(0*x)).  So ``evaluate`` refuses an x whose
terms c_j x^j never fall below ratio 1/2 (about |x| >= radius/2 for c_j = r^-j).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .combinatorics import single_flat_count

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"

#: critical decay exponent per fluctuation case
ALPHA_CRITICAL = {CASE_A: 1 / 2, CASE_B: 1 / 4, CASE_C: 1 / 6}

_MAX_TERMS = 300
_MAX_TRUNCATION_DEGREE = 200


def _exponential_coefficient(rate: float, j: int) -> float:
    """rate^j / j!, evaluated in log space to survive large j."""
    if rate == 0.0:
        return 1.0 if j == 0 else 0.0
    if j == 0:
        return 1.0
    mag = math.exp(j * math.log(abs(rate)) - math.lgamma(j + 1))
    return -mag if (rate < 0 and j % 2 == 1) else mag


def _certified_sum(terms: Iterable[float], tol: float, what: str) -> tuple[float, float]:
    """(partial, tail) by the module's one rule.  At a ratio r < 1/2 the tail bound |t| r / (1 - r)
    holds while the ratios keep falling; it ends the walk once <= tol * max(1, |partial|)."""
    partial = prev = 0.0
    zeros = nonzero = 0
    for term in terms:
        if term == 0.0:
            zeros += 1
            if zeros == _MAX_TERMS:
                return partial, 0.0
            continue
        zeros = 0
        partial += term
        size = abs(term)
        if prev:
            if size < 1e-300:
                return partial, 0.0
            ratio = size / prev
            if ratio < 0.5:
                tail = size * ratio / (1.0 - ratio)
                if tail <= tol * max(1.0, abs(partial)):
                    return partial, tail
        prev = size
        nonzero += 1
        if nonzero == _MAX_TERMS:
            break
    raise ValueError(f"{what} did not enter a geometric regime within {_MAX_TERMS} "
                     "nonzero terms; it is not certified summable")


def classify_polynomial(coeffs: Sequence[float]) -> str:
    """Fluctuation case of a polynomial from its coefficient pattern."""
    odd = [c for j, c in enumerate(coeffs) if j % 2 == 1]
    even = [c for j, c in enumerate(coeffs) if j % 2 == 0]
    if any(even) and not any(odd):
        return CASE_B
    if any(odd) and not any(even):
        c1 = coeffs[1] if len(coeffs) > 1 else 0.0
        cancel = -sum(
            coeffs[j] * single_flat_count(j) for j in range(3, len(coeffs), 2)
        )
        if cancel != 0 and math.isclose(c1, cancel, rel_tol=1e-12, abs_tol=1e-12):
            return CASE_C
    return CASE_A


@dataclass(frozen=True)
class AnalyticSeries:
    """Taylor series sum_j c_j x^j with radius ``radius`` around the origin.

    ``degree`` is None for a genuinely infinite series; then ``coeff_fn``
    supplies the coefficients.  ``case`` is the fluctuation case tag.
    """

    label: str
    radius: float
    case: str
    degree: int | None = None
    coeffs: tuple[float, ...] | None = None
    coeff_fn: Callable[[int], float] | None = None

    def __post_init__(self) -> None:
        if self.case not in (CASE_A, CASE_B, CASE_C):
            raise ValueError(f"unknown case tag {self.case!r}")
        if (self.degree is None) == (self.coeffs is not None):
            raise ValueError("provide either a finite coefficient tuple or a coeff_fn")
        if self.coeffs is not None:
            if self.case == CASE_B and any(
                c != 0 for j, c in enumerate(self.coeffs) if j % 2 == 1
            ):
                raise ValueError("case B requires vanishing odd coefficients")
            if self.case == CASE_C:
                if any(c != 0 for j, c in enumerate(self.coeffs) if j % 2 == 0):
                    raise ValueError("case C requires vanishing even coefficients")
                if classify_polynomial(self.coeffs) != CASE_C:
                    raise ValueError(
                        "case C requires the linear coefficient to cancel the "
                        "single-flat contribution of the odd powers"
                    )

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Sequence[float], label: str | None = None,
                   case: str | None = None) -> "AnalyticSeries":
        cs = tuple(float(c) for c in coeffs)
        while cs and cs[-1] == 0.0:
            cs = cs[:-1]
        if not cs:
            cs = (0.0,)
        if label is None:
            label = "poly:" + ",".join(f"{c:g}" for c in cs)
        return cls(
            label=label,
            radius=math.inf,
            case=case if case is not None else classify_polynomial(cs),
            degree=len(cs) - 1,
            coeffs=cs,
        )

    @classmethod
    def monomial(cls, power: int, scale: float = 1.0) -> "AnalyticSeries":
        coeffs = [0.0] * power + [scale]
        return cls.polynomial(coeffs, label=f"{scale:g}*x^{power}" if scale != 1.0 else f"x^{power}")

    @classmethod
    def exponential(cls, rate: float, label: str | None = None) -> "AnalyticSeries":
        """exp(rate*x); entire, so any operator bound is admissible."""
        return cls(
            label=label or f"exp({rate:g}x)",
            radius=math.inf,
            case=CASE_A,
            coeff_fn=lambda j: _exponential_coefficient(rate, j),
        )

    # -- coefficient access --------------------------------------------------

    def coefficient(self, j: int) -> float:
        if j < 0:
            raise ValueError("coefficient index must be >= 0")
        if self.coeffs is not None:
            return self.coeffs[j] if j <= self.degree else 0.0
        return self.coeff_fn(j)

    def coefficients_upto(self, k: int) -> list[float]:
        return [self.coefficient(j) for j in range(k + 1)]

    @property
    def is_polynomial(self) -> bool:
        return self.degree is not None

    # -- sums ------------------------------------------------------------------

    def _weighted_sum(self, weight: Callable[[int], float], tol: float,
                      start: int = 0, step: int = 1) -> float:
        """sum of c_j * weight(j) over j = start, start + step, ...: exact over a polynomial's
        row, else walked until the certified tail is at most ``tol`` of the sum; weight(j)
        is not evaluated where c_j = 0, so a zero cannot overflow."""
        if self.is_polynomial:
            return math.fsum(self.coefficient(j) * weight(j)
                             for j in range(start, self.degree + 1, step))
        terms = (c * weight(j) if (c := self.coefficient(j)) else 0.0
                 for j in itertools.count(start, step))
        return _certified_sum(terms, tol, self.label)[0]

    def tail_majorant(self, k: int, x: float) -> float:
        """Upper bound on sum_{j>k} |c_j| x^j: walked terms plus certified tail; 0 for polynomials."""
        if self.is_polynomial:
            return 0.0
        terms = (abs(c) * x**j if (c := self.coefficient(j)) else 0.0 for j in itertools.count(k + 1))
        return sum(_certified_sum(terms, math.inf, self.label))

    def truncation_degree(self, x: float, tol: float, scale: float = 1.0) -> int:
        """Smallest degree K with scale * tail_majorant(K, x) <= tol."""
        if self.is_polynomial:
            return self.degree
        for k in range(_MAX_TRUNCATION_DEGREE + 1):
            if scale * self.tail_majorant(k, x) <= tol:
                return k
        raise ValueError(
            f"no truncation of {self.label} at x={x:g} meets tolerance {tol:g} "
            f"within degree {_MAX_TRUNCATION_DEGREE}"
        )

    def truncate(self, bound: float, tol: float, scale: float) -> tuple[list[float], float]:
        """(c_0..c_K, tail) for operators with |X| <= ``bound`` on ``scale`` sites.

        K is the smallest degree with tail = scale * tail_majorant(K, bound + 2) <= tol.
        """
        require_radius(self, bound)
        degree = self.truncation_degree(bound + 2.0, tol, scale=scale)
        return self.coefficients_upto(degree), scale * self.tail_majorant(degree, bound + 2.0)

    def evaluate(self, x: float) -> float:
        """Pointwise value, its certified tail below rounding; |x| must be inside the radius
        and, for an infinite series, where the terms reach a ratio below 1/2 (module docstring)."""
        if abs(x) >= self.radius:
            raise ValueError("argument outside the convergence radius")
        return self._weighted_sum(lambda j: x**j, 1e-17)


def require_radius(series: AnalyticSeries, bound: float) -> None:
    """Reject series whose radius does not dominate the operator norm bound."""
    if series.radius <= bound + 2.0:
        raise ValueError(
            f"series {series.label} has radius {series.radius:g} <= {bound + 2:g}; "
            "the operator series does not converge"
        )
