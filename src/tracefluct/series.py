"""Analytic test functions given by Taylor coefficients around the origin.

A series is classified into one of three fluctuation cases:

* ``A`` -- general coefficients (leading weight 1, critical exponent 1/2),
* ``B`` -- even coefficients only (weight 2, critical exponent 1/4),
* ``C`` -- odd coefficients only, with the linear coefficient tuned to
  cancel the single-flat contribution of the higher odd powers
  (weight 3, critical exponent 1/6).

Polynomials are classified automatically; infinite series carry an
explicit tag.  The convergence radius must exceed ``bound + 2`` for the
operator norm of the series to converge on the operators built here;
that check happens where a distribution is known.

A polynomial is summed exactly.  An infinite series declares a closed-form
bound tail(k, x) >= sum_{j>k} |c_j| x^j when it is built: ``exponential``
from the falling term ratio |rate x|/j, ``cauchy`` from a Cauchy estimate
|c_j| <= m rho^-j (Ahlfors, *Complex Analysis*, ch. 4).  Every sum over an
infinite series (the truncation, the pointwise value, the case A amplitude)
takes the smallest degree K <= ``_MAX_TRUNCATION_DEGREE`` whose bound meets
its tolerance and sums c_0..c_K exactly, as for a polynomial.  Zero
coefficients are allowed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .combinatorics import single_flat_count

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"

#: flat weight w of each case's leading fluctuation sum_n n^(-w alpha) Y_n
LEADING_WEIGHT = {CASE_A: 1, CASE_B: 2, CASE_C: 3}

#: critical decay exponent per fluctuation case, 1/(2w)
ALPHA_CRITICAL = {case: 1 / (2 * w) for case, w in LEADING_WEIGHT.items()}

_MAX_TRUNCATION_DEGREE = 200


def _exponential_coefficient(rate: float, j: int) -> float:
    """rate^j / j!, evaluated in log space to survive large j; +-inf past the float range."""
    if rate == 0.0:
        return 1.0 if j == 0 else 0.0
    if j == 0:
        return 1.0
    try:
        mag = math.exp(j * math.log(abs(rate)) - math.lgamma(j + 1))
    except OverflowError:
        mag = math.inf
    return -mag if (rate < 0 and j % 2 == 1) else mag


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
    supplies the coefficients and ``tail_fn(k, x)`` bounds sum_{j>k} |c_j| x^j
    (built by ``exponential`` or ``cauchy``).  ``case`` is the fluctuation case tag.
    """

    label: str
    radius: float
    case: str
    degree: int | None = None
    coeffs: tuple[float, ...] | None = None
    coeff_fn: Callable[[int], float] | None = None
    tail_fn: Callable[[int, float], float] | None = None

    def __post_init__(self) -> None:
        if self.case not in (CASE_A, CASE_B, CASE_C):
            raise ValueError(f"unknown case tag {self.case!r}")
        if (self.degree is None) == (self.coeffs is not None):
            raise ValueError("provide either a finite coefficient tuple or a coeff_fn")
        if self.coeffs is None and (self.coeff_fn is None or self.tail_fn is None):
            raise ValueError("an infinite series needs a coeff_fn and its tail bound; "
                             "build it with exponential or cauchy")
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
        """exp(rate*x); entire, so any operator bound is admissible.

        With t_j = |c_j| x^j and q = |rate| x / (k + 2), every ratio t_j / t_{j-1} =
        |rate| x / j for j >= k + 3 is at most q, so the tail past k is at most
        t_{k+1} + t_{k+2} + t_{k+2} q / (1 - q) when q < 1.
        """
        if not math.isfinite(rate):
            raise ValueError(f"exp rate must be finite, got {rate!r}")

        def coeff(j: int) -> float:
            return _exponential_coefficient(rate, j)

        def tail(k: int, x: float) -> float:
            first, second = (abs(coeff(j)) * x**j for j in (k + 1, k + 2))
            q = abs(rate) * x / (k + 2)
            return (first + second) + second * q / (1.0 - q) if q < 1.0 else math.inf

        return cls(label=label or f"exp({rate:g}x)", radius=math.inf, case=CASE_A,
                   coeff_fn=coeff, tail_fn=tail)

    @classmethod
    def cauchy(cls, label: str, coeff_fn: Callable[[int], float], m: float, rho: float,
               case: str) -> "AnalyticSeries":
        """Infinite series whose coefficients obey the Cauchy estimate |c_j| <= m rho^-j
        for every j; its radius is rho and its tail past k at x < rho is at most
        m (x/rho)^(k+1) / (1 - x/rho)."""
        if not (0.0 <= m < math.inf and 0.0 < rho < math.inf):
            raise ValueError(f"a Cauchy estimate needs finite m >= 0 and rho > 0, got {m!r}, {rho!r}")

        def tail(k: int, x: float) -> float:
            q = x / rho
            return m * q ** (k + 1) / (1.0 - q) if q < 1.0 else math.inf

        return cls(label=label, radius=rho, case=case, coeff_fn=coeff_fn, tail_fn=tail)

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

    def _weighted_sum(self, weight: Callable[[int], float], x: float, tol: float) -> float:
        """fsum of c_j * weight(j) over j <= truncation_degree(x, tol), for weights with
        |weight(j)| <= x^j, so the dropped part is at most ``tol``; weight(j) is not
        evaluated where c_j = 0, so a zero cannot overflow."""
        degree = self.truncation_degree(x, tol)
        return math.fsum(c * weight(j) for j in range(degree + 1) if (c := self.coefficient(j)))

    def tail_majorant(self, k: int, x: float) -> float:
        """Upper bound on sum_{j>k} |c_j| x^j for x >= 0 (inf where none is known);
        0 for polynomials."""
        return 0.0 if self.is_polynomial else self.tail_fn(k, x)

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
        """Pointwise value, |x| inside the radius; an infinite series drops at most 1e-17."""
        if abs(x) >= self.radius:
            raise ValueError("argument outside the convergence radius")
        return self._weighted_sum(lambda j: x**j, abs(x), 1e-17)


def require_radius(series: AnalyticSeries, bound: float) -> None:
    """Reject series whose radius does not dominate the operator norm bound."""
    if series.radius <= bound + 2.0:
        raise ValueError(
            f"series {series.label} has radius {series.radius:g} <= {bound + 2:g}; "
            "the operator series does not converge"
        )
