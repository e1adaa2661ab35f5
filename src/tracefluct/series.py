"""Analytic test functions given by Taylor coefficients around the origin.

A series' fluctuation case is its leading weight w, the fewest flat steps of
a path profile with a nonzero amplitude (critical exponent 1/(2w)); the
constant term carries no weight, so it never changes the case:

* ``A`` -- w = 1: sum_{odd j} c_j single_flat_count(j) != 0,
* ``B`` -- w = 2: that sum is 0 and some c_j != 0 at an even j >= 2,
* ``C`` -- w = 3: that sum is 0 and only odd powers are present.

Polynomials are classified automatically; infinite series carry an
explicit tag.  ``truncate`` is the one route from a series to an operator
row: it takes the law, so it checks that the convergence radius exceeds
x = bound + 2, the operator norm, and names the law when it refuses.

A polynomial is summed exactly.  An infinite series declares a closed-form
bound tail(k, x) >= sum_{j>k} |c_j| x^j when it is built: ``exponential``
from the falling term ratio |rate x|/j, ``cauchy`` from a Cauchy estimate
|c_j| <= m rho^-j (Ahlfors, *Complex Analysis*, ch. 4).  Every sum over an
infinite series takes the smallest degree K <= ``_MAX_TRUNCATION_DEGREE``
whose bound meets its tolerance and sums c_0..c_K exactly, as for a
polynomial: the operator row at x = bound + 2, the pointwise value at |x|,
and the limiting variance's amplitudes at the one x = 3, since no closed
l-path count exceeds 3^l.  Zero coefficients are allowed anywhere.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .combinatorics import single_flat_count
from .distributions import DistributionSpec

CASE_A = "A"
CASE_B = "B"
CASE_C = "C"

#: flat weight w of each case's leading fluctuation sum_n n^(-w alpha) Y_n
LEADING_WEIGHT = {CASE_A: 1, CASE_B: 2, CASE_C: 3}

#: critical decay exponent per fluctuation case, 1/(2w)
ALPHA_CRITICAL = {case: 1 / (2 * w) for case, w in LEADING_WEIGHT.items()}

_MAX_TRUNCATION_DEGREE = 200


def _exp_rounded_up(terms: tuple[float, ...]) -> float:
    """e^(t_1 + .. + t_n) rounded up, n = 3 or 4, from terms within 1.51 eps |t_i| + 2^-1074.

    With eps = 2^-52 and S = |t_1| + .. + |t_n|, the n - 1 additions add 2^-53 (1 + 3 eps) S each,
    so the exponent is off by D <= (n/2 + 1.02) eps S + 2^-1072: e^D <= 1 + (n/2 + 1.03) eps S
    + 2^-1071 for S < 1e12.  Formed from the rounded terms, 1 + n (S + 4) eps is still
    >= 1 + 0.99 n eps S + 11 eps, which covers e^D for n >= 3.  A faithful exp is at most one
    step below e^arg, so the inner nextafter gives >= e^arg; the outer rounds the product up.
    """
    arg, size = sum(terms), sum(map(abs, terms))
    if arg > 709.78 or size >= 1e12:  # e^arg is past the float range, or S past the proof's
        return math.inf
    grow = 1.0 + len(terms) * (size + 4.0) * sys.float_info.epsilon
    return math.nextafter(math.nextafter(math.exp(arg), math.inf) * grow, math.inf)


def classify_polynomial(coeffs: Sequence[float]) -> str:
    """Fluctuation case of a polynomial: its leading weight, decided exactly.

    Odd powers carry only odd flat weights, even powers only even ones.  Up to the table's cap,
    the weight-2 amplitudes of x^2, x^4, .. have full column rank, as do the weight-1 and -3
    ones of x, x^3, .. together: past a zero weight-1 sum, w = 2 has an amplitude exactly when
    an even power is present, and w = 3 when an odd one is.  A constant row has none; it is tagged A.
    """
    odd = [(j, c) for j, c in enumerate(coeffs) if j % 2 and c]
    if sum(Fraction(c) * single_flat_count(j) for j, c in odd):
        return CASE_A
    if any(coeffs[2::2]):
        return CASE_B
    return CASE_C if odd else CASE_A


@dataclass(frozen=True)
class AnalyticSeries:
    """Taylor series sum_j c_j x^j with radius ``radius`` around the origin.

    ``degree`` is None for a genuinely infinite series; then ``coeff_fn``
    supplies the coefficients and ``tail_fn(k, x)`` bounds sum_{j>k} |c_j| x^j
    (built by ``exponential`` or ``cauchy``).  ``case`` is the fluctuation case tag:
    a polynomial's is its ``classify_polynomial``, filled in when omitted; an infinite
    series' is declared.
    """

    label: str
    radius: float
    case: str | None = None
    degree: int | None = None
    coeffs: tuple[float, ...] | None = None
    coeff_fn: Callable[[int], float] | None = None
    tail_fn: Callable[[int, float], float] | None = None

    def __post_init__(self) -> None:
        case = None if self.coeffs is None else classify_polynomial(self.coeffs)
        if self.case is None:
            object.__setattr__(self, "case", case)
        if self.case not in (CASE_A, CASE_B, CASE_C):
            raise ValueError(f"unknown case tag {self.case!r}")
        if (self.degree is None) == (self.coeffs is not None):
            raise ValueError("provide either a finite coefficient tuple or a coeff_fn")
        if self.coeffs is None and (self.coeff_fn is None or self.tail_fn is None):
            raise ValueError("an infinite series needs a coeff_fn and its tail bound; "
                             "build it with exponential or cauchy")
        if case is not None and self.case != case:
            raise ValueError(f"{self.label} is a polynomial of case {case}, not case {self.case}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Sequence[float], label: str | None = None) -> "AnalyticSeries":
        cs = tuple(float(c) for c in coeffs)
        if not all(map(math.isfinite, cs)):
            raise ValueError(f"polynomial coefficients must be finite, got {cs}")
        while cs and cs[-1] == 0.0:
            cs = cs[:-1]
        if not cs:
            cs = (0.0,)
        if label is None:
            label = "poly:" + ",".join(f"{c:g}" for c in cs)
        return cls(label=label, radius=math.inf, degree=len(cs) - 1, coeffs=cs)

    @classmethod
    def monomial(cls, power: int) -> "AnalyticSeries":
        return cls.polynomial([0.0] * power + [1.0], label=f"x^{power}")

    @classmethod
    def exponential(cls, rate: float, label: str | None = None) -> "AnalyticSeries":
        """exp(rate*x); entire, so any operator bound is admissible.

        With t_j = |c_j| x^j and q = |rate| x / (k + 2), every ratio t_j / t_{j-1} =
        |rate| x / j for j >= k + 2 is at most q, so the tail past k is at most
        t_(k+1) / (1 - q) when q < 1.  It is formed in log space, as t_(k+1) alone can
        underflow to 0.0 above the dropped terms, and rounded up: q from above, log (k+1)!
        as an fsum of faithful logs, so each term is within 1.51 eps of its value.
        """
        if not math.isfinite(rate):
            raise ValueError(f"exp rate must be finite, got {rate!r}")

        num, den = abs(rate).as_integer_ratio()  # den = 2^e
        cs, run = [], [1, 1]  # c_0, c_1, ..; then num^j and j! 2^(e j) at the next j

        def coeff(j: int) -> float:
            """rate^j / j!, the exact rational rounded once; +-inf past the float range."""
            while len(cs) <= j:
                try:
                    mag = run[0] / run[1]  # int / int rounds once
                except OverflowError:
                    mag = math.inf
                cs.append(-mag if rate < 0 and len(cs) % 2 else mag)
                run[:] = run[0] * num, run[1] * len(cs) << den.bit_length() - 1
            return cs[j]

        def tail(k: int, x: float) -> float:
            if rate == 0.0 or x == 0.0:
                return 0.0
            q = math.nextafter(math.nextafter(abs(rate) * x, math.inf) / (k + 2), math.inf)
            if not q < 1.0:
                return math.inf
            return _exp_rounded_up(((k + 1) * math.log(abs(rate)), (k + 1) * math.log(x),
                                    -math.fsum(map(math.log, range(2, k + 2))), -math.log1p(-q)))

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
            q = math.nextafter(x / rho, math.inf) if x else 0.0  # >= x / rho; the tail grows with q
            if not 0.0 < q < 1.0 or m == 0.0:
                return math.inf if q >= 1.0 else 0.0
            # in log space, as q^(k+1) alone can underflow to 0.0 below the dropped terms; with
            # log and log1p faithful, the terms are within eps, 1.51 eps and eps + 2^-1074
            return _exp_rounded_up((math.log(m), (k + 1) * math.log(q), -math.log1p(-q)))

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

    def truncate(self, dist: DistributionSpec, tol: float, scale: float) -> tuple[list[float], float]:
        """(c_0..c_K, tail) for operators under ``dist`` on ``scale`` sites; a refusal names the law.

        Their norm is at most x = dist.bound + 2, which the radius must exceed; K is the
        smallest degree with tail = scale * tail_majorant(K, x) <= tol.
        """
        x = dist.bound + 2.0
        if self.radius <= x:
            raise ValueError(f"series {self.label} has radius {self.radius:g} <= {x:g}; "
                             f"the operator series does not converge under the law {dist.name}")
        try:
            degree = self.truncation_degree(x, tol, scale=scale)
        except ValueError as exc:
            raise ValueError(f"{exc} under the law {dist.name}") from None
        return self.coefficients_upto(degree), scale * self.tail_majorant(degree, x)

    def evaluate(self, x: float) -> float:
        """Pointwise value, |x| inside the radius; an infinite series drops at most 1e-17.
        x^j is not formed where c_j = 0, so a zero cannot overflow."""
        if abs(x) >= self.radius:
            raise ValueError("argument outside the convergence radius")
        degree = self.truncation_degree(abs(x), 1e-17)
        return math.fsum(c * x**j for j in range(degree + 1) if (c := self.coefficient(j)))
