"""Laws for the i.i.d. site variables: bounded, centered, with known moments.

Moments are kept as :class:`fractions.Fraction` whenever the law allows
it (Rademacher, uniform with an exactly-rational squared half-width,
rational two-point laws), so that downstream coefficient sums can be
evaluated without rounding.  Sampling consumes exactly one uniform
variate per site, which keeps sampled sequences prefix-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinatorics import MultiIndex

Number = Fraction | float


@dataclass(frozen=True)
class DistributionSpec:
    """A centered bounded law for the site variables.

    ``kind`` is one of ``rademacher``, ``uniform``, ``two_point`` or
    ``moments``; ``bound`` is the almost-sure bound on |X|.  The
    ``moments`` kind carries a finite moment list and cannot be sampled.
    """

    name: str
    kind: str
    bound: float
    half_width: float | None = None
    half_width_sq: Fraction | None = None          # exact square, when known
    values: tuple[Fraction, Fraction] | None = None
    probs: tuple[Fraction, Fraction] | None = None
    moment_list: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("rademacher", "uniform", "two_point", "moments"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.bound <= 0:
            raise ValueError("the bound on |X| must be positive")
        m1 = self.moment(1)
        if m1 != 0:
            raise ValueError(f"law must be centered, got mean {m1}")
        if self.moment(2) <= 0:
            raise ValueError("law must have positive variance")

    # -- moments ----------------------------------------------------------

    def moment(self, m: int) -> Number:
        """E[X^m]; exact Fraction where the law allows it."""
        if m < 0:
            raise ValueError("moment order must be >= 0")
        if m == 0:
            return Fraction(1)
        if self.kind == "rademacher":
            return Fraction(1) if m % 2 == 0 else Fraction(0)
        if self.kind == "uniform":
            if m % 2 == 1:
                return Fraction(0)
            if self.half_width_sq is not None:
                return self.half_width_sq ** (m // 2) / (m + 1)
            return self.half_width**m / (m + 1)
        if self.kind == "two_point":
            (v1, v2), (p1, p2) = self.values, self.probs
            return p1 * v1**m + p2 * v2**m
        if m >= len(self.moment_list):
            raise ValueError(
                f"{self.name} only provides moments up to order {len(self.moment_list) - 1}"
            )
        return self.moment_list[m]

    @property
    def variance(self) -> Number:
        return self.moment(2)

    def moment_product(self, beta: MultiIndex) -> Number:
        """E[X^beta] = product over levels of E[X^count]; independence across sites."""
        out: Number = Fraction(1)
        for _, c in beta.pairs:
            m = self.moment(c)
            if m == 0:
                return Fraction(0)
            out = out * m
        return out

    # -- sampling ---------------------------------------------------------

    @property
    def samplable(self) -> bool:
        return self.kind != "moments"

    def sample_xs(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. variates, consuming one uniform per index."""
        u = rng.random(n)
        if self.kind == "rademacher":
            return 2.0 * (u >= 0.5) - 1.0
        if self.kind == "uniform":
            return (2.0 * u - 1.0) * self.half_width
        if self.kind == "two_point":
            (v1, v2), (p1, _) = self.values, self.probs
            return np.where(u < float(p1), float(v1), float(v2))
        raise ValueError(f"{self.name} is a moment specification and cannot be sampled")


def rademacher() -> DistributionSpec:
    """Uniform on {-1, +1}: even moments 1, odd moments 0, bound 1."""
    return DistributionSpec(name="rademacher", kind="rademacher", bound=1.0)


def uniform_symmetric(half_width: float, exact_square: int | Fraction | None = None) -> DistributionSpec:
    """Uniform on [-a, a].  Pass ``exact_square`` = a^2 for exact even moments."""
    if not (math.isfinite(half_width) and half_width > 0):
        raise ValueError(f"half width must be positive and finite, got {half_width}")
    hw_sq = None if exact_square is None else Fraction(exact_square)
    if hw_sq is not None and not math.isclose(float(hw_sq), half_width**2, rel_tol=1e-12):
        raise ValueError("exact_square disagrees with half_width**2")
    return DistributionSpec(
        name=f"uniform[-{half_width:g},{half_width:g}]",
        kind="uniform",
        bound=half_width,
        half_width=half_width,
        half_width_sq=hw_sq,
    )


def uniform_sqrt3() -> DistributionSpec:
    """Uniform on [-sqrt(3), sqrt(3)]: unit variance, E[X^4] = 9/5."""
    return uniform_symmetric(math.sqrt(3.0), exact_square=3)


def two_point(v_plus, v_minus, p_plus) -> DistributionSpec:
    """Two-point law; values/probabilities are taken as exact rationals."""
    v1, v2, p1 = Fraction(v_plus), Fraction(v_minus), Fraction(p_plus)
    if not 0 < p1 < 1:
        raise ValueError("p_plus must lie in (0, 1)")
    return DistributionSpec(
        name=f"two-point({v_plus},{v_minus};{p_plus})",
        kind="two_point",
        bound=float(max(abs(v1), abs(v2))),
        values=(v1, v2),
        probs=(p1, 1 - p1),
    )


def from_moments(moments: Sequence[float], bound: float, name: str = "custom-moments") -> DistributionSpec:
    """Moment-only specification (not samplable); moments[m] = E[X^m]."""
    return DistributionSpec(
        name=name, kind="moments", bound=bound, moment_list=tuple(float(m) for m in moments)
    )
