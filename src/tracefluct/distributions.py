"""Laws for the i.i.d. site variables: bounded, centered, with known moments.

There are three kinds: the sign law, the symmetric uniform law and
two-point laws.  Moments are kept as :class:`fractions.Fraction`
whenever the law allows it (Rademacher, uniform with an
exactly-rational squared half-width, rational two-point laws), so that
downstream coefficient sums can be evaluated without rounding.
Sampling consumes exactly one 64-bit word per site, which keeps
sampled sequences prefix-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

Number = Fraction | float


@dataclass(frozen=True)
class DistributionSpec:
    """A centered bounded law for the site variables.

    ``kind`` is one of ``rademacher``, ``uniform`` or ``two_point``;
    ``bound`` is the almost-sure bound on |X|, for a uniform law its
    half width.
    """

    name: str
    kind: str
    bound: float
    half_width_sq: Fraction | None = None          # exact square, when known
    values: tuple[Fraction, Fraction] | None = None
    probs: tuple[Fraction, Fraction] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("rademacher", "uniform", "two_point"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.bound <= 0:
            raise ValueError("the bound on |X| must be positive")
        object.__setattr__(self, "_moments", {})  # E[X^m] by order m, filled on first use
        m1 = self.moment(1)
        if m1 != 0:
            raise ValueError(f"law must be centered, got mean {m1}")
        if self.moment(2) <= 0:
            raise ValueError("law must have positive variance")

    # -- moments ----------------------------------------------------------

    def moment(self, m: int) -> Number:
        """E[X^m]; exact Fraction where the law allows it, computed once per law and order."""
        if m not in self._moments:
            self._moments[m] = self._moment(m)
        return self._moments[m]

    def _moment(self, m: int) -> Number:
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
            return self.bound**m / (m + 1)
        (v1, v2), (p1, p2) = self.values, self.probs
        return p1 * v1**m + p2 * v2**m

    @property
    def variance(self) -> Number:
        return self.moment(2)

    def counts_moment(self, counts) -> Number | np.ndarray:
        """The product of E[X^c] over the nonzero c along the last axis of the int array ``counts``,
        taken in order from Fraction(1) and stopped where a factor vanishes: one number for a
        sequence, an object column for a matrix of rows."""
        rows = np.atleast_2d(np.asarray(counts, dtype=np.int64))
        table = np.array([self.moment(m) for m in range(rows.max(initial=0) + 1)], dtype=object)
        out, live, zero = np.full(len(rows), Fraction(1), dtype=object), np.ones(len(rows), bool), table == 0
        for c in rows.T:
            step = live & (c > 0)
            out[step] *= table[c[step]]
            live &= ~zero[c]
        return out if np.ndim(counts) > 1 else out[0]

    # -- sampling ---------------------------------------------------------

    def sample_divisor(self, scale: np.ndarray) -> np.ndarray:
        """s_i in ``scale`` made in place the divisor ``sample_xs`` takes: -1/s_i for the sign law."""
        return np.divide(-1.0, scale, out=scale) if self.kind == "rademacher" else scale

    def sample_xs(self, rng: np.random.Generator, out: np.ndarray, scale: np.ndarray) -> None:
        """Write X_i / s_i into ``out``, where ``scale`` is ``sample_divisor`` of s_i.
        With u = random(), X is +1 where u >= 0.5 (sign law), (2u - 1) bound (uniform), or v1
        where u < p1 (two-point).  The sign law reads raw words instead: bit 63 is set exactly
        where u = (word >> 11) 2^-53 >= 0.5, and it turns -1/s_i into +1/s_i.  That holds only
        for bit generators whose double is (next64 >> 11) 2^-53, as Philox's and PCG64's are."""
        if self.kind == "rademacher":
            words = rng.bit_generator.random_raw(out.size)
            words &= np.uint64(1 << 63)
            np.bitwise_xor(words, scale.view(np.uint64), out=out.view(np.uint64))
            return
        rng.random(out=out)
        if self.kind == "uniform":
            out *= 2.0
            out -= 1.0
            out *= self.bound
        else:
            # v1 where u < p1, else v2: the sign of u - p1 picks an end of the
            # interval between the two values, with no mask array
            (v1, v2), (p1, _) = self.values, self.probs
            out -= float(p1)
            np.copysign(math.inf, out, out=out)
            if v1 > v2:
                np.negative(out, out=out)
            np.clip(out, float(min(v1, v2)), float(max(v1, v2)), out=out)
        out /= scale


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
