"""Closed lattice paths with flat steps and their level profiles.

A path of length ``k`` takes steps from {-1, 0, +1} on the integers,
starting at the origin; it is *closed* when it returns to the origin.
The multiset of levels at which its flat (0) steps occur, shifted so the
lowest occupied level is zero, is the path's *flat profile*, represented
here by :class:`MultiIndex`.  Counting closed paths by profile is the
combinatorial core of everything downstream: trace polynomials of the
tridiagonal operator, exact means, and fluctuation variances.

All counting in this module is exact integer arithmetic; a profile table
weights the counts by a coefficient row and stays exact when the row is
integer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

UP = 1
FLAT = 0
DOWN = -1

#: Hard ceiling on the path length of enumeration and profile tables.  The
#: profile step DP takes about 0.015 s at k = 14; the oracle enumeration
#: yields every one of the ~616k closed 14-paths.  Larger powers are served by closed
#: forms only; the asserts keep _profile_table's int64 codes and int16 shapes exact.
DEFAULT_ENUMERATION_CAP = 14
assert (DEFAULT_ENUMERATION_CAP + 1) ** (DEFAULT_ENUMERATION_CAP + 1) < 2**63
assert (2 * (DEFAULT_ENUMERATION_CAP // 2) + 1) ** 3 < 2**15

_STEP_CHARS = {UP: "U", FLAT: "F", DOWN: "D"}


@dataclass(frozen=True)
class MultiIndex:
    """Canonical flat-step level profile.

    ``pairs`` lists ``(level offset, count)`` with strictly increasing
    offsets, every count >= 1, and -- canonically -- smallest offset 0.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        offsets = [h for h, _ in self.pairs]
        if offsets != sorted(set(offsets)):
            raise ValueError("offsets must be strictly increasing")
        if any(c < 1 for _, c in self.pairs):
            raise ValueError("counts must be positive")
        if self.pairs and self.pairs[0][0] != 0:
            raise ValueError("canonical form requires the smallest offset to be 0")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "MultiIndex":
        """Build from a level -> count mapping, canonicalising the offsets."""
        items = sorted((h, c) for h, c in counts.items() if c > 0)
        base = items[0][0] if items else 0
        return cls(tuple((h - base, c) for h, c in items))

    @classmethod
    def from_levels(cls, levels) -> "MultiIndex":
        """Build from an iterable of flat-step levels (with multiplicity)."""
        return cls.from_counts(Counter(levels))

    @classmethod
    def zero(cls) -> "MultiIndex":
        return cls(())

    @classmethod
    def delta(cls) -> "MultiIndex":
        """One flat step at a single level."""
        return cls(((0, 1),))

    @classmethod
    def two_delta(cls) -> "MultiIndex":
        """Two flat steps sharing one level."""
        return cls(((0, 2),))

    @classmethod
    def delta_pair(cls, s: int) -> "MultiIndex":
        """One flat step each at two levels separated by ``s`` >= 1."""
        if s < 1:
            raise ValueError("level separation must be >= 1")
        return cls(((0, 1), (s, 1)))

    # -- accessors -------------------------------------------------------

    @property
    def weight(self) -> int:
        """Total flat-step count."""
        return sum(c for _, c in self.pairs)

    @property
    def span(self) -> int:
        """Largest occupied offset (0 for the empty profile)."""
        return self.pairs[-1][0] if self.pairs else 0

    def __str__(self) -> str:
        if not self.pairs:
            return "0"
        return "+".join(f"{h}:{c}" for h, c in self.pairs)


@dataclass(frozen=True)
class LatticePath:
    """Step sequence over {-1, 0, +1}; levels start at the origin."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s not in (UP, FLAT, DOWN) for s in self.steps):
            raise ValueError("steps must be -1, 0 or +1")

    def levels(self) -> tuple[int, ...]:
        """The visited levels y_0 .. y_k, y_0 = 0."""
        return tuple(itertools.accumulate(self.steps, initial=0))

    @property
    def is_closed(self) -> bool:
        return sum(self.steps) == 0

    def flat_levels(self) -> tuple[int, ...]:
        """Level of each flat step, in path order."""
        return tuple(y for y, s in zip(self.levels(), self.steps) if s == FLAT)

    def flat_profile(self) -> MultiIndex:
        """Canonical profile of this closed path's flat steps; an open path has none."""
        if not self.is_closed:
            raise ValueError("flat profiles are defined for closed paths")
        return MultiIndex.from_levels(self.flat_levels())

    def __str__(self) -> str:
        return "".join(_STEP_CHARS[s] for s in self.steps) or "(empty)"


def _check_cap(k: int) -> None:
    if k > DEFAULT_ENUMERATION_CAP:
        raise ValueError(
            f"enumeration for k={k} exceeds the cap of {DEFAULT_ENUMERATION_CAP}; "
            "use a closed form"
        )


def closed_path_count(k: int) -> int:
    """Number of closed length-k paths: sum over flat counts f of C(k,f)*C(k-f,(k-f)/2)."""
    total = 0
    for f in range(k % 2, k + 1, 2):
        total += math.comb(k, f) * math.comb(k - f, (k - f) // 2)
    return total


def enumerate_closed_paths(k: int) -> Iterator[LatticePath]:
    """Yield every closed path of length k exactly once.

    Depth-first over steps, pruning branches whose current level cannot
    return to the origin within the remaining steps.
    """
    if k < 0:
        raise ValueError("path length must be >= 0")
    _check_cap(k)
    steps: list[int] = []

    def rec(level: int, remaining: int):
        if remaining == 0:
            if level == 0:
                yield LatticePath(tuple(steps))
            return
        for s in (UP, FLAT, DOWN):
            if abs(level + s) <= remaining - 1:
                steps.append(s)
                yield from rec(level + s, remaining - 1)
                steps.pop()

    yield from rec(0, k)


def _unit_row(k: int) -> tuple[int, ...]:
    """The coefficient row e_k of Tr H^k alone; its profile table counts closed k-paths exactly."""
    if k < 0:
        raise ValueError("path length must be >= 0")
    _check_cap(k)
    return (0,) * k + (1,)


def _row_key(coeffs) -> tuple:
    """A coefficient row as a ``_profile_table`` key: integer-valued coefficients become ints.

    Integer counts keep the table exact, and a float row equal to an
    integer row shares its cache entry, so every user of one row walks it
    once.
    """
    return tuple(int(c) if float(c).is_integer() else c for c in coeffs)


def _merge(n, *cols):
    """Sum the weights ``n`` over equal rows of the int ``cols``: (weights, *cols) of the distinct rows."""
    order = np.lexsort(cols)
    cols = [col[order] for col in cols]
    start = np.flatnonzero(np.concatenate(([True], np.any([c[1:] != c[:-1] for c in cols], axis=0))))
    return (np.add.reduceat(n[order], start), *(col[start] for col in cols))


@dataclass(frozen=True)
class ProfileTable:
    """A coefficient row's closed paths as one array record, row p per canonical profile.

    ``below[p, d]`` weighs the paths of profile p whose lowest level lies
    ``d`` levels under their lowest flat step; ``above[p, d]`` those whose
    highest level lies ``d`` levels over their highest flat step.  A
    flat-free path measures both depths from the origin, so its level range
    is their sum.  Placed on a finite chain, a path leaves it exactly when
    one of these depths reaches past the edge, which is what clips the
    edge-window coefficients.
    """

    flats: np.ndarray  # (P, 2r + 1) int: p's flat steps at level offsets 0..2r, all 0 if flat-free
    count: np.ndarray  # (P,) object: p's c_l-weighted path count
    below: np.ndarray  # (P, 2r + 1) object: p's depth-below histogram, 0 from depth kept[0, p] on
    above: np.ndarray  # (P, 2r + 1) object: p's depth-above histogram, 0 from depth kept[1, p] on
    kept: np.ndarray   # (2, P) int: histogram lengths, to the deepest cell even if it cancels


@lru_cache(maxsize=None)
def _profile_table(coeffs: tuple) -> ProfileTable:
    """The closed paths of every length l <= K, weighted by c_l, grouped by canonical profile.

    One forward step DP, pruned to the levels that can still return to the
    origin by length K; each step is a few numpy passes over all states.  With
    r = K // 2 and W = 2r + 1, a state sorts on two keys: its int16 shape
    (level W + lowest) W + highest, levels shifted by r, and its int64 flat
    multiset code sum_y c_y (K+1)^(y+r).  Up to the cap W^3 < 2^15, every code
    is below (K+1)^(K+1) < 2^63 as no digit exceeds K; no path count exceeds 3^K.
    At each l with c_l != 0 the closed states merge into cells (canonical code,
    depth below W + depth above) of weight c_l times their count, an object
    column: an integer row stays exact in Python ints, a float row float.  A
    path's clipping on a chain depends on its profile and depths, not its
    length, so at the end the cells of all lengths add into depth histograms,
    each as long as its deepest cell even where the weights there cancel.
    The result is one :class:`ProfileTable` record in code order: the codes'
    digits as its flat-count matrix, each count the sum of its below histogram,
    and the histograms with their kept lengths.
    """
    last = len(coeffs) - 1
    _check_cap(last)
    r, base = max(last, 0) // 2, last + 1
    w, cells = 2 * r + 1, [(np.zeros(0, dtype=object), *np.zeros((2, 0), dtype=np.int64))]
    digit = base ** np.arange(w, dtype=np.int64)
    level, (code, n) = np.array([r], dtype=np.int16), np.array([[0], [1]], dtype=np.int64)
    shape = (level * w + r) * w + r
    for l, c in enumerate(coeffs):
        if l:
            y = np.concatenate((level - 1, level, level + 1))
            keep = np.abs(y - r) <= last - l
            y, code = y[keep], np.concatenate((code, code + digit[level], code))[keep]
            lo, hi, n = (np.tile(col, 3)[keep] for col in (shape // w % w, shape % w, n))
            n, shape, code = _merge(n, (y * w + np.minimum(lo, y)) * w + np.maximum(hi, y), code)
            level = shape // (w * w)
        if c:
            closed = level == r
            s, flats = shape[closed], code[closed]
            # the lowest flat is at the code's count of trailing zero digits, the highest at its top digit
            low = np.where(flats > 0, (flats[:, None] % digit == 0).sum(axis=1) - 1, r)
            top = np.where(flats > 0, (flats[:, None] >= digit).sum(axis=1) - 1, r)
            depth = (low - s // w % w) * w + s % w - top  # below W + above
            m, key, depth = _merge(n[closed], flats // digit[low], depth)
            cells.append((m.astype(object) * c, key, depth))
    m, key, depth = (np.concatenate(col) for col in zip(*cells))
    keys, row = np.unique(key, return_inverse=True)
    hist, size = np.zeros((2, len(keys), w), dtype=object), np.zeros((2, len(keys)), dtype=np.int64)
    for side, d in enumerate((depth // w, depth % w)):  # below, above
        np.add.at(hist[side], (row, d), m)
        np.maximum.at(size[side], row, d)
    return ProfileTable(flats=keys[:, None] // digit % base, count=hist[0].sum(axis=1),
                        below=hist[0], above=hist[1], kept=size + 1)


def profile_counts(k: int) -> dict[MultiIndex, int]:
    """All canonical profiles of closed length-k paths with their path counts."""
    table = _profile_table(_unit_row(k))
    return {MultiIndex(tuple((h, x) for h, x in enumerate(f) if x)): c
            for f, c in zip(table.flats.tolist(), table.count.tolist())}


def profile_count(k: int, beta: MultiIndex) -> int:
    """Number of closed length-k paths whose flat profile is (canonically) ``beta``."""
    table, row = _profile_table(_unit_row(k)), dict(beta.pairs)
    hit = (table.flats == [row.get(h, 0) for h in range(table.flats.shape[1])]).all(axis=1)
    return sum(table.count[hit]) if beta.span < table.flats.shape[1] else 0


def single_flat_count(k: int) -> int:
    """Closed k-paths with exactly one flat step: k*C(k-1,(k-1)/2) for odd k, else 0."""
    if k < 1 or k % 2 == 0:
        return 0
    return k * math.comb(k - 1, (k - 1) // 2)


def same_level_pair_count(j: int) -> int:
    """Closed j-paths with two flat steps at one shared level: j*2^(j-3), j even.

    Evaluated exactly (j=2 gives 1).  Odd j is rejected rather than
    silently returning 0 because the closed form only covers even j.
    """
    if j < 2 or j % 2 != 0:
        raise ValueError("the shared-level pair count is defined for even j >= 2")
    return (j * 2**j) // 8


def flat_weight_count(l: int, j: int) -> int:
    """Closed l-paths with exactly j flat steps, summed over all profiles."""
    if not 0 <= j <= l:
        raise ValueError("flat count j must satisfy 0 <= j <= l")
    table = _profile_table(_unit_row(l))
    return sum(table.count[table.flats.sum(axis=1) == j])


def flat_weight_bound(l: int, j: int) -> int:
    """Combinatorial upper bound C(l,j)*C(l-j,(l-j)/2) for :func:`flat_weight_count`."""
    if (l - j) % 2 != 0:
        return 0
    return math.comb(l, j) * math.comb(l - j, (l - j) // 2)

