"""Path enumeration and profile counting against brute-force oracles."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracefluct.combinatorics import (
    DOWN,
    FLAT,
    UP,
    LatticePath,
    MultiIndex,
    _profile_table,
    _unit_row,
    closed_path_count,
    enumerate_closed_paths,
    flat_weight_bound,
    flat_weight_count,
    profile_count,
    profile_counts,
    same_level_pair_count,
    single_flat_count,
)


def brute_force_closed_paths(k):
    """All closed length-k paths by filtering the full 3^k step strings."""
    out = []
    for steps in itertools.product((UP, FLAT, DOWN), repeat=k):
        if sum(steps) == 0:
            out.append(LatticePath(steps))
    return out


def brute_force_profile_counts(k):
    counts = Counter()
    for p in brute_force_closed_paths(k):
        counts[p.flat_profile()] += 1
    return dict(counts)


def dict_profile_table(coeffs):
    """Oracle for ``_profile_table``: the same step DP, one Python dict entry per state."""
    last = len(coeffs) - 1
    raw: dict[tuple[tuple[int, ...], int, int], int] = {}
    states = {(0, (), 0, 0): 1}
    for l, c in enumerate(coeffs):
        if l:
            reach = last - l
            step: dict[tuple[int, tuple[int, ...], int, int], int] = {}
            for (level, flats, lo, hi), n in states.items():
                for y in (level - 1, level, level + 1):
                    if abs(y) <= reach:
                        ys = tuple(sorted(flats + (y,))) if y == level else flats
                        key = (y, ys, min(lo, y), max(hi, y))
                        step[key] = step.get(key, 0) + n
            states = step
        if c:
            for (level, flats, lo, hi), n in states.items():
                if level == 0:
                    key = (flats, lo, hi)
                    raw[key] = raw.get(key, 0) + c * n
    depths: dict[tuple[tuple[int, int], ...], tuple[Counter, Counter]] = {}
    for (levels, lo, hi), n in raw.items():
        base, top = (levels[0], levels[-1]) if levels else (0, 0)
        key = tuple((h - base, c) for h, c in Counter(levels).items())
        below, above = depths.setdefault(key, (Counter(), Counter()))
        below[base - lo] += n
        above[hi - top] += n
    return {
        key: (sum(below.values()),
              tuple(below[d] for d in range(max(below) + 1)),
              tuple(above[d] for d in range(max(above) + 1)))
        for key, (below, above) in depths.items()
    }


def record_rows(table):
    """A profile-table record as {profile pairs: (count, below, above)}, histograms cut to length."""
    cols = (table.flats, table.count, table.below, table.above, *table.kept)
    return {tuple((h, x) for h, x in enumerate(f) if x): (c, tuple(b[:i]), tuple(a[:j]))
            for f, c, b, a, i, j in zip(*(col.tolist() for col in cols))}


# ---------------------------------------------------------------- MultiIndex


def test_multiindex_canonicalisation():
    b = MultiIndex.from_counts({3: 1, 5: 2})
    assert b.pairs == ((0, 1), (2, 2))
    assert b.weight == 3
    assert b.span == 2


def test_multiindex_equality_ignores_iota():
    a = MultiIndex.from_counts({3: 1, 4: 1})
    b = MultiIndex.from_counts({7: 1, 8: 1})
    assert a == b == MultiIndex.delta_pair(1)
    assert hash(a) == hash(b)


def test_multiindex_rejects_noncanonical():
    with pytest.raises(ValueError):
        MultiIndex(((1, 1),))
    with pytest.raises(ValueError):
        MultiIndex(((0, 0),))
    with pytest.raises(ValueError):
        MultiIndex.delta_pair(0)


def test_multiindex_named_shapes():
    assert MultiIndex.zero().weight == 0
    assert MultiIndex.delta().pairs == ((0, 1),)
    assert MultiIndex.two_delta().pairs == ((0, 2),)
    assert MultiIndex.delta_pair(4).pairs == ((0, 1), (4, 1))


@given(st.dictionaries(st.integers(-20, 20), st.integers(1, 5), max_size=6))
def test_multiindex_from_counts_canonical_property(counts):
    b = MultiIndex.from_counts(counts)
    if b.pairs:
        assert b.pairs[0][0] == 0
    assert b.weight == sum(counts.values())
    # translating all levels leaves the canonical class unchanged
    shifted = MultiIndex.from_counts({h + 11: c for h, c in counts.items()})
    assert shifted == b


# --------------------------------------------------------------- LatticePath


def test_levels_match_steps():
    p = LatticePath((UP, UP, DOWN, DOWN))
    assert p.levels() == (0, 1, 2, 1, 0)
    assert p.is_closed


def test_flat_profile_examples():
    # single flat step
    assert LatticePath((FLAT,)).flat_profile() == MultiIndex.delta()
    # F,U,F,D has flats at levels 0 and 1
    p = LatticePath((FLAT, UP, FLAT, DOWN))
    assert p.levels() == (0, 0, 1, 1, 0)
    assert p.flat_profile() == MultiIndex.delta_pair(1)
    # no-flat path gives the zero profile
    assert LatticePath((UP, UP, DOWN, DOWN)).flat_profile() == MultiIndex.zero()


def test_flat_profile_requires_closed():
    with pytest.raises(ValueError):
        LatticePath((UP,)).flat_profile()


# --------------------------------------------------------------- enumeration


def test_enumerate_k1():
    paths = list(enumerate_closed_paths(1))
    assert [p.steps for p in paths] == [(FLAT,)]


def test_enumerate_k2():
    got = {p.steps for p in enumerate_closed_paths(2)}
    assert got == {(FLAT, FLAT), (UP, DOWN), (DOWN, UP)}


def test_enumerate_k0():
    paths = list(enumerate_closed_paths(0))
    assert len(paths) == 1 and paths[0].steps == ()


@pytest.mark.parametrize("k", range(0, 9))
def test_enumeration_matches_brute_force(k):
    fast = sorted(p.steps for p in enumerate_closed_paths(k))
    brute = sorted(p.steps for p in brute_force_closed_paths(k))
    assert fast == brute


@pytest.mark.parametrize("k", range(0, 13))
def test_closed_path_count_formula(k):
    assert sum(1 for _ in enumerate_closed_paths(k)) == closed_path_count(k)


def test_enumeration_cap_refuses():
    with pytest.raises(ValueError, match="cap of 14"):
        next(enumerate_closed_paths(15))


# ------------------------------------------------------------ profile counts


@pytest.mark.parametrize("k", range(0, 9))
def test_profile_counts_match_brute_force(k):
    assert profile_counts(k) == brute_force_profile_counts(k)


@pytest.mark.parametrize("k", range(0, 9))
def test_profile_windows_match_brute_force(k):
    below, above = Counter(), Counter()
    for p in brute_force_closed_paths(k):
        ys, flats = p.levels(), p.flat_levels() or (0,)
        below[p.flat_profile(), min(flats) - min(ys)] += 1
        above[p.flat_profile(), max(ys) - max(flats)] += 1
    rows = {MultiIndex(pairs): w for pairs, w in record_rows(_profile_table(_unit_row(k))).items()}
    assert {beta: count for beta, (count, _, _) in rows.items()} == brute_force_profile_counts(k)
    for beta, (_, got_below, got_above) in rows.items():
        assert got_below == tuple(below[beta, d] for d in range(len(got_below)))
        assert got_above == tuple(above[beta, d] for d in range(len(got_above)))
        assert got_below[-1] and got_above[-1]
    assert sum(below.values()) == sum(above.values()) == closed_path_count(k)


DEG12_ROW = (0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1)
# 3 (UD + DU) minus the six flat-free 4-paths: the flat-free depth 1 and count cancel to 0
CANCEL_ROW = (0, 0, 3, 0, -1)
INTEGER_ROWS = [(0,) * k + (1,) for k in range(15)] + [
    DEG12_ROW,
    (3, -2, 0, 10**30, -7, 0, 5),
    (0, 0, -1, 0, 0, 0, 1),
    (10**30, 10**30, -(10**30)),
    (1,) * 15,
    (2, -1, 0, 3, -5, 0, 1, 0, -2, 7, 0, -1, 4, -3),
    CANCEL_ROW,
]


@pytest.mark.parametrize("row", INTEGER_ROWS, ids=str)
def test_profile_table_matches_dict_dp_on_integer_rows(row):
    table = record_rows(_profile_table(row))
    assert table == dict_profile_table(row)
    for count, below, above in table.values():
        assert all(type(v) is int for v in (count, *below, *above))


def test_profile_table_keeps_a_cancelled_depth():
    table = record_rows(_profile_table(CANCEL_ROW))
    assert table == dict_profile_table(CANCEL_ROW)
    assert table[()] == (0, (1, 0, -1), (1, 0, -1))


@pytest.mark.parametrize("row", [(0.5, 1, 1, -2, 2), (1e300, 0, 1)], ids=str)
def test_profile_table_matches_dict_dp_on_float_rows(row):
    table, want = record_rows(_profile_table(row)), dict_profile_table(row)
    assert table.keys() == want.keys()
    for pairs, (count, below, above) in want.items():
        got_count, got_below, got_above = table[pairs]
        assert len(got_below) == len(below) and len(got_above) == len(above)
        for a, b in zip((got_count, *got_below, *got_above), (count, *below, *above)):
            assert math.isclose(a, b, rel_tol=1e-15)


@pytest.mark.parametrize("row", [(), (0, 0, 0)], ids=str)
def test_profile_table_of_a_zero_row_is_empty(row):
    assert record_rows(_profile_table(row)) == dict_profile_table(row) == {}


def test_profile_table_refuses_past_the_cap():
    with pytest.raises(ValueError, match="cap of 14"):
        _profile_table((0,) * 15 + (1,))


@pytest.mark.parametrize("k", range(1, 15))
def test_profile_table_has_fibonacci_many_rows_with_flats(k):
    # F_1 = F_2 = 1, ..., F_12 = 144, F_14 = 377
    fib = [0, 1]
    while len(fib) <= k:
        fib.append(fib[-1] + fib[-2])
    table = _profile_table(_unit_row(k))
    assert np.count_nonzero(table.flats.any(axis=1)) == fib[k]
    assert table.flats.shape[1] == 2 * (k // 2) + 1


def test_profile_count_examples():
    assert profile_count(3, MultiIndex.delta()) == 6
    assert profile_count(4, MultiIndex.two_delta()) == 8
    assert profile_count(4, MultiIndex.delta_pair(1)) == 4
    # the four paths with flats at two adjacent levels, frozen from enumeration
    want = {(FLAT, UP, FLAT, DOWN), (FLAT, DOWN, FLAT, UP),
            (UP, FLAT, DOWN, FLAT), (DOWN, FLAT, UP, FLAT)}
    got = {p.steps for p in enumerate_closed_paths(4)
           if p.flat_profile() == MultiIndex.delta_pair(1)}
    assert got == want


@pytest.mark.parametrize("k", range(1, 13))
def test_profiles_partition_closed_paths(k):
    assert sum(profile_counts(k).values()) == closed_path_count(k)


@pytest.mark.parametrize("k", range(1, 13))
def test_parity_rule(k):
    for beta, n in profile_counts(k).items():
        assert n == 0 or (k - beta.weight) % 2 == 0


def test_single_flat_closed_form_values():
    assert single_flat_count(1) == 1
    assert single_flat_count(3) == 6
    assert single_flat_count(2) == 0


@pytest.mark.parametrize("k", range(1, 14, 2))
def test_single_flat_closed_form_vs_enumeration(k):
    assert profile_count(k, MultiIndex.delta()) == single_flat_count(k)


def test_same_level_pair_closed_form_values():
    assert same_level_pair_count(2) == 1
    assert same_level_pair_count(4) == 8
    assert same_level_pair_count(6) == 48
    with pytest.raises(ValueError):
        same_level_pair_count(3)


@pytest.mark.parametrize("j", range(2, 13, 2))
def test_same_level_pair_closed_form_vs_enumeration(j):
    assert profile_count(j, MultiIndex.two_delta()) == same_level_pair_count(j)


def test_flat_weight_count_examples():
    assert flat_weight_count(2, 2) == 1          # FF only
    assert flat_weight_count(3, 1) == 6
    assert flat_weight_count(4, 0) == 6
    assert flat_weight_bound(4, 0) == 6          # bound is tight here


@pytest.mark.parametrize("l", range(1, 13))
def test_flat_weight_bound_holds(l):
    for j in range(l + 1):
        assert flat_weight_count(l, j) <= flat_weight_bound(l, j)


@pytest.mark.parametrize("l", range(1, 13))
@pytest.mark.parametrize("cx", [1, 2])
def test_weighted_flat_sum_geometric_bound(l, cx):
    # sum_j (#paths with j flats) * cx^j <= (cx+2)^l, exactly in integers
    total = sum(flat_weight_count(l, j) * cx**j for j in range(l + 1))
    assert total <= (cx + 2) ** l


def test_delta_pair_support_bound():
    # two flats at separation s need at least 2s movement steps
    for j in range(2, 13):
        for beta, n in profile_counts(j).items():
            if beta.weight == 2 and len(beta.pairs) == 2 and n > 0:
                s = beta.pairs[1][0]
                assert 1 <= s <= (j - 2) // 2 + 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9))
def test_enumeration_yields_unique_closed_paths(k):
    seen = set()
    for p in enumerate_closed_paths(k):
        assert len(p.steps) == k
        assert p.is_closed
        assert p.steps not in seen
        seen.add(p.steps)
    assert len(seen) == closed_path_count(k)
