from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from tstar.core import (
    GroundSet,
    InstanceTooLargeError,
    InvalidParametersError,
    InvariantError,
    ProfileSet,
    bounded_compositions,
    enumerate_block,
    enumerate_profile_union,
    mask_of,
)
from tstar import bounds
from tstar.bounds import (
    DELSARTE_CLASS_CAP,
    delsarte_bound,
    enumerate_distribution_argmax,
    exchange_optimal,
    hypothesis_flags,
    max_star_size,
    max_union_star_size,
    max_window_family,
    optimal_t_distributions,
    ratio_bound,
    ratio_entries,
    union_star_sizes,
)


# ---------------------------------------------------------------------------
# ratio chain

def test_ratio_chain_strictly_decreasing_per_part():
    g = GroundSet((8, 10))
    entries = ratio_entries(g, (4, 4))
    assert len(entries) == 8
    assert entries[0].value == Fraction(1, 2)
    per_part: dict[int, list] = {}
    for e in entries:
        per_part.setdefault(e.part, []).append(e)
    for chain in per_part.values():
        chain.sort(key=lambda e: e.level)
        for a, b in zip(chain, chain[1:]):
            assert a.value > b.value
    # globally sorted decreasing
    for a, b in zip(entries, entries[1:]):
        assert a.value >= b.value


def test_ratio_chain_requires_room():
    with pytest.raises(InvalidParametersError):
        ratio_entries(GroundSet((4,)), (4,))


# ---------------------------------------------------------------------------
# optimal distributions

def test_greedy_examples():
    assert optimal_t_distributions(2, GroundSet((8, 10)), (4, 4)) == {(2, 0)}
    assert optimal_t_distributions(1, GroundSet((4, 8)), (2, 4)) == {(1, 0), (0, 1)}
    assert optimal_t_distributions(0, GroundSet((5, 5)), (2, 2)) == {(0, 0)}
    # chains 1/2, 1/3 and 1/2, 3/7, 1/3, 1/5: the tie at 1/2 is taken
    # whole at t=2, and the tie at 1/3 is split at t=4
    g = GroundSet((4, 8))
    assert optimal_t_distributions(2, g, (2, 4)) == {(1, 1)}
    assert optimal_t_distributions(4, g, (2, 4)) == {(2, 2), (1, 3)}
    assert optimal_t_distributions(2, GroundSet((4, 4, 4)), (2, 2, 2)) == {
        (1, 1, 0), (1, 0, 1), (0, 1, 1)}


def test_greedy_rejects_bad_t():
    g = GroundSet((5, 5))
    with pytest.raises(InvalidParametersError):
        optimal_t_distributions(5, g, (2, 2))
    with pytest.raises(InvalidParametersError):
        optimal_t_distributions(-1, g, (2, 2))


def test_max_star_size_examples():
    assert max_star_size(2, GroundSet((8, 10)), (4, 4)) == 3150
    assert max_star_size(1, GroundSet((4, 8)), (2, 4)) == 210
    # t equal to the whole profile forces the single full star
    assert max_star_size(4, GroundSet((8, 10)), (2, 2)) == 1


def test_all_outputs_achieve_the_max():
    g = GroundSet((4, 8))
    k = (2, 4)
    dists = list(optimal_t_distributions(1, g, k))
    assert set(union_star_sizes(g, (k,), dists)) == {210}


def test_greedy_equals_enumeration_random_grid():
    rng = random.Random(31)
    for _ in range(500):
        p = rng.randint(1, 3)
        k = tuple(rng.randint(1, 4) for _ in range(p))
        g = GroundSet(tuple(k_i + rng.randint(1, 6) for k_i in k))
        t = rng.randint(0, min(4, sum(k)))
        greedy = optimal_t_distributions(t, g, k)
        oracle = enumerate_distribution_argmax(t, g, k)
        assert greedy == oracle.optimal_distributions, (g.sizes, k, t)
        assert max_star_size(t, g, k) == oracle.value


def test_window_family_equals_enumerate_and_count():
    # every block with p <= 2 and n_i <= 5, edge parts included, at every
    # 0 <= t <= sum(k): count each window family over the members and keep
    # the largest; the closed form gives the same size, and its own (r, w)
    # reaches it
    checked = 0
    for p in (1, 2):
        for sizes in product(range(1, 6), repeat=p):
            g = GroundSet(sizes)
            for k in product(*(range(n + 1) for n in sizes)):
                members = enumerate_block(g, k).members

                def count(t, r, w):
                    window = g.prefix_mask(w)
                    return sum((m & window).bit_count() >= t + r for m in members)

                for t in range(sum(k) + 1):
                    best = max(count(t, r, w) for r in range(sum(k) - t + 1)
                               for w in product(*(range(n + 1) for n in sizes))
                               if sum(w) == t + 2 * r)
                    size, r, w = max_window_family(t, g, k)
                    assert size == best == count(t, r, w), (sizes, k, t)
                    if all(0 < k_i < n for k_i, n in zip(k, sizes)):
                        star = max_star_size(t, g, k)
                        assert size >= star and (size > star or r == 0), (sizes, k, t)
                    checked += 1
    assert checked == 1855
    assert max_window_family(2, GroundSet((6, 6)), (3, 3)) == (118, 2, (3, 3))
    with pytest.raises(InvalidParametersError):
        max_window_family(5, GroundSet((4, 4)), (2, 2))


# ---------------------------------------------------------------------------
# the exchange condition

def test_exchange_condition_examples():
    g = GroundSet((8, 10))
    k = (4, 4)
    assert exchange_optimal(g, k, 2, mask_of([1, 2]))
    assert not exchange_optimal(g, k, 2, mask_of([1, 9]))
    assert exchange_optimal(g, k, 0, 0)


def test_exchange_condition_validates():
    g = GroundSet((8, 10))
    with pytest.raises(InvalidParametersError):
        exchange_optimal(g, (4, 4), 3, mask_of([1, 2]))  # |T| != t


def test_exchange_condition_with_a_filled_whole_part():
    # the center fills part 0 (s_0 = k_0 = n_0), which then has no next ratio
    assert exchange_optimal(GroundSet((2, 3)), (2, 1), 3, mask_of([1, 2, 3]))
    # part 1's next ratio 2/3 exceeds part 2's last taken 2/6
    assert not exchange_optimal(GroundSet((2, 3, 6)), (2, 2, 2), 3, mask_of([1, 2, 6]))


# ---------------------------------------------------------------------------
# the integer decisions against Fraction references

def _fraction_cut(entries, t, p):
    """optimal_t_distributions as a cut of the Fraction-sorted chain."""
    if t == 0:
        return frozenset({(0,) * p})
    cut = entries[t - 1].value
    base, ties = [0] * p, []
    for e in entries:
        if e.value == cut:
            ties.append(e.part)
        elif ties:
            break
        else:
            base[e.part] += 1
    return frozenset(tuple(b + (i in extra) for i, b in enumerate(base))
                     for extra in combinations(ties, t - sum(base)))


def _fraction_exchange(g, k, t, center):
    """exchange_optimal with every ratio a Fraction, for n_i > k_i."""
    s = g.profile(center)
    nexts = [Fraction(k_i - s_i, n_i - s_i) for s_i, k_i, n_i in zip(s, k, g.sizes)]
    return not any(Fraction(k_j - s_j + 1, n_j - s_j + 1) < max(nexts)
                   for s_j, k_j, n_j in zip(s, k, g.sizes) if s_j)


def test_integer_chain_and_exchange_match_fraction_references():
    # every block with p <= 2 of the criterion 2/3 grid, and three-part
    # blocks with cross-part ties (2/4 = 3/6 = 4/8, 1/3 = 2/6 = 3/9, ...)
    per_part = [(n, k) for k in range(1, 6) for n in range(k + 1, 13)]
    blocks = [tuple(zip(*combo)) for p in (1, 2) for combo in product(per_part, repeat=p)]
    blocks += [((4, 6, 8), (2, 3, 4)), ((3, 6, 9), (1, 2, 3)), ((6, 4, 6), (3, 2, 3))]
    tied = 0
    for sizes, k in blocks:
        g = GroundSet(sizes)
        entries = ratio_entries(g, k)
        # the order _chain_links merges by integers is the Fraction sort's
        assert entries == sorted(entries, key=lambda e: (-e.value, e.part, e.level))
        assert sorted((e.part, e.level, e.value) for e in entries) == [
            (i, j, Fraction(k_i - j, n_i - j))
            for i, (k_i, n_i) in enumerate(zip(k, sizes)) for j in range(k_i)]
        tied += any(a.value == b.value for a, b in zip(entries, entries[1:]))
        for t in range(sum(k) + 1):
            assert optimal_t_distributions(t, g, k) == _fraction_cut(entries, t, g.p), (sizes, k, t)
            for dist in bounded_compositions(t, (0,) * g.p, k):
                center = g.prefix_mask(dist)
                assert (exchange_optimal(g, k, t, center)
                        == _fraction_exchange(g, k, t, center)), (sizes, k, dist)
    assert len(blocks) == 2073 and tied == 570


def test_chain_cut_merges_only_the_first_links():
    # two chains of a million links each: the cut needs their first links
    g = GroundSet((2_000_000, 3_000_000))
    assert optimal_t_distributions(2, g, (1_000_000, 1_000_000)) == {(2, 0)}
    assert optimal_t_distributions(1, GroundSet((2_000_000,) * 2),
                                   (1_000_000,) * 2) == {(1, 0), (0, 1)}


# ---------------------------------------------------------------------------
# ratio bound

def test_ratio_bound_examples():
    rb = ratio_bound(GroundSet((4, 4)), (2, 2))
    assert rb.ratio == Fraction(1, 2)
    assert rb.block == 36
    assert rb.absolute == 18
    assert rb.hypothesis_ok
    assert ratio_bound(GroundSet((4, 8)), (2, 2)).ratio == Fraction(1, 2)
    assert ratio_bound(GroundSet((6, 9)), (2, 3)).ratio == Fraction(1, 3)
    assert ratio_bound(GroundSet((5, 4)), (1, 2)).ratio == Fraction(1, 2)  # the later part


def test_ratio_bound_flags_small_parts():
    rb = ratio_bound(GroundSet((3, 8)), (2, 2))
    assert not rb.hypothesis_ok
    assert rb.ratio == Fraction(2, 3)


# ---------------------------------------------------------------------------
# Delsarte LP bound

def test_delsarte_golden_values():
    for sizes, k, t, want in (((9,), (4,), 1, 56), ((11,), (5,), 1, 210),
                              ((6, 6), (2, 2), 1, 75), ((5, 6), (2, 3), 2, Fraction(400, 7)),
                              ((6, 6), (3, 3), 2, 150), ((7, 7), (3, 3), 2, Fraction(2975, 11)),
                              ((8, 10), (4, 4), 2, 4410)):
        assert delsarte_bound(GroundSet(sizes), k, t) == want, (sizes, k, t)


def test_delsarte_meets_wilson_threshold():
    # Wilson (1984): C(n-t, k-t) is the maximum once n >= (t+1)(k-t+1),
    # and the LP proves it
    checked = 0
    for n in range(1, 15):
        for k in range(n + 1):
            for t in range(1, k + 1):
                if n >= (t + 1) * (k - t + 1):
                    lp = delsarte_bound(GroundSet((n,)), (k,), t)
                    assert math.floor(lp) == math.comb(n - t, k - t), (n, k, t)
                    checked += 1
    assert checked == 164


def test_delsarte_at_least_ahlswede_khachatrian():
    # each Frankl family {F : |F & [t+2r]| >= t+r} is t-intersecting
    for n in range(1, 15):
        for k in range(n + 1):
            for t in range(1, k + 1):
                ak = max(sum(math.comb(t + 2 * r, i) * math.comb(n - t - 2 * r, k - i)
                             for i in range(t + r, k + 1))
                         for r in range((n - t) // 2 + 1))
                assert delsarte_bound(GroundSet((n,)), (k,), t) >= ak, (n, k, t)


def test_delsarte_edge_parts():
    lp = delsarte_bound(GroundSet((6,)), (2,), 1)
    # a part with k_i = 0 adds nothing, one with k_i = n_i adds n_i to every
    # intersection
    assert delsarte_bound(GroundSet((4, 6)), (0, 2), 1) == lp
    assert delsarte_bound(GroundSet((3, 6)), (3, 2), 4) == lp
    assert delsarte_bound(GroundSet((3, 6)), (3, 2), 2) == 15
    assert delsarte_bound(GroundSet((4, 4)), (0, 4), 4) == 1
    # t > sum(k): no member is t-intersecting with itself
    assert delsarte_bound(GroundSet((4, 4)), (2, 2), 5) == 0
    assert delsarte_bound(GroundSet((4, 4)), (2, 2), 4) == 1
    # without the t-intersection constraint the LP bound is the block
    assert delsarte_bound(GroundSet((5, 6)), (2, 3), 0) == 200
    with pytest.raises(InvalidParametersError):
        delsarte_bound(GroundSet((4, 4)), (2, 2), -1)
    with pytest.raises(InvalidParametersError):
        delsarte_bound(GroundSet((4, 4)), (2, 5), 1)


def test_delsarte_refuses_too_many_distance_classes():
    # (2,)^5 has 32 distance classes, the cap, and (2,)^6 has 64
    assert DELSARTE_CLASS_CAP == 32
    assert delsarte_bound(GroundSet((2,) * 5), (1,) * 5, 1) == 16
    with pytest.raises(InstanceTooLargeError, match="64 distance classes, cap is 32"):
        delsarte_bound(GroundSet((2,) * 6), (1,) * 6, 1)
    # t > sum(k) needs no LP
    assert delsarte_bound(GroundSet((2,) * 16), (1,) * 16, 17) == 0


def _solve_exactly(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """The unique solution of a.y = b by Gaussian elimination, None when a
    is singular."""
    aug = [row + [v] for row, v in zip(a, b)]
    n = len(aug)
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col] / aug[col][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][-1] / aug[i][i] for i in range(n)]


def _vertex_max(c: list[int], rows: list[list[int]]) -> Fraction:
    """Slow independent route for a bounded LP max c.y, row.y <= 1, y >= 0:
    the largest c.y over its vertices, each the feasible solution of n
    constraints made tight, chosen among the rows and y_j >= 0."""
    n = len(c)
    tight = ([([Fraction(v) for v in row], Fraction(1)) for row in rows]
             + [([Fraction(int(i == j)) for i in range(n)], Fraction(0)) for j in range(n)])
    best = None
    for chosen in combinations(tight, n):
        y = _solve_exactly([a for a, _ in chosen], [b for _, b in chosen])
        if (y is not None and min(y, default=0) >= 0
                and all(sum(a * v for a, v in zip(row, y)) <= 1 for row in rows)):
            value = sum(c_j * v for c_j, v in zip(c, y))
            best = value if best is None else max(best, value)
    return best


def test_simplex_matches_vertex_enumeration_on_delsarte_lps(monkeypatch):
    lps = []

    def capture(c, rows):
        lps.append((c, rows))
        return solve(c, rows)

    solve = bounds._simplex_max
    monkeypatch.setattr(bounds, "_simplex_max", capture)
    for sizes, k in [((n,), (j,)) for n in range(2, 13) for j in range(1, n)] + [
            ((a, b), (i, j)) for a in range(2, 5) for b in range(a, 5)
            for i in range(1, a) for j in range(1, b)]:
        for t in range(1, sum(k) + 1):
            delsarte_bound(GroundSet(sizes), k, t)
    monkeypatch.undo()
    small = {(tuple(c), tuple(map(tuple, rows))) for c, rows in lps if len(c) <= 6}
    assert len(small) >= 60
    for c, rows in small:
        c, rows = list(c), [list(row) for row in rows]
        assert Fraction(*bounds._simplex_max(c, rows)) == _vertex_max(c, rows), (c, rows)


def test_simplex_hand_lps():
    # fractional optimum y = (2/5, 1/5)
    assert Fraction(*bounds._simplex_max([1, 1], [[2, 1], [1, 3]])) == Fraction(3, 5)
    # both rows tie on the first ratio; the second pivot is degenerate
    tied = ([1, 1], [[1, 0], [1, 1]])
    assert Fraction(*bounds._simplex_max(*tied)) == 1 == _vertex_max(*tied)
    with pytest.raises(InvariantError, match="unbounded"):
        bounds._simplex_max([1, 1], [[-1, 1]])


def test_lp_certificate_rejects_wrong_answers():
    # max y1 + y2, 2y1 + y2 <= 1, y1 + 3y2 <= 1: y = z = (2/5, 1/5), value 3/5,
    # every entry times det = 5
    c, rows = [1, 1], [[2, 1], [1, 3]]
    bounds._check_certificate(c, rows, [2, 1], [2, 1], 3, 5)
    with pytest.raises(InvariantError, match="primal breaks a row"):
        bounds._check_certificate(c, rows, [3, 0], [2, 1], 3, 5)
    with pytest.raises(InvariantError, match="dual breaks a column"):
        bounds._check_certificate(c, rows, [2, 1], [3, 0], 3, 5)
    with pytest.raises(InvariantError, match="primal, dual and value differ"):
        bounds._check_certificate(c, rows, [2, 1], [2, 1], 4, 5)
    with pytest.raises(InvariantError, match="negative"):
        bounds._check_certificate(c, rows, [4, -1], [2, 1], 3, 5)


# ---------------------------------------------------------------------------
# union-space bound

def test_union_star_example():
    g = GroundSet((6, 6))
    ps = ProfileSet(((2, 2), (3, 2)))
    rep = max_union_star_size(1, g, ps)
    assert rep.value == 225
    assert rep.optimal_distributions == {(1, 0)}
    assert rep.hypothesis_flags["t_le_c"]


def test_union_star_singleton_matches_block():
    rng = random.Random(41)
    for _ in range(100):
        p = rng.randint(1, 3)
        r = tuple(rng.randint(1, 4) for _ in range(p))
        g = GroundSet(tuple(r_i + rng.randint(1, 5) for r_i in r))
        t = rng.randint(0, min(r))
        rep = max_union_star_size(t, g, ProfileSet((r,)))
        assert rep.value == max_star_size(t, g, r)
        assert rep.optimal_distributions == optimal_t_distributions(t, g, r)


def test_union_star_t_zero_is_whole_space():
    g = GroundSet((6, 6))
    ps = ProfileSet(((2, 2), (3, 2)))
    rep = max_union_star_size(0, g, ps)
    assert rep.value == len(enumerate_profile_union(g, ps).members)
    assert rep.optimal_distributions == {(0, 0)}


def test_union_star_strictness():
    g = GroundSet((8, 8))
    ps = ProfileSet(((2, 2), (3, 2)))
    with pytest.raises(InvalidParametersError):
        max_union_star_size(3, g, ps)  # t > c = 2
    rep = max_union_star_size(3, g, ps, strict=False)
    assert not rep.hypothesis_flags["t_le_c"]
    assert rep.value > 0
    # t above n: no distribution at all, and a star has no fewer than 0 members
    rep = max_union_star_size(5, GroundSet((2, 2)), ProfileSet(((1, 1),)), strict=False)
    assert (rep.value, rep.optimal_distributions) == (0, frozenset())


# ---------------------------------------------------------------------------
# hypothesis flags

def test_hypothesis_flags_block():
    flags = hypothesis_flags(2, GroundSet((8, 10)), k=(4, 4))
    assert flags["ratio_bound"]
    assert not flags["block_star"]  # needs every part above 192
    assert hypothesis_flags(1, GroundSet((4, 4)), k=(2, 2))["ratio_bound"]
    assert hypothesis_flags(1, GroundSet((97,)), k=(4,))["block_star"]
    assert not hypothesis_flags(1, GroundSet((64,)), k=(4,))["block_star"]


def test_hypothesis_flags_union():
    ps = ProfileSet(((2, 2), (3, 2)))
    flags = max_union_star_size(1, GroundSet((6, 6)), ps).hypothesis_flags
    assert flags["t_le_c"]
    # needs n_i > 2*2*2*3^3 = 216
    assert not flags["union_parts_large"]
    assert not flags["union_star"]
    big = max_union_star_size(1, GroundSet((217, 217)), ps).hypothesis_flags
    assert big["union_parts_large"] and big["union_star"]
