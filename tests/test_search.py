"""Solver tests: oracle agreement, witness validity, report builders."""

import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from tstar import core, search
from tstar.bounds import delsarte_bound, union_star_sizes
from tstar.core import (Family, GroundSet, InstanceTooLargeError,
                        InvariantError, block_size, enumerate_block,
                        enumerate_quota, mask_of, quota_profiles, trivial_star)
from tstar.search import (brute_force_max, check_block_maximum,
                          check_quota_family, max_t_intersecting)
from tstar.shifting import is_shifted
from tstar.verify import is_full_t_star, is_t_intersecting


def test_single_part_maxima():
    r = max_t_intersecting(enumerate_block(GroundSet((4,)), (2,)), 1)
    assert r.max_size == 3
    space = enumerate_block(GroundSet((5,)), (2,))
    r = max_t_intersecting(space, 1)
    assert r.max_size == 4
    assert is_full_t_star(r.witness, space, 1) is not None
    space = enumerate_block(GroundSet((7,)), (3,))
    r = max_t_intersecting(space, 1)
    assert r.max_size == 15
    assert is_full_t_star(r.witness, space, 1) is not None


def test_witness_is_valid():
    space = enumerate_block(GroundSet((4, 4)), (2, 2))
    r = max_t_intersecting(space, 1)
    assert r.max_size == 18
    assert len(r.witness.members) == 18
    assert r.witness.members <= space.members
    assert is_t_intersecting(r.witness, 1)
    assert r.bound_used <= r.max_size


def test_deterministic():
    space = enumerate_block(GroundSet((3, 3)), (2, 1))
    a = max_t_intersecting(space, 1)
    b = max_t_intersecting(space, 1)
    assert a.witness.members == b.witness.members
    assert a.nodes_explored == b.nodes_explored


def test_t_zero_returns_whole_space():
    space = enumerate_block(GroundSet((4,)), (2,))
    r = max_t_intersecting(space, 0)
    assert r.max_size == 6
    assert r.witness.members == space.members
    assert r.nodes_explored == 0
    b = brute_force_max(space, 0)
    assert b.max_size == 6


def test_root_check_closes_without_a_search():
    g = GroundSet((4,))
    star = Family.from_iterables(g, [[1, 2], [1, 3], [1, 4]])
    r = max_t_intersecting(star, 1)
    assert (r.max_size, r.witness, r.nodes_explored) == (3, star, 0)
    assert is_full_t_star(r.witness, star, 1) == 1
    # no member has t elements: nothing is a candidate
    r = max_t_intersecting(Family.from_iterables(g, [[1], [2, 3]]), 3)
    assert (r.max_size, r.witness.members, r.nodes_explored) == (0, frozenset(), 0)


def test_members_below_t_are_dropped():
    g = GroundSet((6,))
    space = Family.from_iterables(g, [[1], [1, 2, 3], [1, 2, 4], [1, 3, 4]])
    r = max_t_intersecting(space, 2)
    assert r.max_size == 3
    assert all(m.bit_count() >= 2 for m in r.witness.members)
    # the singleton alone is not even 2-intersecting with itself
    assert max_t_intersecting(Family.from_iterables(g, [[1]]), 2).max_size == 0


def test_monotone_in_t():
    space = enumerate_block(GroundSet((6,)), (3,))
    sizes = [max_t_intersecting(space, t).max_size for t in range(4)]
    assert sizes == sorted(sizes, reverse=True)
    assert sizes[0] == 20
    assert sizes[3] == 1


def test_matches_brute_force_on_small_grid():
    checked = 0
    for n in range(2, 7):
        for k in range(1, min(3, n) + 1):
            space = enumerate_block(GroundSet((n,)), (k,))
            if len(space.members) > 24:
                continue
            for t in (1, 2):
                got = max_t_intersecting(space, t)
                want = brute_force_max(space, t)
                assert got.max_size == want.max_size, (n, k, t)
                assert is_t_intersecting(got.witness, t)
                checked += 1
    for sizes in ((2, 2), (2, 3), (3, 3), (2, 4)):
        g = GroundSet(sizes)
        for k1 in (1, 2):
            for k2 in (1, 2):
                if k1 > sizes[0] or k2 > sizes[1]:
                    continue
                if block_size(g, (k1, k2)) > 24:
                    continue
                space = enumerate_block(g, (k1, k2))
                for t in (1, 2):
                    got = max_t_intersecting(space, t)
                    want = brute_force_max(space, t)
                    assert got.max_size == want.max_size, (sizes, k1, k2, t)
                    checked += 1
    assert checked > 40


_MIXED_BLOCKS = (((6, 6), (2, 2), 1), ((5, 6), (2, 3), 2), ((10,), (4,), 2),
                 ((4, 4, 4), (2, 2, 2), 2), ((9,), (2,), 1), ((5, 5), (2, 2), 1))
# blocks with sparse conflict graphs, where the colouring order matters most
_SPARSE_BLOCKS = (((8,), (3,), 1), ((9,), (4,), 1))
# with the block whose subfamilies the search finds hardest, t = 2 on (7,7)/(3,3)
_GRID_BLOCKS = _MIXED_BLOCKS + (((7, 7), (3, 3), 2),)


def _seeded_subfamilies(seed, count, low, high, blocks=_MIXED_BLOCKS):
    rng = random.Random(seed)
    for _ in range(count):
        sizes, k, t = rng.choice(blocks)
        members = sorted(enumerate_block(GroundSet(sizes), k).members)
        chosen = rng.sample(members, rng.randint(low, min(high, len(members))))
        yield Family(GroundSet(sizes), frozenset(chosen)), t


def _candidates(fam, t):
    return sorted(m for m in fam.members if m.bit_count() >= t)


def test_brute_force_modes_agree():
    for n, k, t in ((5, 2, 1), (4, 2, 1), (6, 2, 2)):
        space = enumerate_block(GroundSet((n,)), (k,))
        a = search._subsets_max(space, _candidates(space, t), t)
        b = search._cliques_max(space, _candidates(space, t), t)
        assert a.max_size == b.max_size
        assert is_t_intersecting(b.witness, t)
    for fam, t in _seeded_subfamilies(20261018, 40, 1, 24):
        a = search._subsets_max(fam, _candidates(fam, t), t)
        b = search._cliques_max(fam, _candidates(fam, t), t)
        assert a.max_size == b.max_size, (sorted(fam.members), t)
        assert b.witness.members <= fam.members
        assert is_t_intersecting(b.witness, t)
    for fam, t in [*_seeded_subfamilies(20261019, 12, 25, 60),
                   *_seeded_subfamilies(20261020, 12, 25, 40, _SPARSE_BLOCKS)]:
        b = search._cliques_max(fam, _candidates(fam, t), t)
        assert b.max_size == max_t_intersecting(fam, t).max_size, (sorted(fam.members), t)
        assert b.witness.members <= fam.members
        assert is_t_intersecting(b.witness, t)
    empty = Family(GroundSet((5,)), frozenset())
    b = search._cliques_max(empty, [], 1)
    assert (b.max_size, b.witness.members, b.nodes_explored) == (0, frozenset(), 0)


def test_solver_matches_the_oracles_on_a_seeded_grid():
    # subfamilies of at most 40 members: up to 24 candidates go to the
    # include/exclude tree, more to Bron-Kerbosch
    for fam, t in _seeded_subfamilies(20261022, 60, 8, 40, _GRID_BLOCKS):
        got = max_t_intersecting(fam, t)
        want = brute_force_max(fam, t)
        assert got.max_size == want.max_size, (sorted(fam.members), t)
        assert len(got.witness.members) == got.max_size
        assert got.witness.members <= fam.members
        assert is_t_intersecting(got.witness, t)


def test_brute_force_limits():
    big = enumerate_block(GroundSet((8,)), (2,))     # 28 members
    assert brute_force_max(big, 1).max_size == 7
    huge = enumerate_block(GroundSet((12,)), (2,))   # 66 members
    with pytest.raises(InstanceTooLargeError):
        brute_force_max(huge, 1)


def test_brute_force_picks_its_oracle_by_candidate_count(monkeypatch):
    calls = []
    for name in ("_subsets_max", "_cliques_max"):
        monkeypatch.setattr(search, name,
                            lambda space, verts, t, name=name: calls.append((name, len(verts))))
    members = sorted(enumerate_block(GroundSet((8,)), (2,)).members)
    for count in (24, 25):
        brute_force_max(Family(GroundSet((8,)), frozenset(members[:count])), 1)
    # members with fewer than t elements are not candidates
    fam = Family(GroundSet((8,)), frozenset(members[:24] + [mask_of([1, 2, 3])]))
    brute_force_max(fam, 3)
    assert calls == [("_subsets_max", 24), ("_cliques_max", 25), ("_subsets_max", 1)]


def test_solver_leaves_the_recursion_limit_alone():
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        assert max_t_intersecting(enumerate_block(GroundSet((7,)), (3,)), 1).max_size == 15
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)


def test_search_cap():
    space = enumerate_block(GroundSet((4, 4)), (2, 2))
    with pytest.raises(InstanceTooLargeError):
        max_t_intersecting(space, 1, cap=10)


def test_search_tree_is_pinned():
    # (max_size, nodes_explored) of four full blocks; a change to the
    # colouring, the bound, the refutation or the branching order shows
    # here first.  Their stars are optimal, so the seed is the star
    for sizes, k, t, want in (((8,), (3,), 1, (21, 30)),
                              ((10,), (4,), 2, (28, 876)),
                              ((6, 6), (2, 2), 1, (75, 731)),
                              ((9,), (4,), 1, (56, 1_677))):
        r = max_t_intersecting(enumerate_block(GroundSet(sizes), k), t)
        assert (r.max_size, r.nodes_explored) == want, (sizes, k, t)
        assert r.bound_used == r.max_size, (sizes, k, t)


# the 2-sets {i, i+2} of a 5-cycle: each is disjoint from two others, so
# the conflict graph at t = 1 is a 5-cycle, whose maximum is 2 but whose
# colouring needs three conflict cliques
_PENTAGRAM = [[1, 3], [2, 4], [3, 5], [4, 1], [5, 2]]


def _without(monkeypatch, *levers):
    """max_t_intersecting with the margin refutation ("refute") or the
    local-search seed ("seed") switched off."""
    def solve(space, t):
        with monkeypatch.context() as m:
            if "refute" in levers:
                m.setattr(search, "_refuted", lambda live, classes, conflict: False)
            if "seed" in levers:
                m.setattr(search, "_local_search", lambda conflict, chosen: chosen)
            return max_t_intersecting(space, t)
    return solve


def test_margin_child_is_refuted(monkeypatch):
    # the root branches on the vertex of colour 3, whose child could beat
    # the star of 2 by one only: it must take a vertex of colours 1 and
    # 2, but its two non-neighbours conflict, so propagation empties a
    # class and the child is not opened
    fam = Family.from_iterables(GroundSet((5,)), _PENTAGRAM)
    verdicts = []
    real = search._refuted
    monkeypatch.setattr(search, "_refuted",
                        lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    r = max_t_intersecting(fam, 1)
    monkeypatch.undo()
    plain = _without(monkeypatch, "refute")(fam, 1)
    assert verdicts == [True]
    assert (r.max_size, r.nodes_explored, plain.nodes_explored) == (2, 1, 2)
    assert r.witness == plain.witness == search._greedy_star(fam, 1)
    assert r.bound_used == plain.bound_used == 2


def test_refutation_changes_only_the_node_count(monkeypatch):
    # a refuted child holds no strict gain, so the search keeps the same
    # incumbents in the same order; the local-search seed may find a
    # larger start, never a larger tree
    plain = _without(monkeypatch, "refute")
    star_seeded = _without(monkeypatch, "seed")
    refuted = fewer = 0
    for fam, t in _seeded_subfamilies(20261021, 100, 10, 60, _GRID_BLOCKS):
        r = max_t_intersecting(fam, t)
        p = plain(fam, t)
        assert (r.max_size, r.witness, r.bound_used) == (p.max_size, p.witness, p.bound_used)
        assert r.nodes_explored <= p.nodes_explored
        refuted += r.nodes_explored < p.nodes_explored
        s = star_seeded(fam, t)
        assert r.max_size == s.max_size and r.nodes_explored <= s.nodes_explored
        assert r.bound_used >= s.bound_used == len(search._greedy_star(fam, t).members)
        if r.bound_used == s.bound_used:
            assert r.witness == s.witness
        else:
            fewer += 1
    assert refuted and fewer, (refuted, fewer)


def test_optimal_star_stays_the_witness(monkeypatch):
    # the local search only grows its set, and is adopted only when it
    # beats the star: an optimal star stays the witness
    for fam, t in ((Family.from_iterables(GroundSet((5,)), _PENTAGRAM), 1),
                   (enumerate_block(GroundSet((7,)), (3,)), 1),
                   (enumerate_quota(GroundSet((5, 5)), 3, (1, 1)), 1)):
        star = search._greedy_star(fam, t)
        r = max_t_intersecting(fam, t)
        assert (r.witness, r.bound_used) == (star, r.max_size)
        assert r.nodes_explored <= _without(monkeypatch, "seed")(fam, t).nodes_explored
    rep = check_quota_family(GroundSet((5, 5)), 3, (1, 1))
    assert (rep["verdict"], rep["witness_center"], rep["nodes_explored"]) == ("trivial", [1], 28)
    # here the star of 30 is not optimal: the seed finds the 34 at once
    r = max_t_intersecting(enumerate_quota(GroundSet((4, 4)), 4, (1, 2)), 1)
    assert (r.max_size, r.bound_used, r.nodes_explored) == (34, 34, 1)


def test_conflict_free_candidates_are_taken_in_one_node(monkeypatch):
    # any two 6-subsets of 11 elements meet, so the block is 1-intersecting,
    # but its best star holds only 252 of its 462 members.  The local
    # search takes every candidate; from the star alone, the root takes
    # them all at once, with no chain of nodes and no stack of candidate
    # masks behind it
    space = enumerate_block(GroundSet((11,)), (6,))
    for solve, seed in ((max_t_intersecting, 462), (_without(monkeypatch, "seed"), 252)):
        tracemalloc.start()
        try:
            r = solve(space, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (r.max_size, r.bound_used, r.nodes_explored) == (462, seed, 1)
        assert r.witness == space
        assert peak < 1 << 20, peak


def _assert_shifted_witness(witness, space, t):
    assert witness.members <= space.members
    assert is_t_intersecting(witness, t)
    assert is_shifted(witness)


def test_lp_and_block_report_on_every_small_block():
    # every block with p <= 2, n_i <= 6 and at most 60 members, edge parts
    # k_i = 0 and k_i = n_i included, at every 1 <= t <= sum(k): the LP
    # bounds the maximum, and on blocks without edge parts the report has
    # the same maximum, with a shifted witness inside the space
    checked = reported = 0
    for p in (1, 2):
        for sizes in product(range(1, 7), repeat=p):
            g = GroundSet(sizes)
            for k in product(*(range(n + 1) for n in sizes)):
                if block_size(g, k) > 60:
                    continue
                space = enumerate_block(g, k)
                interior = all(0 < k_i < n for k_i, n in zip(k, sizes))
                for t in range(1, sum(k) + 1):
                    plain = max_t_intersecting(space, t)
                    if len(space.members) <= 24:
                        exact = brute_force_max(space, t).max_size
                        assert plain.max_size == exact, (sizes, k, t)
                    lp = delsarte_bound(g, k, t)
                    assert lp >= plain.max_size, (sizes, k, t)
                    checked += 1
                    if interior:
                        rep = check_block_maximum(g, k, t)
                        assert rep["lp_bound"] == math.floor(lp), (sizes, k, t)
                        assert rep["max_size"] == plain.max_size, (sizes, k, t)
                        _assert_shifted_witness(rep["witness"], space, t)
                        reported += 1
    assert (checked, reported) == (2752, 757)


def test_block_report_searches_without_the_lp_above_its_cap():
    # (2,)^6 has 64 distance classes, above the LP's cap
    g, k = GroundSet((2,) * 6), (1,) * 6
    space = enumerate_block(g, k)
    rep = check_block_maximum(g, k, 2)
    assert rep["lp_bound"] is None
    assert rep["max_size"] == 22 == max_t_intersecting(space, 2).max_size
    _assert_shifted_witness(rep["witness"], space, 2)


def test_block_report_closes_the_frontier():
    # blocks the plain solver does not close in seconds; 46 is pinned by
    # it, 118 and 225 come from the down-set search alone.  The node
    # counts pin the search tree, as test_search_tree_is_pinned does for
    # max_t_intersecting
    for sizes, k, size, nodes in (((5, 6), (2, 3), 46, 47), ((6, 6), (3, 3), 118, 237),
                                  ((7, 7), (3, 3), 225, 313)):
        start = time.perf_counter()
        rep = check_block_maximum(GroundSet(sizes), k, 2)
        elapsed = time.perf_counter() - start
        assert (rep["max_size"], rep["nodes_explored"]) == (size, nodes), sizes
        assert elapsed < 5.0, (sizes, elapsed)
        assert len(rep["witness"].members) == size
        _assert_shifted_witness(rep["witness"], enumerate_block(GroundSet(sizes), k), 2)


def test_down_set_search_matches_the_solver_on_three_parts():
    # every block with p = 3, 2 <= n_i <= 5, 0 < k_i < n_i and at most 90
    # members, at every 1 <= t <= sum(k), searched without the LP stop
    checked = 0
    for sizes in product(range(2, 6), repeat=3):
        g = GroundSet(sizes)
        for k in product(*(range(1, n) for n in sizes)):
            if block_size(g, k) > 90:
                continue
            space = enumerate_block(g, k)
            for t in range(1, sum(k) + 1):
                got = search._search_down_sets(space, k, t, len(space.members))
                assert got.max_size == max_t_intersecting(space, t).max_size, (sizes, k, t)
                assert len(got.witness.members) == got.max_size
                _assert_shifted_witness(got.witness, space, t)
                checked += 1
    assert checked == 2637


def test_block_report_closes_at_the_root():
    for sizes, k, t, size in (((9,), (4,), 1, 56), ((6, 6), (2, 2), 1, 75)):
        rep = check_block_maximum(GroundSet(sizes), k, t)
        assert (rep["max_size"], rep["lp_bound"], rep["nodes_explored"]) == (size, size, 0)
        assert list(rep)[-3:] == ["lp_bound", "nodes_explored", "witness"]


def test_star_closure_witness_is_pinned():
    # the star of the optimal distribution that gives tied ratio links to
    # the lowest parts, centered on each part's first elements
    for sizes, k, t, center in (((5, 5), (2, 2), 1, [1]), ((4, 4, 4), (1, 1, 1), 1, [1]),
                                ((3, 4), (1, 2), 1, [4]), ((5, 5), (2, 2), 2, [1, 6])):
        g = GroundSet(sizes)
        rep = check_block_maximum(g, k, t)
        assert (rep["witness_center"], rep["nodes_explored"]) == (center, 0), sizes
        star = trivial_star(enumerate_block(g, k), mask_of(center))
        assert rep["witness"] == star, sizes
        assert rep["max_size"] == rep["star_bound"] == len(star.members), sizes


def test_block_report_closes_a_large_block_at_the_root():
    # 12,870 members: the star seed meets the LP, so no conflict graph is built
    start = time.perf_counter()
    rep = check_block_maximum(GroundSet((16,)), (8,), 1)
    elapsed = time.perf_counter() - start
    assert (rep["max_size"], rep["lp_bound"], rep["nodes_explored"]) == (6435, 6435, 0)
    assert elapsed < 2.0, elapsed


def test_block_report_refuses_a_bound_below_the_seed(monkeypatch):
    # the best star of (5,)/(2,) at t=1 has 4 members
    monkeypatch.setattr(search, "delsarte_bound", lambda ground, k, t: Fraction(3))
    with pytest.raises(InvariantError, match="beats the upper bound 3"):
        check_block_maximum(GroundSet((5,)), (2,), 1)


def test_upper_below_an_improvement_raises(monkeypatch):
    # (5,6)/(2,3) at t=2: the best star has 40 members, below the bound,
    # so the down-set search runs, and its window seed has 46
    monkeypatch.setattr(search, "delsarte_bound", lambda ground, k, t: Fraction(45))
    with pytest.raises(InvariantError, match="beats the upper bound 45"):
        check_block_maximum(GroundSet((5, 6)), (2, 3), 2)


def test_shifted_search_matches_unrestricted():
    for sizes, k, t in (((4, 4), (2, 2), 1), ((4, 4), (2, 2), 2),
                        ((5,), (2,), 1), ((3, 3), (2, 1), 1)):
        space = enumerate_block(GroundSet(sizes), k)
        plain = max_t_intersecting(space, t)
        shifted = check_block_maximum(GroundSet(sizes), k, t, shifted=True)
        assert shifted["max_size"] == plain.max_size
        assert is_shifted(shifted["witness"])
        assert is_t_intersecting(shifted["witness"], t)
        assert shifted["witness"].members <= space.members


def test_shifted_search_t_zero_is_full_block():
    space = enumerate_block(GroundSet((3, 3)), (1, 1))
    rep = check_block_maximum(GroundSet((3, 3)), (1, 1), 0, shifted=True)
    assert rep["witness"].members == space.members


def test_block_report_single_part():
    rep = check_block_maximum(GroundSet((5,)), (2,), 1)
    assert rep["max_size"] == 4
    assert rep["star_bound"] == 4
    assert rep["gap"] == 0
    assert rep["witness_center"] is not None
    assert rep["center_exchange_optimal"] is True
    assert rep["hypotheses"] == {"block_star": False, "ekr_threshold": True}
    assert rep["consistent"] is True


def test_block_report_t_equals_total():
    rep = check_block_maximum(GroundSet((4, 4)), (2, 2), 4)
    assert rep["max_size"] == 1
    assert rep["star_bound"] == 1
    assert rep["gap"] == 0


def test_quota_report_frozen_instance():
    rep = check_quota_family(GroundSet((4, 4)), 4, (1, 1))
    assert rep["max_size"] == 34
    assert rep["star_size"] == 34
    assert rep["verdict"] == "trivial"
    assert rep["hypotheses"] == {"parts_double_quota": True,
                                 "slack_all_but_one": True, "applies": True}


def test_quota_report_zero_quotas_classical():
    rep = check_quota_family(GroundSet((5,)), 2, (0,))
    assert rep["max_size"] == 4
    assert rep["star_size"] == 4
    assert rep["verdict"] == "trivial"
    # k = 0: the empty family is the maximum, and the empty stars attain it
    rep = check_quota_family(GroundSet((3, 3)), 0, (0, 0))
    assert (rep["max_size"], rep["star_size"]) == (0, 0)
    assert (rep["verdict"], rep["witness_center"]) == ("trivial", None)
    # the empty stars have no center to name
    assert rep["star_center"] is None


def test_quota_report_non_trivial_maxima():
    # three 2-sets of [3] pairwise meet; a star holds two of them
    rep = check_quota_family(GroundSet((3,)), 2, (0,))
    assert (rep["max_size"], rep["star_size"]) == (3, 2)
    assert (rep["verdict"], rep["witness_center"]) == ("non-trivial", None)
    # the flags hold, yet a non-star family beats every star: the members
    # meeting {5,6,7} in at least two elements are another such family
    rep = check_quota_family(GroundSet((4, 4)), 4, (1, 2))
    assert (rep["max_size"], rep["star_size"]) == (34, 30)
    assert (rep["verdict"], rep["witness_center"]) == ("non-trivial", None)
    assert rep["hypotheses"]["applies"] is True
    assert len(rep["witness"].members) == 34 and is_t_intersecting(rep["witness"], 1)
    space = enumerate_quota(GroundSet((4, 4)), 4, (1, 2))
    assert sum((m & mask_of([5, 6, 7])).bit_count() >= 2 for m in space.members) == 34


def test_solvers_do_not_judge_their_witness(monkeypatch):
    def refuse(*args):
        raise AssertionError("a solver judged its witness")

    monkeypatch.setattr(search, "is_full_t_star", refuse)
    # a seed holding every candidate, a search that keeps the seed, and
    # one that beats it
    space = enumerate_block(GroundSet((5,)), (2,))
    assert max_t_intersecting(trivial_star(space, 1), 1).max_size == 4
    assert max_t_intersecting(space, 1).max_size == 4
    assert max_t_intersecting(enumerate_block(GroundSet((3,)), (2,)), 1).max_size == 3
    assert brute_force_max(space, 0).max_size == 10
    for oracle in (search._subsets_max, search._cliques_max):
        assert oracle(space, _candidates(space, 1), 1).max_size == 4
    g = GroundSet((5, 6))
    space = enumerate_block(g, (2, 3))
    assert search._search_down_sets(space, (2, 3), 2, len(space.members)).max_size == 46


def test_quota_report_flag_violations():
    rep = check_quota_family(GroundSet((3, 4)), 4, (2, 1))
    assert rep["hypotheses"]["parts_double_quota"] is False
    assert rep["max_size"] >= rep["star_size"]
    rep = check_quota_family(GroundSet((2, 2)), 3, (1, 1))
    assert rep["hypotheses"]["slack_all_but_one"] is False


def test_quota_star_counts_match_enumeration():
    rng = random.Random(20240817)
    for _ in range(25):
        p = rng.randint(1, 2)
        sizes = tuple(rng.randint(2, 5) for _ in range(p))
        quotas = tuple(rng.randint(0, min(2, n - 1)) for n in sizes)
        lo = max(sum(quotas), 1)
        hi = sum(sizes)
        if lo > hi:
            continue
        k = rng.randint(lo, hi)
        g = GroundSet(sizes)
        space = enumerate_quota(g, k, quotas)
        units = [tuple(int(j == i) for j in range(p)) for i in range(p)]
        counted = union_star_sizes(g, quota_profiles(g, k, quotas), units)
        for part in range(p):
            e = g.part_elements(part)[0]
            assert counted[part] == len(trivial_star(space, 1 << (e - 1)).members)


def test_shifted_search_refuses_an_unshifted_witness(monkeypatch):
    # the star at 2 has the best star size but is not shifted: {2,3} is in,
    # its shift {1,3} is out
    g = GroundSet((5,))
    star = trivial_star(enumerate_block(g, (2,)), 0b10)
    monkeypatch.setattr(search, "trivial_star", lambda space, center: star)
    assert check_block_maximum(g, (2,), 1)["witness"] == star
    with pytest.raises(InvariantError, match="not shifted"):
        check_block_maximum(g, (2,), 1, shifted=True)


def test_check_quota_family_checks_the_star_bound(monkeypatch):
    monkeypatch.setattr(search, "union_star_sizes",
                        lambda ground, profiles, dists: [10 ** 6 for _ in dists])
    with pytest.raises(InvariantError, match="below the star size"):
        check_quota_family(GroundSet((4, 4)), 4, (1, 1))


def test_check_quota_family_searches_under_the_callers_cap(monkeypatch):
    # the one cap that refused the space before it was enumerated also
    # bounds the search, above the default too
    monkeypatch.setattr(core, "DEFAULT_SEARCH_CAP", 10)
    with pytest.raises(InstanceTooLargeError, match="quota family has 100 members"):
        check_quota_family(GroundSet((5, 5)), 3, (1, 1))
    assert check_quota_family(GroundSet((5, 5)), 3, (1, 1), cap=100)["max_size"] == 30
