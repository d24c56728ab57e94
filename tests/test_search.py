"""Solver tests: oracle agreement, witness validity, report builders."""

import hashlib
import math
import random
import sys
import time
import tracemalloc
from itertools import combinations, product

import pytest

from tstar import bounds, core, search
from tstar.bounds import delsarte_bound, union_star_sizes
from tstar.core import (Family, GroundSet, InstanceTooLargeError,
                        InvariantError, ProfileSet, block_size, enumerate_block,
                        enumerate_profile_union, enumerate_quota, mask_of,
                        quota_profiles, trivial_star)
from tstar.search import (brute_force_max, check_block_maximum,
                          check_quota_family, max_t_intersecting)
from tstar.shifting import is_shifted, shift_closure
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


def _greedy_star(fam, t):
    """The solver's star seed, counted member by member, and its center:
    t times, the element most frequent among the candidates holding the
    center so far, the least on ties."""
    members = _candidates(fam, t)
    center = 0
    for _ in range(t):
        counts = {}
        for m in members:
            for e in core.elements_of(m & ~center):
                counts[e] = counts.get(e, 0) + 1
        if not counts:
            break
        center |= mask_of([min(counts, key=lambda e: (-counts[e], e))])
        members = [m for m in members if m & center == center]
    return center, Family(fam.ground, frozenset(members))


def _pairwise_conflicts(verts, t):
    """Conflict rows by comparing every pair of candidates."""
    return [sum(1 << b for b, mb in enumerate(verts) if b != a and (ma & mb).bit_count() < t)
            for a, ma in enumerate(verts)]


def _block_kernel(ground, k, t, goal=None):
    """The down-set kernel on the block of profile k from its best window
    family, as check_block_maximum runs it, by default up to the block's
    size (no LP stop)."""
    space = enumerate_block(ground, k)
    size, r, w = search.max_window_family(t, ground, k)
    got = search._search_down_sets(space, t, len(space.members) if goal is None else goal, w, r)
    assert got.bound_used == size
    return got


def test_conflict_rows_match_a_pairwise_reference(monkeypatch):
    # the rows the clique route hands its local search, with the star
    # seed, on random members of any size (those below t are dropped); a
    # family whose star holds every candidate builds no rows, and then no
    # two candidates conflict
    seen = []
    real = search._local_search
    monkeypatch.setattr(search, "_local_search",
                        lambda conflict, chosen: seen.append((conflict, chosen))
                        or real(conflict, chosen))
    rng = random.Random(20261023)
    families = [(Family(GroundSet((5,)), frozenset()), 1),
                (Family.from_iterables(GroundSet((3, 3)), [[1, 4]]), 2),
                (Family.from_iterables(GroundSet((4,)), [[1], [2], [1, 2]]), 3)]
    for _ in range(400):
        g = GroundSet(tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3))))
        members = {rng.randrange(1 << g.n) for _ in range(rng.randint(0, 30))}
        families.append((Family(g, frozenset(members)), rng.randint(0, 5)))
    built = 0
    for fam, t in families:
        verts = _candidates(fam, t)
        want = _pairwise_conflicts(verts, t)
        seen.clear()
        search._max_clique(fam, t)
        if not seen:
            assert not any(want), (sorted(fam.members), t)
            continue
        built += 1
        (conflict, chosen), = seen
        assert conflict == want, (sorted(fam.members), t)
        assert not any(row >> i & 1 for i, row in enumerate(conflict))
        star = _greedy_star(fam, t)[1].members
        assert chosen == sum(1 << i for i, m in enumerate(verts) if m in star)
    assert built > 100, built

    # the down-set kernel's rows over its mixed-radix vertices, read from
    # its locals as it returns: a row cut to the vertices the root keeps
    # (alive), and extra[v], v's conflicts among those the root dropped.
    # For each kept v, down[v] holds the vertices partwise below v, which
    # are all kept, and up[v] the kept vertices above v
    kernel = search._search_down_sets.__code__
    kept = {}

    def returned(frame, event, arg):
        if event == "return" and frame.f_code is kernel:
            kept.update(frame.f_locals)

    built = 0
    for sizes, k in (((7,), (3,)), ((5, 6), (2, 3)), ((2, 3, 4), (1, 1, 2)),
                     ((3, 4, 5), (1, 2, 3)), ((4, 4, 4), (2, 2, 2))):
        g = GroundSet(sizes)
        space = enumerate_block(g, k)
        below = None
        for t in range(1, sum(k) + 1):
            kept.clear()
            previous = sys.getprofile()
            sys.setprofile(returned)
            try:
                _block_kernel(g, k, t)
            finally:
                sys.setprofile(previous)
            if "conflict" not in kept:
                continue    # the window family holds the block: no rows built
            built += 1
            verts, alive = kept["verts"], kept["alive"]
            assert sorted(verts) == sorted(space.members)
            for v, row in enumerate(_pairwise_conflicts(verts, t)):
                want = (row & alive, (row & ~alive).bit_count()) if alive >> v & 1 else (0, 0)
                assert (kept["conflict"][v], kept["extra"][v]) == want, (sizes, k, t, v)
            if below is None:
                below = _partwise_below(g, verts)
            for v in range(len(verts)):
                if alive >> v & 1:
                    down = sum(1 << u for u in range(len(verts)) if below[u][v])
                    up = sum(1 << u for u in range(len(verts)) if below[v][u])
                    assert kept["down"][v] == down, (sizes, k, t, v)
                    assert kept["up"][v] == up & alive, (sizes, k, t, v)
                    assert not down & ~alive, (sizes, k, t, v)
    assert built == 23, built


def _partwise_below(ground, verts):
    """below[u][v]: whether vertex u lies below v in the product shifting
    order, its sorted elements at most v's, one by one, in every part."""
    parts = [mask_of(ground.part_elements(i)) for i in range(ground.p)]
    split = [[core.elements_of(m & part) for part in parts] for m in verts]
    return [[all(a <= b for x, y in zip(su, sv) for a, b in zip(x, y)) for sv in split]
            for su in split]


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


def _lower_covers(ground, m):
    """m with one element e moved to e - 1, of the same part and not in m."""
    firsts = {ground.part_elements(i)[0] for i in range(ground.p)}
    els = set(core.elements_of(m))
    return [m ^ mask_of([e, e - 1]) for e in sorted(els) if e not in firsts and e - 1 not in els]


def _refuse(*args):
    raise AssertionError("the wrong route searched")


def test_kernel_route_matches_the_clique_route_on_shifted_families(monkeypatch):
    # seeded shift closures of random families (p <= 3, parts of 1-6
    # elements, 0-40 members, t = 1..4) are closed under in-part lower
    # shifts, so max_t_intersecting searches their down-sets; the clique
    # route, called directly, and brute force give the same maximum.
    # With one lower cover removed a family is not closed, and takes the
    # clique route: the same result as calling it directly
    rng = random.Random(20261027)
    opened = 0
    for _ in range(1500):
        g = GroundSet(tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3))))
        members = {rng.randrange(1 << g.n) for _ in range(rng.randint(0, 40))}
        closed, _ = shift_closure(Family(g, frozenset(members)))
        t = rng.randint(1, 4)
        with monkeypatch.context() as m:
            m.setattr(search, "_max_clique", _refuse)
            got = max_t_intersecting(closed, t)
        want = search._max_clique(closed, t)
        assert got.max_size == want.max_size == brute_force_max(closed, t).max_size, \
            (g.sizes, sorted(closed.members), t)
        # the kernel's seed is the window family of the greedy center's
        # profile: the center is a union of part prefixes, so it is the star
        c, star = _greedy_star(closed, t)
        assert g.prefix_mask(g.profile(c)) == c, (g.sizes, sorted(closed.members), t)
        assert got.bound_used == len(star.members), (g.sizes, sorted(closed.members), t)
        for r in (got, want):
            assert len(r.witness.members) == r.max_size
            assert r.witness.members <= closed.members
            assert is_t_intersecting(r.witness, t)
        covers = [c for m in _candidates(closed, t) for c in _lower_covers(g, m)]
        if covers:
            broken = Family(g, closed.members - {rng.choice(covers)})
            with monkeypatch.context() as m:
                m.setattr(search, "_search_down_sets", _refuse)
                r = max_t_intersecting(broken, t)
            d = search._max_clique(broken, t)
            assert (r.max_size, r.witness, r.nodes_explored, r.bound_used) == \
                (d.max_size, d.witness, d.nodes_explored, d.bound_used)
            opened += 1
    assert opened == 1003, opened


def test_kernel_route_matches_the_clique_route_on_unions_and_quotas(monkeypatch):
    # every union of two profiles and every quota space with p <= 2,
    # parts of 2-5 elements and at most 60 members, at t = 1, 2, 3: each
    # is closed under in-part lower shifts, so max_t_intersecting searches
    # its down-sets, to the clique route's maximum
    spaces = []
    for p in (1, 2):
        for sizes in product(range(2, 6), repeat=p):
            g = GroundSet(sizes)
            for pair in combinations(product(*(range(1, n + 1) for n in sizes)), 2):
                if sum(block_size(g, r) for r in pair) <= 60:
                    spaces.append(enumerate_profile_union(g, ProfileSet(pair)))
            for k in range(1, g.n + 1):
                for quotas in product(*(range(n) for n in sizes)):
                    if sum(quotas) <= k and sum(block_size(g, r) for r in
                                                quota_profiles(g, k, quotas)) <= 60:
                        spaces.append(enumerate_quota(g, k, quotas))
    for space in spaces:
        for t in (1, 2, 3):
            with monkeypatch.context() as m:
                m.setattr(search, "_max_clique", _refuse)
                got = max_t_intersecting(space, t)
            want = search._max_clique(space, t)
            assert got.max_size == want.max_size, (space.ground.sizes, sorted(space.members), t)
            assert is_t_intersecting(got.witness, t) and got.witness.members <= space.members
    assert len(spaces) == 2160


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
    # the cap counts candidates, the members with at least t elements: of
    # 20 singletons and {1,2}, one at t = 2 and all 21 at t = 1
    g = GroundSet((20,))
    fam = Family.from_iterables(g, [[e] for e in range(1, 21)] + [[1, 2]])
    r = max_t_intersecting(fam, 2, cap=5)
    assert (r.max_size, r.witness.members) == (1, frozenset({mask_of([1, 2])}))
    with pytest.raises(InstanceTooLargeError, match="search space has 21 candidates, cap is 20"):
        max_t_intersecting(fam, 1, cap=20)
    assert max_t_intersecting(fam, 1, cap=21).max_size == 2


def test_search_tree_is_pinned():
    # (max_size, nodes_explored) of four full blocks in the clique route;
    # a change to the colouring, the bound, the refutation or the
    # branching order shows here first.  Their stars are optimal, so the
    # seed is the star.  max_t_intersecting searches a block's down-sets,
    # from the same star, in the kernel's pinned number of nodes
    for sizes, k, t, want, kernel in (((8,), (3,), 1, (21, 30), (21, 1)),
                                      ((10,), (4,), 2, (28, 876), (28, 3)),
                                      ((6, 6), (2, 2), 1, (75, 731), (75, 7)),
                                      ((9,), (4,), 1, (56, 1_677), (56, 9))):
        space = enumerate_block(GroundSet(sizes), k)
        r = search._max_clique(space, t)
        assert (r.max_size, r.nodes_explored) == want, (sizes, k, t)
        assert r.bound_used == r.max_size, (sizes, k, t)
        d = max_t_intersecting(space, t)
        assert (d.max_size, d.nodes_explored) == kernel, (sizes, k, t)
        assert (d.witness, d.bound_used) == (r.witness, r.max_size), (sizes, k, t)


def test_search_tree_is_pinned_on_subfamilies():
    # the totals over 100 seeded subfamilies, which have no symmetry, and
    # a digest of their witnesses in order
    nodes = seeds = 0
    digest = hashlib.sha256()
    for fam, t in _seeded_subfamilies(20261021, 100, 10, 60, _GRID_BLOCKS):
        r = max_t_intersecting(fam, t)
        nodes += r.nodes_explored
        seeds += r.bound_used
        digest.update(repr(sorted(r.witness.members)).encode())
    assert (nodes, seeds) == (614, 1527)
    assert digest.hexdigest()[:16] == "91e1de76893274b9"


# the 2-sets {i, i+2} of a 5-cycle: each is disjoint from two others, so
# the conflict graph at t = 1 is a 5-cycle, whose maximum is 2 but whose
# colouring needs three conflict cliques
_PENTAGRAM = [[1, 3], [2, 4], [3, 5], [4, 1], [5, 2]]


def _without(monkeypatch, *levers):
    """The clique route with the margin refutation ("refute") or the
    local-search seed ("seed") switched off."""
    def solve(space, t):
        with monkeypatch.context() as m:
            if "refute" in levers:
                m.setattr(search, "_refuted", lambda live, classes, conflict: False)
            if "seed" in levers:
                m.setattr(search, "_local_search", lambda conflict, chosen: chosen)
            return search._max_clique(space, t)
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
    assert r.witness == plain.witness == _greedy_star(fam, 1)[1]
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
        assert r.bound_used >= s.bound_used == len(_greedy_star(fam, t)[1].members)
        if r.bound_used == s.bound_used:
            assert r.witness == s.witness
        else:
            fewer += 1
    assert refuted and fewer, (refuted, fewer)


def test_optimal_star_stays_the_witness(monkeypatch):
    # the local search only grows its set, and is adopted only when it
    # beats the star: an optimal star stays the witness.  The down-set
    # kernel starts from the same star and changes its incumbent only on
    # a strict gain, so on the shift-closed block and quota space it
    # keeps the star too
    for fam, t in ((Family.from_iterables(GroundSet((5,)), _PENTAGRAM), 1),
                   (enumerate_block(GroundSet((7,)), (3,)), 1),
                   (enumerate_quota(GroundSet((5, 5)), 3, (1, 1)), 1)):
        star = _greedy_star(fam, t)[1]
        r = search._max_clique(fam, t)
        assert (r.witness, r.bound_used) == (star, r.max_size)
        assert r.nodes_explored <= _without(monkeypatch, "seed")(fam, t).nodes_explored
        d = max_t_intersecting(fam, t)
        assert (d.max_size, d.witness, d.bound_used) == (r.max_size, star, r.max_size)
    rep = check_quota_family(GroundSet((5, 5)), 3, (1, 1))
    assert (rep["verdict"], rep["witness_center"], rep["nodes_explored"]) == ("trivial", [1], 5)
    # here the star of 30 is not optimal: the seed finds the 34 at once;
    # the kernel, from the star, needs 29 nodes to find and prove it
    space = enumerate_quota(GroundSet((4, 4)), 4, (1, 2))
    r = search._max_clique(space, 1)
    assert (r.max_size, r.bound_used, r.nodes_explored) == (34, 34, 1)
    d = max_t_intersecting(space, 1)
    assert (d.max_size, d.bound_used, d.nodes_explored) == (34, 30, 29)


def test_conflict_free_candidates_are_taken_in_one_node(monkeypatch):
    # any two 6-subsets of 11 elements meet, so the block is 1-intersecting,
    # but its best star holds only 252 of its 462 members.  The local
    # search takes every candidate; from the star alone, the root takes
    # them all at once, with no chain of nodes and no stack of candidate
    # masks behind it
    space = enumerate_block(GroundSet((11,)), (6,))
    for solve, seed in ((search._max_clique, 462), (_without(monkeypatch, "seed"), 252),
                        (max_t_intersecting, 252)):
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
    # bounds the maximum, the down-set route and the clique route agree,
    # and on blocks without edge parts the report has the same maximum,
    # with a shifted witness inside the space
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
                    assert plain.max_size == search._max_clique(space, t).max_size, (sizes, k, t)
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
    # max_t_intersecting: they move with the pick rule (which counts the
    # conflicts the root dropped) or the matching bound
    for sizes, k, size, nodes in (((5, 6), (2, 3), 46, 21), ((6, 6), (3, 3), 118, 157),
                                  ((7, 7), (3, 3), 225, 83)):
        start = time.perf_counter()
        rep = check_block_maximum(GroundSet(sizes), k, 2)
        elapsed = time.perf_counter() - start
        assert (rep["max_size"], rep["nodes_explored"]) == (size, nodes), sizes
        assert elapsed < 5.0, (sizes, elapsed)
        assert len(rep["witness"].members) == size
        _assert_shifted_witness(rep["witness"], enumerate_block(GroundSet(sizes), k), 2)


def test_block_report_closes_eight_eight_at_t_three():
    # 4,900 members, above the best star (525) and below the LP floor
    # (1010): the window family of 805 is a maximum, and the down-set
    # search proves it in a pinned number of nodes
    g, k = GroundSet((8, 8)), (4, 4)
    start = time.perf_counter()
    rep = check_block_maximum(g, k, 3)
    elapsed = time.perf_counter() - start
    assert (rep["max_size"], rep["star_bound"], rep["lp_bound"]) == (805, 525, 1010)
    assert rep["nodes_explored"] == 635
    assert elapsed < 20.0, elapsed
    assert len(rep["witness"].members) == 805
    _assert_shifted_witness(rep["witness"], enumerate_block(g, k), 3)


def test_down_set_search_improves_on_a_weak_seed(monkeypatch):
    # every block tested elsewhere has an optimal window seed, so the
    # kernel never raises its incumbent there.  Seeded with the best star
    # of (5,6)/(2,3) at t=2 (40 members, r = 0), it must find 46 on its
    # own, proving it below the LP floor of 57, and stop at a goal of 46
    monkeypatch.setattr(search, "max_window_family", lambda t, ground, k: (40, 0, (1, 1)))
    g, k = GroundSet((5, 6)), (2, 3)
    space = enumerate_block(g, k)
    rep = check_block_maximum(g, k, 2)
    assert (rep["max_size"], rep["star_bound"], rep["lp_bound"]) == (46, 40, 57)
    assert len(rep["witness"].members) == 46
    _assert_shifted_witness(rep["witness"], space, 2)
    stopped = _block_kernel(g, k, 2, 46)
    assert (stopped.max_size, stopped.bound_used) == (46, 40)
    assert 0 < stopped.nodes_explored < rep["nodes_explored"]
    _assert_shifted_witness(stopped.witness, space, 2)


def test_least_matches_a_brute_force_minimum():
    # every k-subset m of a part of n <= 10 elements: the fewest elements m
    # shares with a set below it in the shifting order, which compares
    # sorted elements one by one; up to n = 7 also the fewest two sets
    # below m share
    checked = 0
    for n in range(1, 11):
        for k in range(n + 1):
            subsets = list(combinations(range(n), k))
            for m in subsets:
                below = [set(x) for x in subsets if all(a <= b for a, b in zip(x, m))]
                want = min(len(x & set(m)) for x in below)
                got = search._least(sum(1 << e for e in m))
                assert got == want, (n, m)
                if n <= 7:
                    assert got == min(len(x & y) for x in below for y in below), (n, m)
                checked += 1
    assert checked == 2046


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
                got = _block_kernel(g, k, t)
                assert got.max_size == search._max_clique(space, t).max_size, (sizes, k, t)
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
    monkeypatch.setattr(search, "_delsarte_lp", lambda ground, k, t: (3, 1))
    with pytest.raises(InvariantError, match="beats the upper bound 3"):
        check_block_maximum(GroundSet((5,)), (2,), 1)


def test_upper_below_an_improvement_raises(monkeypatch):
    # (5,6)/(2,3) at t=2: the best star has 40 members, below the bound,
    # so the down-set search runs, and its window seed has 46, above the
    # floor of the bound 91/2
    monkeypatch.setattr(search, "_delsarte_lp", lambda ground, k, t: (91, 2))
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
    # 480 members: the down-set kernel proves the star of 155 in 13 nodes
    rep = check_quota_family(GroundSet((6, 6)), 4, (1, 1))
    assert (rep["max_size"], rep["verdict"], rep["witness_center"],
            rep["nodes_explored"]) == (155, "trivial", [1], 13)


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
    # the same three through the clique route
    assert search._max_clique(trivial_star(space, 1), 1).max_size == 4
    assert search._max_clique(space, 1).max_size == 4
    assert search._max_clique(enumerate_block(GroundSet((3,)), (2,)), 1).max_size == 3
    assert brute_force_max(space, 0).max_size == 10
    for oracle in (search._subsets_max, search._cliques_max):
        assert oracle(space, _candidates(space, 1), 1).max_size == 4
    g = GroundSet((5, 6))
    space = enumerate_block(g, (2, 3))
    assert _block_kernel(g, (2, 3), 2).max_size == 46


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


def test_quota_report_at_every_t_matches_brute_force():
    # every quota space with p <= 2, parts of 2-5 elements and at most 40
    # members, at t = 2 and 3: the maximum is brute force's, the best star
    # the most members holding one t-set, and the centers hold what the
    # report says
    checked = non_trivial = 0
    for p in (1, 2):
        for sizes in product(range(2, 6), repeat=p):
            g = GroundSet(sizes)
            for k in range(1, g.n + 1):
                for quotas in product(*(range(n) for n in sizes)):
                    if sum(quotas) > k or sum(block_size(g, r) for r in
                                              quota_profiles(g, k, quotas)) > 40:
                        continue
                    space = enumerate_quota(g, k, quotas)
                    for t in (2, 3):
                        rep = check_quota_family(g, k, quotas, t)
                        key = (sizes, k, quotas, t)
                        assert rep["max_size"] == brute_force_max(space, t).max_size, key
                        stars = [len(trivial_star(space, mask_of(c)).members)
                                 for c in combinations(range(1, g.n + 1), t)]
                        assert rep["star_size"] == max(stars, default=0), key
                        if rep["star_center"] is None:
                            assert rep["star_size"] == 0, key
                        else:
                            center = trivial_star(space, mask_of(rep["star_center"]))
                            assert len(rep["star_center"]) == t, key
                            assert len(center.members) == rep["star_size"], key
                        trivial = rep["max_size"] == rep["star_size"]
                        assert rep["verdict"] == ("trivial" if trivial else "non-trivial"), key
                        if rep["witness_center"] is not None:
                            assert rep["witness"] == trivial_star(
                                space, mask_of(rep["witness_center"])), key
                        if trivial and rep["star_center"] is not None:
                            # the search starts from the best star and keeps it
                            assert rep["witness"] == center, key
                        checked += 1
                        non_trivial += not trivial
    assert (checked, non_trivial) == (1864, 946)


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
    monkeypatch.setattr(bounds, "union_star_sizes",
                        lambda ground, profiles, dists: [10 ** 6 for _ in dists])
    with pytest.raises(InvariantError, match="the best star has 34 members, counted 1000000"):
        check_quota_family(GroundSet((4, 4)), 4, (1, 1))


def test_check_block_maximum_checks_the_star_bound(monkeypatch):
    # (2,)^6 has 64 distance classes, above the LP's cap, so only the
    # enumerated star can catch a miscounted one at the root
    monkeypatch.setattr(search, "union_star_sizes",
                        lambda ground, profiles, dists: [10 ** 6 for _ in dists])
    with pytest.raises(InvariantError, match="the best star has 32 members, counted 1000000"):
        check_block_maximum(GroundSet((2,) * 6), (1,) * 6, 1)


def test_a_window_family_must_be_t_intersecting():
    # the kernel builds its seed from a window (w, r): the candidates
    # meeting the first sum(w) elements in at least t + r, which it takes
    # only when sum(w) <= t + 2r, the test that makes them t-intersecting.
    # {1,2} met in one element at t = 1 is refused; {1,2,3} met in two is
    # the 3-member seed {1,2},{1,3},{2,3}
    space = enumerate_block(GroundSet((5,)), (2,))
    with pytest.raises(InvariantError, match=r"sum\(w\) = 2 exceeds t \+ 2r = 1"):
        search._search_down_sets(space, 1, 10, (2,), 0)
    got = search._search_down_sets(space, 1, 3, (3,), 1)
    assert (got.max_size, got.bound_used, got.nodes_explored) == (3, 3, 0)
    assert got.witness == Family.from_iterables(GroundSet((5,)), [[1, 2], [1, 3], [2, 3]])


def test_a_huge_ground_costs_what_its_candidates_span(monkeypatch):
    # one list entry or mask bit per ground element would take terabytes
    # for a 10^12-element part; the solver's index and masks stop at the
    # widest candidate, so each route answers as on a 5-element ground.
    # {1,2},{1,3},{2,3} is shifted and goes to the down-set search; the
    # other misses {2,4}, a lower cover of {2,5}, and goes to the clique
    # search
    for sizes in ((10 ** 12,), (10 ** 12, 3)):
        g = GroundSet(sizes)
        for sets, other in (([[1, 2], [1, 3], [2, 3]], "_max_clique"),
                            ([[1, 2], [1, 3], [1, 4], [2, 5]], "_search_down_sets")):
            fam = Family.from_iterables(g, sets)
            for t in (1, 2):
                small = max_t_intersecting(Family(GroundSet((5,)), fam.members), t)
                tracemalloc.start()
                try:
                    with monkeypatch.context() as m:
                        m.setattr(search, other, _refuse)
                        r = max_t_intersecting(fam, t)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert (r.max_size, r.witness.members, r.nodes_explored, r.bound_used) == \
                    (small.max_size, small.witness.members, small.nodes_explored,
                     small.bound_used), (sizes, sets, t)
                assert peak < 1 << 20, peak


def test_check_quota_family_searches_under_the_callers_cap(monkeypatch):
    # the one cap that refused the space before it was enumerated also
    # bounds the search, above the default too
    monkeypatch.setattr(core, "DEFAULT_SEARCH_CAP", 10)
    with pytest.raises(InstanceTooLargeError, match="quota family has 100 members"):
        check_quota_family(GroundSet((5, 5)), 3, (1, 1))
    assert check_quota_family(GroundSet((5, 5)), 3, (1, 1), cap=100)["max_size"] == 30
