from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import pytest

from tstar.core import (
    EmptyFamilyError,
    Family,
    GroundSet,
    HypothesisViolationError,
    InvalidParametersError,
    enumerate_block,
    mask_of,
    parse_family,
    trivial_star,
)
from tstar.shifting import simultaneous_closure
from tstar.verify import (
    are_cross_t_intersecting,
    check_partwise_prefix_intersection,
    check_prefix_intersection,
    check_star_preservation,
    is_full_t_star,
    is_t_intersecting,
    star_preservation_hypothesis,
)


def _fam(ground, *sets):
    return Family.from_iterables(ground, sets)


# ---------------------------------------------------------------------------
# basic predicates

def test_is_t_intersecting():
    g = GroundSet((4,))
    assert is_t_intersecting(_fam(g, [1, 2], [1, 3]), 1)
    assert not is_t_intersecting(_fam(g, [1, 2], [3, 4]), 1)
    # a singleton member must itself have >= t elements
    assert not is_t_intersecting(_fam(g, [1]), 2)
    assert is_t_intersecting(Family(g, frozenset()), 3)
    assert is_t_intersecting(_fam(g, [1], [2]), 0)


def test_counterexample_family_small_analogue():
    # members of a block meeting a fixed window in >= 3 of 4 elements are
    # pairwise 2-intersecting inside the window
    g = GroundSet((6, 4))
    blk = enumerate_block(g, (4, 2))
    window = mask_of([1, 2, 3, 4])
    fam = Family(g, frozenset(m for m in blk.members
                              if (m & window).bit_count() >= 3))
    assert is_t_intersecting(fam, 2)


def test_cross_intersecting():
    g = GroundSet((4,))
    assert are_cross_t_intersecting(_fam(g, [1, 2]), _fam(g, [1, 3]), 1)
    assert not are_cross_t_intersecting(_fam(g, [1, 2]), _fam(g, [3, 4]), 1)
    fam = _fam(g, [1, 2], [1, 3], [1, 4])
    assert are_cross_t_intersecting(fam, fam, 1)
    with pytest.raises(EmptyFamilyError):
        are_cross_t_intersecting(fam, Family(g, frozenset()), 1)


# ---------------------------------------------------------------------------
# star detection

def test_star_detection_round_trip():
    g = GroundSet((4, 4))
    blk = enumerate_block(g, (2, 2))
    center = mask_of([1, 5])
    star = trivial_star(blk, center)
    assert is_full_t_star(star, blk, 2) == center


def test_star_detection_negative_cases():
    g = GroundSet((4, 4))
    blk = enumerate_block(g, (2, 2))
    # the full block has no common element
    assert is_full_t_star(blk, blk, 1) is None
    # a proper subfamily of a star is not a full star
    star = trivial_star(blk, mask_of([1]))
    chopped = Family(g, frozenset(sorted(star.members)[:-1]))
    assert is_full_t_star(chopped, blk, 1) is None
    assert is_full_t_star(Family(g, frozenset()), blk, 1) is None


def test_star_detection_all_centers():
    g = GroundSet((4, 4))
    blk = enumerate_block(g, (2, 2))
    for cand in combinations(range(1, 9), 2):
        center = mask_of(cand)
        star = trivial_star(blk, center)
        if star.members:
            assert is_full_t_star(star, blk, 2) == center


def test_star_detection_requires_subfamily():
    g = GroundSet((4,))
    blk = enumerate_block(g, (2,))
    alien = _fam(g, [1, 2, 3])
    with pytest.raises(Exception):
        is_full_t_star(alien, blk, 1)


def test_predicates_refuse_two_grounds():
    # one set of masks on (3, 3) and on (6,): a star on the first ground
    # must not pass for a star of a space on the second
    split, whole = GroundSet((3, 3)), GroundSet((6,))
    space = enumerate_block(split, (1, 1))
    star = trivial_star(space, mask_of([1]))
    assert is_full_t_star(star, space, 1) == mask_of([1])
    for fam, other in ((Family(whole, star.members), space),
                       (star, Family(whole, space.members))):
        with pytest.raises(InvalidParametersError):
            is_full_t_star(fam, other, 1)
        with pytest.raises(InvalidParametersError):
            are_cross_t_intersecting(fam, other, 1)


# ---------------------------------------------------------------------------
# prefix-window checks

def test_prefix_intersection_trivial():
    g = GroundSet((4,))
    a = _fam(g, [1, 2])
    assert check_prefix_intersection(a, a, 1, 2, 2)
    assert check_prefix_intersection(Family(g, frozenset()), a, 1, 2, 2)


def test_prefix_intersection_flags_unshifted():
    g = GroundSet((4,))
    a = _fam(g, [2, 3])
    with pytest.raises(HypothesisViolationError):
        check_prefix_intersection(a, a, 1, 2, 2)


def test_prefix_intersection_flags_bad_sizes():
    g = GroundSet((4,))
    a = _fam(g, [1, 2])
    b = _fam(g, [1, 2, 3])
    with pytest.raises(HypothesisViolationError):
        check_prefix_intersection(a, b, 1, 2, 2)  # B is not 2-uniform
    with pytest.raises(HypothesisViolationError):
        check_prefix_intersection(b, a, 1, 3, 2)  # r > s
    with pytest.raises(HypothesisViolationError, match="A must be r-uniform"):
        check_prefix_intersection(b, b, 1, 2, 3)
    mixed = _fam(g, [1, 2], [1, 2, 3])
    with pytest.raises(HypothesisViolationError, match="A must be r-uniform"):
        check_prefix_intersection(mixed, a, 1, 2, 2)
    with pytest.raises(HypothesisViolationError, match="B must be s-uniform"):
        check_prefix_intersection(a, mixed, 1, 2, 2)
    for other in (_fam(GroundSet((5,)), [1, 2]), _fam(GroundSet((2, 2)), [1, 3])):
        with pytest.raises(HypothesisViolationError, match="single-part ground"):
            check_prefix_intersection(a, other, 1, 2, 2)


def test_prefix_intersection_randomized():
    # seeded harness: build cross-t pairs around a shared core, compress
    # both in lockstep, and check the window inequality
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(4, 12)
        g = GroundSet((n,))
        t = rng.randint(1, 2)
        r = rng.randint(t, max(t, n // 2))
        s = rng.randint(r, n - 1) if r < n else r
        core = rng.sample(range(1, n + 1), t)
        a = Family(g, frozenset(
            mask_of(core) | mask_of(rng.sample(
                [e for e in range(1, n + 1) if e not in core], r - t))
            for _ in range(rng.randint(1, 4))))
        b = Family(g, frozenset(
            mask_of(core) | mask_of(rng.sample(
                [e for e in range(1, n + 1) if e not in core], s - t))
            for _ in range(rng.randint(1, 4))))
        sa, sb = simultaneous_closure([a, b])
        assert check_prefix_intersection(sa, sb, t, r, s)


def test_partwise_prefix_trivial():
    g = GroundSet((6, 6))
    a = _fam(g, [1, 2, 7, 8])
    assert check_partwise_prefix_intersection(a, a, 2, (2, 2), (2, 2))
    assert check_partwise_prefix_intersection(a, Family(g, frozenset()), 2, (2, 2), (2, 2))


def test_partwise_prefix_non_shifted_witness():
    # a tail-located member misses every prefix window entirely, so the
    # conclusion fails once the shiftedness hypothesis is dropped
    g = GroundSet((7, 7))
    a = _fam(g, [6, 7, 13, 14])
    with pytest.raises(HypothesisViolationError):
        check_partwise_prefix_intersection(a, a, 2, (2, 2), (2, 2))
    assert check_partwise_prefix_intersection(
        a, a, 2, (2, 2), (2, 2), require_shifted=False) is False


def test_partwise_prefix_flags_small_parts():
    g = GroundSet((4, 7))
    a = _fam(g, [1, 2, 8, 9])
    with pytest.raises(HypothesisViolationError):
        # part 0 needs n_0 > rA_0 + rB_0 - 1 = 4, and n_0 is exactly 4
        check_partwise_prefix_intersection(a, a, 2, (2, 2), (3, 2))
    with pytest.raises(HypothesisViolationError, match="share a ground set"):
        check_partwise_prefix_intersection(a, _fam(GroundSet((4, 8)), [1, 2, 8, 9]),
                                           2, (2, 2), (2, 2))
    with pytest.raises(HypothesisViolationError, match="t must be >= 0"):
        check_partwise_prefix_intersection(a, a, -1, (2, 2), (2, 2))
    with pytest.raises(HypothesisViolationError, match="member of A is off-profile"):
        check_partwise_prefix_intersection(a, a, 2, (1, 3), (2, 2))
    with pytest.raises(HypothesisViolationError, match="member of B is off-profile"):
        check_partwise_prefix_intersection(a, a, 2, (2, 2), (1, 3))


def test_partwise_prefix_part_left_empty_by_both_profiles():
    # rA_0 = rB_0 = 0: part 0's window Q_0(-1) is empty, not an error
    g = GroundSet((3, 6))
    a = _fam(g, [4, 5])
    assert check_partwise_prefix_intersection(a, a, 2, (0, 2), (0, 2))
    b = _fam(g, [6, 7])
    with pytest.raises(HypothesisViolationError, match="cross t-intersecting"):
        check_partwise_prefix_intersection(a, b, 1, (0, 2), (0, 2),
                                           require_shifted=False)


def test_partwise_prefix_randomized():
    rng = random.Random(23)
    for _ in range(200):
        p = rng.randint(2, 3)
        sizes = tuple(rng.randint(4, 8) for _ in range(p))
        g = GroundSet(sizes)
        ra = tuple(rng.randint(1, (s - 1) // 2) for s in sizes)
        rb = tuple(rng.randint(1, s - 1 - r_i) if s - 1 - r_i >= 1 else 1
                   for s, r_i in zip(sizes, ra))
        if any(not s > x + y - 1 for s, x, y in zip(sizes, ra, rb)):
            continue
        t = rng.randint(1, 2)

        def member(profile):
            m = 0
            for i, r_i in enumerate(profile):
                m |= mask_of(rng.sample(list(g.part_elements(i)), r_i))
            return m

        a = Family(g, frozenset(member(ra) for _ in range(rng.randint(1, 3))))
        b = Family(g, frozenset(member(rb) for _ in range(rng.randint(1, 3))))
        ms_a, ms_b = list(a.members), list(b.members)
        if min((x & y).bit_count() for x in ms_a for y in ms_b) < t:
            continue
        sa, sb = simultaneous_closure([a, b])
        assert check_partwise_prefix_intersection(sa, sb, t, ra, rb)


# ---------------------------------------------------------------------------
# star preservation

def test_star_preservation_micro_exhaustive():
    # every t-intersecting subfamily of the singleton space, every move
    g = GroundSet((5,))
    space = enumerate_block(g, (1,))
    verts = sorted(space.members)
    assert star_preservation_hypothesis(space, 1)
    for code in range(1 << len(verts)):
        fam = Family(g, frozenset(verts[i] for i in range(len(verts))
                                  if code >> i & 1))
        if not is_t_intersecting(fam, 1):
            continue
        for i in range(1, 6):
            for j in range(i + 1, 6):
                assert check_star_preservation(fam, space, 1, i, j)


def test_star_preservation_sampled():
    rng = random.Random(29)
    g = GroundSet((9,))
    space = enumerate_block(g, (2,))
    assert star_preservation_hypothesis(space, 1)
    star = sorted(trivial_star(space, mask_of([1])).members)
    for _ in range(150):
        fam = Family(g, frozenset(rng.sample(star, rng.randint(1, len(star)))))
        i, j = sorted(rng.sample(range(1, 10), 2))
        assert check_star_preservation(fam, space, 1, i, j)


def test_star_preservation_hypothesis_flag():
    g = GroundSet((4,))
    space = enumerate_block(g, (1,))
    assert not star_preservation_hypothesis(space, 1)  # needs n > 4
    # the checker enforces it, after its own argument checks
    star = trivial_star(space, mask_of([1]))
    with pytest.raises(HypothesisViolationError, match="star_preservation_hypothesis fails"):
        check_star_preservation(star, space, 1, 1, 2)
    with pytest.raises(InvalidParametersError, match="common part"):
        check_star_preservation(Family(GroundSet((2, 2)), frozenset()),
                                Family(GroundSet((2, 2)), frozenset()), 1, 1, 3)
    g2 = GroundSet((5,))
    assert star_preservation_hypothesis(enumerate_block(g2, (1,)), 1)


def test_a_huge_ground_set_builds_no_ground_sized_int():
    # a mask of all 100,000,000 elements would be a 12.5 MB int; reading,
    # checking and profiling two small members must not build one
    tracemalloc.start()
    try:
        fam = parse_family("ground: 100000000\n1,2\n1,3\n")
        assert is_t_intersecting(fam, 1)
        assert is_full_t_star(fam, fam, 1) == mask_of([1])
        assert fam.ground.profile(mask_of([1, 2])) == (2,)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
