from __future__ import annotations

import random
from itertools import combinations, islice, product

import pytest

from tstar import core
from tstar.bounds import union_star_sizes
from tstar.core import (
    Family,
    GroundSet,
    InstanceTooLargeError,
    InvalidParametersError,
    InvariantError,
    ProfileSet,
    binom,
    block_size,
    bounded_compositions,
    elements_of,
    enumerate_block,
    enumerate_profile_union,
    enumerate_quota,
    format_family,
    mask_of,
    parse_family,
    read_family,
    trivial_star,
    write_family,
)


def _brute_block(sizes, profile):
    # independent enumeration: filter all k-subsets of [n] by per-part counts
    n = sum(sizes)
    offs = []
    acc = 0
    for s in sizes:
        offs.append(acc)
        acc += s
    out = set()
    for c in combinations(range(1, n + 1), sum(profile)):
        if all(sum(1 for e in c if offs[i] < e <= offs[i] + sizes[i]) == profile[i]
               for i in range(len(sizes))):
            out.add(frozenset(c))
    return out


def _as_sets(fam: Family) -> set[frozenset[int]]:
    return {frozenset(elements_of(m)) for m in fam}


# ---------------------------------------------------------------------------
# scalars and masks

def test_binom_values():
    assert binom(10, 4) == 210
    assert binom(5, 0) == 1
    assert binom(0, 0) == 1
    assert binom(3, 7) == 0
    assert binom(3, -1) == 0


def test_binom_rejects_negative_n():
    with pytest.raises(InvalidParametersError):
        binom(-1, 0)


def test_mask_round_trip():
    assert mask_of([1, 2, 9, 10]) == 0b1100000011
    assert elements_of(0b1100000011) == (1, 2, 9, 10)
    assert mask_of([]) == 0
    assert elements_of(0) == ()


def test_mask_rejects_zero_element():
    with pytest.raises(InvalidParametersError):
        mask_of([0, 3])


# ---------------------------------------------------------------------------
# ground set

def test_ground_set_layout():
    g = GroundSet((8, 10))
    assert g.p == 2
    assert g.n == 18
    assert g.offsets == (0, 8)
    assert list(g.part_elements(0)) == list(range(1, 9))
    assert list(g.part_elements(1)) == list(range(9, 19))
    assert g.prefix_mask(0, 3) == 0b111
    assert g.prefix_mask(1, 2) == 0b11 << 8
    assert g.element_part(8) == 0
    assert g.element_part(9) == 1


def test_element_part_matches_profile():
    for sizes in ((1,), (1, 1, 1), (3, 1, 4), (8, 10)):
        g = GroundSet(sizes)
        for e in range(1, g.n + 1):
            assert g.profile(1 << (e - 1)) == tuple(int(i == g.element_part(e))
                                                    for i in range(g.p)), (sizes, e)
        for e in (0, g.n + 1):
            with pytest.raises(InvalidParametersError):
                g.element_part(e)


def test_ground_set_profile():
    g = GroundSet((8, 10))
    assert g.profile(mask_of([1, 2, 9, 10])) == (2, 2)
    assert g.profile(0) == (0, 0)
    assert g.profile(g.full_mask) == (8, 10)


def test_ground_set_validation():
    with pytest.raises(InvalidParametersError):
        GroundSet(())
    with pytest.raises(InvalidParametersError):
        GroundSet((4, 0))
    g = GroundSet((4,))
    with pytest.raises(InvalidParametersError):
        g.element_part(5)
    with pytest.raises(InvalidParametersError):
        g.prefix_mask(0, 5)
    g.check_mask(g.full_mask)
    for mask in (mask_of([5]), -1):
        with pytest.raises(InvalidParametersError):
            g.check_mask(mask)


def test_family_rejects_out_of_range_member():
    g = GroundSet((3,))
    with pytest.raises(InvalidParametersError):
        Family(g, frozenset({mask_of([4])}))


def test_family_iteration_is_sorted():
    g = GroundSet((4,))
    fam = Family.from_iterables(g, [[2, 3], [1], [1, 4]])
    assert list(fam) == sorted(fam.members)


# ---------------------------------------------------------------------------
# enumeration

def test_block_example_sizes():
    g = GroundSet((4, 4))
    fam = enumerate_block(g, (2, 2))
    assert len(fam) == 36
    assert block_size(GroundSet((8, 10)), (4, 4)) == 14700


def test_block_single_member():
    g = GroundSet((3,))
    fam = enumerate_block(g, (3,))
    assert _as_sets(fam) == {frozenset({1, 2, 3})}


def test_block_matches_brute_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 5) for _ in range(p))
        profile = tuple(rng.randint(0, s) for s in sizes)
        g = GroundSet(sizes)
        fam = enumerate_block(g, profile)
        assert _as_sets(fam) == _brute_block(sizes, profile)
        assert len(fam) == block_size(g, profile)


def test_block_cap():
    g = GroundSet((8, 10))
    with pytest.raises(InstanceTooLargeError):
        enumerate_block(g, (4, 4), cap=1000)


def test_caps_resolve_from_argument_then_default(monkeypatch):
    # the caps are set by argument only: no environment variable is read
    monkeypatch.setenv("TSTAR_ENUM_CAP", "1")
    monkeypatch.setenv("TSTAR_SEARCH_CAP", "1")
    for resolve, default in ((core.enumeration_cap, 10_000_000),
                             (core.search_cap, 50_000)):
        assert resolve() == default
        assert resolve(7) == 7
        with pytest.raises(InvalidParametersError):
            resolve(0)


def test_profile_union_example():
    g = GroundSet((4, 4))
    ps = ProfileSet(((1, 1), (2, 2)))
    fam = enumerate_profile_union(g, ps)
    assert len(fam) == 52
    # a singleton profile set degenerates to the block
    for sizes in ((4,), (3, 4), (2, 3, 2)):
        g = GroundSet(sizes)
        for k in product(*(range(1, s + 1) for s in sizes)):
            one = ProfileSet((k,))
            assert enumerate_profile_union(g, one).members == enumerate_block(g, k).members


def test_profile_union_blocks_disjoint():
    g = GroundSet((5, 4))
    ps = ProfileSet(((1, 2), (2, 1), (2, 2)))
    fam = enumerate_profile_union(g, ps)
    assert len(fam) == sum(block_size(g, r) for r in ps.profiles)


def test_profile_set_invariants():
    ps = ProfileSet(((3, 2), (2, 2)))
    assert ps.profiles == ((2, 2), (3, 2))
    assert ps.b == 3
    assert ps.c == 2
    with pytest.raises(InvalidParametersError):
        ProfileSet(())
    with pytest.raises(InvalidParametersError):
        ProfileSet(((1, 0),))
    with pytest.raises(InvalidParametersError):
        ProfileSet(((1, 2), (1, 2, 3)))
    with pytest.raises(InvalidParametersError, match="2 parts, ground set has 1"):
        enumerate_profile_union(GroundSet((4,)), ProfileSet(((1, 2),)))


def test_quota_examples():
    g = GroundSet((4, 4))
    assert len(enumerate_quota(g, 4, (1, 1))) == 68
    assert len(enumerate_quota(g, 4, (0, 0))) == 70
    g2 = GroundSet((3, 3))
    assert len(enumerate_quota(g2, 3, (2, 0))) == 10


def test_quota_is_filtered_ksets():
    g = GroundSet((4, 4))
    fam = enumerate_quota(g, 4, (1, 1))
    want = {frozenset(c) for c in combinations(range(1, 9), 4)
            if any(e <= 4 for e in c) and any(e > 4 for e in c)}
    assert _as_sets(fam) == want


def test_quota_validation():
    g = GroundSet((4, 4))
    with pytest.raises(InvalidParametersError):
        enumerate_quota(g, 2, (2, 1))  # quotas exceed k
    with pytest.raises(InvalidParametersError):
        enumerate_quota(g, 4, (4, 0))  # quota must stay below part size
    with pytest.raises(InvalidParametersError, match="exceeds the ground set size 8"):
        enumerate_quota(g, 9, (1, 1))  # no 9-set in 8 elements
    with pytest.raises(InvalidParametersError, match="quota length 1"):
        enumerate_quota(g, 4, (1,))
    with pytest.raises(InvalidParametersError, match="k must be >= 0"):
        enumerate_quota(g, -1, (0, 0))


# ---------------------------------------------------------------------------
# stars

def test_trivial_star_sizes():
    g = GroundSet((8, 10))
    blk = enumerate_block(g, (4, 4))
    assert len(trivial_star(blk, mask_of([1, 2]))) == 3150
    assert len(trivial_star(blk, mask_of([1, 9]))) == 2940
    assert len(trivial_star(blk, mask_of([9, 10]))) == 1960
    # empty center returns the whole space
    assert trivial_star(blk, 0).members == blk.members


def test_trivial_star_toy():
    g = GroundSet((3,))
    space = enumerate_block(g, (2,))
    star = trivial_star(space, mask_of([1]))
    assert _as_sets(star) == {frozenset({1, 2}), frozenset({1, 3})}


def test_star_size_formula():
    g = GroundSet((8, 10))
    assert union_star_sizes(g, ((4, 4),), [(2, 0), (1, 1), (0, 0)]) == [3150, 2940, 14700]
    # a center wider than the profile in some part has an empty star
    assert union_star_sizes(g, ((4, 4),), [(5, 0)]) == [0]


def test_star_size_matches_enumeration():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.randint(1, 2)
        sizes = tuple(rng.randint(2, 5) for _ in range(p))
        profile = tuple(rng.randint(1, s) for s in sizes)
        dist = tuple(rng.randint(0, r) for r in profile)
        g = GroundSet(sizes)
        blk = enumerate_block(g, profile)
        center = 0
        for i, t_i in enumerate(dist):
            center |= mask_of(list(g.part_elements(i))[:t_i])
        assert [len(trivial_star(blk, center))] == union_star_sizes(g, (profile,), [dist])


# ---------------------------------------------------------------------------
# compositions

def test_bounded_compositions():
    got = sorted(bounded_compositions(4, (1, 0), (4, 4)))
    want = sorted((a, 4 - a) for a in range(1, 5) if 0 <= 4 - a <= 4)
    assert got == want
    assert list(bounded_compositions(0, (0, 0), (3, 3))) == [(0, 0)]
    assert list(bounded_compositions(9, (0, 0), (4, 4))) == []


# ---------------------------------------------------------------------------
# file format

def test_format_round_trip(tmp_path):
    g = GroundSet((4, 4))
    fam = Family.from_iterables(g, [[1, 2, 5, 6], [1, 3, 5, 7], [2, 4, 6, 8]])
    text = format_family(fam)
    again = parse_family(text)
    assert again == fam
    # writer output is byte stable
    assert format_family(again) == text
    path = tmp_path / "fam.txt"
    write_family(fam, str(path))
    assert read_family(str(path)) == fam


def test_format_exact_bytes():
    g = GroundSet((2, 2))
    fam = Family.from_iterables(g, [[1, 3], [2, 4], [1, 2]])
    # ascending mask order: {1,2}=3, {1,3}=5, {2,4}=10
    assert format_family(fam) == "ground: 2,2\n1,2\n1,3\n2,4\n"


def test_parse_skips_comments_and_blanks():
    text = "# header comment\n\nground: 3\n1,2\n# trailing\n2,3\n"
    fam = parse_family(text)
    assert _as_sets(fam) == {frozenset({1, 2}), frozenset({2, 3})}


def test_parse_rejects_bad_input():
    with pytest.raises(InvalidParametersError):
        parse_family("1,2\n")  # missing header
    with pytest.raises(InvalidParametersError):
        parse_family("ground: 3\n2,1\n")  # not ascending
    with pytest.raises(InvalidParametersError):
        parse_family("ground: 3\n1,5\n")  # out of range
    with pytest.raises(InvalidParametersError):
        parse_family("ground: 3\n1,x\n")
    with pytest.raises(InvalidParametersError, match="bad ground sizes"):
        parse_family("ground: 3,x\n1,2\n")
    with pytest.raises(InvalidParametersError, match="missing 'ground:' header"):
        parse_family("# a comment only\n\n")


def test_parse_rejects_duplicate_member():
    with pytest.raises(InvalidParametersError,
                       match="line 5: duplicate of the member on line 2"):
        parse_family("ground: 3\n1,2\n# comment\n2,3\n1,2\n")


def test_empty_member_not_writable():
    g = GroundSet((3,))
    fam = Family(g, frozenset({0}))
    with pytest.raises(InvalidParametersError):
        format_family(fam)


# ---------------------------------------------------------------------------
# enumeration invariants hold under python -O too

def test_enumerate_block_checks_its_count(monkeypatch):
    monkeypatch.setattr(core, "block_size", lambda ground, profile: 7)
    with pytest.raises(InvariantError, match="block enumerated 6 members"):
        enumerate_block(GroundSet((4,)), (2,))


def _short_blocks(monkeypatch):
    # every block's product of per-part subsets loses its first member
    real = core.product
    monkeypatch.setattr(core, "product", lambda *pools: islice(real(*pools), 1, None))


def test_enumerate_profile_union_checks_its_count(monkeypatch):
    _short_blocks(monkeypatch)
    with pytest.raises(InvariantError, match="profile union enumerated 5 members"):
        enumerate_profile_union(GroundSet((4,)), ProfileSet(((2,),)))


def test_enumerate_quota_checks_its_count(monkeypatch):
    _short_blocks(monkeypatch)
    with pytest.raises(InvariantError, match="quota family enumerated"):
        enumerate_quota(GroundSet((3, 3)), 3, (1, 1))
