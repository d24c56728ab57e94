from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import pytest

from tstar import shifting
from tstar.core import (Family, GroundSet, InvalidParametersError, enumerate_block,
                        format_family, mask_of, parse_family)
from tstar.shifting import (
    compress_family,
    family_weight,
    is_l_shifted,
    is_shifted,
    shift_closure,
    simultaneous_closure,
)


def _fam(ground, *sets):
    return Family.from_iterables(ground, sets)


def _compress_member(mask, i, j):
    """Replace j by i in the mask when j is in and i is out; else identity."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    if mask & bj and not mask & bi:
        return (mask ^ bj) | bi
    return mask


def test_compress_member_cases():
    assert _compress_member(mask_of([3, 4]), 1, 3) == mask_of([1, 4])
    assert _compress_member(mask_of([1, 4]), 1, 4) == mask_of([1, 4])
    assert _compress_member(mask_of([2, 5]), 1, 3) == mask_of([2, 5])
    fam = _fam(GroundSet((4,)), [1])
    with pytest.raises(InvalidParametersError):
        compress_family(fam, 2, 2)
    with pytest.raises(InvalidParametersError):
        compress_family(fam, 1, 9)


def test_compress_family_collision():
    g = GroundSet((2,))
    fam = _fam(g, [2], [1])
    out = compress_family(fam, 1, 2)
    assert out == fam


def test_compress_family_single_replacement():
    g = GroundSet((3,))
    fam = _fam(g, [2, 3])
    assert out_sets(compress_family(fam, 1, 3)) == {(1, 2)}


def out_sets(fam):
    from tstar.core import elements_of
    return {elements_of(m) for m in fam}


def test_size_preserved_randomized():
    rng = random.Random(3)
    for _ in range(300):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 6) for _ in range(p))
        g = GroundSet(sizes)
        fam = Family(g, frozenset(rng.randint(0, g.full_mask)
                                  for _ in range(rng.randint(0, 6))))
        i = rng.randint(1, g.n)
        j = rng.randint(1, g.n)
        if i == j:
            continue
        assert len(compress_family(fam, i, j)) == len(fam)


def test_l_shift_closure_example():
    g = GroundSet((4,))
    fam = _fam(g, [2, 3])
    assert out_sets(shift_closure(fam, (0,))[0]) == {(1, 2)}


def test_closure_fixed_points():
    g = GroundSet((4,))
    shifted = _fam(g, [1, 2], [1, 3])
    assert shift_closure(shifted, (0,))[0] == shifted
    blk = enumerate_block(g, (2,))
    assert shift_closure(blk, (0,))[0] == blk


def test_full_closure_singleton_goes_to_prefix():
    g = GroundSet((4, 4))
    fam = _fam(g, [3, 4, 7, 8])
    assert out_sets(shift_closure(fam)[0]) == {(1, 2, 5, 6)}


def test_full_closure_empty():
    g = GroundSet((3, 3))
    empty = Family(g, frozenset())
    assert shift_closure(empty)[0] == empty


def test_is_l_shifted_examples():
    g = GroundSet((4,))
    assert is_l_shifted(_fam(g, [1, 2]), 0)
    assert not is_l_shifted(_fam(g, [2, 3]), 0)
    assert is_l_shifted(enumerate_block(g, (2,)), 0)


def test_block_is_shift_invariant():
    g = GroundSet((3, 4))
    blk = enumerate_block(g, (2, 2))
    assert is_shifted(blk)
    assert shift_closure(blk)[0] == blk


def test_profile_preserved_by_in_part_moves():
    rng = random.Random(5)
    g = GroundSet((4, 5))
    for _ in range(100):
        fam = Family(g, frozenset(rng.randint(0, g.full_mask) for _ in range(4)))
        part = rng.randint(0, 1)
        elems = list(g.part_elements(part))
        i, j = rng.sample(elems, 2)
        before = sorted(g.profile(m) for m in fam)
        after = sorted(g.profile(m) for m in compress_family(fam, i, j))
        assert before == after


def _is_t_intersecting_naive(fam, t):
    ms = list(fam.members)
    return all((a & b).bit_count() >= t for a in ms for b in ms)


def test_intersection_preserved():
    # compress a t-intersecting family and check t-intersection survives
    rng = random.Random(9)
    for _ in range(200):
        p = rng.randint(1, 2)
        sizes = tuple(rng.randint(2, 5) for _ in range(p))
        g = GroundSet(sizes)
        core = rng.randint(0, g.full_mask)
        fam = Family(g, frozenset(core | rng.randint(0, g.full_mask) for _ in range(4)))
        ms = list(fam.members)
        t = min((a & b).bit_count() for a in ms for b in ms)
        i = rng.randint(1, g.n)
        j = rng.randint(1, g.n)
        if i == j:
            continue
        assert _is_t_intersecting_naive(compress_family(fam, i, j), t)


def test_closure_termination_and_weight():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 5) for _ in range(p))
        g = GroundSet(sizes)
        fam = Family(g, frozenset(rng.randint(0, g.full_mask)
                                  for _ in range(rng.randint(0, 5))))
        w0 = family_weight(fam)
        closed, steps = shift_closure(fam)
        # each productive step strictly decreases the weight
        assert steps <= w0 - family_weight(closed)
        assert len(closed) == len(fam)
        assert is_shifted(closed)
        # closure is idempotent
        again, more = shift_closure(closed)
        assert more == 0 and again == closed


def test_simultaneous_closure_lockstep():
    g = GroundSet((5,))
    a = _fam(g, [1, 3], [3, 5])
    b = _fam(g, [3, 4])
    ca, cb = simultaneous_closure([a, b])
    assert is_shifted(ca) and is_shifted(cb)
    assert len(ca) == len(a) and len(cb) == len(b)
    with pytest.raises(InvalidParametersError):
        simultaneous_closure([a, Family(GroundSet((4,)), frozenset())])


def test_closing_a_shifted_family_tries_no_move(monkeypatch):
    # the closures stop on the closure test, before any sweep, when every
    # family is already closed
    tried = []

    def move(*args):
        tried.append(args)
        return real_move(*args)

    real_move = shifting._move
    monkeypatch.setattr(shifting, "_move", move)
    g = GroundSet((5, 5))
    block, other = enumerate_block(g, (2, 2)), enumerate_block(g, (1, 3))
    assert shift_closure(block) == (block, 0)
    assert simultaneous_closure([block, other]) == [block, other]
    assert tried == []


def test_a_huge_part_builds_no_part_sized_pair_list():
    # the moves of a 10^11-element part would not fit in memory; only those
    # up to the members' largest element, 5, can move anything, and the
    # closure is the one on a 5-element ground set.  A huge last part with
    # members in both parts: the closure test reads no further than the
    # widest member either, and nor do the closures of such a family, on
    # each part and in lockstep with a second one: they are those on a
    # 3,6 ground set.  Nor does the pass over a part that no member
    # reaches build its first element's bit, past a huge first part
    tracemalloc.start()
    try:
        fam = parse_family("ground: 100000000000\n2,3\n3,5\n")
        closed, steps = shift_closure(fam)
        shifted = is_shifted(fam), is_shifted(closed)
        two = parse_family("ground: 3,100000000000\n1,4\n2,4\n1,6\n")
        two_shifted = is_l_shifted(two, 0), is_l_shifted(two, 1), is_shifted(two)
        other = parse_family("ground: 3,100000000000\n3,5\n2,6\n")
        two_closed = [shift_closure(two, parts) for parts in (None, (0,), (1,))]
        pair_closed = simultaneous_closure([two, other])
        first, first_steps = shift_closure(parse_family("ground: 100000000,3\n2\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    small, small_steps = shift_closure(Family(GroundSet((5,)), fam.members))
    assert (closed.members, steps) == (small.members, small_steps)
    assert closed.members == _fam(fam.ground, [1, 2], [1, 3]).members
    assert shifted == (False, True)
    assert two_shifted == (True, False, False)
    two36, other36 = (Family(GroundSet((3, 6)), f.members) for f in (two, other))
    for (got, got_steps), parts in zip(two_closed, (None, (0,), (1,))):
        small, small_steps = shift_closure(two36, parts)
        assert (got.members, got_steps) == (small.members, small_steps)
    small_pair = simultaneous_closure([two36, other36])
    assert [f.members for f in pair_closed] == [f.members for f in small_pair]
    assert (first.members, first_steps) == ({1}, 1)
    assert peak < 1 << 20, peak


def test_a_high_member_walks_its_moves_one_at_a_time(monkeypatch):
    # a member holding the last two of 10,000 elements: the 5 * 10^7 moves
    # up to 10,000 take gigabytes, but a pass visits only the moves onto
    # elements some member holds, one at a time; the closure is {1, 2} in
    # two steps, and the shiftedness test reads the members' lower covers
    tracemalloc.start()
    try:
        fam = parse_family("ground: 10000\n9999,10000\n")
        closed, steps = shift_closure(fam)
        shifted = is_shifted(fam), is_shifted(closed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert format_family(closed) == "ground: 10000\n1,2\n"
    assert steps == 2
    assert shifted == (False, True)
    assert peak < 1 << 20, peak

    # once its moves have emptied 99,999 and 100,000 no member holds them,
    # and the pass tries no more moves onto them: (1, 99999), (1, 100000)
    # and (2, 100000); {1, 2} is then closed, so no other pass runs
    tried = []

    def move(members, bi, bj):
        tried.append((bi.bit_length(), bj.bit_length()))
        return real_move(members, bi, bj)

    # nor does i walk on once nothing is held above it: the bits of the
    # held elements above i are read a few times in all, not once per
    # element up to 99,999
    reads = []

    def bits(mask):
        reads.append(mask.bit_length())
        return real_bits(mask)

    real_move, real_bits = shifting._move, shifting._bits
    monkeypatch.setattr(shifting, "_move", move)
    monkeypatch.setattr(shifting, "_bits", bits)
    closed, steps = shift_closure(parse_family("ground: 100000\n99999,100000\n"))
    assert (format_family(closed), steps) == ("ground: 100000\n1,2\n", 2)
    assert tried == [(1, 99999), (1, 100000), (2, 100000)], tried
    assert len(reads) <= 8, len(reads)


# ---------------------------------------------------------------------------
# the restart order as a reference for the sweeping closures

def _compress_family_ref(fam, i, j):
    """The (i, j) move member by member through _compress_member."""
    out = set()
    for m in fam.members:
        g = _compress_member(m, i, j)
        out.add(m if g in fam.members else g)
    return Family(fam.ground, frozenset(out))


def _restart_closure(fams, parts=None):
    """Close the families in lockstep, starting again from the first pair
    after every productive (i, j); returns the fixed points and the number
    of productive pairs."""
    ground = fams[0].ground
    pairs = [(i, j) for l in (range(ground.p) if parts is None else parts)
             for i, j in combinations(ground.part_elements(l), 2)]
    steps = 0
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            nxt = [_compress_family_ref(f, i, j) for f in fams]
            if nxt != fams:
                fams = nxt
                steps += 1
                changed = True
                break
    return fams, steps


def _random_families(rng, ground, count):
    """Families of up to 12 members, drawn from one block or from all
    subsets of the ground set."""
    fams = []
    for _ in range(count):
        if rng.random() < 0.5:
            profile = tuple(rng.randint(0, s) for s in ground.sizes)
            pool = sorted(enumerate_block(ground, profile).members)
        else:
            pool = range(ground.full_mask + 1)
        size = rng.randint(0, min(12, len(pool)))
        fams.append(Family(ground, frozenset(rng.sample(pool, size))))
    return fams


def test_sweep_matches_restart_order():
    rng = random.Random(2024)
    for _ in range(2000):
        ground = GroundSet(tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3))))
        fams = _random_families(rng, ground, rng.randint(2, 3))
        (ref,), ref_steps = _restart_closure(fams[:1])
        assert shift_closure(fams[0]) == (ref, ref_steps)
        parts = tuple(sorted(rng.sample(range(ground.p), rng.randint(1, ground.p))))
        (ref,), ref_steps = _restart_closure(fams[:1], parts)
        assert shift_closure(fams[0], parts) == (ref, ref_steps)
        assert simultaneous_closure(fams) == _restart_closure(fams)[0]
        assert shifting._closure(fams, None) == _restart_closure(fams)
        assert is_shifted(fams[1]) == (_restart_closure(fams[1:2])[1] == 0)
        for l in range(ground.p):
            assert is_l_shifted(fams[1], l) == (_restart_closure(fams[1:2], (l,))[1] == 0)
        if ground.n > 1:
            i, j = rng.sample(range(1, ground.n + 1), 2)
            assert compress_family(fams[1], i, j) == _compress_family_ref(fams[1], i, j)
