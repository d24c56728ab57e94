"""Compression operators on set families.

The elementary move replaces element j by element i inside a member
whenever j is present and i is absent; the family-level operator keeps a
compressed image only when it does not collide with an existing member.
Family size is always preserved.

Closures sweep the in-part pairs i < j, lexicographic within a part and
part after part, and keep going after a productive pair; they stop once
every family is closed, so the result is a fixed point of every in-part
move.  On every input tried, a productive (i, j) never made an
earlier pair productive again, so the sweep reaches the same fixed point
with the same step count as restarting after every productive pair would.
That is observed, not proven; tests/test_shifting.py keeps the restart
order as the reference.

Each productive application strictly decreases the total element sum of
the family, which bounds the number of steps.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from .core import Family, GroundSet, InvalidParametersError, _bits, elements_of


def _pair_bits(i: int, j: int, n: int) -> tuple[int, int]:
    if i < 1 or j < 1:
        raise InvalidParametersError(f"elements are 1-based, got i={i}, j={j}")
    if i == j:
        raise InvalidParametersError("need two distinct elements")
    if i > n or j > n:
        raise InvalidParametersError(f"element out of range [1, {n}]")
    return 1 << (i - 1), 1 << (j - 1)


def _move(members: set[int], bi: int, bj: int) -> bool:
    """Apply the (i, j) move in place; True when a member moved.

    The movers hold j and not i, and their images are not yet members.
    Distinct movers have distinct images, so the size is preserved.
    """
    movers = [m for m in members
              if m & bj and not m & bi and ((m ^ bj) | bi) not in members]
    if not movers:
        return False
    members.difference_update(movers)
    members.update([(m ^ bj) | bi for m in movers])
    return True


def compress_family(fam: Family, i: int, j: int) -> Family:
    """Apply the (i, j) move to every member, keeping collisions in place.

    A member whose compressed image already belongs to the family stays;
    every other member is replaced by its image.  |result| == |fam|.
    """
    bi, bj = _pair_bits(i, j, fam.ground.n)
    members = set(fam.members)
    _move(members, bi, bj)
    return Family(fam.ground, frozenset(members))


def family_weight(fam: Family) -> int:
    """Total element sum over all members; strictly drops per productive move."""
    return sum(sum(elements_of(m)) for m in fam.members)


def _held_bits(ground: GroundSet, part: int, member_sets) -> list[int]:
    """Bits of the part's elements that a member of some set holds, ascending."""
    union = 0
    for members in member_sets:
        for m in members:
            union |= m
    elements = ground.part_elements(part)
    first, size = elements.start - 1, len(elements)    # the part's bits
    held = union >> first       # the union's bits in the part, no wider than the union
    if held.bit_length() > size:
        held &= (1 << size) - 1
    return [1 << first + b for b in _bits(held)]


def _covers_closed(members, ground: GroundSet, parts=None) -> bool:
    """The one closure test, of is_shifted, the closures and the solver's
    route: True when, in the given parts (default: all), every lower cover
    of a member (one element moved to the free place just below it in its
    part) is a member.  Exact: a move (i, j) on a member with j and not i
    is a chain of covers, the lowest held element above i walking down to
    i, the next to its old place, and so on up to j.  No mask is wider
    than the widest member.
    """
    width = max(members, default=0).bit_length()
    movable = 0     # bits of the given parts below `width`, each part's first bit out
    for part in range(ground.p) if parts is None else parts:
        elements = ground.part_elements(part)   # bit e - 1 holds element e
        lo, hi = elements.start, min(elements.stop - 1, width)
        if lo < hi:
            movable |= (1 << hi) - (1 << lo)
    return all(m ^ 3 << b - 1 in members for m in members
               for b in _bits(m & movable & ~(m << 1)))


def _part_moves(ground: GroundSet, part: int, held: list[int]) -> Iterator[tuple[int, int]]:
    """Bits (1 << (i-1), 1 << (j-1)) of the moves i < j inside the part
    whose j is in `held`, lexicographic, one at a time so that the part's
    size does not set the memory used.  With `held` the part's elements
    that members hold as a pass begins, no other move acts in that pass:
    a move (i, j) adds only i, below every later j.  A caller may remove
    from `held` a j that a move emptied: only (j, j'') can refill it,
    after every move onto j, and i stops where nothing is held above it."""
    bi = 1 << ground.offsets[part]
    lo = 0      # held[:lo] lie at or below i
    while lo < len(held):
        while lo < len(held) and bi < held[lo]:    # re-read: held[lo] may leave
            for bj in held[lo:]:
                yield bi, bj
            bi <<= 1
        lo = bisect_right(held, bi)


def _holds(member_sets, bit: int) -> bool:
    """True when some member holds the bit; a loop, as it runs per productive move."""
    for members in member_sets:
        for m in members:
            if m & bit:
                return True
    return False


def _closure(fams: list[Family], parts) -> tuple[list[Family], int]:
    """Sweep the moves of the given parts over all families at once until
    every family is closed (_covers_closed).

    Every family sees the same sequence of moves, and a move that changes
    nothing is the identity, so the families stay in lockstep.  Each pass
    over a part visits only the moves whose j some member holds
    (_part_moves); the others are the identity.  Returns the fixed points
    and the number of pairs that moved a member of some family.
    """
    ground = fams[0].ground
    sets = [set(f.members) for f in fams]
    parts = range(ground.p) if parts is None else parts
    steps = 0
    while not all(_covers_closed(s, ground, parts) for s in sets):
        for part in parts:
            held = _held_bits(ground, part, sets)
            for bi, bj in _part_moves(ground, part, held):
                # a list, not a generator: every family takes the move
                if any([_move(s, bi, bj) for s in sets]):
                    steps += 1
                    if not _holds(sets, bj):
                        held.remove(bj)
    return [Family(ground, frozenset(s)) for s in sets], steps


def shift_closure(fam: Family, parts: tuple[int, ...] | None = None) -> tuple[Family, int]:
    """Close under the in-part moves for the given parts (default: all).

    Returns the fixed point and the number of productive applications.
    """
    (closed,), steps = _closure([fam], parts)
    return closed, steps


def is_l_shifted(fam: Family, part: int) -> bool:
    """True when every in-part move of the given part fixes the family."""
    return _covers_closed(fam.members, fam.ground, (part,))


def is_shifted(fam: Family) -> bool:
    """True when the family is l-shifted for every part l."""
    return _covers_closed(fam.members, fam.ground)


def simultaneous_closure(fams: list[Family]) -> list[Family]:
    """Apply every productive in-part move to all families in lockstep.

    The same (i, j) move is applied to each family; the closure stops
    when all families are simultaneously fixed.  Useful because the
    lockstep moves preserve cross-intersection properties between the
    families.
    """
    if not fams:
        return []
    ground = fams[0].ground
    for f in fams[1:]:
        if f.ground != ground:
            raise InvalidParametersError("families must share a ground set")
    return _closure(fams, None)[0]
