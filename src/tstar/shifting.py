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


def _closure(fams: list[Family], parts) -> tuple[list[Family], int]:
    """Sweep the moves of the given parts over all families at once until
    every family is closed (_covers_closed).

    Every family sees the same sequence of moves, and a move that changes
    nothing is the identity, so the families stay in lockstep.  A pass
    over a part walks i up from the part's first element; at each i it
    tries (i, j) for every j of the part above i that a member of some
    family holds, ascending, and it stops at the first i with none.  A
    move (i, j) adds only i, never above the current i, so what a move
    adds is never a j of a later move in the pass.  Returns the fixed
    points and the number of pairs that moved a member of some family.
    """
    ground = fams[0].ground
    sets = [set(f.members) for f in fams]
    parts = range(ground.p) if parts is None else parts
    steps = 0
    while not all(_covers_closed(s, ground, parts) for s in sets):
        for part in parts:
            elements = ground.part_elements(part)   # bit e - 1 holds element e
            i, end = elements.start, elements.stop - 1
            while True:
                union = 0
                for s in sets:
                    for m in s:
                        union |= m
                above = union >> i << i     # the held elements above i
                if above.bit_length() > end:
                    above &= (1 << end) - 1
                if not above:
                    break
                bi = 1 << i - 1
                for b in _bits(above):
                    # a list, not a generator: every family takes the move
                    if any([_move(s, bi, 1 << b) for s in sets]):
                        steps += 1
                i += 1
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
