"""Predicates and falsification harnesses for intersection properties.

Pairwise predicates run in O(|fam|^2) bit-level popcounts; this is a
desk-scale tool and no asymptotic cleverness is attempted.  The lemma
checkers distinguish two very different outcomes: a hypothesis violation
(the input is at fault, raised as HypothesisViolationError) and a false
conclusion (returned as False, which would falsify the property being
probed and deserves a loud report).
"""

from __future__ import annotations

from itertools import combinations

from .core import (
    EmptyFamilyError,
    Family,
    HypothesisViolationError,
    InvalidParametersError,
    elements_of,
    mask_of,
    trivial_star,
)
from .shifting import compress_family, is_l_shifted, is_shifted


def is_t_intersecting(fam: Family, t: int) -> bool:
    """True iff every two members (a member with itself included) share
    at least t elements."""
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    if t == 0:
        return True
    ms = sorted(fam.members)
    for idx, a in enumerate(ms):
        if a.bit_count() < t:
            return False
        for b in ms[idx + 1:]:
            if (a & b).bit_count() < t:
                return False
    return True


def are_cross_t_intersecting(a: Family, b: Family, t: int) -> bool:
    """True iff every pair with one member from each family shares >= t
    elements.  Both families must be non-empty and share a ground set."""
    if a.ground != b.ground:
        raise InvalidParametersError("the two families live on different grounds")
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    if not a.members or not b.members:
        raise EmptyFamilyError("cross-intersection needs two non-empty families")
    bs = sorted(b.members)
    for x in a.members:
        for y in bs:
            if (x & y).bit_count() < t:
                return False
    return True


def is_full_t_star(fam: Family, space: Family, t: int) -> int | None:
    """Center mask if fam is exactly the members of space containing some
    fixed t-set, else None.

    Candidate centers are the t-subsets of the intersection of all
    members, so the check is finite; ties resolve to the lexicographically
    first center.  The empty family has no canonical center and yields
    None.  fam and space must share a ground set.
    """
    if fam.ground != space.ground:
        raise InvalidParametersError("family and space must share a ground set")
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    if not fam.members <= space.members:
        raise InvalidParametersError("fam must be a subfamily of space")
    if not fam.members:
        return None
    common = next(iter(fam.members))
    for m in fam.members:
        common &= m
    if common.bit_count() < t:
        return None
    for cand in combinations(elements_of(common), t):
        center = mask_of(cand)
        if trivial_star(space, center).members == fam.members:
            return center
    return None


# ---------------------------------------------------------------------------
# prefix-window checks for shifted cross-intersecting pairs

def _meet_inside(a: Family, b: Family, t: int, window: int) -> bool:
    """Whether every cross pair shares >= t elements inside window.

    One pass over the pairs also checks the hypothesis that every pair
    shares >= t elements at all; it walks every pair, so a violation
    anywhere raises even after a window miss.
    """
    inside = True
    bs = sorted(b.members)
    for x in a.members:
        for y in bs:
            common = x & y
            if common.bit_count() < t:
                raise HypothesisViolationError("families must be cross t-intersecting")
            if inside and (common & window).bit_count() < t:
                inside = False
    return inside


def check_prefix_intersection(a: Family, b: Family, t: int, r: int, s: int) -> bool:
    """Shifted cross-t-intersecting r- and s-uniform families over one
    part must meet inside the first r+s-t elements; check every pair.

    Families that are not both shifted raise HypothesisViolationError;
    check_partwise_prefix_intersection is the one that can skip that
    hypothesis, to probe the conclusion on arbitrary input.
    """
    ground = a.ground
    if ground.p != 1 or b.ground != ground:
        raise HypothesisViolationError("both families must share a single-part ground set")
    if not 0 <= t <= r <= s <= ground.n:
        raise HypothesisViolationError(
            f"need t <= r <= s <= n, got t={t}, r={r}, s={s}, n={ground.n}")
    if any(m.bit_count() != r for m in a.members):
        raise HypothesisViolationError("A must be r-uniform")
    if any(m.bit_count() != s for m in b.members):
        raise HypothesisViolationError("B must be s-uniform")
    if not a.members or not b.members:
        return True
    if not (is_l_shifted(a, 0) and is_l_shifted(b, 0)):
        raise HypothesisViolationError("both families must be shifted")
    return _meet_inside(a, b, t, (1 << (r + s - t)) - 1)


def check_partwise_prefix_intersection(a: Family, b: Family, t: int,
                                       profile_a: tuple[int, ...],
                                       profile_b: tuple[int, ...],
                                       require_shifted: bool = True) -> bool:
    """Multi-part analogue: the per-part windows Q_i(rA_i + rB_i - 1)
    must jointly capture >= t common elements of every cross pair.

    Hypotheses: every part satisfies n_i > rA_i + rB_i - 1, members are
    profile-uniform, both families are l-shifted for every l (skippable
    via require_shifted=False), and the pair is cross t-intersecting.
    """
    ground = a.ground
    if b.ground != ground:
        raise HypothesisViolationError("families must share a ground set")
    profile_a = tuple(profile_a)
    profile_b = tuple(profile_b)
    ground.check_profile(profile_a)
    ground.check_profile(profile_b)
    if t < 0:
        raise HypothesisViolationError(f"t must be >= 0, got {t}")
    for n_i, ra, rb in zip(ground.sizes, profile_a, profile_b):
        if not n_i > ra + rb - 1:
            raise HypothesisViolationError(
                f"need n_i > rA_i + rB_i - 1, violated at n_i={n_i}, "
                f"rA_i={ra}, rB_i={rb}")
    for m in a.members:
        if ground.profile(m) != profile_a:
            raise HypothesisViolationError("a member of A is off-profile")
    for m in b.members:
        if ground.profile(m) != profile_b:
            raise HypothesisViolationError("a member of B is off-profile")
    if not a.members or not b.members:
        return True
    if require_shifted and not (is_shifted(a) and is_shifted(b)):
        raise HypothesisViolationError("both families must be l-shifted for every l")
    window = 0
    for i in range(ground.p):
        # a part that both profiles leave empty has an empty window
        window |= ground.prefix_mask(i, max(0, profile_a[i] + profile_b[i] - 1))
    return _meet_inside(a, b, t, window)


# ---------------------------------------------------------------------------
# star preservation under a single compression

def check_star_preservation(fam: Family, space: Family, t: int,
                            i: int, j: int) -> bool:
    """Black-box implication: if the (i, j)-compressed family is a full
    t-star of the space, the original family must be one too.

    The caller guarantees fam is a t-intersecting subfamily of space.
    The largeness hypothesis (star_preservation_hypothesis) is enforced:
    a space that fails it raises HypothesisViolationError, after the
    ground and same-part checks.
    """
    ground = fam.ground
    if space.ground != ground:
        raise InvalidParametersError("family and space must share a ground set")
    if ground.element_part(i) != ground.element_part(j):
        raise InvalidParametersError("i and j must lie in a common part")
    if not star_preservation_hypothesis(space, t):
        raise HypothesisViolationError(
            "star_preservation_hypothesis fails: every part must exceed "
            f"2(t+1) = {2 * (t + 1)} times the largest per-part "
            "member footprint of the space")
    compressed = compress_family(fam, i, j)
    if is_full_t_star(compressed, space, t) is None:
        return True
    return is_full_t_star(fam, space, t) is not None


def star_preservation_hypothesis(space: Family, t: int) -> bool:
    """Largeness condition for star preservation: every part must exceed
    2(t+1) times the largest per-part member footprint of the space."""
    if not space.members:
        raise EmptyFamilyError("hypothesis needs a non-empty space")
    ground = space.ground
    b = [0] * ground.p
    for m in space.members:
        for idx, cnt in enumerate(ground.profile(m)):
            b[idx] = max(b[idx], cnt)
    return all(n_m > 2 * (t + 1) * b_m for n_m, b_m in zip(ground.sizes, b))
