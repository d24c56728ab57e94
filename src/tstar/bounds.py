"""Closed-form bounds and extremal-condition checks for star sizes.

Central objects:

* the ratio chain (k_i - j)/(n_i - j), j = 0..k_i-1, per part: strictly
  decreasing whenever n_i > k_i;
* t-distributions (t_1, ..., t_p), sum t: ways to split a star center
  across the parts;
* the star objective prod_i C(n_i - t_i, k_i - t_i), whose maximum over
  distributions bounds every t-intersecting subfamily of a block in the
  large-part regime;
* window families |F & W| >= t + r (Ahlswede-Khachatrian 1997, lifted to
  products), counted in closed form; r = 0 gives the stars;
* Delsarte's linear-programming bound over the block's product Johnson
  scheme, an upper bound on every t-intersecting subfamily of a block
  with no hypothesis, solved exactly.

The greedy optimizer is one cut of the merged ratio chain: with `cut`
the value of the t-th link, every link above the cut is taken and the
links equal to it (at most one per part) fill the remaining places in
every possible way.  A scan that counts the star of every distribution
is kept as an independent route and the two are compared in the test
suite; neither calls the other.

Every count is an exact int.  Ratios are compared by cross-multiplying
their integer numerators and denominators; a Fraction is built only for a
value that is reported (RatioEntry, RatioBound, the LP bound), and only
the functions that build one import `fractions`: a call that reports no
ratio loads neither it nor the `decimal` module it imports.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import TYPE_CHECKING, Iterator

from .core import (
    GroundSet,
    InstanceTooLargeError,
    InvalidParametersError,
    InvariantError,
    ProfileSet,
    _Frozen,
    block_size,
    bounded_compositions,
)

if TYPE_CHECKING:
    from fractions import Fraction


class RatioEntry(_Frozen):
    """One link of a part's ratio chain: value = (k_i - j)/(n_i - j)."""

    part: int
    level: int
    value: Fraction


class BoundReport(_Frozen):
    """An exact bound value with every distribution that achieves it."""

    value: int
    optimal_distributions: frozenset[tuple[int, ...]]
    hypothesis_flags: dict[str, bool]


class RatioBound(_Frozen):
    """Density bound max_i k_i/n_i with its absolute consequence."""

    ratio: Fraction
    block: int
    absolute: int
    hypothesis_ok: bool


def _check_block_params(ground: GroundSet, k: tuple[int, ...]) -> tuple[int, ...]:
    k = tuple(k)
    ground.check_profile(k)
    for k_i, n_i in zip(k, ground.sizes):
        if k_i < 1:
            raise InvalidParametersError(f"need k_i >= 1, got {k_i}")
        if not n_i > k_i:
            raise InvalidParametersError(
                f"need n_i > k_i so the ratio chain strictly decreases, "
                f"got n_i={n_i}, k_i={k_i}")
    return k


def ratio_entries(ground: GroundSet, k: tuple[int, ...]) -> list[RatioEntry]:
    """The merged ratio chain in _chain_links' order, by decreasing value.

    Ties across parts stay adjacent; within one part the chain is
    strictly decreasing, so a part contributes at most one entry to any
    equal-value group.
    """
    from fractions import Fraction

    k = _check_block_params(ground, k)
    return [RatioEntry(i, j, Fraction(k[i] - j, ground.sizes[i] - j))
            for i, j in _chain_links(ground.sizes, k)]


def _chain_links(sizes: tuple[int, ...], k: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """The merged ratio chain as (part, level) links: decreasing
    (k_i - j)/(n_i - j), ties to the lower part.

    Each part's chain decreases, so the merge compares only the parts'
    next links, by cross-multiplying their integer numerators and
    denominators; nothing is sorted and no Fraction is built.
    """
    level = [0] * len(k)
    live = [i for i, k_i in enumerate(k) if k_i]    # parts with links left, ascending
    while live:
        best = live[0]
        num, den = k[best] - level[best], sizes[best] - level[best]
        for i in live[1:]:
            a, b = k[i] - level[i], sizes[i] - level[i]
            if a * den > num * b:
                best, num, den = i, a, b
        yield best, level[best]
        level[best] += 1
        if level[best] == k[best]:
            live.remove(best)


def optimal_t_distributions(t: int, ground: GroundSet,
                            k: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """All t-distributions maximizing prod_i C(n_i - t_i, k_i - t_i).

    A cut of the merged ratio chain at the value of its t-th link: every
    link above the cut is taken, and the parts whose link equals the cut
    (at most one link per part) fill the remaining places in every way.
    The chain is merged only up to the end of the run of equal links that
    holds the t-th (_chain_links), and equal values are found by
    cross-multiplication, so every decision compares integers.
    """
    k = _check_block_params(ground, k)
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    if t > sum(k):
        raise InvalidParametersError(f"t={t} exceeds the total profile {sum(k)}")
    base, ties, value = [0] * len(k), [], (0, 1)    # ties: the parts of the current run
    for n, (part, level) in enumerate(_chain_links(ground.sizes, k)):
        num, den = k[part] - level, ground.sizes[part] - level
        if num * value[1] != value[0] * den:    # a new value ends the current run
            if n >= t:
                break       # the ended run holds the t-th link: it is the cut
            for i in ties:
                base[i] += 1
            ties, value = [], (num, den)
        ties.append(part)
    return frozenset(tuple(b + (i in extra) for i, b in enumerate(base))
                     for extra in combinations(ties, t - sum(base)))


def max_star_size(t: int, ground: GroundSet, k: tuple[int, ...]) -> int:
    """Largest full-star size over all t-distributions for one block."""
    dist = next(iter(optimal_t_distributions(t, ground, k)))
    return union_star_sizes(ground, (k,), [dist])[0]


def max_window_family(t: int, ground: GroundSet,
                      k: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """Largest window family of the block k, as (size, r, w).

    The window W is the union of the per-part prefixes of lengths w_i,
    sum(w_i) = t + 2r, and the family holds the members meeting W in at
    least t + r elements: any two of them share at least t elements of
    W.  r = 0 gives the stars.  Each family is counted by convolving the
    parts' C(w_i, j) C(n_i - w_i, k_i - j) over j; nothing is enumerated.
    Ties keep the smallest r, then the first w of bounded_compositions,
    so a star is reported whenever one is best.
    """
    k = tuple(k)
    ground.check_profile(k)
    if not 0 <= t <= sum(k):
        raise InvalidParametersError(f"t={t} out of range [0, {sum(k)}]")
    best = None
    for r in range(sum(k) - t + 1):
        for w in bounded_compositions(t + 2 * r, (0,) * ground.p, ground.sizes):
            counts = [1]    # counts[j]: members meeting W in j elements
            for n_i, k_i, w_i in zip(ground.sizes, k, w):
                merged = [0] * (len(counts) + k_i)
                for a, c in enumerate(counts):
                    for j in range(k_i + 1):
                        merged[a + j] += c * math.comb(w_i, j) * math.comb(n_i - w_i, k_i - j)
                counts = merged
            size = sum(counts[t + r:])
            if best is None or size > best[0]:
                best = (size, r, w)
    return best


def enumerate_distribution_argmax(t: int, ground: GroundSet,
                                  k: tuple[int, ...]) -> BoundReport:
    """Independent route: count the star of every t-distribution and keep
    the argmax.

    Deliberately shares no logic with the greedy optimizer; the test
    suite holds the two outputs equal across a parameter grid.
    """
    k = _check_block_params(ground, k)
    if t < 0 or t > sum(k):
        raise InvalidParametersError(f"t={t} out of range [0, {sum(k)}]")
    dists = list(bounded_compositions(t, (0,) * ground.p, k))
    return _argmax_report(dists, union_star_sizes(ground, (k,), dists), {})


def _argmax_report(dists: list[tuple[int, ...]], values: list[int],
                   flags: dict[str, bool]) -> BoundReport:
    best = max(values, default=-1)
    return BoundReport(best, frozenset(d for d, v in zip(dists, values) if v == best),
                       flags)


# ---------------------------------------------------------------------------
# the exchange condition

def exchange_optimal(ground: GroundSet, k: tuple[int, ...], t: int,
                     center: int) -> bool:
    """True iff no single-element move of the center between parts can
    increase the star size.

    For every ordered part pair (i, j) with the center meeting part j,
    the next ratio of part i must not exceed the last taken ratio of
    part j:  (k_i - s_i)/(n_i - s_i) <= (k_j - s_j + 1)/(n_j - s_j + 1),
    tested in integers as
    (k_i - s_i)(n_j - s_j + 1) <= (k_j - s_j + 1)(n_i - s_i).
    A part the center fills (s_i = k_i) has no next ratio to offer.
    """
    k = tuple(k)
    ground.check_profile(k)
    s = ground.profile(center)
    if sum(s) != t:
        raise InvalidParametersError(f"center has {sum(s)} elements, expected t={t}")
    nexts = []      # the next ratio of every part the center does not fill
    for s_i, k_i, n_i in zip(s, k, ground.sizes):
        if s_i > k_i:
            raise InvalidParametersError(
                f"center meets a part in {s_i} > k_i = {k_i} elements")
        if s_i < k_i:
            nexts.append((k_i - s_i, n_i - s_i))
    for s_j, k_j, n_j in zip(s, k, ground.sizes):
        if s_j:
            num, den = k_j - s_j + 1, n_j - s_j + 1
            for a, b in nexts:
                if a * den > num * b:
                    return False
    return True


# ---------------------------------------------------------------------------
# ratio bound for intersecting subfamilies of a block

def ratio_bound(ground: GroundSet, k: tuple[int, ...]) -> RatioBound:
    """Density bound for 1-intersecting subfamilies: max_i k_i/n_i.

    Valid under n_i >= 2k_i for every part (reported, never enforced);
    the absolute form is the density times the block size, rounded down.
    The largest density is found by cross-multiplication; only the one
    reported is a Fraction.
    """
    from fractions import Fraction

    k = tuple(k)
    blk = block_size(ground, k)
    for k_i in k:
        if k_i < 1:
            raise InvalidParametersError(f"need k_i >= 1, got {k_i}")
    num, den = k[0], ground.sizes[0]
    for k_i, n_i in zip(k, ground.sizes):
        if k_i * den > num * n_i:
            num, den = k_i, n_i
    hyp = all(n_i >= 2 * k_i for n_i, k_i in zip(ground.sizes, k))
    return RatioBound(Fraction(num, den), blk, num * blk // den, hyp)


# ---------------------------------------------------------------------------
# Delsarte linear-programming bound for t-intersecting subfamilies of a block

# The exact simplex grows about as the cube of the block's number of
# distance classes.  Worst over t: at most about 0.02 s up to 32
# classes, 0.13 s at 36 and 0.15-0.5 s at 64 (2-core VM, Python 3.11).
# A cap of 64 would fit a 0.5 s budget, but it changes check_block_maximum's
# report on blocks of 33-64 classes (ROADMAP direction 3).
DELSARTE_CLASS_CAP = 32

def _eberlein(n: int, k: int, j: int, x: int) -> int:
    """Eigenvalue of the distance-j relation of the Johnson scheme J(n, k)
    on its x-th eigenspace: the Eberlein polynomial
    E_j(x) = sum_h (-1)^h C(x, h) C(k - x, j - h) C(n - k - x, j - h)."""
    return sum((-1) ** h * math.comb(x, h) * math.comb(k - x, j - h)
               * math.comb(n - k - x, j - h) for h in range(j + 1))


def delsarte_bound(ground: GroundSet, k: tuple[int, ...], t: int) -> Fraction:
    """Delsarte's LP bound on a t-intersecting subfamily of the block k.

    The block is the product of the Johnson schemes J(n_i, k_i): two
    members are at distance d = (d_1, ..., d_p) when they share k_i - d_i
    elements of part i, 0 <= d_i <= min(k_i, n_i - k_i).  A t-intersecting
    family uses only the distances d != 0 with sum(k_i - d_i) >= t, and its
    inner distribution a_d (pairs at distance d per member) satisfies
    a_d >= 0 and 1 + sum_d a_d P_d(e) / v_d >= 0 for every eigenspace
    e != 0, where P_d(e) is the product of the parts' Eberlein eigenvalues
    and v_d = P_d(0) is the valency (Delsarte 1973).  The bound is
    1 + max sum_d a_d, solved exactly in y_d = a_d / v_d, whose
    coefficients are integers, on an integer fraction-free tableau whose
    optimum is checked by a primal-dual certificate (_simplex_max); 0
    when t > sum(k), as then no member is t-intersecting with itself.
    A block with more than DELSARTE_CLASS_CAP distance classes raises
    InstanceTooLargeError.
    """
    from fractions import Fraction

    k = tuple(k)
    ground.check_profile(k)
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    if t > sum(k):
        return Fraction(0)
    tops = [range(min(k_i, n_i - k_i) + 1) for k_i, n_i in zip(k, ground.sizes)]
    count = math.prod(map(len, tops))
    if count > DELSARTE_CLASS_CAP:
        raise InstanceTooLargeError(
            f"the Delsarte LP has {count} distance classes, cap is {DELSARTE_CLASS_CAP}")
    classes = list(product(*tops))
    dists = [d for d in classes[1:] if sum(k) - sum(d) >= t]
    eig = [[[_eberlein(n_i, k_i, j, x) for x in top] for j in top]
           for n_i, k_i, top in zip(ground.sizes, k, tops)]

    def eigenvalue(d, e):
        return math.prod(eig[i][d_i][e_i] for i, (d_i, e_i) in enumerate(zip(d, e)))

    rows = [[-eigenvalue(d, e) for d in dists] for e in classes[1:]]
    return 1 + _simplex_max([eigenvalue(d, classes[0]) for d in dists], rows)


def _simplex_max(c: list[int], rows: list[list[int]]) -> Fraction:
    """max c.y subject to row.y <= 1 for every row and y >= 0, exactly.

    The origin is feasible, so the tableau starts from the slack basis;
    Bland's rule (lowest-index entering column, lowest-index basic
    variable among tied ratios) keeps degenerate pivots from cycling.

    The tableau is fraction-free (Edmonds 1967, Bareiss 1968): every
    entry is the true entry times det, the last pivot, and stays an int.
    Pivoting on a = prow[col] > 0 leaves prow as it is and replaces each
    entry v of every other row by (v*a - f*w) // det, where f is that
    row's entry in the pivot column and w the entry of prow in v's
    column; the division is exact by Sylvester's identity.  det stays
    positive, so signs and ratios compare in integers.  The answer is
    checked by a primal-dual certificate (_check_certificate) before it
    is returned.
    """
    from fractions import Fraction

    n, m = len(c), len(rows)
    tab = [list(row) + [int(r == i) for i in range(m)] + [1]
           for r, row in enumerate(rows)]
    cost = [-v for v in c] + [0] * (m + 1)
    basis = list(range(n, n + m))
    det = 1
    while True:
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            break
        pivot = None    # the smallest ratio so far is num/den
        for r, row in enumerate(tab):
            e = row[col]
            if e > 0 and (pivot is None or row[-1] * den < num * e or (
                    row[-1] * den == num * e and basis[r] < basis[pivot])):
                pivot, num, den = r, row[-1], e
        if pivot is None:
            raise InvariantError("the Delsarte LP is unbounded")
        prow = tab[pivot]
        a = prow[col]
        for row in tab + [cost]:
            if row is not prow:
                f = row[col]
                if f:
                    row[:] = [(v * a - f * w) // det for v, w in zip(row, prow)]
                elif a != det:
                    row[:] = [v * a // det for v in row]
        det = a
        basis[pivot] = col
    y = [0] * n
    for r, b in enumerate(basis):
        if b < n:
            y[b] = tab[r][-1]
    _check_certificate(c, rows, y, cost[n:n + m], cost[-1], det)
    return Fraction(cost[-1], det)


def _check_certificate(c: list[int], rows: list[list[int]], y: list[int],
                       z: list[int], value: int, det: int) -> None:
    """Raise InvariantError unless y/det and z/det are optimal for
    max c.y, row.y <= 1, y >= 0 and its dual min sum(z), z.A >= c, z >= 0,
    both worth value/det: y and z feasible with equal objectives proves
    both optimal by weak duality.  All in integers; det > 0."""
    if min(y, default=0) < 0 or min(z, default=0) < 0:
        raise InvariantError("LP certificate: a negative primal or dual entry")
    for row in rows:
        if sum(a * v for a, v in zip(row, y)) > det:
            raise InvariantError("LP certificate: the primal breaks a row")
    for j, c_j in enumerate(c):
        if sum(row[j] * w for row, w in zip(rows, z)) < c_j * det:
            raise InvariantError("LP certificate: the dual breaks a column")
    if not sum(a * v for a, v in zip(c, y)) == value == sum(z):
        raise InvariantError("LP certificate: primal, dual and value differ")


# ---------------------------------------------------------------------------
# union-space star bound

def union_star_sizes(ground: GroundSet, profiles: tuple[tuple[int, ...], ...],
                     dists: list[tuple[int, ...]]) -> list[int]:
    """Full-star size in the union of the blocks of `profiles` (which may
    have zero entries) for each distribution in `dists`: the sum over
    profiles r of prod_i C(n_i - t_i, r_i - t_i), zero where r_i < t_i."""
    out = []
    for dist in dists:
        v = 0
        for r in profiles:
            term = 1
            for n_i, r_i, t_i in zip(ground.sizes, r, dist):
                term *= math.comb(n_i - t_i, r_i - t_i) if r_i >= t_i else 0
            v += term
        out.append(v)
    return out


def max_union_star_size(t: int, ground: GroundSet, profiles: ProfileSet,
                        strict: bool = True) -> BoundReport:
    """Largest full-star size over the profile-union space.

    Scans every t-distribution (there is no greedy shortcut for unions)
    and counts each one with union_star_sizes.  t <= c (the smallest
    profile entry) is the intended regime; pass strict=False to compute
    outside it, with the flag recorded.  The report's hypothesis flags are
    exact and purely informative: union_parts_large needs
    n_i > 2(t+1) p b^(t+2), t_le_c needs t <= c, and union_star is their
    conjunction.
    """
    profiles.check_against(ground)
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    t_le_c = t <= profiles.c
    if strict and not t_le_c:
        raise InvalidParametersError(
            f"t={t} exceeds the smallest profile entry c={profiles.c}")
    limits = tuple(min(t, n_i) for n_i in ground.sizes)
    dists = list(bounded_compositions(t, (0,) * ground.p, limits))
    need = 2 * (t + 1) * ground.p * profiles.b ** (t + 2)
    large = all(n_i > need for n_i in ground.sizes)
    flags = {"union_parts_large": large, "t_le_c": t_le_c, "union_star": large and t_le_c}
    return _argmax_report(dists, union_star_sizes(ground, profiles.profiles, dists), flags)


# ---------------------------------------------------------------------------
# hypothesis flags

def hypothesis_flags(t: int, ground: GroundSet, k: tuple[int, ...]) -> dict[str, bool]:
    """Exact evaluation of a block's large-part hypotheses; purely
    informative.  ratio_bound needs n_i >= 2 k_i; block_star needs
    n_i > 2(t+1) p k_i^2.  A union's flags are those of
    max_union_star_size's report.
    """
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    k = tuple(k)
    ground.check_profile(k)
    p = ground.p
    return {
        "ratio_bound": all(n_i >= 2 * k_i for n_i, k_i in zip(ground.sizes, k)),
        "block_star": all(n_i > 2 * (t + 1) * p * k_i * k_i
                          for n_i, k_i in zip(ground.sizes, k)),
    }
