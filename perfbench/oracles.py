"""Answers and output checks that share no code with the library under test.

Every check here works on plain int bitmasks (bit e-1 <-> element e) and
on part sizes, never on tstar objects, so a defect in tstar cannot make
its own output look right.  A check raises `Wrong` when an output
contradicts what it should be; the benchmark counts that call as failed
and the run as incorrect.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod


class Wrong(Exception):
    """An output contradicts its expected value."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def bits(mask: int) -> list[int]:
    """Ascending 1-based elements of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return out


def mask(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << (e - 1)
    return out


def offsets(sizes) -> list[int]:
    out, acc = [], 0
    for s in sizes:
        out.append(acc)
        acc += s
    return out


def space_members(sizes, profiles) -> frozenset[int]:
    """Every subset meeting part i in exactly r_i elements, for each
    profile r in the list."""
    offs = offsets(sizes)
    out = set()
    for r in profiles:
        per_part = [[mask(off + e for e in c)
                     for c in combinations(range(1, s + 1), r_i)]
                    for s, off, r_i in zip(sizes, offs, r)]
        for pieces in product(*per_part):
            out.add(sum(pieces))
    return frozenset(out)


def quota_profile_list(sizes, k, quotas) -> list[tuple[int, ...]]:
    return [r for r in product(*(range(q, s + 1) for s, q in zip(sizes, quotas)))
            if sum(r) == k]


def compositions(total: int, highs) -> list[tuple[int, ...]]:
    """Tuples x with 0 <= x_i <= highs[i] and sum(x) = total."""
    return [x for x in product(*(range(h + 1) for h in highs)) if sum(x) == total]


# ---------------------------------------------------------------------------
# exact maxima

def ak_maximum(n: int, k: int, t: int) -> int:
    """Largest t-intersecting family of k-subsets of [n].

    Ahlswede-Khachatrian complete intersection theorem (1997): the
    maximum is attained by one of F_r = {A : |A & [t+2r]| >= t+r}.
    The EKR case n >= (t+1)(k-t+1) is the r = 0 star.
    """
    if not 1 <= t <= k <= n:
        raise ValueError(f"need 1 <= t <= k <= n, got n={n} k={k} t={t}")
    best, r = 0, 0
    while t + 2 * r <= n:
        w = t + 2 * r
        best = max(best, sum(comb(w, i) * comb(n - w, k - i)
                             for i in range(t + r, min(w, k) + 1)))
        r += 1
    return best


def best_star(members, t: int) -> int:
    """Largest number of members containing one common t-set."""
    if t == 0:
        return len(members)
    counts: Counter = Counter()
    for m in members:
        counts.update(combinations(bits(m), t))
    return max(counts.values(), default=0)


def star_center_members(members, center: int) -> frozenset[int]:
    return frozenset(m for m in members if m & center == center)


def block_star_table(sizes, k, t) -> tuple[int, dict]:
    """Star size of every t-distribution of a block, and the best size."""
    values = {}
    for dist in compositions(t, [min(t, k_i) for k_i in k]):
        values[dist] = prod(comb(n_i - d, k_i - d)
                            for n_i, k_i, d in zip(sizes, k, dist))
    return max(values.values()), values


def union_star_value(sizes, profiles, t) -> int:
    """Largest full-star size over a profile union, scanning every
    t-distribution."""
    best = 0
    for dist in compositions(t, [min(t, n_i) for n_i in sizes]):
        total = 0
        for r in profiles:
            if all(d <= r_i for d, r_i in zip(dist, r)):
                total += prod(comb(n_i - d, r_i - d)
                              for n_i, r_i, d in zip(sizes, r, dist))
        best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# family properties

def is_t_intersecting(members, t: int) -> bool:
    ms = sorted(members)
    for i, a in enumerate(ms):
        for b in ms[i:]:
            if (a & b).bit_count() < t:
                return False
    return True


def min_intersection(members) -> int:
    ms = sorted(members)
    return min((a & b).bit_count() for i, a in enumerate(ms) for b in ms[i:])


def are_cross_t_intersecting(a, b, t: int) -> bool:
    return all((x & y).bit_count() >= t for x in a for y in b)


def is_shifted(members, sizes) -> bool:
    """Stable under every in-part move j -> i with i < j: whenever a
    member holds j and not i, the member with j replaced by i is present."""
    present = set(members)
    for off, s in zip(offsets(sizes), sizes):
        for m in present:
            for j in range(1, s):
                bj = 1 << (off + j)
                if not m & bj:
                    continue
                for i in range(j):
                    bi = 1 << (off + i)
                    if not m & bi and (m ^ bj) | bi not in present:
                        return False
    return True


def weight(members) -> int:
    return sum(sum(bits(m)) for m in members)


def check_witness(witness, space, t: int, size: int, star: int) -> None:
    """A solver witness is a t-intersecting subfamily of the space of the
    reported size, and no smaller than the best star of the space."""
    witness = frozenset(witness)
    expect(witness <= frozenset(space), "witness leaves the space")
    expect(len(witness) == size,
           f"witness has {len(witness)} members, report says {size}")
    expect(is_t_intersecting(witness, t), f"witness is not {t}-intersecting")
    expect(size >= star, f"maximum {size} is below the best star {star}")


def ratio_value(sizes, k) -> tuple[Fraction, int, int]:
    ratio = max(Fraction(k_i, n_i) for n_i, k_i in zip(sizes, k))
    block = prod(comb(n_i, k_i) for n_i, k_i in zip(sizes, k))
    return ratio, block, ratio.numerator * block // ratio.denominator


def kneser_connected(pairs) -> bool:
    """Tensor products of Kneser graphs KG(g, h) with g > 2h are connected
    and non-bipartite (Weichsel 1962); a factor with g = 2h >= 4 is a
    perfect matching, which disconnects the product."""
    return all(g > 2 * h for g, h in pairs)
