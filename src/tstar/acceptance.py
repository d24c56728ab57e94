"""The numbered acceptance checks.

Each criterion body is a generator that yields one note per failed check
and nothing when the criterion holds.  Criterion.run is the one runner:
it times the body, keeps the first MAX_NOTES notes, and fails the
criterion when a note was yielded, when the body raised (the exception
becomes the note "raised <Type>: <message>") or when the criterion's
runtime budget was exceeded, even if the numbers agree.  The repro subcommand
and tests/test_acceptance.py both walk ACCEPTANCE_CHECKS and print each
outcome through report(), so the gate reads the same from either side.
Randomized criteria use fixed seeds; every run sees the same instances.
"""

from __future__ import annotations

import random
import time
from itertools import product
from typing import Callable, Iterator

from .bounds import (
    enumerate_distribution_argmax,
    exchange_optimal,
    max_star_size,
    max_union_star_size,
    optimal_t_distributions,
    ratio_bound,
    union_star_sizes,
)
from .core import (
    Family,
    GroundSet,
    InvalidParametersError,
    ProfileSet,
    _Frozen,
    binom,
    block_size,
    bounded_compositions,
    enumerate_block,
    mask_of,
)
from .kneser import KneserParams, is_connected, is_connected_union_find
from .search import brute_force_max, max_t_intersecting
from .shifting import (
    compress_family,
    family_weight,
    is_l_shifted,
    shift_closure,
    simultaneous_closure,
)
from .verify import (
    check_partwise_prefix_intersection,
    check_prefix_intersection,
    is_full_t_star,
    is_t_intersecting,
)

MAX_NOTES = 5


class CriterionOutcome(_Frozen):
    passed: bool
    notes: list[str]
    seconds: float


class Criterion(_Frozen):
    number: int
    slug: str
    label: str
    budget: float
    body: Callable[[], Iterator[str]]

    def run(self) -> CriterionOutcome:
        notes: list[str] = []
        start = time.perf_counter()
        try:
            for note in self.body():
                if len(notes) < MAX_NOTES:
                    notes.append(note)
        except Exception as exc:
            # a check that cannot finish is a failed check, not bad input
            notes.append(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        if seconds > self.budget:
            notes.append(f"runtime {seconds:.1f}s exceeds the {self.budget:.0f}s budget")
        # every failure leaves a note: the first yielded one is always kept
        return CriterionOutcome(not notes, notes, seconds)


def report(check: Criterion, outcome: CriterionOutcome) -> str:
    """The criterion's matrix line, then its notes indented."""
    status = "PASS" if outcome.passed else "FAIL"
    spent = f"{outcome.seconds:.1f} s of {check.budget:.0f} s"
    return "\n".join([f"criterion {check.number:2d}: {status}  {check.label} ({spent})",
                      *(f"    {note}" for note in outcome.notes)])


# ---------------------------------------------------------------------------
# 1: the large non-trivial family beats the best star bound

def _criterion_counterexample() -> Iterator[str]:
    ground = GroundSet((8, 10))
    k = (4, 4)
    bound = max_star_size(2, ground, k)
    dists = optimal_t_distributions(2, ground, k)
    space = enumerate_block(ground, k)
    head = mask_of(range(1, 5))
    fam = Family(ground, frozenset(
        m for m in space.members if (m & head).bit_count() >= 3))
    if bound != 3150:
        yield f"star bound is {bound}, expected 3150"
    if dists != {(2, 0)}:
        yield f"optimal distributions {sorted(dists)}, expected [(2, 0)]"
    if len(fam.members) != 3570:
        yield f"family has {len(fam.members)} members, expected 3570"
    if not is_t_intersecting(fam, 2):
        yield "the half-prefix family is not 2-intersecting"


# ---------------------------------------------------------------------------
# shared grid for criteria 2 and 3

def _grid_instances():
    per_part = [(n, k) for k in range(1, 6) for n in range(k + 1, 13)]
    for p in (1, 2, 3):
        for combo in product(per_part, repeat=p):
            yield (tuple(n for n, _ in combo), tuple(k for _, k in combo))


def _criterion_distribution_oracle() -> Iterator[str]:
    for sizes, ks in _grid_instances():
        ground = GroundSet(sizes)
        total = sum(ks)
        for t in range(1, 5):
            if t > total:
                for fn in (optimal_t_distributions, enumerate_distribution_argmax):
                    try:
                        fn(t, ground, ks)
                    except InvalidParametersError:
                        continue
                    yield f"{fn.__name__} accepted t={t} > {total} on n={sizes} k={ks}"
                continue
            greedy = optimal_t_distributions(t, ground, ks)
            exact = enumerate_distribution_argmax(t, ground, ks)
            if greedy != exact.optimal_distributions:
                yield (f"n={sizes} k={ks} t={t}: greedy {sorted(greedy)} "
                       f"!= scan {sorted(exact.optimal_distributions)}")


def _criterion_exchange_condition() -> Iterator[str]:
    for sizes, ks in _grid_instances():
        ground = GroundSet(sizes)
        total = sum(ks)
        for t in range(1, 5):
            if t > total:
                continue
            dists = list(bounded_compositions(
                t, (0,) * len(ks), tuple(min(t, k_i) for k_i in ks)))
            star = union_star_sizes(ground, (ks,), dists)
            best = max(star)
            for dist, v in zip(dists, star):
                # the prefix center of dist, from the layout of the ground set
                center = sum([((1 << s_i) - 1) << off
                              for s_i, off in zip(dist, ground.offsets)])
                balanced = exchange_optimal(ground, ks, t, center)
                if (v == best) != balanced:
                    yield (f"n={sizes} k={ks} t={t} dist={dist}: size {v} of "
                           f"best {best} but exchange condition says {balanced}")


# ---------------------------------------------------------------------------
# 4: compression properties at scale

def _criterion_shifting() -> Iterator[str]:
    rng = random.Random(1009)
    for _ in range(10_000):
        p = rng.randint(1, 3)
        sizes = tuple(rng.randint(1, 5) for _ in range(p))
        ground = GroundSet(sizes)
        core = rng.randint(0, ground.full_mask)
        fam = Family(ground, frozenset(
            core | rng.randint(0, ground.full_mask)
            for _ in range(rng.randint(1, 6))))
        ms = list(fam.members)
        t = min((a & b).bit_count() for a in ms for b in ms)

        if ground.n >= 2:
            i, j = rng.sample(range(1, ground.n + 1), 2)
            moved = compress_family(fam, i, j)
            if len(moved.members) != len(fam.members):
                yield f"size changed under ({i},{j}) on {sorted(ms)}"
            if not is_t_intersecting(moved, t):
                yield f"{t}-intersection lost under ({i},{j}) on {sorted(ms)}"

        w0 = family_weight(fam)
        closed, steps = shift_closure(fam)
        if steps > w0 - family_weight(closed):
            yield f"{steps} steps exceed the weight drop on {sorted(ms)}"
        if len(closed.members) != len(fam.members):
            yield f"closure changed the size on {sorted(ms)}"
        for part in range(p):
            if not is_l_shifted(closed, part):
                yield f"closure not shifted in part {part} on {sorted(ms)}"
                break


# ---------------------------------------------------------------------------
# 5: prefix-window inequalities for shifted cross-intersecting pairs

def _criterion_prefix_windows() -> Iterator[str]:
    rng = random.Random(2003)
    for _ in range(5000):
        n = rng.randint(4, 10)
        ground = GroundSet((n,))
        t = rng.randint(1, 2)
        r = rng.randint(t, max(t, n // 2))
        s = rng.randint(r, n - 1) if r < n else r
        core = rng.sample(range(1, n + 1), t)
        rest = [e for e in range(1, n + 1) if e not in core]
        a = Family(ground, frozenset(
            mask_of(core) | mask_of(rng.sample(rest, r - t))
            for _ in range(rng.randint(1, 4))))
        b = Family(ground, frozenset(
            mask_of(core) | mask_of(rng.sample(rest, s - t))
            for _ in range(rng.randint(1, 4))))
        sa, sb = simultaneous_closure([a, b])
        if not check_prefix_intersection(sa, sb, t, r, s):
            yield (f"window failed: n={n} t={t} r={r} s={s} "
                   f"a={sorted(sa.members)} b={sorted(sb.members)}")

    rng = random.Random(2011)
    multi = 0
    while multi < 5000:
        p = rng.randint(2, 3)
        sizes = tuple(rng.randint(4, 10) for _ in range(p))
        ground = GroundSet(sizes)
        ra = tuple(rng.randint(1, (s - 1) // 2) for s in sizes)
        rb = tuple(rng.randint(1, max(1, s - 1 - x))
                   for s, x in zip(sizes, ra))
        if any(not s > x + y - 1 for s, x, y in zip(sizes, ra, rb)):
            continue
        t = rng.randint(1, 2)

        def member(profile):
            m = 0
            for part, r_i in enumerate(profile):
                m |= mask_of(rng.sample(list(ground.part_elements(part)), r_i))
            return m

        a = Family(ground, frozenset(member(ra) for _ in range(rng.randint(1, 3))))
        b = Family(ground, frozenset(member(rb) for _ in range(rng.randint(1, 3))))
        if min((x & y).bit_count() for x in a.members for y in b.members) < t:
            continue
        sa, sb = simultaneous_closure([a, b])
        multi += 1
        if not check_partwise_prefix_intersection(sa, sb, t, ra, rb):
            yield (f"partwise window failed: n={sizes} t={t} ra={ra} rb={rb} "
                   f"a={sorted(sa.members)} b={sorted(sb.members)}")

    # sensitivity: without shiftedness the partwise conclusion can fail
    tail = Family(GroundSet((7, 7)), frozenset({mask_of([6, 7, 13, 14])}))
    if check_partwise_prefix_intersection(tail, tail, 2, (2, 2), (2, 2),
                                          require_shifted=False):
        yield ("the tail-located pair satisfied the windows; "
               "expected a violation without shiftedness")


# ---------------------------------------------------------------------------
# 6: classical single-part maxima via the solver

def _criterion_classical_maxima() -> Iterator[str]:
    for n, k in ((5, 2), (7, 3), (9, 4)):
        space = enumerate_block(GroundSet((n,)), (k,))
        result = max_t_intersecting(space, 1)
        expected = binom(n - 1, k - 1)
        if result.max_size != expected:
            yield f"(n,k)=({n},{k}): got {result.max_size}, expected {expected}"
        if is_full_t_star(result.witness, space, 1) is None:
            yield f"(n,k)=({n},{k}): witness is not a full star"


# ---------------------------------------------------------------------------
# 7: solver against the exhaustive oracle

def _criterion_solver_oracle() -> Iterator[str]:
    per_part = [(n, k) for n in range(1, 7) for k in range(1, min(3, n) + 1)]
    for p in (1, 2):
        for combo in product(per_part, repeat=p):
            sizes = tuple(n for n, _ in combo)
            ks = tuple(k for _, k in combo)
            ground = GroundSet(sizes)
            if block_size(ground, ks) > 24:
                continue
            space = enumerate_block(ground, ks)
            for t in (1, 2):
                got = max_t_intersecting(space, t)
                want = brute_force_max(space, t)
                if got.max_size != want.max_size:
                    yield (f"n={sizes} k={ks} t={t}: solver "
                           f"{got.max_size} != oracle {want.max_size}")
                elif not is_t_intersecting(got.witness, t):
                    yield f"n={sizes} k={ks} t={t}: witness invalid"


# ---------------------------------------------------------------------------
# 8: disjointness-graph connectivity, two independent routes

def _criterion_kneser() -> Iterator[str]:
    # the 2-subset disjointness graph on [4] is a perfect matching
    for pairs, connected in ((((5, 2),), True), (((7, 3),), True),
                             (((5, 2), (5, 2)), True), (((5, 2), (7, 3)), True),
                             (((4, 2),), False)):
        params = KneserParams(pairs)
        got = is_connected(params)
        if got != connected:
            yield f"{pairs} reported {'connected' if got else 'disconnected'}"
        if params.vertex_count <= 10_000 and got != is_connected_union_find(params):
            yield f"{pairs}: search and union-find disagree"


# ---------------------------------------------------------------------------
# 9: union-space star bound, frozen value plus block consistency

def _criterion_union_bound() -> Iterator[str]:
    union = max_union_star_size(1, GroundSet((6, 6)),
                                ProfileSet(((2, 2), (3, 2))))
    if union.value != 225:
        yield f"union bound {union.value}, expected 225"
    if union.optimal_distributions != {(1, 0)}:
        yield (f"distributions {sorted(union.optimal_distributions)}, "
               f"expected [(1, 0)]")
    rng = random.Random(3019)
    for _ in range(100):
        p = rng.randint(1, 3)
        ks = tuple(rng.randint(1, 4) for _ in range(p))
        sizes = tuple(k_i + rng.randint(1, 6) for k_i in ks)
        ground = GroundSet(sizes)
        t = rng.randint(1, min(ks))
        single = max_union_star_size(t, ground, ProfileSet((ks,)))
        block = max_star_size(t, ground, ks)
        if single.value != block:
            yield (f"n={sizes} k={ks} t={t}: union route "
                   f"{single.value} != block route {block}")


# ---------------------------------------------------------------------------
# 10: density bound versus the exact maximum

def _criterion_density_bound() -> Iterator[str]:
    ground = GroundSet((4, 4))
    k = (2, 2)
    rb = ratio_bound(ground, k)
    space = enumerate_block(ground, k)
    result = max_t_intersecting(space, 1)
    if rb.absolute != 18:
        yield f"density bound {rb.absolute}, expected 18"
    if result.max_size > rb.absolute:
        yield f"exact maximum {result.max_size} exceeds the bound {rb.absolute}"


ACCEPTANCE_CHECKS = [
    Criterion(1, "counterexample", "non-trivial family beats the star bound",
              5.0, _criterion_counterexample),
    Criterion(2, "distribution-oracle", "greedy optimal distributions match "
              "the exhaustive scan", 60.0, _criterion_distribution_oracle),
    Criterion(3, "exchange-condition", "exchange condition characterizes "
              "density-maximal centers", 60.0, _criterion_exchange_condition),
    Criterion(4, "shifting", "compression preserves size and intersection; "
              "closures terminate shifted", 10.0, _criterion_shifting),
    Criterion(5, "prefix-windows", "shifted cross-intersecting pairs meet "
              "inside prefix windows", 30.0, _criterion_prefix_windows),
    Criterion(6, "classical-maxima", "single-part maxima match the "
              "closed form", 120.0, _criterion_classical_maxima),
    Criterion(7, "solver-oracle", "solver equals brute force on the "
              "micro grid", 60.0, _criterion_solver_oracle),
    Criterion(8, "kneser-connectivity", "disjointness products connected "
              "exactly as expected", 5.0, _criterion_kneser),
    Criterion(9, "union-bound", "union-space star bound frozen value and "
              "block consistency", 5.0, _criterion_union_bound),
    Criterion(10, "density-bound", "exact maximum respects the density "
              "bound", 10.0, _criterion_density_bound),
]
