"""Exact maximum t-intersecting subfamily computation.

The largest t-intersecting subfamily of a finite family is a maximum
clique in the graph whose vertices are the members and whose edges join
members sharing at least t elements, an independent set of the
"conflict" graph (members sharing fewer than t elements).
max_t_intersecting is a maximum-clique branch and bound with a greedy
colouring bound (Tomita and Seki 2003) on bitsets (San Segundo et al.
2011): a colour class is a clique of the conflict graph, of which a
solution keeps at most one member, so the colour count bounds a node.
Each node takes its conflict-free candidates at once and colours the
rest in ascending order of their conflict degree among them, counted
again at every node, as MaxCliqueDyn (Konc and Janezic 2007) re-sorts by
degree.  A child whose colour bound beats the incumbent by one only is
first tested by unit propagation over the lower colour classes, the
failed-literal test of MaxCLQ (Li and Quan 2010), and not opened when a
class empties.  The greedy star seed is first improved by a local search
of free additions and (1,2)-swaps (Andrade, Resende and Werneck 2012),
adopted only when it beats the star.

The solvers return the family they found.  The two report builders set
it beside the best star and judge whether it is a full star
(verify.is_full_t_star), once per report: check_block_maximum for one
block, check_quota_family for a quota family.  Each returns the keys of
its `tstar search` report, in order.
A block is the vertex set of a product of Johnson schemes, so
check_block_maximum stops as soon as its incumbent meets the floor of
Delsarte's LP bound (bounds.delsarte_bound); blocks with more distance
classes than the LP's cap are searched without it.  When the best star
(bounds.optimal_t_distributions, in closed form) meets it, that star is
the answer and nothing is searched.  Otherwise the block is searched
over shifted families only: every in-part shift keeps a family's size
and t-intersection, so some maximum family is a down-set of the product
shifting order, and _search_down_sets branches on down-sets, seeded by
the best window family (bounds.max_window_family).  Quota spaces and
profile unions are closed under in-part shifts too, but have no LP
bound here; they are searched over their whole conflict graph by
max_t_intersecting, as are arbitrary subfamilies.  `search --shifted` is
check_block_maximum(..., shifted=True), which checks that the witness is
shifted.

A deliberately naive brute-force oracle is kept alongside for
validation; it shares no data structures with the solver.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import Iterator

from .bounds import (delsarte_bound, exchange_optimal, hypothesis_flags,
                     max_window_family, optimal_t_distributions, union_star_sizes)
from .core import (
    Family,
    GroundSet,
    InstanceTooLargeError,
    InvalidParametersError,
    InvariantError,
    _Frozen,
    elements_of,
    enumerate_block,
    enumerate_quota,
    quota_profiles,
    search_cap,
    trivial_star,
)
from .shifting import is_shifted
from .verify import is_full_t_star

DEFAULT_SUBSET_LIMIT = 24
DEFAULT_CLIQUE_LIMIT = 60


class SearchResult(_Frozen):
    """Outcome of one exact maximisation.

    max_size is the exact optimum.  witness is one optimal subfamily;
    whether it is a full star is for the caller to judge
    (verify.is_full_t_star).  nodes_explored counts the nodes of
    max_t_intersecting that neither its colouring bound pruned nor unit
    propagation refuted, or the nodes of the down-set search for a block
    that check_block_maximum searches.  It is 0, and no conflict graph or
    table is built, when the seed is already optimal: it holds every
    candidate, or, in the down-set search, meets the goal.
    bound_used records the seed's size, the initial lower bound the
    search started from: in max_t_intersecting the star's, or the local
    search's when that beats it.
    """

    max_size: int
    witness: Family
    nodes_explored: int
    bound_used: int


def _greedy_star(space: Family, t: int) -> Family:
    """Best-effort trivial t-star inside the space, grown one center
    element at a time; each step keeps the element most frequent among
    the members still containing the partial center."""
    members = [m for m in space.members if m.bit_count() >= t]
    center = 0
    for _ in range(t):
        counts: dict[int, int] = {}
        for m in members:
            rest = m & ~center
            while rest:
                low = rest & -rest
                counts[low] = counts.get(low, 0) + 1
                rest ^= low
        if not counts:
            return Family(space.ground, frozenset())
        best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        center |= best
        members = [m for m in members if m & center == center]
    return Family(space.ground, frozenset(members))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _matching_bound(conflict: list[int], pmask: int) -> int:
    """Greedy maximal matching in the conflict graph restricted to the
    candidates pmask: an independent set keeps at most one vertex per
    matched pair."""
    pairs = 0
    rest = pmask
    while rest:
        low = rest & -rest
        rest ^= low
        nb = conflict[low.bit_length() - 1] & rest
        if nb:
            rest ^= nb & -nb
            pairs += 1
    return pmask.bit_count() - pairs


def _refuted(live: int, classes: list[int], conflict: list[int]) -> bool:
    """Whether no independent set inside `live` takes a vertex of every
    class, by unit propagation: the failed-literal test of MaxCLQ (Li and
    Quan 2010).  A class left with one live vertex forces it, and its
    conflicts leave live; a class left with none refutes.  False means
    only that propagation found no contradiction."""
    while classes:
        rest = []
        for cls in classes:
            m = cls & live
            if not m:
                return True
            if m & (m - 1):
                rest.append(cls)
            else:
                live &= ~conflict[m.bit_length() - 1]
        if len(rest) == len(classes):
            return False
        classes = rest
    return False


def _local_search(conflict: list[int], chosen: int) -> int:
    """The independent set `chosen` of the conflict graph grown to a
    local optimum: no vertex can join it and no (1,2)-swap applies.

    Each round is one pass over the vertices: a vertex conflicting with
    nothing chosen joins, and one whose only chosen conflict is x is
    noted against x.  Then each x with two noted vertices that still
    conflict only with x and not with each other makes a (1,2)-swap
    (Andrade, Resende and Werneck 2012): x leaves, both join.  Rounds
    repeat while they grow the set."""
    while True:
        size = chosen.bit_count()
        tight: dict[int, int] = {}
        for u, nb in enumerate(conflict):
            c = nb & chosen
            if not c:
                chosen |= 1 << u
            elif not c & (c - 1):
                tight[c] = tight.get(c, 0) | 1 << u
        for x, cands in tight.items():
            if not cands & (cands - 1) or not chosen & x:
                continue
            live = 0
            for u in _bits(cands):
                if conflict[u] & chosen == x:
                    live |= 1 << u
            for u in _bits(live):
                pair = live & ~conflict[u] & ~(1 << u)
                if pair:
                    chosen ^= x | 1 << u | (pair & -pair)
                    break
        if chosen.bit_count() == size:
            return chosen


def max_t_intersecting(space: Family, t: int, cap: int | None = None) -> SearchResult:
    """Exact maximum t-intersecting subfamily of `space`.

    Members with fewer than t elements cannot appear in any solution
    (they fail the requirement against themselves) and are dropped up
    front.  When the greedy star seed holds every candidate it is the
    answer: nodes_explored is 0 and no conflict graph is built.
    Otherwise the candidates are indexed by ascending conflict degree,
    ties by ascending mask order, and the star is grown to a local
    optimum (_local_search); that set is the seed, and bound_used its
    size, only when it has more members than the star.  A depth-first
    search takes each node's candidates without a conflict among them at
    once, then colours the rest into conflict cliques, taking them by
    ascending conflict degree among the candidates, ties by index.  It
    branches on the vertices whose colour could beat the incumbent, last
    coloured first; the child taking v keeps the vertices coloured before
    v that do not conflict with it, and v's colour minus one bounds what
    they add.  When that bound beats the incumbent by one only, the child
    must take a vertex of every lower colour, and it is not opened when
    unit propagation over those classes (_refuted) empties one; v leaves
    the node's candidates either way.  A refuted child holds no strict
    gain, so the refutation changes nodes_explored only.  Deterministic;
    the incumbent changes only on a strict gain, so the star is the
    witness whenever it is optimal.
    """
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    limit = search_cap(cap)
    if len(space.members) > limit:
        raise InstanceTooLargeError(
            f"search space has {len(space.members)} members, cap is {limit}")
    verts = sorted(m for m in space.members if m.bit_count() >= t)
    n = len(verts)
    seed = _greedy_star(space, t)
    best_size = seed_size = len(seed.members)
    if seed_size >= n:
        # the seed is optimal, which covers t = 0: nothing to search
        return SearchResult(seed_size, seed, 0, seed_size)

    # the conflict graph, built in root order: ascending conflict degree
    # (descending intersection degree), ties by ascending mask order
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        ma = verts[a]
        for b in range(a + 1, n):
            if (ma & verts[b]).bit_count() < t:
                nbrs[a].append(b)
                nbrs[b].append(a)
    perm = sorted(range(n), key=lambda v: (len(nbrs[v]), v))
    inv = {old: new for new, old in enumerate(perm)}
    verts = [verts[old] for old in perm]
    conflict = [sum(1 << inv[b] for b in nbrs[old]) for old in perm]
    best_mask = _local_search(
        conflict, sum(1 << i for i, m in enumerate(verts) if m in seed.members))
    if best_mask.bit_count() > seed_size:
        best_size = seed_size = best_mask.bit_count()
    else:
        best_mask = 0   # the star stays the seed and the incumbent
    nodes = 0

    # depth-first branch and bound without recursion.  A frame on the
    # stack is an open node: [taken set, its size, candidates not yet
    # branched on, branch vertices in colouring order with their colours,
    # its colour classes];
    # its children are made one at a time, so the stack holds one mask per
    # open node, not one per child
    stack: list[list] = []
    taken, size, pmask = 0, 0, (1 << n) - 1
    while True:
        nodes += 1
        # one scan groups the candidates by live conflict degree
        groups: dict[int, int] = {}
        rest = pmask
        while rest:
            low = rest & -rest
            rest ^= low
            d = (conflict[low.bit_length() - 1] & pmask).bit_count()
            groups[d] = groups.get(d, 0) | low
        # the degree-0 candidates conflict with none of the others: every
        # maximum extension holds them all, so they are taken at once
        free = groups.pop(0, 0)
        if free:
            taken |= free
            size += free.bit_count()
            pmask ^= free
        if size > best_size:
            best_size = size
            best_mask = taken
        # greedy colouring into conflict cliques, a colour at a time, each
        # taking the uncoloured vertices in ascending degree, ties by
        # index, that conflict with all it holds: an independent set keeps
        # at most one vertex per colour, so the colour count bounds what
        # the candidates can add.  A vertex of colour c, with the vertices
        # coloured before it, holds at most c of the solution; only colours
        # above best_size - size can beat the incumbent, and every vertex
        # of a lower colour is coloured before them
        order = [groups[d] for d in sorted(groups)]
        floor = best_size - size
        branch: list[tuple[int, int]] = []
        classes: list[int] = []     # classes[c - 1] holds the vertices of colour c
        uncoloured = pmask
        colour = 0
        while uncoloured:
            colour += 1
            q = before = uncoloured
            for g in order:
                cand = q & g
                while cand:
                    low = cand & -cand
                    v = low.bit_length() - 1
                    q &= conflict[v]
                    cand = q & g
                    uncoloured ^= low
                    if colour > floor:
                        branch.append((v, colour))
                if not q:
                    break
            classes.append(before ^ uncoloured)
        if branch:
            stack.append([taken, size, pmask, branch, classes])
        # the next child, last coloured first: it takes v and keeps the
        # candidates coloured before v that do not conflict with it; v's
        # colour minus one bounds what they add, so a child that cannot
        # beat the incumbent closes its node, whose later children have
        # no higher colours.  A child that can beat it by one only must
        # take a vertex of every lower colour; when unit propagation over
        # those classes empties one, the child is not opened
        while stack:
            frame = stack[-1]
            taken, size, pmask, branch, classes = frame
            if branch:
                v, colour = branch.pop()
                if size + colour > best_size:
                    pmask ^= 1 << v
                    frame[2] = pmask
                    child = pmask & ~conflict[v]
                    if (size + colour == best_size + 1
                            and _refuted(child, classes[:colour - 1], conflict)):
                        continue
                    taken, size, pmask = taken | 1 << v, size + 1, child
                    break
            stack.pop()
        else:
            break

    witness = seed if not best_mask else Family(
        space.ground, frozenset(verts[i - 1] for i in elements_of(best_mask)))
    return SearchResult(best_size, witness, nodes, seed_size)


# ---------------------------------------------------------------------------
# independent oracle

def brute_force_max(space: Family, t: int) -> SearchResult:
    """Exhaustive maximum, for validating max_t_intersecting.

    The oracle follows from the number of candidates, the members with at
    least t elements: up to DEFAULT_SUBSET_LIMIT = 24 of them it explores
    the full include/exclude tree (_subsets_max), up to
    DEFAULT_CLIQUE_LIMIT = 60 it enumerates the maximal cliques of the
    intersection graph, counting them, and keeps the largest, ties going
    to the smallest sorted tuple (_cliques_max); more raise
    InstanceTooLargeError.  The limits bound the member count, not the
    time: the number of maximal cliques can grow exponentially (one
    59-member subfamily of the (3,6)/(1,3) block at t=1 has 7,812,500 of
    them), so the clique enumeration has no time bound.
    """
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    if t == 0:
        return SearchResult(len(space.members), space, 0, len(space.members))
    verts = sorted(m for m in space.members if m.bit_count() >= t)
    if len(verts) <= DEFAULT_SUBSET_LIMIT:
        return _subsets_max(space, verts, t)
    if len(verts) <= DEFAULT_CLIQUE_LIMIT:
        return _cliques_max(space, verts, t)
    raise InstanceTooLargeError(
        f"{len(verts)} members exceed the brute-force limit {DEFAULT_CLIQUE_LIMIT}")


def _subsets_max(space: Family, verts: list[int], t: int) -> SearchResult:
    """The include/exclude tree over the ascending candidates verts;
    nodes_explored counts its nodes."""
    n = len(verts)
    best: list[int] = []
    nodes = 0

    def dfs(i: int, chosen: list[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if len(chosen) > len(best):
            best = list(chosen)
        if i == n or len(chosen) + (n - i) <= len(best):
            return
        m = verts[i]
        if all((m & c).bit_count() >= t for c in chosen):
            chosen.append(m)
            dfs(i + 1, chosen)
            chosen.pop()
        dfs(i + 1, chosen)

    dfs(0, [])
    witness = Family(space.ground, frozenset(best))
    return SearchResult(len(best), witness, nodes, 0)


def _cliques_max(space: Family, verts: list[int], t: int) -> SearchResult:
    """Bron-Kerbosch with Tomita's pivot over the ascending candidates
    verts; nodes_explored counts the maximal cliques."""
    n = len(verts)
    # an explicit stack of bitsets over indices into verts:
    # (clique r, candidates p, excluded x)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if (verts[i] & verts[j]).bit_count() >= t:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    best_clique: tuple[int, ...] = ()
    seen = 0
    stack = [(0, (1 << n) - 1, 0)] if n else []   # no clique in an empty graph
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:   # r is a maximal clique
                seen += 1
                if r.bit_count() >= len(best_clique):
                    cand = tuple(_bits(r))
                    if len(cand) > len(best_clique) or cand < best_clique:
                        best_clique = cand
            continue
        u = most = -1
        for v in _bits(p | x):
            c = (p & adj[v]).bit_count()
            if c > most:
                u, most = v, c
        for v in _bits(p & ~adj[u]):
            stack.append((r | 1 << v, p & adj[v], x & adj[v]))
            p ^= 1 << v
            x |= 1 << v
    witness = Family(space.ground, frozenset(verts[i] for i in best_clique))
    return SearchResult(len(best_clique), witness, seen, 0)


# ---------------------------------------------------------------------------
# down-set search on a full block

def _part_tables(n: int, k: int, t: int) -> tuple[list, ...]:
    """Tables over the k-subsets of an n-element part, as bit masks over
    their indices in ascending mask order, an order that extends the
    shifting order (a <= b when a's sorted elements are at most b's, one
    by one).

    Returns (subsets, down, up, meet, fewer, least): down[j] and up[j]
    hold the subsets below and above subset j, meet[s][j] those sharing
    exactly s elements with it, fewer[x][j] (x <= t) those sharing fewer
    than x, and least[j] is the fewest elements two subsets below j share.
    """
    subsets = sorted(sum(1 << e for e in c) for c in combinations(range(n), k))
    index = {m: j for j, m in enumerate(subsets)}
    size = len(subsets)
    # a cover of the order moves one element to the free place beside it
    down, up = [0] * size, [0] * size
    for j, m in enumerate(subsets):
        down[j] = 1 << j
        for b in range(1, n):
            if m >> b & 1 and not m >> (b - 1) & 1:
                down[j] |= down[index[m ^ (3 << (b - 1))]]
    for j in reversed(range(size)):
        m = subsets[j]
        up[j] = 1 << j
        for b in range(n - 1):
            if m >> b & 1 and not m >> (b + 1) & 1:
                up[j] |= up[index[m ^ (3 << b)]]
    meet = [[0] * size for _ in range(k + 1)]
    for j, a in enumerate(subsets):
        for i, b in enumerate(subsets):
            meet[(a & b).bit_count()][j] |= 1 << i
    fewer = [[0] * size]
    for x in range(min(t, k + 1)):
        fewer.append([lo | eq for lo, eq in zip(fewer[-1], meet[x])])
    fewer += [fewer[-1]] * (t + 1 - len(fewer))
    # two subsets below j sharing s elements make j share at most s with
    # one of them (the lemma in _search_down_sets), so pairs with j suffice
    least = [min((m & subsets[x]).bit_count() for x in _bits(down[j]))
             for j, m in enumerate(subsets)]
    return subsets, down, up, meet, fewer, least


def _kron(masks: list[int], sizes: list[int]) -> int:
    """Kronecker product of per-part index masks: bit v of the result is
    set when every part's index in the mixed-radix index v (part 0 most
    significant) is set in that part's mask."""
    out, width = masks[-1], sizes[-1]
    for m, size in zip(masks[-2::-1], sizes[-2::-1]):
        out = sum(out << (a * width) for a in _bits(m))
        width *= size
    return out


def _search_down_sets(space: Family, k: tuple[int, ...], t: int,
                      goal: int) -> SearchResult:
    """max_t_intersecting for the full block space of profile k, searched
    over the down-sets of the product shifting order only.

    Every in-part shift keeps a family's size, its block and its
    t-intersection, so some maximum family is a down-set.  The seed is
    the best window family (bounds.max_window_family), itself a down-set.
    Taking a vertex v brings in all of down(v) and drops what conflicts
    with it; dropping v drops up(v).  The root drops every vertex whose
    down-set holds a conflicting pair, a free vertex whose candidates
    below are all free joins without a branch, the matching bound
    prunes, and the search stops once it meets `goal`.  The masks are
    Kronecker products of per-part tables (_part_tables), in mixed-radix
    index order; no pair of members is compared.

    Lemma: what conflicts with a down-set S is an up-set.  If u meets
    s in S in fewer than t elements and u' is u with a replaced by b > a
    of the same part, then u' meets s in fewer than t too, unless b is in
    s and a is not; then s' = s with b replaced by a is in S and u' meets
    s' as u meets s.  So the taken set and the candidates always form a
    down-set, and dropping the conflicts of a take drops their up-sets.
    """
    ground = space.ground
    size, r, w = max_window_family(t, ground, k)
    window = sum(ground.prefix_mask(i, w_i) for i, w_i in enumerate(w))
    seed = Family(ground, frozenset(m for m in space.members
                                    if (m & window).bit_count() >= t + r))
    if len(seed.members) != size:
        raise InvariantError(
            f"the window family has {len(seed.members)} members, counted {size}")
    best_size = seed_size = size
    best_mask = nodes = 0
    if best_size < goal:
        subsets, downs, ups, meets, fewers, leasts = zip(
            *(_part_tables(n_i, k_i, t) for n_i, k_i in zip(ground.sizes, k)))
        sizes = [len(part) for part in subsets]
        verts = [sum(m << off for m, off in zip(parts, ground.offsets))
                 for parts in product(*subsets)]
        # conflicts split the t-1 or fewer shared elements among the parts:
        # exactly s_i in each part but the last, fewer than the rest there
        splits = [s for s in product(*(range(min(k_i, t - 1) + 1) for k_i in k[:-1]))
                  if sum(s) < t]
        n = len(verts)
        down, up, conflict = [0] * n, [0] * n, [0] * n
        alive = 0
        for v, a in enumerate(product(*map(range, sizes))):
            if sum(least[a_i] for least, a_i in zip(leasts, a)) < t:
                continue    # down(v) holds a conflicting pair
            alive |= 1 << v
            down[v] = _kron([part[a_i] for part, a_i in zip(downs, a)], sizes)
            up[v] = _kron([part[a_i] for part, a_i in zip(ups, a)], sizes)
            for s in splits:
                conflict[v] |= _kron([meet[s_i][a_i] for meet, s_i, a_i in zip(meets, s, a)]
                                     + [fewers[-1][t - sum(s)][a[-1]]], sizes)

        # depth-first on an explicit stack of nodes (down-set taken, its
        # size, candidates); the candidates and the taken set form a down-set
        stack = [(0, 0, alive)]
        while stack:
            r_mask, r_size, pmask = stack.pop()
            while True:
                nodes += 1
                free = 0
                pick = -1
                pick_deg = 0
                rest = pmask
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    d = (conflict[v] & pmask).bit_count()
                    if d == 0:
                        free |= low
                    elif d > pick_deg:
                        pick, pick_deg = v, d
                take = 0
                for v in _bits(free):
                    if not down[v] & pmask & ~free:
                        take |= 1 << v
                r_mask |= take
                r_size += take.bit_count()
                pmask &= ~take
                if r_size > best_size:
                    best_size = r_size
                    best_mask = r_mask
                    if best_size >= goal:
                        stack.clear()
                        break
                if not pmask or r_size + _matching_bound(conflict, pmask) <= best_size:
                    break
                stack.append((r_mask, r_size, pmask & ~up[pick]))
                new = down[pick] & pmask
                r_mask |= new
                r_size += new.bit_count()
                pmask &= ~new
                hit = 0
                for x in _bits(new):
                    hit |= conflict[x]
                pmask &= ~hit

    witness = seed if not best_mask else Family(
        ground, frozenset(verts[v] for v in _bits(best_mask)))
    return SearchResult(best_size, witness, nodes, seed_size)


# ---------------------------------------------------------------------------
# report builders on top of the solver

def _elements(center: int | None) -> list[int] | None:
    return None if center is None else list(elements_of(center))


def check_block_maximum(ground: GroundSet, k: tuple[int, ...], t: int,
                        cap: int | None = None, shifted: bool = False) -> dict:
    """Exact maximum for one block versus the best trivial t-star.

    Under the large-part hypothesis the two must agree and the witness
    must be a star with an exchange-optimal center; the report records
    what was observed either way.  For p = 1 the classical threshold
    n > (t+1)(k-t+1) is reported as well, it is much weaker than the
    general product hypothesis.

    The search stops once its incumbent meets lp_bound, the floor of
    delsarte_bound for the block; a family above it raises
    InvariantError.  When the best star meets it, that star is the
    witness and nodes_explored is 0: its t-distribution is the optimal
    one that gives tied ratio links to the lowest parts, its center each
    part's first elements.  Otherwise _search_down_sets searches the
    shifted families, from the best window family; nodes_explored
    counts its nodes (0 when the window family meets lp_bound), and
    witness_center is the witness's center when it is a full star
    (verify.is_full_t_star), else None.
    lp_bound is None, and the search runs without it, when the block has
    more than DELSARTE_CLASS_CAP distance classes.

    The witness is a down-set of the shifting order either way; with
    shifted=True that is checked, and InvariantError raised if not.
    The report's keys and order are those of `tstar search`; the
    witness Family stands where the CLI prints witness_file.
    """
    k = tuple(k)
    space = enumerate_block(ground, k, cap=search_cap(cap))
    # the largest optimal distribution gives tied ratio links to the lowest parts
    dist = max(optimal_t_distributions(t, ground, k))
    star_bound = union_star_sizes(ground, (k,), [dist])[0]
    try:
        lp_bound = math.floor(delsarte_bound(ground, k, t))
    except InstanceTooLargeError:
        lp_bound = None     # too many distance classes: search without it
    goal = len(space.members) if lp_bound is None else min(lp_bound, len(space.members))
    if star_bound >= goal:
        # the best star is a maximum: close the block without a search
        center = sum(ground.prefix_mask(i, t_i) for i, t_i in enumerate(dist))
        result = SearchResult(star_bound, trivial_star(space, center), 0, star_bound)
    else:
        result = _search_down_sets(space, k, t, goal)
        center = is_full_t_star(result.witness, space, t)
    if lp_bound is not None and result.max_size > lp_bound:
        raise InvariantError(f"a {result.max_size}-member t-intersecting family "
                             f"beats the upper bound {lp_bound}")
    if shifted and not is_shifted(result.witness):
        raise InvariantError("the witness is not shifted")
    hypotheses = {"block_star": hypothesis_flags(t, ground, k=k)["block_star"]}
    if ground.p == 1:
        hypotheses["ekr_threshold"] = ground.sizes[0] > (t + 1) * (k[0] - t + 1)
    gap = result.max_size - star_bound
    optimal = None if center is None else exchange_optimal(ground, k, t, center)
    return {
        "max_size": result.max_size,
        "star_bound": star_bound,
        "gap": gap,
        "witness_center": _elements(center),
        "center_exchange_optimal": optimal,
        "hypotheses": hypotheses,
        "consistent": (not hypotheses["block_star"]
                       or (gap == 0 and center is not None and optimal)),
        "lp_bound": lp_bound,
        "nodes_explored": result.nodes_explored,
        "witness": result.witness,
    }


def check_quota_family(ground: GroundSet, k: int, quotas: tuple[int, ...],
                       cap: int | None = None) -> dict:
    """Exact maximum intersecting subfamily of a quota family versus its
    best single-element star.

    The star side is exact counting over all possible centers, not
    search; within one part every element gives the same count.  The
    verdict is "non-trivial" when the maximum strictly beats every star,
    else "trivial": a full star attains the maximum, not every maximum
    is a star.  The solver's greedy seed is the star of a most frequent
    element, so a best star; its local search replaces it only with a
    larger family, and its incumbent changes only on a strict gain: for
    k >= 1 a "trivial" witness is that star, and
    witness_center names its center.  star_center is None when the best
    star has no member, as for k = 0.  The report's keys and order are
    those of `tstar search --quota`.
    """
    quotas = tuple(quotas)
    profiles = quota_profiles(ground, k, quotas)
    space = enumerate_quota(ground, k, quotas, cap=search_cap(cap))
    units = [tuple(int(j == i) for j in range(ground.p)) for i in range(ground.p)]
    star_sizes = union_star_sizes(ground, profiles, units)   # e_i: one element of part i
    star_best = max(star_sizes)
    result = max_t_intersecting(space, 1, cap=cap)
    if result.max_size < star_best:
        raise InvariantError(
            f"solver maximum {result.max_size} is below the star size {star_best}")

    total = sum(quotas)
    p = ground.p
    violations = [i for i in range(p)
                  if ground.sizes[i] <= k - total + quotas[i]]
    double = all(ground.sizes[i] >= 2 * quotas[i] for i in range(p))
    slack = (len(violations) <= 1
             and all(quotas[i] > 0 for i in violations))
    return {
        "max_size": result.max_size,
        "star_size": star_best,
        "star_center": [ground.part_elements(star_sizes.index(star_best))[0]]
                       if star_best else None,
        "verdict": "non-trivial" if result.max_size > star_best else "trivial",
        "hypotheses": {
            "parts_double_quota": double,
            "slack_all_but_one": slack,
            "applies": double and slack,
        },
        "witness_center": _elements(is_full_t_star(result.witness, space, 1)),
        "nodes_explored": result.nodes_explored,
        "witness": result.witness,
    }
