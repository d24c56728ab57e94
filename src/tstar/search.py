"""Exact maximum t-intersecting subfamily computation.

The largest t-intersecting subfamily of a finite family is a maximum
clique in the graph whose vertices are the members and whose edges join
members sharing at least t elements, an independent set of the
"conflict" graph (members sharing fewer than t elements).
Every in-part shift keeps a family's size and its t-intersection
(Frankl 1987), so a family closed under in-part lower shifts (a block, a
profile union, a quota space, any shifted family) has a maximum that is
a down-set of the product shifting order.  max_t_intersecting searches
such a family over its down-sets (_search_down_sets) and any other with
a maximum-clique branch and bound (_max_clique), which on shift-closed
families stays the independent route.
_max_clique has a greedy colouring bound (Tomita and Seki 2003) on
bitsets (San Segundo et al. 2011): a colour class is a clique of the
conflict graph, of which a solution keeps at most one member, so the
colour count bounds a node.
The bitsets start at the build: one pass indexes the candidates by
element, and both the greedy star seed (t most frequent elements, one at
a time) and every conflict row (a bit-sliced count of shared elements
over the row's elements) are read off that index; so are the down-set
kernel's rows.
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
the answer and nothing is searched.  Otherwise the down-set kernel
searches the block from the best window family
(bounds.max_window_family), which the kernel builds itself, as it
builds every seed, from a window (w, r): a t-intersecting down-set as
sum(w) <= t + 2r.  One ascending pass over a node's
candidates counts their degrees, finds the free ones and builds a greedy
matching of the conflicts, whose pairs bound the node; it branches on
the candidate of most conflicts, those with vertices the root dropped
included.  Quota spaces and profile unions have no LP bound here; the
kernel searches them from a star up to their candidate count.
`search --shifted` is check_block_maximum(..., shifted=True), which
checks that the witness is shifted.

A deliberately naive brute-force oracle is kept alongside for
validation; it shares no data structures with the solver.  It compares
pairs of candidates on purpose, as verify.is_t_intersecting does: they
are the slow independent route, and do not use the element index.
"""

from __future__ import annotations

from .bounds import (_delsarte_lp, _star_scan, exchange_optimal, hypothesis_flags,
                     max_window_family, optimal_t_distributions, union_star_sizes)
from .core import (
    Family,
    GroundSet,
    InstanceTooLargeError,
    InvalidParametersError,
    InvariantError,
    _Frozen,
    _bits,
    elements_of,
    enumerate_block,
    enumerate_quota,
    quota_profiles,
    search_cap,
    trivial_star,
)
from .shifting import _covers_closed, is_shifted
from .verify import is_full_t_star

DEFAULT_SUBSET_LIMIT = 24
DEFAULT_CLIQUE_LIMIT = 60


class SearchResult(_Frozen):
    """Outcome of one exact maximisation.

    max_size is the exact optimum.  witness is one optimal subfamily;
    whether it is a full star is for the caller to judge
    (verify.is_full_t_star).  nodes_explored counts the nodes of the
    route that searched: the down-set kernel's nodes for a shift-closed
    family or a block that check_block_maximum searches, else the nodes
    of the clique search that neither its colouring bound pruned nor unit
    propagation refuted.  It is 0, and no conflict graph or table is
    built, when the seed is already optimal: it holds every candidate,
    or, in the down-set search, meets the goal.
    bound_used records the seed's size, the initial lower bound the
    search started from: the window family the down-set kernel builds
    (the best one in a block report, the best star in a quota report,
    the greedy star in max_t_intersecting), and in the clique route the
    star's, or the local search's when that beats it.
    """

    max_size: int
    witness: Family
    nodes_explored: int
    bound_used: int


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


def _element_index(verts: list[int]) -> tuple[list[int], list[list[int]]]:
    """In one pass over the vertex masks verts: has[e], the mask of the
    vertices holding element e, up to the widest vertex's top element,
    and elems[v], vertex v's elements."""
    has = [0] * max(verts, default=0).bit_length()
    elems = []
    for i, m in enumerate(verts):
        bit = 1 << i
        els = []
        while m:
            low = m & -m
            m ^= low
            e = low.bit_length() - 1
            has[e] |= bit
            els.append(e)
        elems.append(els)
    return has, elems


def _conflict_row(has: list[int], els: list[int], t: int, full: int) -> int:
    """The vertices under full sharing fewer than t >= 1 of the elements
    els, read off the element index has by bit-sliced counters: shared[j]
    holds the vertices sharing more than j of els so far, and each element
    carries has[e] up them until no carry is left."""
    shared = [0] * t
    top = t - 1
    for e in els:
        carry, j = has[e], 0
        while carry:
            c = shared[j]
            shared[j] = c | carry
            if j == top:
                break
            carry &= c
            j += 1
    return full ^ shared[top]


def _greedy_star(has: list[int], t: int, full: int) -> tuple[int, int]:
    """The greedy star's center and the candidates under full holding it:
    t times, the element outside the center that most candidates holding
    the center hold, the first on ties, read off the element index has."""
    star = full
    center = 0
    for _ in range(t):
        pick = most = held = 0
        for e, h in enumerate(has):
            c = (h & star).bit_count()
            if c > most and not center >> e & 1:
                pick, most, held = e, c, h
        center |= 1 << pick
        star &= held
    return center, star


def max_t_intersecting(space: Family, t: int, cap: int | None = None) -> SearchResult:
    """Exact maximum t-intersecting subfamily of `space`.

    Members with fewer than t elements cannot appear in any solution
    (they fail the requirement against themselves) and are dropped up
    front; more candidates than the search cap (core.search_cap) raise
    InstanceTooLargeError.  When the candidates pass is_shifted's test
    (shifting._covers_closed: every in-part lower cover is a member),
    they are closed under in-part lower shifts, as blocks, profile
    unions, quota spaces and shifted families are.  _search_down_sets
    then searches them from the greedy star up to their count; the
    star's center is a union of part prefixes (ties go to the lowest
    element), so the kernel builds the star from the center's profile,
    and it stays the witness whenever it is optimal.  Any
    other family goes to the clique search (_max_clique).
    """
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    limit = search_cap(cap)
    verts = [m for m in space.members if m.bit_count() >= t]
    if len(verts) > limit:
        raise InstanceTooLargeError(
            f"search space has {len(verts)} candidates, cap is {limit}")
    if not _covers_closed(set(verts), space.ground):
        return _max_clique(space, t)
    center, _ = _greedy_star(_element_index(verts)[0], t, (1 << len(verts)) - 1)
    return _search_down_sets(space, t, len(verts), space.ground.profile(center), 0)


def _max_clique(space: Family, t: int) -> SearchResult:
    """max_t_intersecting by a maximum-clique branch and bound over the
    whole conflict graph, the route of families not closed under in-part
    lower shifts and the independent check on those that are.

    The candidates, the members with at least t elements, are indexed in
    ascending mask order, and once by element: has[e] is the bitmask of
    the candidates holding element e.  When the greedy star (_greedy_star)
    holds every candidate it is the answer: nodes_explored is 0 and no
    conflict graph is built.  Otherwise each candidate's conflict row is
    read off bit-sliced counters of how many of its elements the others
    share, summed over its elements' has masks; no pair of candidates is
    compared.  The star is grown to a local optimum (_local_search), the
    star itself when nothing joins it; that set is the seed and the first
    incumbent, and bound_used its size.  A depth-first search takes each
    node's candidates without a conflict among them at once, then colours
    the rest into conflict cliques, taking them by ascending conflict
    degree among the candidates, ties by index.  It branches on the vertices whose colour could beat the
    incumbent, last coloured first; the child taking v keeps the vertices
    coloured before v that do not conflict with it, and v's colour minus
    one bounds what they add.  When that bound beats the incumbent by one
    only, the child must take a vertex of every lower colour, and it is
    not opened when unit propagation over those classes (_refuted)
    empties one; v leaves the node's candidates either way.  A refuted
    child holds no strict gain, so the refutation changes nodes_explored
    only.  Deterministic; the incumbent changes only on a strict gain, so
    the star is the witness whenever it is optimal.
    """
    verts = sorted(m for m in space.members if m.bit_count() >= t)
    n = len(verts)
    full = (1 << n) - 1
    has, elems = _element_index(verts)
    _, star = _greedy_star(has, t, full)
    if star == full:
        # the star holds every candidate, which covers t = 0: nothing to search
        return SearchResult(n, Family(space.ground, frozenset(verts)), 0, n)

    # the conflict graph over the candidates in ascending mask order
    conflict = [_conflict_row(has, els, t, full) for els in elems]
    best_mask = _local_search(conflict, star)
    best_size = seed_size = best_mask.bit_count()
    nodes = 0

    # depth-first branch and bound without recursion.  A frame on the
    # stack is an open node: [taken set, its size, candidates not yet
    # branched on, branch vertices in colouring order with their colours,
    # its colour classes];
    # its children are made one at a time, so the stack holds one mask per
    # open node, not one per child
    stack: list[list] = []
    taken, size, pmask = 0, 0, full
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

    witness = Family(space.ground, frozenset(verts[v] for v in _bits(best_mask)))
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
# down-set search on a shift-closed family

def _least(m: int) -> int:
    """The fewest elements two sets below m in the shifting order of its
    part share, for a set m of one part (bit b is the element at 1-based
    position b + 1): with m's sorted elements m_1 < m_2 < ..., it is
    max(0, max_l (2l - m_l)).

    Two sets below m sharing s elements make m share at most s with one
    of them (the lemma in _search_down_sets), so it is the fewest m
    shares with one x <= m.  Bound: any x <= m has x_1..x_l in [1, m_l],
    of which only m_l - l lie outside m, so x shares at least 2l - m_l
    elements with m.  Equality: let x take, place by place, the least
    unused element outside m while one is at most m_l, else m_l itself.
    Its l-th smallest element is at most m_l, so x <= m, and it takes an
    element of m only once the m_l - l outside elements up to m_l are used
    up, so it shares exactly max(0, max_l (2l - m_l)) elements with m.
    """
    most = 0
    for l, b in enumerate(_bits(m), 1):
        most = max(most, 2 * l - b - 1)
    return most


def _search_down_sets(space: Family, t: int, goal: int,
                      w: tuple[int, ...], r: int) -> SearchResult:
    """max_t_intersecting for `space`, closed under in-part lower shifts,
    over the down-sets of the product shifting order only, from the
    window family of (w, r), the candidates meeting ground.prefix_mask(w)
    in at least t + r elements: a down-set, and t-intersecting as
    sum(w) <= t + 2r (else InvariantError).  r = 0 gives a star.

    Every in-part shift keeps a family's size, its part counts and its
    t-intersection, so some maximum family is a down-set.  The
    candidates, the members with at least t elements, are listed by part
    components, part 0 first, each part's in ascending mask order (a
    block's mixed-radix order), an order that extends the shifting order;
    no mask is wider than the widest candidate.  Taking a vertex v brings
    in all of down(v) and drops what conflicts with it; dropping v drops
    up(v).  The root drops every vertex whose down-set holds a
    conflicting pair, a free vertex whose candidates below are all free
    joins without a branch, and the search stops once it meets `goal`,
    cut to the candidate count.  Each node makes one ascending pass over
    its candidates: it counts their conflicts among the candidates, finds
    the free ones, and matches each unmatched candidate greedily to its
    least unmatched conflict above it.  An independent set keeps at most
    one vertex of a pair, so the taken size plus the candidates less the
    pairs bounds the node.  The branch vertex is a candidate, never
    free, of most conflicts among the candidates plus with the vertices
    the root dropped: those say how constraining it is among all the
    candidates, and any candidate is a safe pick, because the root drop
    keeps only vertices whose down-sets are t-intersecting.  A down-set
    stays in one profile's block, so the root keeps a vertex when the
    closed-form least values (_least) of its part components, computed
    once per distinct component, sum to at least t.  The down and up
    masks are built from covers: a cover moves one element to the free
    place beside it in its part, so down(v) is v with the down-sets of
    its lower covers, all present by closure, in ascending order, and
    up(v), cut to the kept vertices, is v with the up-sets of its kept
    upper covers, in descending order; a shifted family need not be
    closed upward, so an absent upper cover is skipped.  Each conflict
    row is read off the element index (_conflict_row); no pair of members
    is compared.  When the seed meets `goal`, it is returned and nothing
    is built.

    Lemma: what conflicts with a down-set S is an up-set.  If u meets
    s in S in fewer than t elements and u' is u with a replaced by b > a
    of the same part, then u' meets s in fewer than t too, unless b is in
    s and a is not; then s' = s with b replaced by a is in S and u' meets
    s' as u meets s.  So the taken set and the candidates always form a
    down-set, and dropping the conflicts of a take drops their up-sets.
    """
    if sum(w) > t + 2 * r:
        raise InvariantError(f"window family w={w}, r={r}: sum(w) = {sum(w)} "
                             f"exceeds t + 2r = {t + 2 * r}")
    ground = space.ground
    window = ground.prefix_mask(w)
    verts = [m for m in space.members if m.bit_count() >= t]
    width = max(verts, default=0).bit_length()
    parts = [(((1 << min(s, width - off)) - 1) << off, off)
             for s, off in zip(ground.sizes, ground.offsets) if off < width]
    verts.sort(key=lambda m: [m & q for q, _ in parts])
    best_mask = sum(1 << v for v, m in enumerate(verts) if (m & window).bit_count() >= t + r)
    best_size = size = best_mask.bit_count()
    goal = min(goal, len(verts))
    if size >= goal:
        return SearchResult(size, Family(ground, frozenset(verts[v] for v in _bits(best_mask))),
                            0, size)
    index = {m: v for v, m in enumerate(verts)}
    # the part components' least, once per distinct component
    least: dict[int, int] = {}
    alive = 0
    for v, m in enumerate(verts):
        total = 0
        for q, off in parts:
            c = m & q
            if c not in least:
                least[c] = _least(c >> off)
            total += least[c]
        if total >= t:
            alive |= 1 << v     # else down(v) holds a conflicting pair
    n = len(verts)
    full = (1 << n) - 1
    nodes = 0
    # a lower cover is a kept vertex of lower index, the kept vertices being
    # a down-set; an upper cover that is not kept adds nothing, as up stays 0
    # there, so up(v) is cut to the kept vertices, and an absent one, past
    # the widest candidate too, reads the 0 at up[n]
    firsts = sum(1 << off for _, off in parts)
    lasts = firsts >> 1
    down, up = [0] * n, [0] * (n + 1)
    kept = list(_bits(alive))
    for v in kept:
        m = verts[v]
        row = 1 << v
        for b in _bits(m & ~(m << 1) & ~firsts):
            row |= down[index[m ^ 3 << b - 1]]
        down[v] = row
    for v in reversed(kept):
        m = verts[v]
        row = 1 << v
        for b in _bits(m & ~(m >> 1) & ~lasts):
            row |= up[index.get(m ^ 3 << b, n)]
        up[v] = row
    # the pick counts the conflicts the root dropped as well; the free test
    # and the matching see live candidates only
    has, elems = _element_index(verts)
    conflict, extra = [0] * n, [0] * n
    for v in kept:
        row = _conflict_row(has, elems[v], t, full)
        extra[v] = (row & ~alive).bit_count()
        conflict[v] = row & alive

    # depth-first on an explicit stack of nodes (down-set taken, its
    # size, candidates); the candidates and the taken set form a down-set
    stack = [(0, 0, alive)]
    while stack:
        r_mask, r_size, pmask = stack.pop()
        while True:
            nodes += 1
            # one ascending pass: degrees, free vertices, the pick, and
            # a greedy matching of each unmatched vertex to its least
            # unmatched conflict above it; rest drops a vertex once seen
            # or matched, and a free vertex, in no row, is never matched
            free = pairs = 0
            pick = -1
            pick_deg = 0
            scan = rest = pmask
            while scan:
                low = scan & -scan
                scan ^= low
                v = low.bit_length() - 1
                row = conflict[v] & pmask
                d = row.bit_count()
                if d == 0:
                    free |= low
                    continue
                d += extra[v]
                if d > pick_deg:
                    pick, pick_deg = v, d
                if rest & low:
                    rest ^= low
                    row &= rest
                    if row:
                        rest ^= row & -row
                        pairs += 1
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
            if not pmask or r_size + pmask.bit_count() - pairs <= best_size:
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

    witness = Family(ground, frozenset(verts[v] for v in _bits(best_mask)))
    return SearchResult(best_size, witness, nodes, size)


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
    part's first elements (InvariantError if that star's size is not
    star_bound).  Otherwise _search_down_sets searches the
    block's shifted families, from the best window family, up to the
    goal min(lp_bound, block size); nodes_explored counts its nodes (0
    when the window family meets that goal), and
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
        num, den = _delsarte_lp(ground, k, t)
        lp_bound = num // den
    except InstanceTooLargeError:
        lp_bound = None     # too many distance classes: search without it
    goal = len(space.members) if lp_bound is None else min(lp_bound, len(space.members))
    if star_bound >= goal:
        # the best star is a maximum: close the block without a search
        center = ground.prefix_mask(dist)
        star = trivial_star(space, center)
        if len(star.members) != star_bound:
            raise InvariantError(
                f"the best star has {len(star.members)} members, counted {star_bound}")
        result = SearchResult(star_bound, star, 0, star_bound)
    else:
        size, r, w = max_window_family(t, ground, k)
        result = _search_down_sets(space, t, goal, w, r)
        if result.bound_used != size:
            raise InvariantError(
                f"the window family has {result.bound_used} members, counted {size}")
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
                       t: int = 1, cap: int | None = None) -> dict:
    """Exact maximum t-intersecting subfamily of a quota family versus
    its best full t-star.

    The star side is exact counting over every t-distribution (t_i
    center elements in part i; within one part every choice gives the
    same count, so a center of per-part prefixes stands for them all)
    by bounds._star_scan, not search.  star_center is the center of the
    best distribution, ties going to the largest, which gives them to the
    lowest parts; it is None when the best star has no member, as for
    t > k or k = 0 (or t > n, with no distribution at all).  The verdict is "non-trivial"
    when the maximum strictly beats every star, else "trivial": a full
    star attains the maximum, not every maximum is a star.  A quota
    space is closed under in-part shifts, so _search_down_sets searches
    it from the best star, the window family of its distribution with
    r = 0, up to the candidate count (InvariantError if that star's size
    is not star_size); the incumbent changes only on a strict gain, so at
    every t a "trivial" witness is that star.  witness_center names the
    witness's center when it is a full t-star (verify.is_full_t_star),
    else None.  hypotheses are the paper's t = 1 conditions, reported at
    every t; at t >= 2 they predict nothing.  The report's keys and
    order are those of `tstar search --quota`.
    """
    quotas = tuple(quotas)
    profiles = quota_profiles(ground, k, quotas)
    if t < 0:
        raise InvalidParametersError(f"t must be >= 0, got {t}")
    space = enumerate_quota(ground, k, quotas, cap=search_cap(cap))
    scan = _star_scan(t, ground, profiles, tuple(min(t, n_i) for n_i in ground.sizes), {})
    # with no distribution at all (t > n) the window is empty: no candidate meets it
    star_best, dist = scan.value, max(scan.optimal_distributions, default=(0,) * ground.p)
    center = ground.prefix_mask(dist)
    result = _search_down_sets(space, t, len(space.members), dist, 0)
    if result.bound_used != star_best:
        raise InvariantError(f"the best star has {result.bound_used} members, counted {star_best}")

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
        "star_center": _elements(center) if star_best else None,
        "verdict": "non-trivial" if result.max_size > star_best else "trivial",
        "hypotheses": {
            "parts_double_quota": double,
            "slack_all_but_one": slack,
            "applies": double and slack,
        },
        "witness_center": _elements(is_full_t_star(result.witness, space, t)),
        "nodes_explored": result.nodes_explored,
        "witness": result.witness,
    }
