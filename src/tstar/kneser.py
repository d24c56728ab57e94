"""Kneser graphs, their tensor products, and connectivity checks.

KG(g, h) has the h-subsets of [g] as vertices, adjacent iff disjoint.
The product used here is the tensor (categorical) product: tuples are
adjacent iff they are adjacent, i.e. disjoint, in every coordinate at
once.  Vertices are enumerated in colexicographic order, which for the
bitmask encoding is plain numeric order.

Connectivity is decided by breadth-first reachability; an independent
union-find over the explicit edge list is kept for cross-checking and
shares nothing with the BFS beyond the adjacency definition.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from math import comb, prod

from .core import (
    InstanceTooLargeError,
    InvalidParametersError,
    _Frozen,
    enumeration_cap,
    mask_of,
)


Vertex = tuple[int, ...]


class KneserParams(_Frozen):
    """Factor list (g_i, h_i); each factor needs g_i >= 2 h_i >= 2 so no
    vertex is isolated."""

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        pairs = tuple((int(g), int(h)) for g, h in pairs)
        if not pairs:
            raise InvalidParametersError("need at least one factor")
        for g, h in pairs:
            if h < 1 or g < 2 * h:
                raise InvalidParametersError(
                    f"factor ({g},{h}) violates g >= 2h >= 2")
        object.__setattr__(self, "pairs", pairs)

    @cached_property
    def vertex_count(self) -> int:
        return prod(comb(g, h) for g, h in self.pairs)


def _coordinates(params: KneserParams, cap: int | None) -> list[list[int]]:
    limit = enumeration_cap(cap)
    if params.vertex_count > limit:
        raise InstanceTooLargeError(
            f"product has {params.vertex_count} vertices, cap is {limit}")
    # numeric sort of bitmasks == colex order on the subsets
    return [sorted(mask_of(c) for c in combinations(range(1, g + 1), h))
            for g, h in params.pairs]


def vertices(params: KneserParams) -> list[Vertex]:
    """All product vertices, colex order per coordinate, last coordinate
    fastest; refused above the default enumeration cap."""
    return [tuple(v) for v in product(*_coordinates(params, None))]


def _neighbors(u: Vertex, coords: list[list[int]]) -> list[Vertex]:
    per = [[m for m in coord if not m & x] for coord, x in zip(coords, u)]
    return [tuple(v) for v in product(*per)]


def _bfs(coords: list[list[int]], start: Vertex) -> set[Vertex]:
    """Every vertex reachable from start, by breadth-first search."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in _neighbors(x, coords):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def is_connected(params: KneserParams, cap: int | None = None) -> bool:
    """Breadth-first reachability from the vertex of lowest masks;
    refused above `cap` vertices (default: the enumeration cap)."""
    coords = _coordinates(params, cap)
    start = tuple(coord[0] for coord in coords)
    return len(_bfs(coords, start)) == params.vertex_count


def is_connected_union_find(params: KneserParams) -> bool:
    """Independent connectivity route: union-find over the explicit edge
    list from an all-pairs scan.  O(V^2); meant for cross-checks."""
    verts = vertices(params)
    parent = list(range(len(verts)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(len(verts)):
        va = verts[a]
        for b in range(a + 1, len(verts)):
            vb = verts[b]
            if all((x & y) == 0 for x, y in zip(va, vb)):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    roots = {find(x) for x in range(len(verts))}
    return len(roots) == 1

