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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb, prod

from .core import (
    InstanceTooLargeError,
    InvalidParametersError,
    NoWalkError,
    enumeration_cap,
    mask_of,
)

__all__ = [
    "KneserParams",
    "vertices",
    "product_adjacent",
    "is_connected",
    "is_connected_union_find",
    "find_walk",
]

Vertex = tuple[int, ...]


@dataclass(frozen=True)
class KneserParams:
    """Factor list (g_i, h_i); each factor needs g_i >= 2 h_i >= 2 so no
    vertex is isolated.  g_i > 2 h_i, the connectivity regime, is
    recorded separately as strict_hypothesis."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = tuple((int(g), int(h)) for g, h in self.pairs)
        if not pairs:
            raise InvalidParametersError("need at least one factor")
        for g, h in pairs:
            if h < 1 or g < 2 * h:
                raise InvalidParametersError(
                    f"factor ({g},{h}) violates g >= 2h >= 2")
        object.__setattr__(self, "pairs", pairs)

    @property
    def w(self) -> int:
        return len(self.pairs)

    @property
    def strict_hypothesis(self) -> bool:
        return all(g > 2 * h for g, h in self.pairs)

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


def vertices(params: KneserParams, cap: int | None = None) -> list[Vertex]:
    """All product vertices, colex order per coordinate, last coordinate
    fastest."""
    from itertools import product

    return [tuple(v) for v in product(*_coordinates(params, cap))]


def _check_vertex(u: Vertex, params: KneserParams) -> None:
    if len(u) != params.w:
        raise InvalidParametersError(
            f"vertex has {len(u)} coordinates, product has {params.w}")
    for m, (g, h) in zip(u, params.pairs):
        if m < 0 or m >> g:
            raise InvalidParametersError(
                f"coordinate {bin(m)} not inside [{g}]")
        if m.bit_count() != h:
            raise InvalidParametersError(
                f"coordinate has {m.bit_count()} elements, expected {h}")


def product_adjacent(u: Vertex, v: Vertex, params: KneserParams) -> bool:
    """Tensor-product adjacency: disjoint in every coordinate."""
    _check_vertex(u, params)
    _check_vertex(v, params)
    return all((a & b) == 0 for a, b in zip(u, v))


def _neighbors(u: Vertex, coords: list[list[int]]) -> list[Vertex]:
    from itertools import product

    per = [[m for m in coord if not m & x] for coord, x in zip(coords, u)]
    return [tuple(v) for v in product(*per)]


def _bfs(coords: list[list[int]], start: Vertex,
         target: Vertex | None = None) -> dict[Vertex, Vertex]:
    """Breadth-first parent links from start (its own parent) up to target."""
    parents = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for y in _neighbors(x, coords):
                if y not in parents:
                    parents[y] = x
                    if y == target:
                        return parents
                    nxt.append(y)
        frontier = nxt
    return parents


def is_connected(params: KneserParams, cap: int | None = None) -> bool:
    """Breadth-first reachability from the vertex of lowest masks."""
    coords = _coordinates(params, cap)
    start = tuple(coord[0] for coord in coords)
    return len(_bfs(coords, start)) == params.vertex_count


def is_connected_union_find(params: KneserParams, cap: int | None = None) -> bool:
    """Independent connectivity route: union-find over the explicit edge
    list from an all-pairs scan.  O(V^2); meant for cross-checks."""
    verts = vertices(params, cap)
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


def find_walk(params: KneserParams, u: Vertex, v: Vertex,
              cap: int | None = None) -> list[Vertex]:
    """Shortest u-v walk by BFS; NoWalkError when v is unreachable."""
    _check_vertex(u, params)
    _check_vertex(v, params)
    if u == v:
        return [u]
    parents = _bfs(_coordinates(params, cap), u, v)
    if v not in parents:
        raise NoWalkError(f"no walk between {u} and {v}")
    path = [v]
    while path[-1] != u:
        path.append(parents[path[-1]])
    return path[::-1]
