from __future__ import annotations

import pytest

from itertools import combinations

from tstar.core import InstanceTooLargeError, InvalidParametersError, mask_of
from tstar.kneser import (
    KneserParams,
    _coordinates,
    is_connected,
    is_connected_union_find,
)


def test_params_validation():
    KneserParams(((5, 2),))
    KneserParams(((4, 2), (7, 3)))
    with pytest.raises(InvalidParametersError):
        KneserParams(())
    with pytest.raises(InvalidParametersError):
        KneserParams(((3, 2),))  # g < 2h
    with pytest.raises(InvalidParametersError):
        KneserParams(((4, 0),))


def test_params_properties():
    pr = KneserParams(((5, 2), (7, 3)))
    assert pr.vertex_count == 350


def test_vertices_colex_order():
    (masks,) = _coordinates(KneserParams(((4, 2),)), None)
    assert len(masks) == 6
    # numeric mask order == colex on the subsets
    assert masks == sorted(masks)
    assert masks[0] == mask_of([1, 2])


def test_connectivity():
    assert is_connected(KneserParams(((5, 2),)))
    assert is_connected(KneserParams(((7, 3),)))
    assert is_connected(KneserParams(((5, 2), (5, 2))))
    assert is_connected(KneserParams(((5, 2), (7, 3))))
    assert not is_connected(KneserParams(((4, 2),)))


def test_kg42_components():
    # three perfect-matching pairs: {12,34}, {13,24}, {14,23}
    verts = [(mask_of(c),) for c in combinations(range(1, 5), 2)]
    comps = []
    remaining = set(verts)
    while remaining:
        start = remaining.pop()
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in list(remaining):
                if all(a & b == 0 for a, b in zip(u, v)):
                    comp.add(v)
                    remaining.discard(v)
                    frontier.append(v)
        comps.append(len(comp))
    assert sorted(comps) == [2, 2, 2]


def test_union_find_agreement():
    for pairs in [((5, 2),), ((7, 3),), ((4, 2),), ((5, 2), (5, 2)),
                  ((5, 2), (7, 3)), ((4, 2), (5, 2)), ((6, 2),)]:
        pr = KneserParams(pairs)
        assert is_connected(pr) == is_connected_union_find(pr), pairs


def test_vertex_cap():
    with pytest.raises(InstanceTooLargeError):
        is_connected(KneserParams(((5, 2), (5, 2))), cap=50)

