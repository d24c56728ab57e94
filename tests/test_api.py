"""The public surface: every exported name exists and resolves, on each
access, to its submodule's object; the value types and the result records
compare, hash, print and refuse assignment as frozen values; and the
README's library example runs with the values its comments give."""

import contextlib
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tstar
from tstar import acceptance, bounds, core, kneser, search

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    expected = [m.group(1) for m in re.finditer(r"^print\(.*#\s*(.+?)\s*$", block, re.M)]
    assert expected, "the example prints nothing to check"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_package_exports_resolve_to_their_submodule_objects():
    assert len(tstar.__all__) == len(set(tstar.__all__))
    for name in tstar.__all__:
        value = getattr(tstar, name)
        assert value.__module__.startswith("tstar."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in dir(tstar)
    namespace = {}
    exec("from tstar import *", namespace)
    assert set(tstar.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(tstar, name) for name in tstar.__all__)
    with pytest.raises(AttributeError):
        tstar.no_such_name
    with pytest.raises(ImportError):
        exec("from tstar import no_such_name", {})


def test_package_export_follows_a_rebinding_in_its_submodule(monkeypatch):
    monkeypatch.setattr(bounds, "max_star_size", None)
    assert tstar.max_star_size is None
    monkeypatch.undo()
    assert tstar.max_star_size is bounds.max_star_size is not None
    assert "max_star_size" not in vars(tstar)


VALUES = [
    (lambda: core.GroundSet([3, 4]), lambda: core.GroundSet((3, 4)),
     lambda: core.GroundSet((4, 3)), "GroundSet(sizes=(3, 4))", "sizes"),
    (lambda: core.Family(core.GroundSet((3,)), [1, 6]),
     lambda: core.Family(core.GroundSet((3,)), frozenset({6, 1})),
     lambda: core.Family(core.GroundSet((3,)), {1}),
     "Family(ground=GroundSet(sizes=(3,)), members=frozenset({1, 6}))", "members"),
    (lambda: core.ProfileSet([[2, 1], (1, 2), [2, 1]]),
     lambda: core.ProfileSet(((1, 2), (2, 1))),
     lambda: core.ProfileSet(((1, 2),)), "ProfileSet(profiles=((1, 2), (2, 1)))", "profiles"),
    (lambda: kneser.KneserParams([[5, 2], [7, 3]]),
     lambda: kneser.KneserParams(((5, 2), (7, 3))),
     lambda: kneser.KneserParams(((5, 2),)), "KneserParams(pairs=((5, 2), (7, 3)))", "pairs"),
]


@pytest.mark.parametrize("make, same, other, text, field", VALUES,
                         ids=["GroundSet", "Family", "ProfileSet", "KneserParams"])
def test_value_types_compare_hash_and_print_by_value(make, same, other, text, field):
    a, b, c = make(), same(), other()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != c and not a == c and a != text
    assert repr(a) == text
    assert {a, b, c} == {a, c}
    assert type(getattr(a, field)) in (tuple, frozenset)
    for attempt in (lambda: setattr(a, field, getattr(c, field)),
                    lambda: delattr(a, field), lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert a == b


RECORDS = [
    (lambda: bounds.ratio_entries(core.GroundSet((5,)), (2,))[0],
     lambda: bounds.RatioEntry(0, 0, Fraction(2, 5)),
     lambda: bounds.RatioEntry(0, 1, Fraction(2, 5)),
     ("part", "level", "value"), "RatioEntry(part=0, level=0, value=Fraction(2, 5))"),
    (lambda: bounds.ratio_bound(core.GroundSet((5,)), (2,)),
     lambda: bounds.RatioBound(Fraction(2, 5), 10, 4, True),
     lambda: bounds.RatioBound(Fraction(2, 5), 10, 4, False),
     ("ratio", "block", "absolute", "hypothesis_ok"),
     "RatioBound(ratio=Fraction(2, 5), block=10, absolute=4, hypothesis_ok=True)"),
    (lambda: bounds.enumerate_distribution_argmax(1, core.GroundSet((4, 6)), (2, 3)),
     lambda: bounds.BoundReport(60, frozenset({(1, 0), (0, 1)}), {}),
     lambda: bounds.BoundReport(60, frozenset({(1, 0), (0, 1)}), {"t_le_c": True}),
     ("value", "optimal_distributions", "hypothesis_flags"),
     "BoundReport(value=60, optimal_distributions=frozenset({(0, 1), (1, 0)}), "
     "hypothesis_flags={})"),
    (lambda: search.SearchResult(3, core.Family(core.GroundSet((3,)), [3, 5, 6]), 1, 2),
     lambda: search.SearchResult(3, core.Family(core.GroundSet((3,)), {6, 5, 3}), 1, 2),
     lambda: search.SearchResult(3, core.Family(core.GroundSet((3,)), [3, 5, 6]), 2, 2),
     ("max_size", "witness", "nodes_explored", "bound_used"),
     "SearchResult(max_size=3, witness=Family(ground=GroundSet(sizes=(3,)), "
     "members=frozenset({3, 5, 6})), nodes_explored=1, bound_used=2)"),
    (lambda: acceptance.Criterion(1, "empty", "holds at once", 5.0, tuple),
     lambda: acceptance.Criterion(1, "empty", "holds at once", 5.0, tuple),
     lambda: acceptance.Criterion(1, "empty", "holds at once", 1.0, tuple),
     ("number", "slug", "label", "budget", "body"),
     "Criterion(number=1, slug='empty', label='holds at once', budget=5.0, "
     "body=<class 'tuple'>)"),
    (lambda: acceptance.CriterionOutcome(False, ["a note"], 0.5),
     lambda: acceptance.CriterionOutcome(False, ["a note"], 0.5),
     lambda: acceptance.CriterionOutcome(False, ["another note"], 0.5),
     ("passed", "notes", "seconds"),
     "CriterionOutcome(passed=False, notes=['a note'], seconds=0.5)"),
]


@pytest.mark.parametrize("make, same, other, fields, text", RECORDS,
                         ids=["RatioEntry", "RatioBound", "BoundReport", "SearchResult",
                              "Criterion", "CriterionOutcome"])
def test_records_compare_hash_and_print_by_value(make, same, other, fields, text):
    a, b, c = make(), same(), other()
    values = tuple(getattr(a, name) for name in fields)
    assert a is not b and a == b and not a != b and a == type(a)(*values)
    assert a != c and not a == c and a != values
    assert all(a != record() for record, *_ in RECORDS if record is not make)
    assert repr(a) == text
    try:
        expected = hash(values)
    except TypeError:       # a field holds a dict or a list
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
        assert {a, b, c} == {a, c}
    for attempt in (lambda: setattr(a, fields[0], getattr(c, fields[0])),
                    lambda: delattr(a, fields[0]), lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            attempt()
    assert a == b


@pytest.mark.parametrize("make", [
    lambda: core.GroundSet(()),
    lambda: core.GroundSet((3, 0)),
    lambda: core.GroundSet((3, "4")),
    lambda: core.Family(core.GroundSet((3,)), [8]),
    lambda: core.Family(core.GroundSet((3,)), [-1]),
    lambda: core.ProfileSet(()),
    lambda: core.ProfileSet(((1, 2), (1,))),
    lambda: core.ProfileSet(((1, 0),)),
    lambda: kneser.KneserParams(()),
    lambda: kneser.KneserParams(((3, 2),)),
    lambda: kneser.KneserParams(((4, 0),)),
])
def test_value_types_refuse_invalid_fields(make):
    with pytest.raises(core.InvalidParametersError):
        make()


def test_value_types_keep_their_cached_fields():
    ground = core.GroundSet((3, 4))
    assert (ground.n, ground.offsets, ground.full_mask) == (7, (0, 3), 127)
    assert ground.n is ground.n
    profiles = core.ProfileSet(((1, 2), (3, 1)))
    assert (profiles.b, profiles.c) == (3, 1)
    assert kneser.KneserParams(((5, 2), (7, 3))).vertex_count == 350
