"""Graph construction, validation, text format, parameter defaults."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (ColouredMultigraph, Edge, InstanceParams, as_fraction, dumps,
                          hypothesis_check, loads, validate)
from conftest import random_instance

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def raw_graphs(draw) -> ColouredMultigraph:
    """Any in-range ``(u, v, c)`` triples: loops, parallel edges and colour
    clashes included, on few enough vertices that they are common."""
    v = draw(st.integers(1, 8))
    c = draw(st.integers(1, 4))
    edge = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1),
                     st.integers(0, c - 1))
    return ColouredMultigraph(v, c, draw(st.lists(edge, max_size=24)))


def test_construction_and_indexes():
    g = ColouredMultigraph(4, 3, [(0, 1, 0), (2, 3, 0), (0, 2, 1), (0, 1, 2)])
    assert g.num_vertices == 4
    assert g.num_colours == 3
    assert g.num_edges == 4
    assert g.edges_with_colour(0) == (0, 1)
    assert g.colour_class_size(2) == 1
    assert g.edges_at(0) == (0, 2, 3)
    assert g.edges_at_with_colour(0, 0) == (0,)
    assert g.degree(0) == 3
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 0) == 2
    assert g.max_multiplicity() == 2
    e = g.edge(2)
    assert e.other(0) == 2 and e.other(2) == 0
    with pytest.raises(ValueError):
        e.other(3)


def test_construction_rejects_out_of_range():
    # the messages reach users verbatim as the CLI's ``error:`` line
    with pytest.raises(ValueError, match=r"^edge 0: endpoint out of range for V=2$"):
        ColouredMultigraph(2, 1, [(0, 2, 0)])
    with pytest.raises(ValueError, match=r"^edge 0: colour 1 out of range for C=1$"):
        ColouredMultigraph(2, 1, [(0, 1, 1)])
    with pytest.raises(ValueError):
        ColouredMultigraph(-1, 1, [])


def test_edge_value_semantics():
    e = ColouredMultigraph(3, 4, [(1, 2, 3)]).edge(0)
    assert repr(e) == "Edge(id=0, u=1, v=2, colour=3)"
    fresh = Edge(0, 1, 2, 3)
    assert e == fresh and hash(e) == hash(fresh)
    assert e != Edge(0, 2, 1, 3)
    for field in ("id", "u", "v", "colour"):
        with pytest.raises(AttributeError):
            setattr(e, field, 0)
    assert e.other(1) == 2 and e.other(2) == 1
    assert e.touches(1) and e.touches(2) and not e.touches(0)
    with pytest.raises(ValueError, match="vertex 0 not an endpoint of edge 0"):
        e.other(0)


def test_validate_reports_loops_and_clashes():
    g = ColouredMultigraph(3, 2, [(0, 0, 0), (0, 1, 1), (0, 2, 1)])
    issues = validate(g)
    kinds = sorted(i.kind for i in issues)
    assert kinds == ["colour_clash", "loop"]
    clash = next(i for i in issues if i.kind == "colour_clash")
    assert clash.vertex == 0
    assert clash.colour == 1
    assert clash.edge_ids == (1, 2)


def test_validate_clean_on_proper_instance():
    g = ColouredMultigraph(4, 2, [(0, 1, 0), (2, 3, 0), (0, 2, 1)])
    assert validate(g) == []


def test_text_round_trip_with_comments_and_parallel_edges():
    text = """# instance
4 2
0 1 0   # first
0 1 0
2 3 1

"""
    g = loads(text)
    assert g.num_vertices == 4
    assert g.num_edges == 3
    assert g.multiplicity(0, 1) == 2
    again = loads(dumps(g))
    assert [(e.u, e.v, e.colour) for e in again.edges] == \
        [(e.u, e.v, e.colour) for e in g.edges]


@pytest.mark.parametrize("bad, fragment", [
    ("", "header"),
    ("3\n", "header"),
    ("2 1\n0 1\n", "u v c"),
    ("2 1\n0 x 0\n", "integers"),
    ("2 1\n0 5 0\n", "out of range"),
])
def test_loads_rejects_malformed(bad, fragment):
    with pytest.raises(ValueError) as err:
        loads(bad)
    assert fragment in str(err.value)


def test_as_fraction_reads_decimals_exactly():
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(Fraction(3, 7)) == Fraction(3, 7)


@pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0"])
def test_as_fraction_rejects_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction(text)
    with pytest.raises(ValueError, match="zero denominator"):
        InstanceParams.for_graph(ColouredMultigraph(2, 1, [(0, 1, 0)]), epsilon=text)


def test_params_defaults():
    g = ColouredMultigraph(40, 16, [(0, 1, c) for c in range(16)])
    p = InstanceParams.for_graph(g, epsilon="1/2")
    assert p.alpha == Fraction(1, 24)
    assert p.min_colour_count == 24  # ceil(1.5 * 16)
    assert p.multiplicity_cap == 1   # floor(16 / 16)
    assert not p.alpha_exceeds_recommended
    loose = InstanceParams.for_graph(g, epsilon="1/2", alpha="1/2")
    assert loose.alpha_exceeds_recommended


def test_params_reject_nonpositive():
    g = ColouredMultigraph(2, 1, [(0, 1, 0)])
    with pytest.raises(ValueError):
        InstanceParams.for_graph(g, epsilon=0)
    with pytest.raises(ValueError):
        InstanceParams.for_graph(g, epsilon="1/2", alpha="0")


def test_hypothesis_check_flags_each_shortfall():
    # colour 1 short, pair (0,1) over any cap of 1
    g = ColouredMultigraph(4, 2, [(0, 1, 0), (0, 1, 1), (2, 3, 0)])
    p = InstanceParams(epsilon=Fraction(1, 2), alpha=Fraction(1, 24),
                       min_colour_count=2, multiplicity_cap=1)
    rep = hypothesis_check(g, p)
    assert not rep.ok
    kinds = {i.kind for i in rep.issues}
    assert kinds == {"colour_count", "multiplicity"}


def test_hypothesis_check_passes_on_dense_instance():
    g = random_instance(3)
    p = InstanceParams.for_graph(g, epsilon="1/2")
    assert hypothesis_check(g, p).ok


@given(raw_graphs())
@PROPERTY_SETTINGS
def test_text_round_trip_property(g):
    again = loads(dumps(g))
    assert again.num_vertices == g.num_vertices
    assert again.num_colours == g.num_colours
    assert [(e.u, e.v, e.colour) for e in again.edges] == \
        [(e.u, e.v, e.colour) for e in g.edges]
    assert dumps(again) == dumps(g)


@given(raw_graphs(), st.integers(1, 3))
@PROPERTY_SETTINGS
def test_lazy_indexes_match_a_scan_and_an_eager_build(g, cap):
    eager = ColouredMultigraph(g.num_vertices, g.num_colours,
                               [(e.u, e.v, e.colour) for e in g.edges])
    eager.edges_at_with_colour(0, 0)  # builds both indexes before any check
    eager.multiplicity(0, 0)
    params = InstanceParams(epsilon=Fraction(1, 2), alpha=Fraction(1, 24),
                            min_colour_count=2, multiplicity_cap=cap)
    # the checks run first on ``g``, so they are the ones that build its indexes
    assert validate(g) == validate(eager)
    assert hypothesis_check(g, params) == hypothesis_check(eager, params)
    vertices, colours = range(g.num_vertices), range(g.num_colours)
    for v in vertices:
        for c in colours:
            want = tuple(e.id for e in g.edges if e.colour == c and v in (e.u, e.v))
            assert g.edges_at_with_colour(v, c) == want
            assert eager.edges_at_with_colour(v, c) == want
    pairs = {}
    for u in vertices:
        for v in vertices:
            want = sum(1 for e in g.edges if {e.u, e.v} == {u, v})
            assert g.multiplicity(u, v) == eager.multiplicity(u, v) == want
            pairs[min(u, v), max(u, v)] = want
    assert g.max_multiplicity() == eager.max_multiplicity() == max(pairs.values())
    clashes = [(v, c) for v in vertices for c in colours
               if len(g.edges_at_with_colour(v, c)) > 1]
    assert [(i.vertex, i.colour) for i in validate(g)
            if i.kind == "colour_clash"] == clashes
