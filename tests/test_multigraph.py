"""Graph construction, validation, text format, parameter defaults."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (ColouredMultigraph, Edge, InstanceParams, Issue, as_fraction,
                          dumps, hypothesis_check, loads, validate)
from conftest import random_instance, raw_graphs

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def check_params(need: int = 0, cap: int = 1) -> InstanceParams:
    """Hypotheses of at least ``need`` edges per colour and at most ``cap``
    edges per vertex pair."""
    return InstanceParams(epsilon=Fraction(1, 2), alpha=Fraction(1, 24),
                          min_colour_count=need, multiplicity_cap=cap)


def test_construction_and_indexes():
    g = ColouredMultigraph(4, 3, [(0, 1, 0), (2, 3, 0), (0, 2, 1), (0, 1, 2)])
    assert g.num_vertices == 4
    assert g.num_colours == 3
    assert g.num_edges == 4
    assert g.edges_with_colour(0) == (0, 1)
    assert g.colour_class_size(2) == 1
    assert g.edges_at(0) == (0, 2, 3)
    assert [i for i in g.edges_at(0) if g.edge(i).colour == 0] == [0]
    assert len(g.edges_at(0)) == 3
    # edges 0 and 3 both join 0 and 1, in either order
    assert [i for i in g.edges_at(1) if g.edge(i).other(1) == 0] == [0, 3]
    assert [i for i in g.edges_at(0) if g.edge(i).other(0) == 1] == [0, 3]
    assert hypothesis_check(g, check_params(cap=1)).issues == (
        Issue("multiplicity", "pair (0,1) joined by 2 edges, cap is 1", vertex=0),)
    assert hypothesis_check(g, check_params(cap=2)).ok
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
    assert {e.u, e.v} == {1, 2}
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
    assert [i for i in g.edges_at(0) if g.edge(i).other(0) == 1] == [0, 1]
    assert hypothesis_check(g, check_params(cap=1)).issues[-1] == \
        Issue("multiplicity", "pair (0,1) joined by 2 edges, cap is 1", vertex=0)
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


def test_loads_skips_comments_blank_lines_crlf_and_surrounding_blanks():
    text = ("# instance\r\n\r\n  3 2  \r\n\t0 1 0\t# first\r\n   \r\n"
            "1 2 1#second\r\n# end")
    g = loads(text)
    assert (g.num_vertices, g.num_colours) == (3, 2)
    assert [tuple(e) for e in g.edges] == [(0, 0, 1, 0), (1, 1, 2, 1)]
    assert dumps(g) == "3 2\n0 1 0\n1 2 1\n"
    assert dumps(loads(dumps(g))) == dumps(g)


@pytest.mark.parametrize("bad, message", [
    # line numbers count comment, blank and CRLF lines; the echoed text has
    # its comment and surrounding blanks cut off
    ("# c\r\n\r\n2 1\r\n0 x 0 # y\r\n", "line 4: expected integers, got '0 x 0'"),
    ("  2 1 # h\r\n\r\n0 1\r\n", "line 3: edge line must be 'u v c'"),
    ("2 1\n0 1 0 0\n", "line 2: edge line must be 'u v c'"),
    ("\n\n1 2 3\n", "line 3: header must be 'V C'"),
    ("# only\r\n  \r\n", "missing 'V C' header line"),
    ("2 1\n0 1 0\n1 3 0\n", "edge 1: endpoint out of range for V=2"),
])
def test_loads_error_messages(bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loads(bad)


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


def test_hypothesis_check_reports_empty_colour_classes_once():
    # colours 1, 3, 4 and 5 have no edge; colour 0 has one, colour 2 two
    g = ColouredMultigraph(6, 6, [(0, 1, 0), (2, 3, 2), (4, 5, 2)])
    assert [(i.kind, i.detail, i.colour) for i in
            hypothesis_check(g, check_params(need=2)).issues] == [
        ("colour_count", "colour 0 has 1 edges, needs >= 2", 0),
        ("colour_count", "no edges in 4 of 6 colours, need >= 2; the first is colour 1", 1),
    ]
    # the first empty colour may follow every colour with an edge
    tail = ColouredMultigraph(2, 3, [(0, 1, 0), (0, 1, 1)])
    assert hypothesis_check(tail, check_params(need=1, cap=2)).issues == (
        Issue("colour_count", "no edges in 1 of 3 colours, need >= 1; "
              "the first is colour 2", colour=2),)
    # no edge is too few only when at least one is needed
    assert hypothesis_check(g, check_params(need=0)).ok


@given(raw_graphs(), st.integers(0, 3), st.integers(1, 3))
@PROPERTY_SETTINGS
def test_checks_match_a_brute_force_scan(g, need, cap):
    vertices, colours = range(g.num_vertices), range(g.num_colours)
    loops = [Issue("loop", f"edge {e.id} is a loop at vertex {e.u}",
                   edge_ids=(e.id,), vertex=e.u) for e in g.edges if e.u == e.v]
    clashes = []
    for v in vertices:
        for c in colours:
            ids = tuple(e.id for e in g.edges if e.colour == c and v in (e.u, e.v))
            if len(ids) > 1:
                clashes.append(Issue(
                    "colour_clash", f"vertex {v} carries {len(ids)} edges of colour {c}",
                    edge_ids=ids, vertex=v, colour=c))
    assert validate(g) == loops + clashes
    short = []
    for c in colours:
        size = sum(1 for e in g.edges if e.colour == c)
        if 0 < size < need:
            short.append(Issue("colour_count",
                               f"colour {c} has {size} edges, needs >= {need}", colour=c))
    empty = [c for c in colours if not any(e.colour == c for e in g.edges)]
    if empty and need > 0:
        short.append(Issue(
            "colour_count", f"no edges in {len(empty)} of {g.num_colours} colours, "
            f"need >= {need}; the first is colour {empty[0]}", colour=empty[0]))
    over = []
    for u in vertices:
        for v in range(u, g.num_vertices):
            n = sum(1 for e in g.edges if {e.u, e.v} == {u, v})
            if n > cap:
                over.append(Issue("multiplicity",
                                  f"pair ({u},{v}) joined by {n} edges, cap is {cap}",
                                  vertex=u))
    report = hypothesis_check(g, check_params(need, cap))
    assert report.issues == tuple(loops + clashes + short + over)
