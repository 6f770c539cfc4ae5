"""Shared instance builders for the test suite.

``random_instance(seed)`` is the one deterministic family used everywhere:
mixed sizes, dense enough to satisfy the default hypotheses at epsilon 1/2.
``isotope(n, seed)`` is the one seeded Latin square family, and
``raw_graphs()`` draws improper multigraphs (loops, parallel edges, colour
clashes).  Hand fixtures
that several suites share live here too, along with ``recorded_calls()``,
which logs every successful switch call and passes every call to an
optional callback, ``augment_calls()``, which logs
every ``augment`` call of a solve by edge id, ``recheck_call()``, which checks one such
record against the switch contract, ``brute_switches()`` and
``needs_too_many_spares()``, the spare-colour bound restated from the
recipe, ``spare_bound_off()``, which turns that bound off everywhere,
``switch_bound_off()``, which turns it off inside switches only, ``brute_scan()``, the
full-edge-sweep reference for ``find_violations``, ``rank()``, the order it
ranks by, and ``bad_per_colour()``,
which counts the bad edges that ``classify_good_bad`` leaves out.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from math import ceil
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from rainbowmatch import (ColouredMultigraph, InstanceParams, RainbowMatching,
                          closeness_slack, external_edges, generate_random, switching)

# stdlib-only, so that tests/test_identity.py runs with nothing installed
from stdlib_helpers import isotope, spare_bound_off  # noqa: F401  re-exported

# (colours, count, vertices, cap) rotated by seed; count = ceil(1.5 * colours)
_SHAPES = [
    (4, 6, 12, 1),
    (6, 9, 18, 1),
    (6, 9, 20, 2),
    (8, 12, 24, 1),
    (8, 12, 26, 1),
    (10, 15, 30, 1),
    (12, 18, 36, 2),
]


class SwitchCall(NamedTuple):
    """One ``robust_switch`` call as :func:`recorded_calls` passes it to its
    ``on_call``: its context, request, depth and reserve, and what it
    returned."""
    ctx: switching.SwitchContext
    request: switching.SwitchRequest
    depth: int
    reserve: int
    out: object


def random_instance(seed: int) -> ColouredMultigraph:
    colours, count, vertices, cap = _SHAPES[seed % len(_SHAPES)]
    return generate_random(colours, count, vertices, cap, seed)


@st.composite
def raw_graphs(draw) -> ColouredMultigraph:
    """Any in-range ``(u, v, c)`` triples: loops, parallel edges and colour
    clashes included, on few enough vertices that they are common."""
    v = draw(st.integers(1, 8))
    c = draw(st.integers(1, 4))
    edge = st.tuples(st.integers(0, v - 1), st.integers(0, v - 1),
                     st.integers(0, c - 1))
    return ColouredMultigraph(v, c, draw(st.lists(edge, max_size=24)))


def default_params(graph) -> InstanceParams:
    return InstanceParams.for_graph(graph, epsilon="1/2")


def tight_instance(seed: int) -> ColouredMultigraph:
    """Smaller, contention-heavy family; more greedy stalls, more switching."""
    colours = 4 + (seed % 5) * 2  # 4..12
    count = ceil(3 * colours / 2)
    return generate_random(colours, count, 2 * count, 1, seed)


def rank(violation) -> tuple:
    """The rank key of a violation ``(kind, edge id, colour, witness
    vertices)``: reach_free, reach_reach, free_free, ties by witness
    vertices then edge id."""
    kind, edge_id, _, vertices = violation
    return (("reach_free", "reach_reach", "free_free").index(kind), vertices, edge_id)


def brute_scan(graph, matching, hier):
    """Full-edge-sweep reference for find_violations on a maximal
    ``matching``: ``(kind, edge id, colour, witness vertices)`` in
    :func:`rank` order."""
    level_edges = [le for level in hier.levels for le in level.edges]
    heads = {le.head for le in level_edges}
    reach_colours = {le.colour for le in level_edges}
    out = []
    for e in graph.edges:
        if e.u == e.v:
            continue
        fu = e.u not in matching.covered
        fv = e.v not in matching.covered
        hu, hv = e.u in heads, e.v in heads
        ends = tuple(sorted((e.u, e.v)))
        if e.colour in reach_colours:
            if e.id in matching.edge_ids:
                continue
            if hu and hv:
                out.append(("reach_reach", e.id, e.colour, ends))
            elif hu and fv:
                out.append(("reach_free", e.id, e.colour, (e.u, e.v)))
            elif hv and fu:
                out.append(("reach_free", e.id, e.colour, (e.v, e.u)))
            elif fu and fv:
                out.append(("free_free", e.id, e.colour, ends))
    return sorted(out, key=rank)


def bad_per_colour(matching, flex, good_at) -> dict[int, int]:
    """The bad edges per flexible colour: the external edges of that colour
    that ``good_at``, as ``classify_good_bad`` returns it, does not hold.
    Every flexible colour has an entry, 0 included."""
    good = {i for ids in good_at.values() for i in ids}
    counts = {c: 0 for c in flex.partners}
    for eid in external_edges(matching, flex.partners):
        if eid not in good:
            counts[matching.graph.edge(eid).colour] += 1
    return counts


@contextmanager
def recorded_calls(on_call=None):
    """Log a :class:`~rainbowmatch.CallRecord` for every successful switch
    call made inside the block, innermost first, as ``CallRecord.from_call``
    builds them.

    Wraps the module global ``switching.robust_switch``, which the switch
    engine's chains call, so a top-level call is seen only when it goes
    through ``switching.robust_switch`` too.  If ``on_call`` is given, every
    call made in the block, found or not, is passed to it as a
    :class:`SwitchCall` once it returns, so in post-order: the calls under a
    call come before it.  A context manager rather than a fixture, so it
    also serves hypothesis tests.
    """
    log = []
    inner = switching.robust_switch

    def recording(ctx, current, request, depth=0, *, reserve=0):
        out = inner(ctx, current, request, depth, reserve=reserve)
        if type(out) is switching.SwitchOutcome:
            log.append(switching.CallRecord.from_call(ctx.base, out))
        if on_call is not None:
            on_call(SwitchCall(ctx, request, depth, reserve, out))
        return out

    switching.robust_switch = recording
    try:
        yield log
    finally:
        switching.robust_switch = inner


def brute_switches(hierarchy, colour, vertices) -> int:
    """The switch calls in the recipe's chain for a violation of ``colour``
    between ``vertices``, restated from the recipe: one per endpoint that is
    a reachable head other than its colour's own head, plus one."""
    own = hierarchy.by_colour[colour].head
    return 1 + sum(x in hierarchy.by_head and x != own for x in vertices)


def needs_too_many_spares(ctx, edge_id) -> bool:
    """Whether the chain of the recipe for the violating edge ``edge_id``
    has more switches than the base of ``ctx`` leaves colours unused.  It
    reads neither ``ctx.spares`` nor ``ctx.rng``."""
    e = ctx.base.graph.edge(edge_id)
    return brute_switches(ctx.hierarchy, e.colour, (e.u, e.v)) > (
        ctx.base.graph.num_colours - len(ctx.base))


@contextmanager
def augment_calls():
    """Log ``(ctx, edge_id, outcome, served)`` for every ``augment`` call
    that ``solve`` makes inside the block; ``served`` is the
    :func:`recorded_calls` log of the switch calls made inside it."""
    log = []
    inner = switching.augment

    def logging(ctx, edge_id):
        with recorded_calls() as served:
            out = inner(ctx, edge_id)
        log.append((ctx, edge_id, out, served))
        return out

    switching.augment = logging
    try:
        yield log
    finally:
        switching.augment = inner


@contextmanager
def switch_bound_off():
    """Turn off the spare-colour bound inside switches, leaving ``augment``'s
    and ``solve``'s: every level >= 2 switch made in the block reads a
    reserve so far below zero that it passes over no lift or descend, as it
    did before switches took a reserve.  A context manager, so it also serves
    hypothesis tests.
    """
    inner = switching._switch_inductive

    def unbounded(ctx, current, request, le, depth, reserve):
        return inner(ctx, current, request, le, depth, -sys.maxsize)

    switching._switch_inductive = unbounded
    try:
        yield
    finally:
        switching._switch_inductive = inner


@pytest.fixture
def no_spare_bound():
    with spare_bound_off():
        yield


def recheck_call(g, base, rec) -> None:
    """Re-check one call record against the switch contract, from ids: the
    result is a rainbow matching of ``base``'s size without the requested
    colour or vertex, within the budget plus the level's slack of ``base``,
    holding ``fix`` and clear of both avoid sets."""
    result = RainbowMatching(g, rec.result_ids)    # raises unless it is rainbow
    assert all(g.edge(i).colour != rec.colour                 # clause 1
               for i in rec.result_ids)
    assert rec.vertex not in result.covered
    assert len(result) == len(base)                           # clause 2
    distance = result.distance_to(base)
    assert distance == rec.distance_to_base
    assert distance <= rec.budget + closeness_slack(rec.level)
    assert set(rec.fix) <= set(rec.result_ids)                # clause 3
    assert not set(rec.avoid_vertices) & result.covered
    assert result.colours.isdisjoint(rec.avoid_colours)


@pytest.fixture
def base_switch_fixture():
    """Two matching edges; one level-1 colour switchable by a single
    base exchange.  Matching is edge ids {0, 1}."""
    g = ColouredMultigraph(6, 3, [
        (0, 1, 0),   # target edge: head 0, tail 1
        (2, 3, 1),   # flexible partner: tail 3, head 2
        (1, 4, 1),   # good partner-coloured edge at tail 1
        (3, 5, 2),   # spare-colour edge at tail 3
    ])
    return g


@pytest.fixture
def reach_free_fixture():
    """Four matching edges {0,1,2,3}; heads 0 and 4 reachable at level 1;
    edge 10 joins head 0 to free vertex 9 in a reachable colour."""
    g = ColouredMultigraph(14, 7, [
        (0, 1, 0),    # 0: level-1 edge, head 0
        (2, 3, 1),    # 1: flexible partner, tail 3
        (4, 5, 2),    # 2: level-1 edge, head 4
        (6, 7, 3),    # 3: flexible partner, tail 7
        (3, 8, 4),    # 4: spare at 3
        (3, 9, 5),    # 5: spare at 3
        (7, 10, 4),   # 6: spare at 7
        (7, 11, 5),   # 7: spare at 7
        (1, 8, 1),    # 8: good edge at tail 1
        (5, 12, 3),   # 9: good edge at tail 5
        (0, 9, 2),    # 10: violating edge head 0 -> free 9
        (3, 13, 6),   # 11: third spare at 3
    ])
    return g


@pytest.fixture
def reach_reach_fixture():
    """Six matching edges {0..5}; heads 0, 4, 6 reachable at level 1;
    edge 16 joins heads 0 and 4 in reachable colour 3.  Each of the three
    flexible tails carries its own spare colours so three chained base
    switches never collide."""
    g = ColouredMultigraph(24, 9, [
        (0, 1, 0),     # 0: level-1 edge, head 0
        (2, 3, 1),     # 1: flexible partner for colour 1, tail 3
        (4, 5, 2),     # 2: level-1 edge, head 4
        (6, 7, 3),     # 3: level-1 edge, head 6 (colour of the violation)
        (8, 9, 4),     # 4: flexible partner for colour 4, tail 9
        (10, 11, 5),   # 5: flexible partner for colour 5, tail 11
        (3, 14, 6),    # 6: spare at 3
        (3, 15, 7),    # 7: spare at 3
        (9, 16, 6),    # 8: spare at 9
        (9, 17, 7),    # 9: spare at 9
        (11, 18, 6),   # 10: spare at 11
        (11, 19, 7),   # 11: spare at 11
        (11, 23, 8),   # 12: spare at 11, third colour
        (1, 20, 1),    # 13: good edge at tail 1
        (5, 21, 4),    # 14: good edge at tail 5
        (7, 22, 5),    # 15: good edge at tail 7
        (0, 4, 3),     # 16: violating edge between heads 0 and 4
    ])
    return g


@pytest.fixture
def free_free_fixture():
    """Two matching edges {0,1}; head 0 reachable at level 1; edge 5 repeats
    reachable colour 0 between two free vertices."""
    g = ColouredMultigraph(11, 6, [
        (0, 1, 0),    # 0: level-1 edge, head 0
        (2, 3, 1),    # 1: flexible partner, tail 3
        (1, 8, 1),    # 2: good edge at tail 1
        (3, 9, 4),    # 3: spare at 3
        (3, 10, 5),   # 4: spare at 3
        (6, 7, 0),    # 5: violating edge between free 6 and free 7
    ])
    return g


@pytest.fixture
def lift_fixture():
    """Three matching edges {0,1,2}; edge 2 sits on level 2 certified by the
    level-1 colour 0 edge 6 into the free vertex 11 (a lift)."""
    g = ColouredMultigraph(12, 6, [
        (0, 1, 0),    # 0: level-1 edge, head 0
        (2, 3, 1),    # 1: flexible partner, tail 3
        (6, 7, 2),    # 2: level-2 edge, head 6
        (1, 8, 1),    # 3: good edge at tail 1
        (3, 9, 4),    # 4: spare at 3
        (3, 10, 5),   # 5: spare at 3
        (7, 11, 0),   # 6: certifying edge, tail 7 to free 11
    ])
    return g


@pytest.fixture
def descend_fixture():
    """Five matching edges {0..4}; edge 4 sits on level 2 certified by the
    colour-0 edge 11 into head 4, so the switch must free head 4 through a
    second recursion (a descend)."""
    g = ColouredMultigraph(17, 7, [
        (0, 1, 0),     # 0: level-1 edge, head 0
        (2, 3, 1),     # 1: flexible partner for colour 1, tail 3
        (4, 5, 2),     # 2: level-1 edge, head 4
        (13, 14, 3),   # 3: flexible partner for colour 3, tail 14
        (6, 7, 6),     # 4: level-2 edge, head 6
        (3, 8, 4),     # 5: spare at 3
        (3, 9, 5),     # 6: spare at 3
        (14, 15, 4),   # 7: spare at 14
        (14, 16, 5),   # 8: spare at 14
        (1, 10, 1),    # 9: good edge at tail 1
        (5, 11, 3),    # 10: good edge at tail 5
        (7, 4, 0),     # 11: certifying edge, tail 7 to head 4
    ])
    return g


@pytest.fixture
def improper_witness():
    """Colour 2 repeats the edge 3-5, and greedy (seed 0) leaves both copies
    inside a core of two vertices: more edges of one colour there than a
    matching can hold."""
    return ColouredMultigraph(7, 3, [
        (3, 5, 2), (2, 2, 2), (2, 4, 2), (3, 5, 0), (0, 1, 1), (0, 0, 2),
        (3, 5, 2), (0, 2, 2), (2, 3, 1),
    ])
