"""Shared instance builders for the test suite.

``random_instance(seed)`` is the one deterministic family used everywhere:
mixed sizes, dense enough to satisfy the default hypotheses at epsilon 1/2.
``isotope(n, seed)`` is the one seeded Latin square family, and
``raw_graphs()`` draws improper multigraphs (loops, parallel edges, colour
clashes).  Hand fixtures
that several suites share live here too, along with ``recorded_calls()``,
which logs every successful switch call, ``recheck_call()``, which checks
one such record against the switch contract, and ``brute_scan()``, the
full-edge-sweep reference for ``find_violations``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from math import ceil

import pytest
from hypothesis import strategies as st

from rainbowmatch import (ColouredMultigraph, InstanceParams, RainbowMatching, closeness,
                          closeness_slack, cyclic_square, generate_random, permute_square,
                          switching, verify)

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


def random_instance(seed: int) -> ColouredMultigraph:
    colours, count, vertices, cap = _SHAPES[seed % len(_SHAPES)]
    return generate_random(colours, count, vertices, cap, seed)


def isotope(n: int, seed: int):
    """Z_n with seeded row, column and symbol permutations, as a square."""
    rng = random.Random(seed)
    perms = [rng.sample(range(n), n) for _ in range(3)]
    return permute_square(cyclic_square(n), *perms)


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


def brute_scan(graph, matching, hier):
    """Full-edge-sweep reference for find_violations: ``(kind, edge id,
    colour, witness vertices)`` in rank order, that is extend, reach_free,
    reach_reach, free_free, ties by witness vertices then edge id."""
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
        if e.colour not in matching.colours:
            if fu and fv:
                out.append(("extend", e.id, e.colour, ends))
        elif e.colour in reach_colours:
            if e.id == matching.edge_of_colour(e.colour):
                continue
            if hu and hv:
                out.append(("reach_reach", e.id, e.colour, ends))
            elif hu and fv:
                out.append(("reach_free", e.id, e.colour, (e.u, e.v)))
            elif hv and fu:
                out.append(("reach_free", e.id, e.colour, (e.v, e.u)))
            elif fu and fv:
                out.append(("free_free", e.id, e.colour, ends))
    order = ["extend", "reach_free", "reach_reach", "free_free"]
    return sorted(out, key=lambda t: (order.index(t[0]), t[3], t[1]))


@contextmanager
def recorded_calls():
    """Log a :class:`~rainbowmatch.CallRecord` for every successful switch
    call made inside the block, innermost first, as ``CallRecord.from_call``
    builds them.

    Wraps the module global ``switching.robust_switch``, which the switch
    engine's chains call, so a top-level call is seen only when it goes
    through ``switching.robust_switch`` too.  A context manager rather than
    a fixture, so it also serves hypothesis tests.
    """
    log = []
    inner = switching.robust_switch

    def recording(ctx, current, request, depth=0):
        out = inner(ctx, current, request, depth)
        if type(out) is switching.SwitchOutcome:
            log.append(switching.CallRecord.from_call(ctx.base, out.calls[-1]))
        return out

    switching.robust_switch = recording
    try:
        yield log
    finally:
        switching.robust_switch = inner


def recheck_call(g, base, rec) -> None:
    """Re-check one call record against the switch contract, from ids: the
    result is a rainbow matching of ``base``'s size without the requested
    colour or vertex, within the budget plus the level's slack of ``base``,
    holding ``fix`` and clear of both avoid sets."""
    result = RainbowMatching(g, rec.result_ids)
    assert verify(g, result) == []
    assert result.edge_of_colour(rec.colour) is None          # clause 1
    assert rec.vertex not in result.covered
    c = closeness(base, result)                               # clause 2
    assert c.size_equal
    assert c.distance == rec.distance_to_base
    assert c.distance <= rec.budget + closeness_slack(rec.level)
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
