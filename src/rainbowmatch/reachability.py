"""Flexible structure, reachability levels, violations, counting diagnostics.

Everything here is computed against one fixed maximal rainbow matching M of a
graph.  The flexible structure singles out matching edges whose tail sees many
external edges in currently unused colours; levels are then grown on top of
it: level-1 edges are certified by good flexible-coloured edges at their tail,
level-(i+1) edges by many lower-level-coloured edges from their tail into free
vertices or lower heads.  Growth stops when a candidate level falls below the
stop threshold.  A head is "reachable" when its matching edge made some level;
the switching engine can free any reachable head on demand.

Violations are edges whose colour is reachable but whose endpoints sit where
no such edge may sit if the matching were unimprovable; each kind maps to an
augmentation recipe in :mod:`rainbowmatch.switching`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import ceil, floor

from .matching import RainbowMatching
from .multigraph import ColouredMultigraph, InstanceParams

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OrientedEdge:
    """A matching edge with a chosen direction: the certificate lives at the
    tail, the head is what a switch can set free."""

    edge_id: int
    tail: int
    head: int
    colour: int


@dataclass(frozen=True)
class FlexibleStructure:
    """Matching edges whose tail is incident to many external edges of unused
    colours.

    ``threshold`` is the count a tail must reach; ``external_free_at`` indexes
    the external unused-colour edges by their covered endpoint, each list
    sorted by (free endpoint, edge id).  ``full_colour`` flags a matching that
    already uses every colour, in which case there is nothing to compute and
    all sets are empty.
    """

    free_colours: frozenset[int]
    threshold: int
    edges: tuple[OrientedEdge, ...]
    heads: frozenset[int]
    colours: frozenset[int]
    full_colour: bool
    external_free_at: dict[int, tuple[int, ...]]

    def __post_init__(self):
        by_colour: dict[int, OrientedEdge] = {}
        for oe in self.edges:
            by_colour.setdefault(oe.colour, oe)
        object.__setattr__(self, "_by_colour", by_colour)

    def by_colour(self, colour: int) -> OrientedEdge | None:
        return self._by_colour.get(colour)


def compute_flexible(graph: ColouredMultigraph, matching: RainbowMatching,
                     params: InstanceParams) -> FlexibleStructure:
    """Orient every matching edge whose endpoints see enough external
    unused-colour edges; ties broken toward the lower-id tail."""
    free_colours = frozenset(matching.free_colours())
    if not free_colours:
        return FlexibleStructure(frozenset(), 0, (), frozenset(), frozenset(),
                                 True, {})
    threshold = max(1, ceil(params.alpha * len(free_colours)))

    external_at: dict[int, list[int]] = {}
    for e in graph.edges:
        if e.colour not in free_colours or e.u == e.v:
            continue
        cu, cv = matching.is_covered(e.u), matching.is_covered(e.v)
        if cu == cv:
            continue
        x = e.u if cu else e.v
        external_at.setdefault(x, []).append(e.id)
    for x, ids in external_at.items():
        ids.sort(key=lambda i: (graph.edge(i).other(x), i))

    oriented: list[OrientedEdge] = []
    for eid in matching.sorted_edge_ids():
        e = graph.edge(eid)
        if e.u == e.v:
            continue
        lo, hi = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        for tail, head in ((lo, hi), (hi, lo)):
            if len(external_at.get(tail, ())) >= threshold:
                oriented.append(OrientedEdge(eid, tail, head, e.colour))
                break

    return FlexibleStructure(
        free_colours=free_colours,
        threshold=threshold,
        edges=tuple(oriented),
        heads=frozenset(oe.head for oe in oriented),
        colours=frozenset(oe.colour for oe in oriented),
        full_colour=False,
        external_free_at={x: tuple(ids) for x, ids in external_at.items()},
    )


@dataclass(frozen=True)
class GoodBadReport:
    """External flexible-coloured edges split by whether the tail of their
    colour's matching edge keeps enough disjoint external unused-colour edges.

    ``good_at`` indexes good edges by covered endpoint, sorted by
    (free endpoint, edge id); ``bad_per_colour`` counts bad edges per
    flexible colour.
    """

    half_threshold: int
    good: frozenset[int]
    bad: frozenset[int]
    good_at: dict[int, tuple[int, ...]]
    bad_per_colour: dict[int, int]


def classify_good_bad(graph: ColouredMultigraph, matching: RainbowMatching,
                      flex: FlexibleStructure,
                      params: InstanceParams) -> GoodBadReport:
    if flex.full_colour or not flex.colours:
        return GoodBadReport(0, frozenset(), frozenset(), {}, {})
    half = max(1, ceil(params.alpha * len(flex.free_colours) / 2))
    partner = {oe.colour: oe for oe in flex.edges}

    good: list[int] = []
    bad: list[int] = []
    good_at: dict[int, list[int]] = {}
    bad_per_colour: dict[int, int] = {c: 0 for c in flex.colours}
    for c in sorted(flex.colours):
        tail = partner[c].tail
        reserve = flex.external_free_at.get(tail, ())
        for eid in graph.edges_with_colour(c):
            e = graph.edge(eid)
            if e.u == e.v:
                continue
            cu, cv = matching.is_covered(e.u), matching.is_covered(e.v)
            if cu == cv:
                continue
            x = e.u if cu else e.v
            kept = 0
            for rid in reserve:
                r = graph.edge(rid)
                if not (r.touches(e.u) or r.touches(e.v)):
                    kept += 1
            if kept >= half:
                good.append(eid)
                good_at.setdefault(x, []).append(eid)
            else:
                bad.append(eid)
                bad_per_colour[c] += 1
    for x, ids in good_at.items():
        ids.sort(key=lambda i: (graph.edge(i).other(x), i))
    return GoodBadReport(
        half_threshold=half,
        good=frozenset(good),
        bad=frozenset(bad),
        good_at={x: tuple(ids) for x, ids in good_at.items()},
        bad_per_colour=bad_per_colour,
    )


@dataclass(frozen=True)
class LevelEdge:
    """A matching edge placed on a level; ``cert`` names the lower level whose
    colours certified it (0 means certified by good flexible edges)."""

    edge_id: int
    tail: int
    head: int
    colour: int
    cert: int


@dataclass(frozen=True)
class Level:
    index: int
    edges: tuple[LevelEdge, ...]
    heads: frozenset[int]
    colours: frozenset[int]


@dataclass(frozen=True)
class Hierarchy:
    """The levels, plus the below-threshold candidate set that stopped growth."""

    levels: tuple[Level, ...]
    stop_threshold: int
    stopped: tuple[LevelEdge, ...]
    reach_heads: frozenset[int]
    reach_colours: frozenset[int]

    @property
    def m(self) -> int:
        return len(self.levels)

    def __post_init__(self):
        # first match in level order, then edge order
        by_colour: dict[int, tuple[int, LevelEdge]] = {}
        by_head: dict[int, tuple[int, LevelEdge]] = {}
        for level in self.levels:
            for le in level.edges:
                by_colour.setdefault(le.colour, (level.index, le))
                by_head.setdefault(le.head, (level.index, le))
        object.__setattr__(self, "_by_colour", by_colour)
        object.__setattr__(self, "_by_head", by_head)

    def entry(self, colour: int) -> tuple[int, LevelEdge] | None:
        """(level index, level edge) for a reachable colour, else None."""
        return self._by_colour.get(colour)

    def head_entry(self, head: int) -> tuple[int, LevelEdge] | None:
        return self._by_head.get(head)


def build_hierarchy(graph: ColouredMultigraph, matching: RainbowMatching,
                    flex: FlexibleStructure, good: GoodBadReport,
                    params: InstanceParams) -> Hierarchy:
    """Grow levels until a candidate set falls below max(1, ceil(alpha * C)).

    Level 1 takes matching edges with at least max(1, ceil(alpha * |F|)) good
    flexible-coloured edges at the tail; level i+1 takes unassigned edges with,
    for some lower level j, at least max(1, ceil(alpha * |R_j|)) edges of
    level-j colours from the tail into free vertices or lower heads.  Ties on
    orientation go to the lower-id tail.
    """
    n = graph.num_colours
    stop = max(1, ceil(params.alpha * n))
    levels: list[Level] = []
    assigned: set[int] = set()
    head_union: set[int] = set()
    free_set = frozenset(matching.free_vertices())
    level1_threshold = max(1, ceil(params.alpha * len(flex.colours))) if flex.colours else 1

    while True:
        i = len(levels) + 1
        cands: list[LevelEdge] = []
        for eid in matching.sorted_edge_ids():
            if eid in assigned:
                continue
            e = graph.edge(eid)
            if e.u == e.v or not (0 <= eid < graph.num_edges):
                continue
            lo, hi = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            placed = None
            for tail, head in ((lo, hi), (hi, lo)):
                if i == 1:
                    if flex.colours and len(good.good_at.get(tail, ())) >= level1_threshold:
                        placed = LevelEdge(eid, tail, head, e.colour, 0)
                        break
                else:
                    cert = _certifying_level(graph, tail, levels, free_set,
                                             head_union, params)
                    if cert is not None:
                        placed = LevelEdge(eid, tail, head, e.colour, cert)
                        break
            if placed is not None:
                cands.append(placed)
        if len(cands) < stop:
            return Hierarchy(
                levels=tuple(levels),
                stop_threshold=stop,
                stopped=tuple(cands),
                reach_heads=frozenset(head_union),
                reach_colours=frozenset(c for lv in levels for c in lv.colours),
            )
        level = Level(
            index=i,
            edges=tuple(cands),
            heads=frozenset(le.head for le in cands),
            colours=frozenset(le.colour for le in cands),
        )
        levels.append(level)
        assigned.update(le.edge_id for le in cands)
        head_union.update(level.heads)


def _certifying_level(graph, tail, levels, free_set, head_union, params):
    """Smallest lower level j whose colours give enough edges from ``tail``
    into free vertices or lower heads, or None."""
    targets = free_set | head_union
    for level in levels:
        need = max(1, ceil(params.alpha * len(level.colours)))
        count = 0
        for eid in graph.edges_at(tail):
            e = graph.edge(eid)
            if e.colour in level.colours and e.other(tail) in targets:
                count += 1
                if count >= need:
                    return level.index
    return None


_KIND_RANK = {"extend": 0, "reach_free": 1, "reach_reach": 2, "free_free": 3}


@dataclass(frozen=True)
class Violation:
    """An edge that lets the matching grow.

    kinds: ``extend`` (unused colour, both endpoints free),
    ``reach_free`` (reachable colour between a reachable head and a free
    vertex), ``reach_reach`` (reachable colour between two reachable heads),
    ``free_free`` (reachable colour with both endpoints free).
    """

    kind: str
    edge_id: int
    colour: int
    vertices: tuple[int, ...]

    @property
    def rank(self) -> tuple:
        return (_KIND_RANK[self.kind], self.vertices, self.edge_id)


def find_violations(graph: ColouredMultigraph, matching: RainbowMatching,
                    flex: FlexibleStructure, hierarchy: Hierarchy) -> list[Violation]:
    """All violations, ordered extend, then reach_free, reach_reach,
    free_free, ties by witness vertices then edge id.

    Scans only the unused-colour and reachable-colour classes; the brute-force
    equivalent is a full edge sweep.
    """
    out: list[Violation] = []
    for c in sorted(flex.free_colours):
        for eid in graph.edges_with_colour(c):
            e = graph.edge(eid)
            if e.u == e.v:
                continue
            if not matching.is_covered(e.u) and not matching.is_covered(e.v):
                out.append(Violation("extend", eid, c, tuple(sorted((e.u, e.v)))))
    heads = hierarchy.reach_heads
    for c in sorted(hierarchy.reach_colours):
        own = matching.edge_of_colour(c)
        for eid in graph.edges_with_colour(c):
            if eid == own:
                continue
            e = graph.edge(eid)
            if e.u == e.v:
                continue
            hu, hv = e.u in heads, e.v in heads
            fu, fv = not matching.is_covered(e.u), not matching.is_covered(e.v)
            if hu and hv:
                out.append(Violation("reach_reach", eid, c, tuple(sorted((e.u, e.v)))))
            elif hu and fv:
                out.append(Violation("reach_free", eid, c, (e.u, e.v)))
            elif hv and fu:
                out.append(Violation("reach_free", eid, c, (e.v, e.u)))
            elif fu and fv:
                out.append(Violation("free_free", eid, c, tuple(sorted((e.u, e.v)))))
    out.sort(key=lambda v: v.rank)
    return out


@dataclass(frozen=True)
class CountReport:
    """Edge counts behind the "some violation must exist" argument.

    The covered vertices split three ways: reachable heads, the fringe (tails
    of level edges plus both ends of the stopped candidates), and the core
    (everything else).  Reachable-coloured edges are then counted against
    where they may land.  ``contradiction`` is True when the guaranteed
    supply of reachable-coloured edges exceeds what fringe and core can
    absorb, which at scale forces a violation; desk-size instances normally
    report False.
    """

    reach_colour_count: int
    fringe: tuple[int, ...]
    core: tuple[int, ...]
    reach_edges_total: int
    reach_edges_touching_fringe: int
    reach_edges_core_not_fringe: int
    reach_edges_inside_core: int
    inside_core_by_colour: dict[int, int]
    max_inside_core: int
    per_core_vertex_outward: dict[int, int]
    expected_min_total: int
    fringe_capacity: int
    core_capacity: int
    forced_into_core: int
    contradiction: bool

    def to_json_dict(self) -> dict:
        return {
            "reach_colours": self.reach_colour_count,
            "fringe_size": len(self.fringe),
            "core_size": len(self.core),
            "reach_edges_total": self.reach_edges_total,
            "reach_edges_touching_fringe": self.reach_edges_touching_fringe,
            "reach_edges_core_not_fringe": self.reach_edges_core_not_fringe,
            "reach_edges_inside_core": self.reach_edges_inside_core,
            "max_inside_core": self.max_inside_core,
            "expected_min_total": self.expected_min_total,
            "fringe_capacity": self.fringe_capacity,
            "core_capacity": self.core_capacity,
            "forced_into_core": self.forced_into_core,
            "contradiction": self.contradiction,
        }


def counting_diagnostics(graph: ColouredMultigraph, matching: RainbowMatching,
                         flex: FlexibleStructure, hierarchy: Hierarchy,
                         params: InstanceParams) -> CountReport:
    fringe: set[int] = set()
    for level in hierarchy.levels:
        fringe.update(le.tail for le in level.edges)
    for le in hierarchy.stopped:
        fringe.add(le.tail)
        fringe.add(le.head)
    core = sorted(matching.covered - hierarchy.reach_heads - fringe)
    core_set = set(core)
    reach = hierarchy.reach_colours
    free_or_head = set(matching.free_vertices()) | hierarchy.reach_heads

    total = touching_fringe = core_not_fringe = inside = 0
    by_colour: dict[int, int] = {c: 0 for c in sorted(reach)}
    outward: dict[int, int] = {v: 0 for v in core}
    for c in sorted(reach):
        for eid in graph.edges_with_colour(c):
            e = graph.edge(eid)
            total += 1
            in_fringe = e.u in fringe or e.v in fringe
            in_core = e.u in core_set or e.v in core_set
            if in_fringe:
                touching_fringe += 1
            elif in_core:
                core_not_fringe += 1
            if e.u in core_set and e.v in core_set and e.u != e.v:
                inside += 1
                by_colour[c] += 1
            for x in {e.u, e.v}:
                if x in core_set and e.other(x) in free_or_head:
                    outward[x] += 1

    max_inside = max(by_colour.values(), default=0)
    # edges of one colour inside the core form a matching there
    assert max_inside <= floor(len(core) / 2), "properness bound breached"

    r = len(reach)
    expected_min_total = r * params.min_colour_count
    fringe_capacity = r * len(fringe)
    core_capacity = r * len(core)
    forced = expected_min_total - fringe_capacity
    return CountReport(
        reach_colour_count=r,
        fringe=tuple(sorted(fringe)),
        core=tuple(core),
        reach_edges_total=total,
        reach_edges_touching_fringe=touching_fringe,
        reach_edges_core_not_fringe=core_not_fringe,
        reach_edges_inside_core=inside,
        inside_core_by_colour=by_colour,
        max_inside_core=max_inside,
        per_core_vertex_outward=outward,
        expected_min_total=expected_min_total,
        fringe_capacity=fringe_capacity,
        core_capacity=core_capacity,
        forced_into_core=forced,
        contradiction=forced > core_capacity,
    )
