"""Flexible structure, reachability levels, violations, counting diagnostics.

Everything here is computed against one fixed maximal rainbow matching M of a
graph; a vertex is free when M does not cover it.  Each rule is stated once:
external edges (one endpoint covered) in
:func:`rainbowmatch.matching.external_edges`, indexed by covered endpoint in
:func:`_by_covered_end`; the orientation of a matching edge, lower-id tail
first, in :func:`_orient`; a level edge's certificate in :func:`certificate`
and a level-1 edge's base-switch pairs in :func:`_base_pairs`.

Flexible edges have a tail that sees many external edges of unused colours;
level-1 edges are certified by good flexible-coloured edges at their tail,
level-(i+1) edges by a lower level's certificate: many edges of its colours
from the tail into free vertices or lower heads.  Growth stops when a
candidate level falls below the stop threshold.  A head is "reachable" when
its matching edge made some level; the switching engine can free any
reachable head on demand.  Each :class:`LevelEdge` carries its switch
options, built once when the edge is placed.

Violations are edges whose colour is reachable but whose endpoints sit where
no such edge may sit if the matching were unimprovable; each kind maps to an
augmentation recipe in :mod:`rainbowmatch.switching`.  The counting argument
that some violation must exist is :func:`counting_diagnostics`, which returns
the ``counting`` document that ``rainbowmatch stats`` prints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import ceil
from typing import NamedTuple

from .matching import RainbowMatching, external_edges
from .multigraph import ColouredMultigraph, Edge, InstanceParams

logger = logging.getLogger(__name__)


def _orient(e: Edge, certify):
    """``(tail, head, found)`` for the first orientation of the matching edge
    ``e``, lower-id tail first, whose tail gets a ``found`` other than None
    from ``certify(tail)``; None when neither does or ``e`` is a loop."""
    if e.u == e.v:
        return None
    lo, hi = (e.u, e.v) if e.u < e.v else (e.v, e.u)
    for tail, head in ((lo, hi), (hi, lo)):
        found = certify(tail)
        if found is not None:
            return tail, head, found
    return None


def _by_covered_end(graph: ColouredMultigraph, matching: RainbowMatching,
                    edge_ids) -> dict[int, tuple[int, ...]]:
    """External ``edge_ids`` indexed by covered endpoint, each tuple sorted
    by (free endpoint, edge id)."""
    at: dict[int, list[tuple[int, int]]] = {}
    covered = matching.covered
    edges = graph.edges
    for eid in edge_ids:
        _, u, v, _ = edges[eid]
        if u in covered:
            at.setdefault(u, []).append((v, eid))
        else:
            at.setdefault(v, []).append((u, eid))
    return {x: tuple(eid for _, eid in sorted(ends)) for x, ends in at.items()}


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

    ``external_free_at`` indexes the external unused-colour edges by their
    covered endpoint, each tuple sorted by (free endpoint, edge id);
    ``partners`` indexes the oriented edges by flexible colour.  The unused
    colours with an edge are :func:`_unused_colours`.
    """

    external_free_at: dict[int, tuple[int, ...]]
    partners: dict[int, OrientedEdge]

    def by_colour(self, colour: int) -> OrientedEdge | None:
        return self.partners.get(colour)


def _unused_colours(graph: ColouredMultigraph, matching: RainbowMatching) -> list[int]:
    """The colours that have an edge and that ``matching`` does not use.
    Empty classes are never read, so a header's colour count costs nothing;
    the number of unused colours, C - |M| for a rainbow matching, needs no
    scan either."""
    used = matching.colours
    return [c for c in graph.colours_with_edges() if c not in used]


def compute_flexible(graph: ColouredMultigraph, matching: RainbowMatching,
                     params: InstanceParams) -> FlexibleStructure:
    """Orient every matching edge that has an endpoint seeing at least
    max(1, ceil(alpha * |free colours|)) external unused-colour edges to be
    its tail; ``matching`` is rainbow, so |free colours| = C - |M|."""
    unused = _unused_colours(graph, matching)
    if not unused:
        return FlexibleStructure({}, {})
    threshold = max(1, ceil(params.alpha * (graph.num_colours - len(matching))))
    external_free_at = _by_covered_end(
        graph, matching, external_edges(graph, matching, unused))

    def enough(tail):
        return len(external_free_at.get(tail, ())) >= threshold or None

    partners: dict[int, OrientedEdge] = {}
    for eid in matching.sorted_ids:
        e = graph.edge(eid)
        found = _orient(e, enough)
        if found is not None:
            partners.setdefault(e.colour, OrientedEdge(eid, found[0], found[1], e.colour))
    return FlexibleStructure(external_free_at, partners)


@dataclass(frozen=True)
class GoodBadReport:
    """External flexible-coloured edges split by whether the tail of their
    colour's matching edge keeps at least max(1, ceil(alpha * |free colours|
    / 2)) external unused-colour edges disjoint from them.

    ``good_at`` indexes the good edges by covered endpoint, each tuple sorted
    by (free endpoint, edge id); ``bad_per_colour`` counts bad edges per
    flexible colour.
    """

    good_at: dict[int, tuple[int, ...]]
    bad_per_colour: dict[int, int]


def classify_good_bad(graph: ColouredMultigraph, matching: RainbowMatching,
                      flex: FlexibleStructure,
                      params: InstanceParams) -> GoodBadReport:
    if not flex.partners:
        return GoodBadReport({}, {})
    half = max(1, ceil(params.alpha * (graph.num_colours - len(matching)) / 2))
    edges = graph.edges
    # each flexible colour's reserve, as the (u, v) endpoints of its edges
    reserve = {oe.colour: [edges[rid][1:3]
                           for rid in flex.external_free_at.get(oe.tail, ())]
               for oe in flex.partners.values()}

    good: list[int] = []
    bad_per_colour: dict[int, int] = {c: 0 for c in flex.partners}
    for eid in external_edges(graph, matching, flex.partners):
        _, u, v, c = edges[eid]
        kept = 0
        for a, b in reserve[c]:
            if a != u and a != v and b != u and b != v:
                kept += 1
        if kept >= half:
            good.append(eid)
        else:
            bad_per_colour[c] += 1
    return GoodBadReport(_by_covered_end(graph, matching, good), bad_per_colour)


@dataclass(frozen=True)
class LevelEdge:
    """A matching edge placed on level ``level`` (a stopped candidate carries
    m + 1, the level it failed to start), with the options a switch has to
    free its head.  ``cert`` names the lower level whose colours certified it
    (0 means good flexible edges).  A level-1 edge carries its
    :func:`_base_pairs`; a higher one the :func:`certificate` that placed it,
    ``lifts`` and ``descends``.  The fields a level does not use are empty."""

    edge_id: int
    tail: int
    head: int
    colour: int
    level: int
    cert: int
    pairs: tuple[tuple, ...] = field(repr=False)
    lifts: tuple[tuple[int, int], ...] = field(repr=False)
    descends: tuple[tuple[int, int], ...] = field(repr=False)


@dataclass(frozen=True)
class Level:
    """One level: its edges, with their colours."""

    index: int
    edges: tuple[LevelEdge, ...]
    colours: frozenset[int]


@dataclass(frozen=True)
class Hierarchy:
    """The levels, plus the below-threshold candidate set that stopped growth;
    the level edges by reachable colour and by reachable head."""

    levels: tuple[Level, ...]
    stopped: tuple[LevelEdge, ...]
    by_colour: dict[int, LevelEdge] = field(repr=False, compare=False)
    by_head: dict[int, LevelEdge] = field(repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.levels)

    def entry(self, colour: int) -> LevelEdge | None:
        """The level edge of a reachable colour, else None."""
        return self.by_colour.get(colour)

    def head_entry(self, head: int) -> LevelEdge | None:
        return self.by_head.get(head)


def certificate(graph: ColouredMultigraph, tail: int, colours, covered,
                below) -> tuple[tuple, tuple]:
    """What a level with ``colours`` certifies at ``tail``: the edges of those
    colours from ``tail`` into a free vertex (one not in ``covered``), the
    lifts, and into ``below``, the descends.  Each is a tuple of
    ``(vertex, edge id)`` in ascending order."""
    lifts = []
    descends = []
    edges = graph.edges
    for eid in graph.edges_at(tail):
        _, u, v, c = edges[eid]
        if c not in colours or u == v:
            continue
        other = v if u == tail else u
        if other not in covered:
            lifts.append((other, eid))
        elif other in below:
            descends.append((other, eid))
    lifts.sort()
    descends.sort()
    return tuple(lifts), tuple(descends)


def _base_pairs(graph: ColouredMultigraph, flex: FlexibleStructure,
                good: GoodBadReport, edge_id: int, tail: int) -> tuple[tuple, ...]:
    """Level-1 configurations ``(w, z, gid, hid, partner, spare)`` for the
    matching edge ``edge_id`` with tail ``tail``: a good edge from the tail to
    ``w`` whose colour has flexible edge ``partner``, other than ``edge_id``
    itself, and an external unused-colour edge of colour ``spare`` from the
    partner's tail to ``z``, with ``z`` not ``w``; sorted by the first four."""
    found = []
    edges = graph.edges
    for gid in good.good_at.get(tail, ()):
        _, u, v, c = edges[gid]
        w = v if u == tail else u
        partner = flex.by_colour(c)
        if partner is None or partner.edge_id == edge_id:
            continue
        ptail = partner.tail
        for hid in flex.external_free_at.get(ptail, ()):
            _, u, v, spare = edges[hid]
            z = v if u == ptail else u
            if z == w:
                continue
            found.append((w, z, gid, hid, partner, spare))
    found.sort(key=lambda t: t[:4])
    return tuple(found)


def build_hierarchy(graph: ColouredMultigraph, matching: RainbowMatching,
                    flex: FlexibleStructure, good: GoodBadReport,
                    params: InstanceParams) -> Hierarchy:
    """Grow levels until a candidate set falls below max(1, ceil(alpha * C)).

    Level 1 takes matching edges with at least max(1, ceil(alpha * |F|)) good
    flexible-coloured edges at the tail; level i+1 takes unassigned edges
    whose tail gets, from some lower level j, a certificate of at least
    max(1, ceil(alpha * |R_j|)) edges, and carries that certificate (from
    the smallest such j), a level-1 edge its base-switch pairs.
    """
    stop = max(1, ceil(params.alpha * graph.num_colours))
    level1_threshold = max(1, ceil(params.alpha * len(flex.partners)))
    covered = matching.covered
    levels: list[Level] = []
    # the level edges so far, first match kept (colours and heads are unique)
    by_colour: dict[int, LevelEdge] = {}
    by_head: dict[int, LevelEdge] = {}

    def certified_by_good(tail):
        if len(good.good_at.get(tail, ())) >= level1_threshold:
            return 0, (), ()
        return None

    def certified_below(tail):
        # the smallest lower level whose certificate at ``tail`` is big enough
        for level in levels:
            need = max(1, ceil(params.alpha * len(level.colours)))
            lifts, descends = certificate(graph, tail, level.colours, covered, by_head)
            if len(lifts) + len(descends) >= need:
                return level.index, lifts, descends
        return None

    while True:
        certify = certified_by_good if not levels else certified_below
        index = len(levels) + 1
        cands: list[LevelEdge] = []
        for eid in matching.sorted_ids:
            e = graph.edge(eid)
            if e.colour in by_colour:  # already on a level
                continue
            found = _orient(e, certify)
            if found is not None:
                tail, head, (cert, lifts, descends) = found
                pairs = _base_pairs(graph, flex, good, eid, tail) if cert == 0 else ()
                cands.append(LevelEdge(eid, tail, head, e.colour, index, cert,
                                       pairs, lifts, descends))
        if len(cands) < stop:
            return Hierarchy(
                levels=tuple(levels),
                stopped=tuple(cands),
                by_colour=by_colour,
                by_head=by_head,
            )
        levels.append(Level(
            index=index,
            edges=tuple(cands),
            colours=frozenset(le.colour for le in cands),
        ))
        for le in cands:
            by_colour.setdefault(le.colour, le)
            by_head.setdefault(le.head, le)


# the violation kinds in rank order: a recipe for an earlier kind is tried first
VIOLATION_KINDS = ("extend", "reach_free", "reach_reach", "free_free")


class Violation(NamedTuple):
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
        return (VIOLATION_KINDS.index(self.kind), self.vertices, self.edge_id)


def find_violations(graph: ColouredMultigraph, matching: RainbowMatching,
                    hierarchy: Hierarchy) -> list[Violation]:
    """All violations, ordered by kind as in :data:`VIOLATION_KINDS`, ties by
    witness vertices then edge id.

    Scans only the unused-colour and reachable-colour classes; the brute-force
    equivalent is a full edge sweep.  Candidates are kept by kind as plain
    tuples, ``(vertices, edge id, colour)``, and only built once sorted.
    """
    edges = graph.edges
    covered = matching.covered
    found = {kind: [] for kind in VIOLATION_KINDS}
    for c in _unused_colours(graph, matching):
        for eid in graph.edges_with_colour(c):
            _, u, v, _ = edges[eid]
            if u != v and u not in covered and v not in covered:
                found["extend"].append(((u, v) if u < v else (v, u), eid, c))
    heads = hierarchy.by_head
    for c in sorted(hierarchy.by_colour):
        own = matching.edge_of_colour(c)
        for eid in graph.edges_with_colour(c):
            if eid == own:
                continue
            _, u, v, _ = edges[eid]
            if u == v:
                continue
            if u in heads:
                if v in heads:
                    found["reach_reach"].append(((u, v) if u < v else (v, u), eid, c))
                elif v not in covered:
                    found["reach_free"].append(((u, v), eid, c))
            elif v in heads:
                if u not in covered:
                    found["reach_free"].append(((v, u), eid, c))
            elif u not in covered and v not in covered:
                found["free_free"].append(((u, v) if u < v else (v, u), eid, c))
    return [Violation(kind, eid, c, vertices) for kind in VIOLATION_KINDS
            for vertices, eid, c in sorted(found[kind])]


def counting_diagnostics(graph: ColouredMultigraph, matching: RainbowMatching,
                         hierarchy: Hierarchy, params: InstanceParams) -> dict:
    """Edge counts behind the "some violation must exist" argument, as the
    ``counting`` document of ``rainbowmatch stats``.

    The covered vertices split three ways: reachable heads, the fringe (tails
    of level edges plus both ends of the stopped candidates), and the core
    (everything else).  Reachable-coloured edges are then counted against
    where they may land.  ``contradiction`` is True when the guaranteed
    supply of reachable-coloured edges exceeds what fringe and core can
    absorb, which at scale forces a violation; desk-size instances normally
    report False.

    Raises ValueError when more edges of one colour lie inside the core than
    a matching there can hold, which only an improper colouring allows.
    """
    fringe: set[int] = set()
    for level in hierarchy.levels:
        fringe.update(le.tail for le in level.edges)
    for le in hierarchy.stopped:
        fringe.add(le.tail)
        fringe.add(le.head)
    core = matching.covered - hierarchy.by_head.keys() - fringe
    reach = hierarchy.by_colour

    total = touching_fringe = core_not_fringe = inside_total = max_inside = 0
    for c in sorted(reach):
        inside = 0
        for eid in graph.edges_with_colour(c):
            e = graph.edge(eid)
            total += 1
            if e.u in fringe or e.v in fringe:
                touching_fringe += 1
            elif e.u in core or e.v in core:
                core_not_fringe += 1
            if e.u in core and e.v in core and e.u != e.v:
                inside += 1
        # edges of one colour inside the core form a matching there
        if inside > len(core) // 2:
            raise ValueError(
                f"colour {c} has {inside} edges inside a core of {len(core)} "
                "vertices, more than a matching there can hold: the colouring "
                "is not proper")
        inside_total += inside
        max_inside = max(max_inside, inside)

    r = len(reach)
    expected_min_total = r * params.min_colour_count
    fringe_capacity = r * len(fringe)
    core_capacity = r * len(core)
    forced = expected_min_total - fringe_capacity
    return {
        "reach_colours": r,
        "fringe_size": len(fringe),
        "core_size": len(core),
        "reach_edges_total": total,
        "reach_edges_touching_fringe": touching_fringe,
        "reach_edges_core_not_fringe": core_not_fringe,
        "reach_edges_inside_core": inside_total,
        "max_inside_core": max_inside,
        "expected_min_total": expected_min_total,
        "fringe_capacity": fringe_capacity,
        "core_capacity": core_capacity,
        "forced_into_core": forced,
        "contradiction": forced > core_capacity,
    }
