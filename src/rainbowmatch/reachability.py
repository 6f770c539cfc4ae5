"""Flexible structure, reachability levels, violations, counting diagnostics.

Everything here is computed against one fixed maximal rainbow matching M of
the graph it carries; a vertex is free when it has an edge and M does not
cover it (:func:`rainbowmatch.matching.free_vertices`).  Each rule
is stated once: external edges (one endpoint covered) in
:func:`rainbowmatch.matching.external_edges`, indexed by covered endpoint in
:func:`_by_covered_end`; the orientation of a matching edge, lower-id tail
first, in :func:`_orient`; a level edge's certificate in :func:`certificate`;
a level-1 edge's base-switch pairs in :func:`base_pairs`; and the witness
order of a violation's ends, covered end first, else lower id first, in
:func:`witness_vertices`.

Flexible edges have a tail that sees many external edges of unused colours;
level-1 edges are certified by good flexible-coloured edges at their tail,
level-(i+1) edges by a lower level's certificate: many edges of its colours
from the tail into free vertices or lower heads.  Growth stops when a
candidate level falls below the stop threshold.  A head is "reachable" when
its matching edge made some level; the switching engine can free any
reachable head on demand.  The level records are named tuples, and a
:class:`LevelEdge` keeps only what placed it: a higher level counts a
tail's :func:`certificate` up to its threshold and builds no list.  The
switch options, a level-1 edge's :func:`base_pairs` and a higher edge's
lifts and descends, are built by the switch context when a switch first
reads them (:class:`rainbowmatch.switching.SwitchContext`).

Near threshold few vertices are free, so a round reads the edges at the free
vertices wherever a rule needs a free endpoint: the external edges and
every violation kind but ``reach_reach``.  No round walks the vertex range,
and only ``reach_reach``, which joins two heads, scans the reachable colour
classes.

Violations are edges of reachable colour whose endpoints sit where no such
edge may sit if the matching were unimprovable: a reachable head and a free
vertex, two heads, or two free vertices.  M must be maximal, and
:func:`find_violations` raises on an edge that would extend it.  It returns
the violations as a sized stream, :class:`RankedViolations`, which alone
fixes their rank order (within a kind, by :func:`witness_vertices`):
counted at once, sorted and built as they are iterated (every bucket holds
edge ids until a pass first reaches it).
Each bucket also knows the fewest switches that any of its violations'
augmentation chains makes (:func:`chain_switches`), so that a round can pass
over a bucket whose every chain needs more spare colours than the base has.
The counting argument that some violation must exist is
:func:`counting_diagnostics`, which returns the ``counting`` document that
``rainbowmatch stats`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from math import ceil, inf
from operator import itemgetter
from typing import NamedTuple

from .matching import RainbowMatching, external_edges, free_vertices
from .multigraph import ColouredMultigraph, Edge, InstanceParams


def _orient(e: Edge, certify):
    """``(tail, head, found)`` for the first orientation of the matching edge
    ``e``, lower-id tail first, whose tail gets a ``found`` other than None
    from ``certify(tail)``; None when neither does."""
    lo, hi = (e.u, e.v) if e.u < e.v else (e.v, e.u)
    for tail, head in ((lo, hi), (hi, lo)):
        found = certify(tail)
        if found is not None:
            return tail, head, found
    return None


def _by_covered_end(matching: RainbowMatching, edge_ids) -> dict[int, tuple[int, ...]]:
    """External ``edge_ids`` indexed by covered endpoint, each tuple sorted
    by (free endpoint, edge id)."""
    at: dict[int, list[tuple[int, int]]] = {}
    covered = matching.covered
    edges = matching.graph.edges
    for eid in edge_ids:
        _, u, v, _ = edges[eid]
        if u in covered:
            at.setdefault(u, []).append((v, eid))
        else:
            at.setdefault(v, []).append((u, eid))
    return {x: tuple(eid for _, eid in sorted(ends)) for x, ends in at.items()}


class OrientedEdge(NamedTuple):
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


def _unused_colours(matching: RainbowMatching) -> list[int]:
    """The colours that have an edge and that ``matching`` does not use.
    Empty classes are never read, so a header's colour count costs nothing;
    the number of unused colours, C - |M| for a rainbow matching, needs no
    scan either."""
    used = matching.colours
    return [c for c in matching.graph.colours_with_edges() if c not in used]


def compute_flexible(matching: RainbowMatching, params: InstanceParams) -> FlexibleStructure:
    """Orient every matching edge that has an endpoint seeing at least
    max(1, ceil(alpha * |free colours|)) external unused-colour edges to be
    its tail; ``matching`` is rainbow, so |free colours| = C - |M|."""
    graph = matching.graph
    threshold = max(1, ceil(params.alpha * (graph.num_colours - len(matching))))
    external_free_at = _by_covered_end(
        matching, external_edges(matching, _unused_colours(matching)))

    def enough(tail):
        return len(external_free_at.get(tail, ())) >= threshold or None

    partners: dict[int, OrientedEdge] = {}
    for eid in matching.sorted_ids:
        e = graph.edge(eid)
        found = _orient(e, enough)
        if found is not None:
            partners[e.colour] = OrientedEdge(eid, found[0], found[1], e.colour)
    return FlexibleStructure(external_free_at, partners)


def classify_good_bad(matching: RainbowMatching, flex: FlexibleStructure,
                      params: InstanceParams) -> dict[int, tuple[int, ...]]:
    """The good edges indexed by covered endpoint, each tuple sorted by (free
    endpoint, edge id).  An external flexible-coloured edge is good when the
    tail of its colour's matching edge keeps at least max(1, ceil(alpha *
    |free colours| / 2)) external unused-colour edges disjoint from it, and
    bad otherwise."""
    graph = matching.graph
    half = max(1, ceil(params.alpha * (graph.num_colours - len(matching)) / 2))
    edges = graph.edges
    # each flexible colour's reserve, as the (u, v) endpoints of its edges
    reserve = {oe.colour: [edges[rid][1:3]
                           for rid in flex.external_free_at.get(oe.tail, ())]
               for oe in flex.partners.values()}

    good: list[int] = []
    for eid in external_edges(matching, flex.partners):
        _, u, v, c = edges[eid]
        kept = 0
        for a, b in reserve[c]:
            if a != u and a != v and b != u and b != v:
                kept += 1
        if kept >= half:
            good.append(eid)
    return _by_covered_end(matching, good)


class LevelEdge(NamedTuple):
    """A matching edge placed on level ``level`` (a stopped candidate carries
    m + 1, the level it failed to start).  ``cert`` names the lower level
    whose colours certified it (0 means good flexible edges).  It keeps only
    what placed it: the options a switch has to free its head, a level-1
    edge's :func:`base_pairs` or a higher edge's :func:`certificate`, are
    built by the switch context when a switch first reads them."""

    edge_id: int
    tail: int
    head: int
    colour: int
    level: int
    cert: int


class Level(NamedTuple):
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


def certificate(graph: ColouredMultigraph, tail: int, colours, covered, heads,
                level: int):
    """Yield the edges that a level with ``colours`` certifies at ``tail`` for
    an edge of ``level``, as ``(vertex, edge id)`` in edge order: the edges of
    those colours from ``tail`` into a free vertex (one not in ``covered``),
    the lifts, or into the head of a level edge in ``heads`` (a dict by head)
    below ``level``, the descends."""
    edges = graph.edges
    for eid in graph.edges_at(tail):
        _, u, v, c = edges[eid]
        if c not in colours or u == v:
            continue
        other = v if u == tail else u
        if other not in covered:
            yield other, eid
        elif other in heads and heads[other].level < level:
            yield other, eid


def base_pairs(graph: ColouredMultigraph, flex: FlexibleStructure,
                good_at: dict[int, tuple[int, ...]], edge_id: int,
                tail: int) -> tuple[tuple, ...]:
    """Level-1 configurations ``(w, z, gid, hid, partner, spare)`` for the
    matching edge ``edge_id`` with tail ``tail``: a good edge from the tail to
    ``w`` whose colour has flexible edge ``partner``, other than ``edge_id``
    itself, and an external unused-colour edge of colour ``spare`` from the
    partner's tail to ``z``, with ``z`` not ``w``; sorted by the first four."""
    found = []
    edges = graph.edges
    for gid in good_at.get(tail, ()):
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


def build_hierarchy(matching: RainbowMatching, flex: FlexibleStructure,
                    good_at: dict[int, tuple[int, ...]],
                    params: InstanceParams) -> Hierarchy:
    """Grow levels until a candidate set falls below max(1, ceil(alpha * C)).

    Level 1 takes matching edges with at least max(1, ceil(alpha * |F|)) good
    flexible-coloured edges at the tail; level i+1 takes unassigned edges
    whose tail gets, from some lower level j, a certificate of at least
    max(1, ceil(alpha * |R_j|)) edges, and records the smallest such j as
    its ``cert``.  Each level's threshold is computed once, and a
    certificate is counted only up to it: no list of certifying edges is
    built here.
    """
    graph = matching.graph
    stop = max(1, ceil(params.alpha * graph.num_colours))
    level1_threshold = max(1, ceil(params.alpha * len(flex.partners)))
    covered = matching.covered
    # each level with its certificate threshold
    levels: list[tuple[Level, int]] = []
    # the level edges so far; M is rainbow and each of its edges is placed
    # once, so no colour or head is entered twice
    by_colour: dict[int, LevelEdge] = {}
    by_head: dict[int, LevelEdge] = {}

    def certified_by_good(tail):
        return 0 if len(good_at.get(tail, ())) >= level1_threshold else None

    def certified_below(tail):
        # the smallest lower level whose certificate at ``tail`` is big
        # enough, counted up to its threshold only; every head placed so far
        # is below the level being built
        for level, need in levels:
            if len(list(islice(certificate(graph, tail, level.colours, covered,
                                           by_head, index), need))) == need:
                return level.index
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
                tail, head, cert = found
                cands.append(LevelEdge(eid, tail, head, e.colour, index, cert))
        if len(cands) < stop:
            return Hierarchy(
                levels=tuple(level for level, _ in levels),
                stopped=tuple(cands),
                by_colour=by_colour,
                by_head=by_head,
            )
        colours = frozenset(le.colour for le in cands)
        levels.append((Level(index=index, edges=tuple(cands), colours=colours),
                       max(1, ceil(params.alpha * len(colours)))))
        for le in cands:
            by_colour[le.colour] = le
            by_head[le.head] = le


# the violation kinds in rank order: a recipe for an earlier kind is tried first
VIOLATION_KINDS = ("reach_free", "reach_reach", "free_free")


class Violation(NamedTuple):
    """An edge of reachable colour that lets a maximal matching grow, as
    ranked; ``vertices`` are its :func:`witness_vertices`.  kinds:
    ``reach_free`` (a reachable head and a free vertex), ``reach_reach``
    (two reachable heads), ``free_free`` (two free vertices)."""

    kind: str
    edge_id: int
    colour: int
    vertices: tuple[int, ...]


def witness_vertices(covered, u: int, v: int) -> tuple[int, int]:
    """A violation's ends in witness order: covered first, else lower id first."""
    if (u in covered) == (v in covered):
        return (u, v) if u < v else (v, u)
    return (u, v) if u in covered else (v, u)


def chain_switches(hierarchy: Hierarchy, colour: int, vertices) -> int:
    """The switch calls in the augmentation chain of a violation of reachable
    ``colour`` between ``vertices``: one for each endpoint that is a reachable
    head other than the colour's own head, then one that frees the colour and
    its head (see :func:`rainbowmatch.switching.augment`)."""
    heads = hierarchy.by_head
    own = hierarchy.by_colour[colour].head
    return 1 + sum(x in heads and x != own for x in vertices)


class RankedViolations:
    """The violations of one matching in rank order, ranked lazily.

    Sized and iterable, as often as asked: each pass yields the violations
    by kind as in :data:`VIOLATION_KINDS`, ties by witness vertices then
    edge id, the one place that order is fixed.  ``list()`` gives the ranked
    list.  Every candidate is counted up front, one bucket of edge ids per
    kind; the first pass that reaches a bucket orders it, once, by
    :func:`witness_vertices`, and each :class:`Violation` is built only when
    it is yielded.  A caller that stops at the first violation whose recipe
    lands pays for the buckets it reached and the violations it took.
    :meth:`ranked` can also pass over whole buckets whose chains need more
    spare colours than the base leaves.
    """

    __slots__ = ("_buckets", "_sorted", "_fewest", "_len", "_edges", "_covered")

    def __init__(self, buckets: tuple[list, ...], fewest: tuple[int, ...], edges,
                 covered):
        # one list of edge ids per kind, in the order of VIOLATION_KINDS, and
        # the fewest switches a chain of each makes.  ``_sorted[i]`` records
        # that bucket i holds its ``(vertices, edge id, colour)`` tuples in
        # rank order instead; edge ids are unique, so colours never compare
        self._buckets = buckets
        self._sorted = [False] * len(buckets)
        self._fewest = fewest
        self._len = sum(map(len, buckets))
        self._edges = edges
        self._covered = covered

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return map(itemgetter(1), self.ranked())

    def ranked(self, spares: int | float = inf):
        """Yield ``(rank, violation)`` in rank order, ranks counted from 1.

        Pass over every bucket in which even the cheapest chain makes more
        than ``spares`` switches (none, by default): its violations keep their
        ranks, but the bucket is not sorted and none of them is built or
        yielded."""
        make = tuple.__new__  # Violation's own __new__ adds a Python call each
        rank = 0
        for i, (kind, bucket, fewest) in enumerate(
                zip(VIOLATION_KINDS, self._buckets, self._fewest)):
            if fewest > spares:
                rank += len(bucket)
                continue
            if not self._sorted[i]:
                self._sorted[i] = True
                covered = self._covered
                bucket[:] = [(witness_vertices(covered, u, v), eid, c)
                             for eid, u, v, c in map(self._edges.__getitem__, bucket)]
                bucket.sort()
            for rank, (vertices, eid, c) in enumerate(bucket, rank + 1):
                yield rank, make(Violation, (kind, eid, c, vertices))

    def __repr__(self) -> str:
        return f"RankedViolations({list(self)!r})"


def find_violations(matching: RainbowMatching, hierarchy: Hierarchy) -> RankedViolations:
    """All violations, as a :class:`RankedViolations` in its rank order:
    counted now, sorted and built as they are iterated.  ``hierarchy`` must
    be built on ``matching``.

    Every ``reach_free`` and ``free_free`` violation has a free endpoint, so
    these are read from the edges at the free vertices, a free-free edge
    from its lower endpoint only.  Only ``reach_reach`` joins two heads: the
    reachable colour classes are scanned for it.  Candidates are kept by
    kind as edge ids, and each kind's fewest :func:`chain_switches` is
    recorded.  Raises ValueError, naming the edge, when an unused-colour
    edge joins two free vertices: ``matching`` is not maximal.
    """
    graph = matching.graph
    edges = graph.edges
    covered = matching.covered
    used = matching.colours
    heads = hierarchy.by_head
    reach = hierarchy.by_colour
    reach_free, reach_reach, free_free = buckets = [], [], []
    # a reach_free and a reach_reach candidate with an endpoint at its own
    # colour's head, which only an improper colouring has: its chain makes
    # one switch fewer than any other candidate of its kind
    own_free = own_reach = None
    for x in free_vertices(matching):
        for eid in graph.edges_at(x):
            _, u, v, c = edges[eid]
            y = v if u == x else u
            if y in covered:
                if y in heads and c in reach:
                    reach_free.append(eid)
                    if y == reach[c].head:
                        own_free = eid
            elif x < y:  # both ends free, and not a loop
                if c not in used:
                    raise ValueError(
                        f"edge {eid} ({u}-{v}, colour {c}) joins two free vertices "
                        "in a colour the matching does not use: it is not maximal")
                if c in reach:
                    free_free.append(eid)
    for c, le in reach.items():
        own = le.head
        for eid in graph.edges_with_colour(c):
            _, u, v, _ = edges[eid]
            if u in heads and v in heads and u != v:
                reach_reach.append(eid)
                if u == own or v == own:
                    own_reach = eid
    fewest = []
    for bucket, own in ((reach_free, own_free), (reach_reach, own_reach),
                        (free_free, None)):
        if not bucket:
            fewest.append(0)  # nothing to pass over
            continue
        _, u, v, c = edges[bucket[0] if own is None else own]
        fewest.append(chain_switches(hierarchy, c, (u, v)))
    return RankedViolations(buckets, tuple(fewest), edges, covered)


def counting_diagnostics(matching: RainbowMatching, hierarchy: Hierarchy,
                         params: InstanceParams) -> dict:
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

    graph = matching.graph
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
