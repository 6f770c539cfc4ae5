"""Rainbow matchings: immutable edge sets, greedy construction, verification.

A rainbow matching is a set of edges that are pairwise vertex-disjoint and
pairwise differently coloured.  :class:`RainbowMatching` is a value object:
every mutation produces a new instance, which keeps the switching engine's
backtracking trivial.  :meth:`RainbowMatching.with_swap` pays only for the
delta, including the distance to the start of its swap chain, so
:meth:`~RainbowMatching.distance_to` that start, and :func:`closeness`, is
O(1) instead of O(k).

A matching is its three read sets, each a plain attribute: ``edge_ids``
(is this edge in M), ``covered`` (is this vertex covered) and ``colours``
(is this colour used).  ``edge_ids`` is a frozenset; ``covered`` and
``colours`` are plain sets that no caller may change, since a swap chain
copies and patches them.

Every :class:`RainbowMatching` is a rainbow matching of its graph: the
constructor, :meth:`~RainbowMatching.with_swap` and the greedy passes raise
ValueError rather than make anything else.  Untrusted edge ids are checked as
ids by :func:`verify`, which names each violation instead of raising.

A matching built by a greedy pass (:func:`greedy`, :func:`extend_to_maximal`)
records that it is maximal.  :func:`extend_to_maximal` returns such a matching
as it is, and extends a ``with_swap`` descendant of one by passing only over
the edges at the vertices, and of the colours, that the root used and the
descendant does not: every other edge is still blocked.  Anything else takes
the full pass over every edge.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

from .multigraph import ColouredMultigraph, Issue


class RainbowMatching:
    """An immutable rainbow matching of one graph, held as its edge ids.

    The constructor raises TypeError for an id that is not an ``int`` (a bool
    is not), and ValueError naming the first :func:`verify` issue of ids that
    are not a rainbow matching of ``graph``; repeated ids collapse.

    ``edge_ids`` is a frozenset, ``covered`` (the endpoints of its edges) and
    ``colours`` (their colours) read-only sets.  A matching made by
    :meth:`with_swap` remembers the root of its swap chain (the first matching
    not made by ``with_swap``) and its distance to it.  One made by a greedy
    pass remembers that it is maximal.
    """

    __slots__ = ("graph", "edge_ids", "covered", "colours",
                 "_sorted", "_root", "_dist", "_maximal")

    def __init__(self, graph: ColouredMultigraph, edge_ids=()):
        edge_ids = tuple(edge_ids)
        for i in edge_ids:
            if type(i) is not int:
                raise TypeError(f"edge id {i!r} is not an int")
        issues = verify(graph, edge_ids)
        if issues:
            raise ValueError("not rainbow: " + issues[0].detail)
        self.graph = graph
        self.edge_ids = frozenset(edge_ids)
        self._sorted = tuple(sorted(self.edge_ids))
        self._root = None
        self._dist = 0
        self._maximal = False
        mine = [graph.edges[i] for i in self._sorted]
        self.covered = {x for e in mine for x in (e.u, e.v)}
        self.colours = {e.colour for e in mine}

    @classmethod
    def _from_sets(cls, graph, edge_ids, covered, colours) -> "RainbowMatching":
        """A rainbow matching from read sets the caller built; no root, not
        maximal."""
        out = cls.__new__(cls)
        out.graph = graph
        out.edge_ids = edge_ids
        out.covered = covered
        out.colours = colours
        out._sorted = None
        out._root = None
        out._dist = 0
        out._maximal = False
        return out

    def __len__(self) -> int:
        return len(self.edge_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_ids)

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self.edge_ids

    def __eq__(self, other) -> bool:
        return (isinstance(other, RainbowMatching)
                and self.graph is other.graph
                and self.edge_ids == other.edge_ids)

    def __hash__(self) -> int:
        return hash(self.edge_ids)

    def distance_to(self, other: "RainbowMatching") -> int:
        """The size of the symmetric difference with ``other``, a matching of
        the same graph (else ValueError).  O(1) when ``other`` is this
        matching or the root of its swap chain; otherwise O(k)."""
        if self._root is other:
            return self._dist
        if self is other:
            return 0
        if self.graph is not other.graph:
            raise ValueError("matchings belong to different graphs")
        return len(self.edge_ids ^ other.edge_ids)

    @property
    def sorted_ids(self) -> tuple[int, ...]:
        """The edge ids in ascending order, sorted once per matching."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.edge_ids))
        return self._sorted

    def with_swap(self, removed=(), added=()) -> "RainbowMatching":
        """A new rainbow matching with ``removed`` taken out and ``added`` put
        in, its read sets and its distance to the chain root patched by the
        delta.

        Every id must be an ``int`` (a bool is not), else TypeError, checked
        before anything else.  Every removed id must be present and every
        added id absent.  Raises ValueError if the result would not be rainbow
        (an added id outside the graph, a loop, a colour or vertex in use);
        this matching is left as it was.
        """
        rem = tuple(removed)
        add = tuple(added)
        for i in rem + add:
            if type(i) is not int:
                raise TypeError(f"edge id {i!r} is not an int")
        rem = frozenset(rem)
        add = frozenset(add)
        if not rem <= self.edge_ids:
            raise ValueError(f"cannot remove absent edges {sorted(rem - self.edge_ids)}")
        if add & self.edge_ids:
            raise ValueError(f"cannot add present edges {sorted(add & self.edge_ids)}")
        edges = self.graph.edges
        covered = self.covered.copy()
        colours = self.colours.copy()
        for i in rem:
            _, u, v, c = edges[i]
            colours.remove(c)
            covered.remove(u)
            covered.remove(v)
        for i in add:
            if not (0 <= i < len(edges)):
                raise ValueError(f"cannot add edge {i}: not an edge of the graph")
            _, u, v, c = edges[i]
            if u == v or c in colours or u in covered or v in covered:
                raise ValueError(f"cannot add edge {i} ({u}-{v}, colour {c}): "
                                 "a loop, or its colour or a vertex is in use")
            colours.add(c)
            covered.add(u)
            covered.add(v)
        out = RainbowMatching._from_sets(self.graph, (self.edge_ids - rem) | add,
                                         covered, colours)
        # every removed id was in self and every added id was not, so each
        # moves the distance to the root by one: closer where the root agrees
        root = self if self._root is None else self._root
        root_ids = root.edge_ids
        out._root = root
        out._dist = (self._dist + len(rem) + len(add)
                     - 2 * (len(rem - root_ids) + len(add & root_ids)))
        return out

    def __repr__(self) -> str:
        return f"RainbowMatching({list(self.sorted_ids)})"


class Closeness(NamedTuple):
    """Symmetric-difference distance between two matchings of one graph."""

    distance: int
    size_equal: bool

    def within(self, budget: int) -> bool:
        return self.size_equal and self.distance <= budget


def closeness(a: RainbowMatching, b: RainbowMatching) -> Closeness:
    """Distance and size agreement of ``a`` and ``b``.

    O(1) when ``b`` is ``a`` or descends from it by :meth:`with_swap`;
    otherwise O(k) through the symmetric difference, as
    :meth:`RainbowMatching.distance_to` reads it."""
    return Closeness(b.distance_to(a), len(a.edge_ids) == len(b.edge_ids))


def verify(graph: ColouredMultigraph, edge_ids) -> list[Issue]:
    """Report every way the set of int ``edge_ids`` (a :class:`RainbowMatching`
    included) fails to be a rainbow matching of ``graph``: unknown edge ids,
    loops, repeated colours, shared vertices."""
    issues: list[Issue] = []
    by_colour: dict[int, list[int]] = {}
    by_vertex: dict[int, list[int]] = {}
    for i in sorted(set(edge_ids)):
        if not (0 <= i < graph.num_edges):
            issues.append(Issue("unknown_edge", f"edge id {i} not in graph",
                                edge_ids=(i,)))
            continue
        e = graph.edge(i)
        if e.u == e.v:
            issues.append(Issue("loop", f"edge {i} is a loop at vertex {e.u}",
                                edge_ids=(i,), vertex=e.u))
        by_colour.setdefault(e.colour, []).append(i)
        by_vertex.setdefault(e.u, []).append(i)
        if e.v != e.u:
            by_vertex.setdefault(e.v, []).append(i)
    for c, ids in sorted(by_colour.items()):
        if len(ids) > 1:
            issues.append(Issue("colour_clash",
                                f"colour {c} used by edges {ids}",
                                edge_ids=tuple(ids), colour=c))
    for v, ids in sorted(by_vertex.items()):
        if len(ids) > 1:
            issues.append(Issue("vertex_clash",
                                f"vertex {v} covered by edges {ids}",
                                edge_ids=tuple(ids), vertex=v))
    return issues


def greedy(graph: ColouredMultigraph, seed: int = 0) -> RainbowMatching:
    """Seeded greedy pass over a shuffled edge order.

    One full pass accepting every compatible edge, so the result is maximal:
    no remaining edge has both endpoints free and an unused colour.
    """
    order = list(range(graph.num_edges))
    # ``random.Random(seed).shuffle(order)`` drawn as CPython draws it: for
    # each i from the end down to 1, a swap with ``_randbelow(i + 1)``, which
    # draws ``k``-bit words until one is at most i, where k is the bit
    # length of i + 1; inlined because the calls cost more than the swaps,
    # and walked one k at a time, over the i from 2**k - 2 down to
    # 2**(k-1) - 1
    getrandbits = random.Random(seed).getrandbits
    n = len(order)
    for k in range(n.bit_length(), 1, -1):
        for i in range(min(n - 1, (1 << k) - 2), (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
    return _greedy_pass(graph, order, RainbowMatching(graph))


def extend_to_maximal(matching: RainbowMatching) -> RainbowMatching:
    """Add compatible edges of the matching's graph in id order until no
    more fit.

    The cost depends on what is known about ``matching``.  A maximal matching
    (one a greedy pass built) is returned as it is.  A
    :meth:`~RainbowMatching.with_swap` descendant of one pays only for the
    delta: the pass reads just the edges at the vertices, and of the colours,
    that its root used and it does not, since a vertex or colour it still
    uses blocks every other edge.  Anything else takes the full pass over
    every edge.  The result is the same either way.
    """
    if matching._maximal:
        return matching
    graph = matching.graph
    root = matching._root
    if root is not None and root._maximal:
        freed = set()
        for x in root.covered - matching.covered:
            freed.update(graph.edges_at(x))
        for c in root.colours - matching.colours:
            freed.update(graph.edges_with_colour(c))
        return _greedy_pass(graph, sorted(freed), matching)
    return _greedy_pass(graph, range(graph.num_edges), matching)


def _greedy_pass(graph, order, start: RainbowMatching) -> RainbowMatching:
    """The rainbow matching ``start`` plus every edge of ``order``, in that
    order, that no vertex or colour used so far blocks; maximal, since
    ``order`` holds every edge that ``start`` does not block.  Its
    ``covered`` and ``colours`` are patched copies of ``start``'s, which equal
    a fresh build's: each added edge brings a new colour and two new
    vertices."""
    edges = graph.edges
    covered = start.covered.copy()
    colours = start.colours.copy()
    added = []
    for i in order:
        _, u, v, c = edges[i]
        if u == v or c in colours or u in covered or v in covered:
            continue
        added.append(i)
        colours.add(c)
        covered.add(u)
        covered.add(v)
    out = RainbowMatching._from_sets(graph, start.edge_ids.union(added),
                                     covered, colours)
    out._maximal = True
    return out


def free_vertices(matching: RainbowMatching) -> list[int]:
    """The vertices that have an edge and that ``matching`` does not cover,
    in the graph's vertex-index order; a header's vertex count costs
    nothing."""
    covered = matching.covered
    return [x for x in matching.graph.vertices_with_edges() if x not in covered]


def external_edges(matching: RainbowMatching, colours) -> list[int]:
    """Edge ids of the matching's graph with exactly one endpoint covered and
    colour in ``colours``, sorted by id: the external edges, the one place
    that rule is written.  Each has exactly one free endpoint, so they are
    read from the edges at the free vertices; a loop is never external."""
    covered = matching.covered
    edges = matching.graph.edges
    edges_at = matching.graph.edges_at
    wanted = set(colours)
    out = []
    for x in free_vertices(matching):
        for eid in edges_at(x):
            _, u, v, c = edges[eid]
            if c in wanted and (u in covered) != (v in covered):
                out.append(eid)
    out.sort()
    return out


# -- JSON form ----------------------------------------------------------------

def matching_to_json(matching: RainbowMatching) -> dict:
    edges = []
    for i in matching.sorted_ids:
        e = matching.graph.edge(i)
        edges.append({"u": e.u, "v": e.v, "colour": e.colour, "edge_id": e.id})
    return {"size": len(matching), "edges": edges}


def document_ids(doc: dict) -> list[int]:
    """The edge ids that a matching's JSON form lists, in order, repeats
    included, for :func:`document_issues` and :func:`verify` to check.  A
    missing field, an ``edges`` that is not a list, an item of it that is not
    an object, or an id that is not an integer (a float, a bool, a string,
    null) makes the document malformed."""
    try:
        items = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matching document: {exc}") from None
    if not isinstance(items, list):
        raise ValueError("malformed matching document: 'edges' is not a list")
    ids = []
    for n, item in enumerate(items):
        if not isinstance(item, dict):
            raise ValueError(f"malformed matching document: item {n} of 'edges' "
                             "is not an object")
        if "edge_id" not in item:
            raise ValueError("malformed matching document: 'edge_id'")
        ids.append(item["edge_id"])
    for i in ids:
        if type(i) is not int:
            raise ValueError(f"malformed matching document: edge id {i!r} "
                             "is not an integer")
    return ids


def matching_from_json(graph: ColouredMultigraph, doc: dict) -> RainbowMatching:
    """The rainbow matching that a JSON form lists; raises ValueError on a
    malformed document or ids that are not a rainbow matching of ``graph``."""
    return RainbowMatching(graph, document_ids(doc))


def document_issues(graph: ColouredMultigraph, doc: dict) -> list[Issue]:
    """Report every way a document that :func:`document_ids` reads
    disagrees with itself or with ``graph``: an edge listed more than once,
    an edge whose ``u``, ``v`` or ``colour`` differ from the graph's edge of
    that id (either endpoint order), a ``size`` other than the number of
    edges listed.  Fields left out are not checked; ids outside the graph
    are left to :func:`verify`."""
    items = doc["edges"]
    listed = Counter(item["edge_id"] for item in items)
    issues = [Issue("duplicate_edge", f"edge {i} listed {times} times", edge_ids=(i,))
              for i, times in sorted(listed.items()) if times > 1]
    for item in items:
        i = item["edge_id"]
        if not (0 <= i < graph.num_edges):
            continue
        e = graph.edge(i)
        u, v, colour = item.get("u", e.u), item.get("v", e.v), item.get("colour", e.colour)
        if (type(u) is not int or type(v) is not int or type(colour) is not int
                or {u, v} != {e.u, e.v} or colour != e.colour):
            issues.append(Issue(
                "edge_mismatch", f"edge {i} is {e.u}-{e.v} colour {e.colour}, "
                f"listed as {u!r}-{v!r} colour {colour!r}", edge_ids=(i,)))
    size = doc.get("size", len(items))
    if type(size) is not int or size != len(items):
        issues.append(Issue("size_mismatch",
                            f"size {size!r} but {len(items)} edges listed"))
    return issues
