"""Properly edge-coloured multigraphs and instance hygiene checks.

The central object is :class:`ColouredMultigraph`: an immutable multigraph on
vertices ``0..V-1`` whose edges each carry a colour in ``0..C-1``.  Parallel
edges are allowed and kept distinct through dense integer edge ids.
Construction is permissive about colouring defects (loops, repeated colours at
a vertex) so that broken instances can still be loaded and reported on;
:func:`validate` names every defect instead of raising.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple

logger = logging.getLogger(__name__)


class Edge(NamedTuple):
    """A single coloured edge; ``id`` is its position in the instance.

    A named tuple: immutable, and equal and hashed as its field tuple.
    """

    id: int
    u: int
    v: int
    colour: int

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} not an endpoint of edge {self.id}")


@dataclass(frozen=True)
class Issue:
    """One defect found by a checking routine.

    ``kind`` is a short machine-readable tag; ``detail`` is for humans.
    Location fields are filled where they make sense and left None elsewhere.
    """

    kind: str
    detail: str
    edge_ids: tuple[int, ...] = ()
    vertex: int | None = None
    colour: int | None = None


class ColouredMultigraph:
    """Immutable edge-coloured multigraph with dense edge ids.

    Vertex and colour ids must be in range (enforced here, since out-of-range
    ids cannot be indexed); properness and loop-freeness are *not* enforced,
    see :func:`validate`.
    """

    __slots__ = ("num_vertices", "num_colours", "edges", "_by_colour", "_by_vertex")

    def __init__(self, num_vertices: int, num_colours: int,
                 edges: list[tuple[int, int, int]] | tuple[tuple[int, int, int], ...]):
        if num_vertices < 0 or num_colours < 0:
            raise ValueError("vertex and colour counts must be non-negative")
        built = []
        by_colour: defaultdict[int, list[int]] = defaultdict(list)
        by_vertex: defaultdict[int, list[int]] = defaultdict(list)
        make = tuple.__new__  # Edge's own __new__ adds a Python call per edge
        for i, (u, v, c) in enumerate(edges):
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge {i}: endpoint out of range for V={num_vertices}")
            if not (0 <= c < num_colours):
                raise ValueError(f"edge {i}: colour {c} out of range for C={num_colours}")
            built.append(make(Edge, (i, u, v, c)))
            by_colour[c].append(i)
            by_vertex[u].append(i)
            if v != u:
                by_vertex[v].append(i)
        self.num_vertices = num_vertices
        self.num_colours = num_colours
        self.edges = tuple(built)
        self._by_colour = {c: tuple(ids) for c, ids in by_colour.items()}
        self._by_vertex = {v: tuple(ids) for v, ids in by_vertex.items()}

    # -- basic accessors ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge(self, edge_id: int) -> Edge:
        return self.edges[edge_id]

    def edges_with_colour(self, colour: int) -> tuple[int, ...]:
        return self._by_colour.get(colour, ())

    def colours_with_edges(self):
        """The colours with at least one edge, a read-only view of the colour
        index: a scan costs the number of such colours, not C."""
        return self._by_colour.keys()

    def colour_class_size(self, colour: int) -> int:
        return len(self._by_colour.get(colour, ()))

    def edges_at(self, vertex: int) -> tuple[int, ...]:
        return self._by_vertex.get(vertex, ())

    def __repr__(self) -> str:
        return (f"ColouredMultigraph(V={self.num_vertices}, "
                f"C={self.num_colours}, E={self.num_edges})")


def validate(graph: ColouredMultigraph) -> list[Issue]:
    """Report every structural defect of the colouring: the loops in edge
    order, then each vertex carrying two or more edges of one colour
    (parallel edges included) by vertex and colour.  One pass over the edges;
    a clean proper instance yields an empty list.
    """
    loops: list[Issue] = []
    at: dict[tuple[int, int], list[int]] = {}  # edge ids by (vertex, colour)
    for i, u, v, c in graph.edges:
        if u == v:
            loops.append(Issue("loop", f"edge {i} is a loop at vertex {u}",
                               edge_ids=(i,), vertex=u))
        else:
            at.setdefault((v, c), []).append(i)
        at.setdefault((u, c), []).append(i)
    return loops + [Issue("colour_clash",
                          f"vertex {v} carries {len(ids)} edges of colour {c}",
                          edge_ids=tuple(ids), vertex=v, colour=c)
                    for (v, c), ids in sorted(at.items()) if len(ids) > 1]


def as_fraction(x) -> Fraction:
    """Coerce a user-supplied ratio to an exact Fraction.

    Floats go through their decimal literal (``0.1`` means 1/10), strings may
    be decimals or ``p/q``; a zero ``q`` raises ValueError like any other
    unreadable ratio.
    """
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(str(x) if isinstance(x, float) else x)
    except ZeroDivisionError:
        raise ValueError(f"ratio {x!r} has a zero denominator") from None


@dataclass(frozen=True)
class InstanceParams:
    """Density parameters an instance is checked against.

    ``alpha`` defaults to ``epsilon/12``; larger values are legal but flagged,
    since the structural guarantees degrade past that point.
    ``min_colour_count`` defaults to ``ceil((1+epsilon) * C)`` for a graph with
    C colours and ``multiplicity_cap`` to ``max(1, floor(C/16))``.
    """

    epsilon: Fraction
    alpha: Fraction
    min_colour_count: int
    multiplicity_cap: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.alpha_exceeds_recommended:
            logger.warning("alpha=%s exceeds epsilon/12=%s; structural bounds "
                           "are not guaranteed", self.alpha, self.epsilon / 12)

    @property
    def alpha_exceeds_recommended(self) -> bool:
        return self.alpha > self.epsilon / 12

    @classmethod
    def for_graph(cls, graph: ColouredMultigraph, epsilon="1/2",
                  alpha=None) -> "InstanceParams":
        return cls.for_colours(graph.num_colours, epsilon, alpha)

    @classmethod
    def for_colours(cls, num_colours: int, epsilon="1/2",
                    alpha=None) -> "InstanceParams":
        """The defaults for any graph with ``num_colours`` colours."""
        eps = as_fraction(epsilon)
        a = eps / 12 if alpha is None else as_fraction(alpha)
        return cls(eps, a, ceil((1 + eps) * num_colours),
                   max(1, floor(Fraction(num_colours, 16))))


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of checking an instance against density hypotheses."""

    issues: tuple[Issue, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the instance meets every hypothesis."""
        return not self.issues


def hypothesis_check(graph: ColouredMultigraph, params: InstanceParams) -> HypothesisReport:
    """Check properness plus the density hypotheses in ``params``.

    Requires: proper colouring, every colour class at least
    ``min_colour_count`` edges, and every vertex pair joined by at most
    ``multiplicity_cap`` parallel edges.  The issues come in that order:
    :func:`validate`'s, each short colour class that has an edge by colour,
    one issue for every empty class together (``colour`` is the first), and
    each pair over the cap.  Only the colours with an edge are read, so a
    header's colour count costs nothing.
    """
    issues = validate(graph)
    need = params.min_colour_count
    present = sorted(graph.colours_with_edges())
    for c in present:
        size = graph.colour_class_size(c)
        if size < need:
            issues.append(Issue("colour_count",
                                f"colour {c} has {size} edges, needs >= {need}",
                                colour=c))
    empty = graph.num_colours - len(present)
    if empty and need > 0:
        # the first colour missing from 0, 1, ...: the first i with
        # present[i] != i, else the one after the last present colour
        first = next((i for i, c in enumerate(present) if c != i), len(present))
        issues.append(Issue(
            "colour_count",
            f"no edges in {empty} of {graph.num_colours} colours, "
            f"need >= {need}; the first is colour {first}",
            colour=first))
    cap = params.multiplicity_cap
    pairs = Counter((u, v) if u <= v else (v, u) for _, u, v, _ in graph.edges)
    for (u, v), n in sorted(pairs.items()):
        if n > cap:
            issues.append(Issue(
                "multiplicity",
                f"pair ({u},{v}) joined by {n} edges, cap is {cap}",
                vertex=u))
    return HypothesisReport(tuple(issues))


# -- text format ------------------------------------------------------------
#
# Header line "V C", then one "u v c" line per edge in id order.  '#' starts
# a comment, blank lines are skipped.  Repeated "u v c" lines are distinct
# parallel edges.

def loads(text: str) -> ColouredMultigraph:
    """Parse an instance from its text form; raises ValueError with the
    offending line number on malformed input."""
    header: tuple[int, ...] | None = None
    triples: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        try:
            row = tuple(map(int, parts))
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected integers, got {line.strip()!r}") from None
        if header is not None:
            if len(row) != 3:
                raise ValueError(f"line {lineno}: edge line must be 'u v c'")
            triples.append(row)
        elif len(row) == 2:
            header = row
        else:
            raise ValueError(f"line {lineno}: header must be 'V C'")
    if header is None:
        raise ValueError("missing 'V C' header line")
    try:
        return ColouredMultigraph(header[0], header[1], triples)
    except ValueError as exc:
        raise ValueError(str(exc)) from None


def dumps(graph: ColouredMultigraph) -> str:
    lines = [f"{graph.num_vertices} {graph.num_colours}"]
    lines.extend(f"{e.u} {e.v} {e.colour}" for e in graph.edges)
    return "\n".join(lines) + "\n"


def load(path) -> ColouredMultigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def save(graph: ColouredMultigraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(graph))
