"""Robust switching, augmentation recipes, and the solve loop.

A switch request asks: starting from a matching close to the iteration base,
free a given colour and its designated head while keeping named edges, never
touching named vertices or colours.  Level-1 colours are freed directly by a
four-edge exchange built from a good flexible-coloured edge and an external
unused-colour edge; higher levels recurse through lower levels first.  A
switch reads its options, and the order it tries them in, from the context
alone (:class:`SwitchContext`), which builds a level edge's options on the
first switch of its colour: a level-1 edge's base pairs, a higher edge's
lifts and descends, read off the certificate that placed it.  Every produced
matching stays within ``budget + closeness_slack(level)`` of the base, which
keeps chains composable.

Every multi-switch move is one chain (:func:`_chain`): requests served in
order, each starting from the previous result with the previous distance to
base as its budget.  An augmentation (:func:`augment`) is a chain from the
base that frees each endpoint of the violating edge that is a reachable
head, then the edge's colour and its own head, and adds the edge.  A
higher-level switch is a chain one level down: a lift frees one lower
colour, a descend two, then one exchange moves the switched edge onto the
certifying edge.  The solve loop is greedy construction followed by
repeated find-violations / augment rounds until the target size is reached
or no recipe lands.  :func:`find_violations` returns a
lazily ranked :class:`~rainbowmatch.reachability.RankedViolations`: a round
pays for the violations it tries, not for every one it counts.

Each successful call makes one elementary exchange and is asserted against
its contract as it returns; its :class:`SwitchOutcome` is the one record of
that call, holding the outcomes of the calls under it.  ``solve`` turns only
the landed augmentations' calls into records (:class:`CallRecord`), one per
exchange; a caller that wants every call wraps the module-global
:func:`robust_switch`.

A context builds each exchange's matching once
(:meth:`SwitchContext.exchange`): the stall proof repeats the same exchanges
from value-equal chain states under other constraints, and such a repeat gets
back the matching built the first time.  Its call still runs every check and
its candidate scan.

A chain that needs more spare colours than the base leaves unused is cut
short, at the top before its first switch call and inside a switch before
the candidates it cannot afford.  Let U = C - |M| be the number of colours
the base does not use, which a plain context holds as
:attr:`SwitchContext.spares`.

- Every exchange removes base edges only: level edges and flexible partners.
  Their colours are used by the base, so no chain ever frees a colour that
  the base leaves unused.
- Every level-1 exchange adds an edge of a ``spare`` colour, one that the
  base does not use and the current matching does not use yet.  So a chain
  makes at most U level-1 exchanges.
- Every served switch makes at least one level-1 exchange: a lift serves
  one lower switch and a descend two.

A chain of k switches therefore lands only if k <= U, and :func:`augment`
returns ``NotFound("too_few_spares", {})`` for one that asks more.  The solve
loop applies the same bound a bucket at a time: each violation bucket knows
the fewest switches its chains make
(:func:`~rainbowmatch.reachability.chain_switches`), and a round passes over
a bucket whose fewest exceeds U without sorting it, building its violations
or calling :func:`augment`; they still count as tried.

Nested chains apply it per request.  :func:`_chain` gives each request a
``reserve``: the number of requests after it in the same chain, each of
which needs a spare colour of its own.  A level >= 2 switch has
``left = U - (colours of current that the base does not use) - reserve``
spare colours for itself; it passes over every lift when ``left < 1`` and
every descend when ``left < 2``, counting each as ``too_few_spares`` among
its rejections.  A candidate passed over could land only by leaving a later
request of the same chain without a spare colour, so that chain fails
either way and the caller's next step is the same.  The calls a candidate
makes get the reserve of their own chain, 0 for a lift's one request and 1
then 0 for a descend's two, never the parent's: a switch returns its first
success, and a bound that counted requests outside it could make a switch
inside a candidate pass over that success for a later one that the full
search never reaches, which would change the output.

A shuffled context (``rng``) differs from a plain one in two members
only, both decided once in the context: its ``spares`` are unbounded, so
neither bound ever applies and every chain runs, which keeps its draws, and
with them its output, those of the full search; and its
:meth:`SwitchContext.order` shuffles each switch's candidates.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple

# ``closeness`` is not called here; it stays bound in this namespace because
# the benchmark's tracer patches ``switching.closeness`` by name
from .matching import (RainbowMatching, closeness, extend_to_maximal, greedy,  # noqa: F401
                       matching_to_json)
from .multigraph import ColouredMultigraph, InstanceParams
from .reachability import (FlexibleStructure, Hierarchy, LevelEdge, RankedViolations,
                           base_pairs, build_hierarchy, certificate, classify_good_bad,
                           compute_flexible, find_violations, witness_vertices)

logger = logging.getLogger(__name__)

DEFAULT_MAX_BUDGET = 64  # the cap on a switch's distance to the iteration base

_EMPTY = frozenset()  # one shared empty set for the requests augment builds


def closeness_slack(level: int) -> int:
    """Worst-case growth of distance-to-base for one switch at ``level``.

    A level-1 switch exchanges two edges out, two in (distance 4); each level
    above doubles the sub-chain and adds its own exchange, giving
    slack(i) = 2 * slack(i-1) + 2 = 3 * 2^i - 2.
    """
    if level < 1:
        raise ValueError("levels start at 1")
    return 3 * (1 << level) - 2


class SwitchUsageError(ValueError):
    """The request itself is malformed (caller bug), as opposed to a search
    that came up empty, which is reported as :class:`NotFound`."""


class _SwitchRequestFields(NamedTuple):
    colour: int
    vertex: int
    budget: int = 0
    fix: frozenset[int] = frozenset()
    avoid_vertices: frozenset[int] = frozenset()
    avoid_colours: frozenset[int] = frozenset()


class SwitchRequest(_SwitchRequestFields):
    """Free ``colour`` and its designated head ``vertex``.

    ``budget`` promises how far the current matching already is from the
    context base; ``fix`` edges must survive, ``avoid_vertices`` and
    ``avoid_colours`` must stay untouched.  Set sizes are capped by
    2 * (m - level + 1) for the colour's level.

    An immutable named tuple (one is built per switch call); the constructor
    coerces the three set fields to frozensets.  A chain, whose sets already
    are frozensets, builds the tuple directly.
    """

    __slots__ = ()

    def __new__(cls, colour: int, vertex: int, budget: int = 0,
                fix=frozenset(), avoid_vertices=frozenset(), avoid_colours=frozenset()):
        if type(fix) is not frozenset:
            fix = frozenset(fix)
        if type(avoid_vertices) is not frozenset:
            avoid_vertices = frozenset(avoid_vertices)
        if type(avoid_colours) is not frozenset:
            avoid_colours = frozenset(avoid_colours)
        return tuple.__new__(cls, (colour, vertex, budget, fix, avoid_vertices,
                                   avoid_colours))

    @classmethod
    def _make(cls, iterable) -> "SwitchRequest":
        # ``_replace`` builds through here, so it coerces too
        return cls(*iterable)


class CallRecord(NamedTuple):
    """A successful switch call with everything needed to re-check its
    contract afterwards, as plain sorted ids.  The id tuples are shared with
    the matchings' sorted ids, never copied."""

    colour: int
    vertex: int
    level: int
    budget: int
    fix: tuple[int, ...]
    avoid_vertices: tuple[int, ...]
    avoid_colours: tuple[int, ...]
    base_ids: tuple[int, ...]
    start_ids: tuple[int, ...]
    result_ids: tuple[int, ...]
    distance_to_base: int

    @classmethod
    def from_call(cls, base: RainbowMatching, call: "SwitchOutcome") -> "CallRecord":
        """The record of ``call``, made in a context whose base is ``base``."""
        colour, vertex, budget, fix, avoid_vertices, avoid_colours = call.request
        return cls(colour, vertex, call.level, budget, tuple(sorted(fix)),
                   tuple(sorted(avoid_vertices)), tuple(sorted(avoid_colours)),
                   base.sorted_ids, call.start.sorted_ids, call.matching.sorted_ids,
                   call.distance_to_base)


class SwitchOutcome(NamedTuple):
    """A served request at recursion ``depth``, the one record of its call:
    references only, nothing sorted or copied.  :meth:`CallRecord.from_call`
    makes a plain record of it.

    ``case`` is ``"base"`` (level 1), ``"lift"`` (into a free vertex) or
    ``"descend"`` (into a lower head).  The exchange takes the ``removed``
    edge ids, the level edge of the request's colour first, out of ``start``
    (base) or of the last result under it (lift, descend) and puts the
    ``added`` ones in, giving ``matching``.  ``rejections`` counts, over the
    candidates this call passed over, the first filter each failed;
    ``under`` holds the outcomes of the calls it made, in the order served."""

    request: SwitchRequest
    level: int
    start: RainbowMatching
    matching: RainbowMatching
    distance_to_base: int
    depth: int
    case: str
    removed: tuple[int, ...]
    added: tuple[int, ...]
    rejections: dict[str, int]
    under: tuple["SwitchOutcome", ...]

    @property
    def calls(self) -> list["SwitchOutcome"]:
        """This call and every call under it in post-order: a call after
        the calls under it, so this one comes last."""
        out = []
        for sub in self.under:
            out += sub.calls
        out.append(self)
        return out


@dataclass(slots=True)
class NotFound:
    """No admissible configuration; ``rejections`` counts the first filter
    each candidate failed."""

    reason: str
    rejections: dict[str, int]


@dataclass
class SwitchContext:
    """Everything the engine needs about one base matching, read from the
    graph that the base carries, and the one place that reads ``rng``.

    The constants the engine reads are computed once: ``m``, the hierarchy
    depth, and ``size``, the base size, which every switch call reads, and
    ``spares``, which bounds the spare colours of one augmentation: C - |M|,
    the number of colours the base does not use, or unbounded when the
    context shuffles (see the module docstring).  :meth:`order` gives each
    switch its candidates, shuffled when the context shuffles.  ``options``
    holds every level edge's switch options that a switch has read, by edge
    id (:meth:`options_of`), and ``built`` every matching that
    :meth:`exchange` has built, keyed by the value of the exchange:
    ``(start edge ids, removed, added)``."""

    base: RainbowMatching
    flex: FlexibleStructure
    hierarchy: Hierarchy
    good_at: dict[int, tuple[int, ...]] = field(repr=False, kw_only=True)
    max_budget: int = DEFAULT_MAX_BUDGET
    rng: random.Random | None = None
    m: int = field(init=False, repr=False)
    size: int = field(init=False, repr=False)
    spares: int | float = field(init=False, repr=False)
    options: dict[int, tuple] = field(default_factory=dict, init=False, repr=False)
    built: dict[tuple, RainbowMatching] = field(default_factory=dict, init=False,
                                                repr=False)

    def __post_init__(self):
        if self.max_budget < 0:
            raise ValueError(f"max_budget must not be negative: {self.max_budget}")
        self.m = len(self.hierarchy.levels)
        self.size = len(self.base.edge_ids)
        self.spares = self.base.graph.num_colours - self.size if self.rng is None else inf

    @classmethod
    def build(cls, matching: RainbowMatching, params: InstanceParams | None = None,
              max_budget: int = DEFAULT_MAX_BUDGET,
              rng: random.Random | None = None) -> "SwitchContext":
        if params is None:
            params = InstanceParams.for_graph(matching.graph)
        flex = compute_flexible(matching, params)
        good_at = classify_good_bad(matching, flex, params)
        hierarchy = build_hierarchy(matching, flex, good_at, params)
        return cls(matching, flex, hierarchy, good_at=good_at, max_budget=max_budget,
                   rng=rng)

    def violations(self) -> RankedViolations:
        return find_violations(self.base, self.hierarchy)

    def options_of(self, le: LevelEdge) -> tuple:
        """The options a switch has to free ``le``'s head, built on the first
        read and then kept in ``options``: a level-1 edge's
        :func:`~rainbowmatch.reachability.base_pairs`, from ``good_at``, and a
        higher edge's ``(lifts, descends)``, its
        :func:`~rainbowmatch.reachability.certificate` from level ``le.cert``
        split into free vertices and lower heads, each sorted."""
        out = self.options.get(le.edge_id)
        if out is None:
            graph, covered = self.base.graph, self.base.covered
            if le.level == 1:
                out = base_pairs(graph, self.flex, self.good_at, le.edge_id, le.tail)
            else:
                lifts, descends = [], []
                for t in certificate(graph, le.tail, self.hierarchy.levels[le.cert - 1].colours,
                                     covered, self.hierarchy.by_head, le.level):
                    (descends if t[0] in covered else lifts).append(t)
                out = tuple(sorted(lifts)), tuple(sorted(descends))
            self.options[le.edge_id] = out
        return out

    def order(self, candidates):
        """``candidates`` in the order a switch tries them: unchanged, or a
        shuffled copy when the context shuffles."""
        if self.rng is None:
            return candidates
        shuffled = list(candidates)
        self.rng.shuffle(shuffled)
        return shuffled

    def exchange(self, current: RainbowMatching, removed: tuple[int, ...],
                 added: tuple[int, ...]) -> RainbowMatching:
        """``current.with_swap(removed, added)``, built once per context.

        ``current`` must be a matching of the base's graph, as
        :func:`robust_switch` checks first.  Matchings are immutable, and
        every one that the engine passes here descends from the base, so an
        exchange repeated from a value-equal matching returns the matching
        built the first time: equal ids, read sets and distance to the base.
        An exchange that raises stores nothing.
        """
        key = (current.edge_ids, removed, added)
        out = self.built.get(key)
        if out is None:
            out = self.built[key] = current.with_swap(removed, added)
        return out


def robust_switch(ctx: SwitchContext, current: RainbowMatching,
                  request: SwitchRequest, depth: int = 0, *,
                  reserve: int = 0) -> SwitchOutcome | NotFound:
    """Serve ``request`` against ``current``, a matching within
    ``request.budget`` of ``ctx.base``.

    Returns a new matching of the same size with the requested colour unused
    and the requested head uncovered, or :class:`NotFound`.  Malformed
    requests raise :class:`SwitchUsageError`, as does a negative or non-int
    ``reserve``.

    ``reserve`` is the number of requests that come after this one in the
    chain that made it, each of which needs a spare colour of its own.  A
    level >= 2 switch passes over the lifts and descends that would leave
    fewer of the context's ``spares`` than that, counting each as
    ``too_few_spares`` (see the module docstring).  The calls it makes for
    a candidate get the reserve of their own chain, never this one.
    """
    colour, vertex, budget, fix, avoid_vertices, avoid_colours = request
    if current.graph is not ctx.base.graph:
        raise SwitchUsageError("current matching is of another graph than the base")
    le = ctx.hierarchy.by_colour.get(colour)
    if le is None:
        raise SwitchUsageError(f"colour {colour} is not reachable")
    if vertex != le.head:
        raise SwitchUsageError(
            f"vertex {vertex} is not the designated head of colour "
            f"{colour} (expected {le.head})")
    edge_ids = current.edge_ids
    if le.edge_id not in edge_ids:
        raise SwitchUsageError(f"edge {le.edge_id} for colour {colour} "
                               "has already left the matching")
    if le.edge_id in fix:
        raise SwitchUsageError("cannot fix the edge being switched out")
    if not fix <= edge_ids:
        raise SwitchUsageError("fix set contains edges outside the matching")
    covered = current.covered
    if not covered.isdisjoint(avoid_vertices):
        clash = avoid_vertices & covered
        raise SwitchUsageError(f"avoided vertices already covered: {sorted(clash)}")
    colours = current.colours
    if not colours.isdisjoint(avoid_colours):
        c = next(c for c in avoid_colours if c in colours)
        raise SwitchUsageError(f"avoided colour {c} already in use")
    level = le.level
    cap = 2 * (ctx.m - level + 1)
    if len(fix) > cap or len(avoid_vertices) > cap or len(avoid_colours) > cap:
        for name, group in (("fix", fix), ("avoid_vertices", avoid_vertices),
                            ("avoid_colours", avoid_colours)):
            if len(group) > cap:
                raise SwitchUsageError(f"{name} larger than {cap} at level {level}")
    base, size = ctx.base, ctx.size
    if len(edge_ids) != size:
        raise SwitchUsageError(f"current matching has {len(edge_ids)} edges, "
                               f"the base {size}")
    # the closeness contract, ``closeness(base, current).within(budget)``,
    # read in O(1) off the swap chain
    if current.distance_to(base) > budget:
        raise SwitchUsageError("current matching is farther from base than the budget")
    if depth > ctx.m:
        raise SwitchUsageError("recursion deeper than the hierarchy")
    if depth < 0:
        raise SwitchUsageError(f"negative recursion depth {depth}")
    if type(reserve) is not int or reserve < 0:
        raise SwitchUsageError(f"reserve {reserve!r} is not a non-negative int")

    slack = closeness_slack(level)
    if budget + slack > ctx.max_budget:
        return NotFound("budget_cap", {})

    if level == 1:
        out = _switch_base(ctx, current, request, le)
    else:
        out = _switch_inductive(ctx, current, request, le, depth, reserve)
    if type(out) is NotFound:
        return out

    result, under, case, removed, added, rejections = out
    assert colour not in result.colours
    assert vertex not in result.covered
    assert fix <= result.edge_ids
    assert result.covered.isdisjoint(avoid_vertices)
    assert result.colours.isdisjoint(avoid_colours)
    distance = result.distance_to(base)
    assert distance <= budget + slack and len(result.edge_ids) == size
    return SwitchOutcome(request, level, current, result, distance, depth, case,
                         removed, added, rejections, under)


def _chain(ctx, current, budget, requests, depth):
    """Serve ``(colour, vertex, fix, avoid_vertices, avoid_colours)``
    requests in order, each from the previous result with the previous
    distance to base as its budget, and with the number of requests after
    it as its ``reserve``.  Returns the tuple of outcomes served or the first
    :class:`NotFound` unchanged.  Every plan builds its three sets as
    frozensets, so each request is made as the tuple it is, not coerced."""
    served = []
    reserve = len(requests)
    for colour, vertex, fix, avoid_vertices, avoid_colours in requests:
        reserve -= 1
        # looked up as a module global on every call: this is the seam that
        # the benchmark's tracer and the tests' call recorder patch
        out = robust_switch(ctx, current, tuple.__new__(SwitchRequest, (
            colour, vertex, budget, fix, avoid_vertices, avoid_colours)), depth,
            reserve=reserve)
        if isinstance(out, NotFound):
            return out
        current, budget = out.matching, out.distance_to_base
        served.append(out)
    return tuple(served)


def _switch_base(ctx, current, request, le):
    """Level 1: trade the target edge and one flexible partner for a good
    flexible-coloured edge at the tail plus an external unused-colour edge at
    the partner's tail."""
    rej: dict[str, int] = {}
    edge_ids, covered, colours = current.edge_ids, current.covered, current.colours
    _, _, _, fix, avoid_vertices, avoid_colours = request
    for w, z, gid, hid, partner, spare in ctx.order(ctx.options_of(le)):
        if w in covered:
            reason = "w_not_free"
        elif w in avoid_vertices:
            reason = "w_avoided"
        elif z in covered:
            reason = "z_not_free"
        elif z in avoid_vertices:
            reason = "z_avoided"
        # the partner's colour is used by an edge other than the partner
        elif partner.colour in colours and partner.edge_id not in edge_ids:
            reason = "partner_colour_in_use"
        elif partner.edge_id not in edge_ids:
            reason = "partner_missing"
        elif partner.edge_id in fix:
            reason = "partner_fixed"
        elif spare in colours:
            reason = "spare_colour_in_use"
        elif spare in avoid_colours:
            reason = "spare_colour_avoided"
        else:
            removed, added = (le.edge_id, partner.edge_id), (gid, hid)
            return (ctx.exchange(current, removed, added), (), "base", removed,
                    added, rej)
        rej[reason] = rej.get(reason, 0) + 1
    return NotFound("no_configuration", rej)


def _lift(ctx, current, request, keep, w, colour):
    """Requests that free ``colour``, the certifying edge's, after which that
    edge replaces the switched edge through the free vertex ``w``; or the
    name of the first filter the candidate fails.  ``keep`` is the request's
    fix set plus the switched edge."""
    if w in current.covered:
        return "w_not_free"
    if w in request.avoid_vertices:
        return "w_avoided"
    sub = ctx.hierarchy.by_colour[colour]
    # M is rainbow, so its edge of ``colour`` is ``sub``'s exactly when
    # ``sub``'s is in M
    if sub.edge_id not in current.edge_ids:
        return "partner_missing"
    if sub.edge_id in keep:
        return "partner_fixed"
    return [(colour, sub.head, keep, request.avoid_vertices | {w},
             request.avoid_colours)]


def _descend(ctx, current, request, keep, u, colour):
    """Requests that free ``colour``, the certifying edge's, then the lower
    head ``u``, after which that edge replaces the switched edge; or the name
    of the first filter the candidate fails.  ``keep`` is the request's fix
    set plus the switched edge."""
    hierarchy, edge_ids = ctx.hierarchy, current.edge_ids
    u_edge = hierarchy.by_head[u]
    if u_edge.edge_id not in edge_ids:
        return "head_edge_missing"
    if u_edge.edge_id in keep:
        return "head_edge_fixed"
    sub = hierarchy.by_colour[colour]
    if sub.edge_id not in edge_ids:
        return "partner_missing"
    if sub.edge_id in keep or sub.edge_id == u_edge.edge_id:
        return "partner_fixed"
    return [(colour, sub.head, keep | {u_edge.edge_id},
             request.avoid_vertices, request.avoid_colours),
            (u_edge.colour, u, keep, request.avoid_vertices,
             request.avoid_colours | {colour})]


def _switch_inductive(ctx, current, request, le, depth, reserve):
    """Level >= 2: walk a certifying lower-level-coloured edge from the tail,
    first into a free vertex (a lift, one lower switch), else into a lower
    head (a descend, two).  A case whose switches need more of the
    context's spare colours than are ``left`` after ``reserve`` is passed
    over whole."""
    edges = current.graph.edges
    rej: dict[str, int] = {}
    lifts, descends = map(ctx.order, ctx.options_of(le))
    # the spare colours that neither the chain so far nor the requests after
    # this one take
    left = ctx.spares - len(current.colours - ctx.base.colours) - reserve

    keep = request.fix | {le.edge_id}
    for case, walk, plan, needs in (("lift", lifts, _lift, 1),
                                    ("descend", descends, _descend, 2)):
        if left < needs:
            if walk:
                rej["too_few_spares"] = rej.get("too_few_spares", 0) + len(walk)
            continue
        for v, eid in walk:
            _, _, _, colour = edges[eid]
            requests = plan(ctx, current, request, keep, v, colour)
            if isinstance(requests, str):
                rej[requests] = rej.get(requests, 0) + 1
                continue
            out = _chain(ctx, current, request.budget, requests, depth + 1)
            if isinstance(out, NotFound):
                rej["recursion_failed"] = rej.get("recursion_failed", 0) + 1
                continue
            removed, added = (le.edge_id,), (eid,)
            return (ctx.exchange(out[-1].matching, removed, added), out, case,
                    removed, added, rej)
    return NotFound("no_configuration", rej)


@dataclass
class AugmentOutcome:
    """A landed recipe: every call of its chain, each top-level call after
    the calls under it."""

    matching: RainbowMatching
    calls: list[SwitchOutcome]


def augment(ctx: SwitchContext, edge_id: int) -> AugmentOutcome | NotFound:
    """Run the recipe for the violating edge ``edge_id`` against the context
    base.

    Each endpoint that is a reachable head, other than the head of the
    violating colour's own edge, is freed in witness order
    (:func:`~rainbowmatch.reachability.witness_vertices`) by a switch of
    that head's colour, which keeps the colour's own edge and the head edges
    still to be freed and avoids the endpoints already free or freed.  One
    last switch frees the colour and its head, avoiding every other
    endpoint.  The switches run as one chain from the base, then the edge
    goes in.

    Returns a matching one edge larger, or :class:`NotFound` when some switch
    in the chain finds no configuration under the budget cap.  A chain of
    more switches than the base leaves colours unused cannot land (see the
    module docstring); one of more switches than the context's ``spares`` is
    refuted before its first switch call as ``NotFound("too_few_spares",
    {})``.  ``solve`` does
    not call this for a violation whose whole bucket is refuted so.  Each
    switch of the chain gets the number of switches after it as its
    ``reserve``, so the first NotFound may come from a switch that passes
    over candidates the rest of the chain cannot afford.

    Raises :class:`SwitchUsageError` on an edge id that is not one of the
    graph's, and on an edge that is not a violation of the base: a loop, an
    edge whose colour is not reachable, or one whose ends are not a
    reachable head and a free vertex, two heads or two free vertices.
    """
    base = ctx.base
    edges = base.graph.edges
    if type(edge_id) is not int or not 0 <= edge_id < len(edges):
        raise SwitchUsageError(f"edge {edge_id!r} is not an edge of the graph")
    _, u, v, colour = edges[edge_id]
    heads, covered = ctx.hierarchy.by_head, base.covered
    target = ctx.hierarchy.by_colour.get(colour)
    # the ends' (reachable heads, free vertices) counts of reach_free,
    # reach_reach and free_free
    if target is None or u == v or (
            (u in heads) + (v in heads),
            (u not in covered) + (v not in covered)) not in ((1, 1), (2, 0), (0, 2)):
        raise SwitchUsageError(f"edge {edge_id} ({u}-{v}, colour {colour}) is not a "
                               "violation of the base")
    vertices = witness_vertices(covered, u, v)
    head = target.head
    # the endpoints' level edges, in witness order, but the colour's own
    to_free = [le for le in map(heads.get, vertices)
               if le is not None and le is not target]
    # each switch of the chain, one per request, takes a spare colour of its own
    if len(to_free) + 1 > ctx.spares:
        return NotFound("too_few_spares", {})
    requests = []
    if to_free:
        keep = frozenset([target.edge_id] + [le.edge_id for le in to_free])
        # a frozenset, so that ``avoid |=`` below leaves queued requests alone
        avoid = frozenset([v for v in vertices if v not in covered])
        for le in to_free:
            keep -= {le.edge_id}
            requests.append((le.colour, le.head, keep, avoid, _EMPTY))
            avoid |= {le.head}
    requests.append((colour, head, _EMPTY,
                     frozenset([v for v in vertices if v != head]), _EMPTY))
    out = _chain(ctx, base, 0, requests, 0)
    if isinstance(out, NotFound):
        return out
    return AugmentOutcome(ctx.exchange(out[-1].matching, (), (edge_id,)),
                          [call for top in out for call in top.calls])


@dataclass
class IterationRecord:
    """One round of the solve loop.  ``attempted`` is the landed
    violation's rank, else ``violations``: it counts those of buckets passed
    over for too few spare colours too, which never reach ``augment``.
    ``kind`` (one of :data:`~rainbowmatch.reachability.VIOLATION_KINDS`) and
    ``edge_id`` name the landed violation, None if none; ``exchanges`` is
    the number of switch calls in its chain, one exchange each (0 if none
    landed); ``base_ids`` is the round's base matching."""

    index: int
    size_before: int
    size_after: int
    violations: int
    attempted: int
    kind: str | None
    edge_id: int | None
    exchanges: int
    base_ids: tuple[int, ...]


@dataclass
class SolveReport:
    """Everything one solve run did; :meth:`to_json_dict` is the stable
    serialised surface (timing excluded unless asked, to keep output
    byte-identical across runs).

    ``switch_calls`` holds the calls of the landed augmentations only, the
    ones the returned matching went through: one record per exchange, each
    iteration's in post-order (a call after the calls under it).  Calls in
    chains that failed leave no record.
    """

    status: str
    n: int
    target_deficit: int
    seed: int
    matching: RainbowMatching
    iterations: list[IterationRecord]
    switch_calls: list[CallRecord]
    wall_ms: float

    EXIT_CODES = {"target_reached": 0, "stalled": 2, "iteration_cap": 3}

    @property
    def target(self) -> int:
        return self.n - self.target_deficit

    @property
    def size(self) -> int:
        return len(self.matching)

    @property
    def total_exchanges(self) -> int:
        return len(self.switch_calls)

    @property
    def exit_code(self) -> int:
        return self.EXIT_CODES[self.status]

    def to_json_dict(self, include_timing: bool = False) -> dict:
        doc = {
            "status": self.status,
            "n": self.n,
            "target_deficit": self.target_deficit,
            "target": self.target,
            "seed": self.seed,
            "size": self.size,
            "iterations": len(self.iterations),
            "switches": self.total_exchanges,
            "matching": matching_to_json(self.matching),
        }
        if include_timing:
            doc["wall_ms"] = round(self.wall_ms, 3)
        return doc


def solve(graph: ColouredMultigraph, params: InstanceParams | None = None,
          target_deficit: int = 0, seed: int = 0, *, max_budget: int = DEFAULT_MAX_BUDGET,
          max_iterations: int = 1000, shuffle: bool = False) -> SolveReport:
    """Greedy start, then repeatedly pick the best-ranked violation whose
    recipe lands, until size n - target_deficit is reached, no recipe lands
    (stalled), or the iteration cap hits.

    A non-positive target is never reported reached; such runs go to stall,
    so asking for more than the graph can give is visible in the status.
    A negative ``max_iterations`` or ``max_budget`` raises ValueError.
    """
    for name, cap in (("max_iterations", max_iterations), ("max_budget", max_budget)):
        if cap < 0:
            raise ValueError(f"{name} must not be negative: {cap}")
    t0 = time.perf_counter()
    if params is None:
        params = InstanceParams.for_graph(graph)
    n = graph.num_colours
    target = n - target_deficit
    current = greedy(graph, seed)
    rng = random.Random((seed * 0x9E3779B9) & 0xFFFFFFFF) if shuffle else None

    iterations: list[IterationRecord] = []
    calls: list[CallRecord] = []
    status = None
    index = 0
    while True:
        if target >= 1 and len(current) >= target:
            status = "target_reached"
            break
        if index >= max_iterations:
            status = "iteration_cap"
            break
        current = extend_to_maximal(current)
        if target >= 1 and len(current) >= target:
            status = "target_reached"
            break
        ctx = SwitchContext.build(current, params, max_budget=max_budget, rng=rng)
        found = ctx.violations()
        # a bucket whose every chain augment would refute for too few spare
        # colours is passed over, its violations counted as tried
        for attempted, violation in found.ranked(ctx.spares):
            out = augment(ctx, violation.edge_id)
            if isinstance(out, AugmentOutcome):
                break
        else:
            iterations.append(IterationRecord(
                index, len(current), len(current), len(found), len(found),
                None, None, 0, current.sorted_ids))
            status = "stalled"
            break
        iterations.append(IterationRecord(
            index, len(current), len(out.matching), len(found), attempted,
            violation.kind, violation.edge_id, len(out.calls),
            current.sorted_ids))
        calls.extend(CallRecord.from_call(ctx.base, call) for call in out.calls)
        logger.debug("iteration %d: %s via edge %d, size %d -> %d", index,
                     violation.kind, violation.edge_id, len(current),
                     len(out.matching))
        current = out.matching
        index += 1

    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveReport(
        status=status, n=n, target_deficit=target_deficit, seed=seed,
        matching=current, iterations=iterations, switch_calls=calls,
        wall_ms=wall_ms)
