"""Robust switching, augmentation recipes, and the solve loop.

A switch request asks: starting from a matching close to the iteration base,
free a given colour and its designated head while keeping named edges, never
touching named vertices or colours.  Level-1 colours are freed directly by a
four-edge exchange built from a good flexible-coloured edge and an external
unused-colour edge; higher levels recurse through lower levels first.  A
switch tries exactly the options that its level edge
(:class:`~rainbowmatch.reachability.LevelEdge`) carries.  Every produced
matching stays within ``budget + closeness_slack(level)`` of the base, which
keeps chains composable.

Every multi-switch move is one chain (:func:`_chain`): requests served in
order, each starting from the previous result with the previous distance to
base as its budget.  An augmentation (:func:`augment`) is a chain from the
base that frees each endpoint of the violating edge that is a reachable
head, then the edge's colour and its own head, and adds the edge; a direct
extension is the empty chain.  A higher-level switch is a chain one level
down: a lift frees one lower colour, a descend two, then one exchange moves
the switched edge onto the certifying edge.  The solve loop is greedy
construction followed by repeated find-violations / augment rounds until the
target size is reached or no recipe lands.

Each successful call makes one elementary exchange and is asserted against
its contract as it returns; its outcome carries a :class:`SwitchCall` for it
and for every call under it.  ``solve`` turns only the landed augmentations'
calls into records (:class:`CallRecord`), one per exchange; a caller that
wants every call wraps the module-global :func:`robust_switch`.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

# ``closeness`` is not called here; it stays bound in this namespace because
# the benchmark's tracer patches ``switching.closeness`` by name
from .matching import (RainbowMatching, closeness, extend_to_maximal, greedy,  # noqa: F401
                       matching_to_json)
from .multigraph import ColouredMultigraph, InstanceParams
from .reachability import (VIOLATION_KINDS, FlexibleStructure, Hierarchy,
                           Violation, build_hierarchy, classify_good_bad,
                           compute_flexible, find_violations)

logger = logging.getLogger(__name__)

DEFAULT_MAX_BUDGET = 64  # the cap on a switch's distance to the iteration base


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


class SwitchCall(NamedTuple):
    """A successful switch call at recursion ``depth`` and its one exchange,
    as its outcome carries it: references only, nothing sorted or copied.
    :meth:`CallRecord.from_call` makes a record of it.

    ``case`` is ``"base"`` (level 1), ``"lift"`` (into a free vertex) or
    ``"descend"`` (into a lower head).  The exchange takes the ``removed``
    edge ids, the level edge of the request's colour first, out of ``start``
    (base) or of the previous call's result (lift, descend) and puts the
    ``added`` ones in."""

    request: SwitchRequest
    level: int
    start: RainbowMatching
    result: RainbowMatching
    distance_to_base: int
    depth: int
    case: str
    removed: tuple[int, ...]
    added: tuple[int, ...]


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
    def from_call(cls, base: RainbowMatching, call: SwitchCall) -> "CallRecord":
        """The record of ``call``, made in a context whose base is ``base``."""
        colour, vertex, budget, fix, avoid_vertices, avoid_colours = call.request
        return cls(colour, vertex, call.level, budget, tuple(sorted(fix)),
                   tuple(sorted(avoid_vertices)), tuple(sorted(avoid_colours)),
                   base.sorted_ids, call.start.sorted_ids, call.result.sorted_ids,
                   call.distance_to_base)


@dataclass
class SwitchOutcome:
    """A served request.  ``calls`` covers this call and every call under
    it, innermost first; this call's own entry comes last."""

    calls: list[SwitchCall]
    rejections: dict[str, int]

    @property
    def matching(self) -> RainbowMatching:
        """The served matching: this call's result."""
        return self.calls[-1].result

    @property
    def distance_to_base(self) -> int:
        """This call's result's distance to the context's base."""
        return self.calls[-1].distance_to_base


@dataclass
class NotFound:
    """No admissible configuration; ``rejections`` counts the first filter
    each candidate failed."""

    reason: str
    rejections: dict[str, int]


@dataclass
class SwitchContext:
    """Everything the engine needs about one base matching, which
    :meth:`build` checks is a matching of the graph itself."""

    graph: ColouredMultigraph
    base: RainbowMatching
    flex: FlexibleStructure
    hierarchy: Hierarchy
    max_budget: int = DEFAULT_MAX_BUDGET
    rng: random.Random | None = None

    @classmethod
    def build(cls, graph: ColouredMultigraph, matching: RainbowMatching,
              params: InstanceParams | None = None, max_budget: int = DEFAULT_MAX_BUDGET,
              rng: random.Random | None = None) -> "SwitchContext":
        if matching.graph is not graph:
            raise SwitchUsageError("base is a matching of another graph")
        if params is None:
            params = InstanceParams.for_graph(graph)
        flex = compute_flexible(graph, matching, params)
        good = classify_good_bad(graph, matching, flex, params)
        hierarchy = build_hierarchy(graph, matching, flex, good, params)
        return cls(graph, matching, flex, hierarchy, max_budget=max_budget, rng=rng)

    def violations(self) -> list[Violation]:
        return find_violations(self.graph, self.base, self.hierarchy)


def robust_switch(ctx: SwitchContext, current: RainbowMatching,
                  request: SwitchRequest, depth: int = 0) -> SwitchOutcome | NotFound:
    """Serve ``request`` against ``current``, a matching within
    ``request.budget`` of ``ctx.base``.

    Returns a new matching of the same size with the requested colour unused
    and the requested head uncovered, or :class:`NotFound`.  Malformed
    requests raise :class:`SwitchUsageError`.
    """
    colour, vertex, budget, fix, avoid_vertices, avoid_colours = request
    hierarchy = ctx.hierarchy
    le = hierarchy.by_colour.get(colour)
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
    m = len(hierarchy.levels)
    level = le.level
    cap = 2 * (m - level + 1)
    if len(fix) > cap or len(avoid_vertices) > cap or len(avoid_colours) > cap:
        for name, group in (("fix", fix), ("avoid_vertices", avoid_vertices),
                            ("avoid_colours", avoid_colours)):
            if len(group) > cap:
                raise SwitchUsageError(f"{name} larger than {cap} at level {level}")
    # the closeness contract, ``closeness(base, current).within(budget)``,
    # read in O(1) off the swap chain
    base = ctx.base
    size = len(base.edge_ids)
    if current.distance_to(base) > budget or len(edge_ids) != size:
        raise SwitchUsageError("current matching is farther from base than the budget")
    if depth > m:
        raise SwitchUsageError("recursion deeper than the hierarchy")

    slack = closeness_slack(level)
    if budget + slack > ctx.max_budget:
        return NotFound("budget_cap", {})

    if level == 1:
        out = _switch_base(ctx, current, request, le)
    else:
        out = _switch_inductive(ctx, current, request, le, depth)
    if type(out) is NotFound:
        return out

    result, calls, case, removed, added, rejections = out
    assert colour not in result.colours
    assert vertex not in result.covered
    assert fix <= result.edge_ids
    assert result.covered.isdisjoint(avoid_vertices)
    assert result.colours.isdisjoint(avoid_colours)
    distance = result.distance_to(base)
    assert distance <= budget + slack and len(result.edge_ids) == size
    calls.append(SwitchCall(request, level, current, result, distance,
                            depth, case, removed, added))
    return SwitchOutcome(calls, rejections)


def _chain(ctx, current, budget, requests, depth):
    """Serve ``(colour, vertex, fix, avoid_vertices, avoid_colours)``
    requests in order, each from the previous result with the previous
    distance to base as its budget.  Returns ``(matching, calls)`` or the
    first :class:`NotFound` unchanged.  Every plan builds its three sets as
    frozensets, so each request is made as the tuple it is, not coerced."""
    calls = []
    for colour, vertex, fix, avoid_vertices, avoid_colours in requests:
        # looked up as a module global on every call: this is the seam that
        # the benchmark's tracer and the tests' call recorder patch
        out = robust_switch(ctx, current, tuple.__new__(SwitchRequest, (
            colour, vertex, budget, fix, avoid_vertices, avoid_colours)), depth)
        if isinstance(out, NotFound):
            return out
        current, budget = out.matching, out.distance_to_base
        calls += out.calls
    return current, calls


def _switch_base(ctx, current, request, le):
    """Level 1: trade the target edge and one flexible partner for a good
    flexible-coloured edge at the tail plus an external unused-colour edge at
    the partner's tail."""
    rej: dict[str, int] = {}
    pairs = le.pairs
    if ctx.rng is not None:
        pairs = list(pairs)
        ctx.rng.shuffle(pairs)

    edge_ids, covered, colours = current.edge_ids, current.covered, current.colours
    _, _, _, fix, avoid_vertices, avoid_colours = request
    for w, z, gid, hid, partner, spare in pairs:
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
            return current.with_swap(removed, added), [], "base", removed, added, rej
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


def _switch_inductive(ctx, current, request, le, depth):
    """Level >= 2: walk a certifying lower-level-coloured edge from the tail,
    first into a free vertex (a lift, one lower switch), else into a lower
    head (a descend, two)."""
    edges = ctx.graph.edges
    rej: dict[str, int] = {}
    lifts, descends = le.lifts, le.descends
    if ctx.rng is not None:
        lifts = list(lifts)
        descends = list(descends)
        ctx.rng.shuffle(lifts)
        ctx.rng.shuffle(descends)

    keep = request.fix | {le.edge_id}
    for case, walk, plan in (("lift", lifts, _lift), ("descend", descends, _descend)):
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
            result, calls = out
            removed, added = (le.edge_id,), (eid,)
            return result.with_swap(removed, added), calls, case, removed, added, rej
    return NotFound("no_configuration", rej)


@dataclass
class AugmentOutcome:
    """A landed recipe: the chain's calls, in the order served."""

    matching: RainbowMatching
    calls: list[SwitchCall]


def augment(ctx: SwitchContext, violation: Violation) -> AugmentOutcome | NotFound:
    """Run the recipe for one violation against the context base.

    ``extend`` just adds its edge.  Every other kind follows one rule: each
    endpoint that is a reachable head, other than the head of the violating
    colour's own edge, is freed by a switch of that head's colour, which
    keeps the colour's own edge and the head edges still to be freed and
    avoids the endpoints already free or freed.  One last switch frees the
    colour and its head, avoiding every other endpoint.  The switches run as
    one chain from the base, then the edge goes in.

    Returns a matching one edge larger, or :class:`NotFound` when some switch
    in the chain finds no configuration under the budget cap.
    """
    if violation.kind not in VIOLATION_KINDS:
        raise SwitchUsageError(f"unknown violation kind {violation.kind!r}")
    e = ctx.graph.edge(violation.edge_id)
    requests = []
    if violation.kind != "extend":
        hierarchy, covered = ctx.hierarchy, ctx.base.covered
        target = hierarchy.by_colour.get(e.colour)
        # the endpoints' level edges, in witness order, but the colour's own
        to_free = [le for le in map(hierarchy.by_head.get, violation.vertices)
                   if le is not None and le is not target]
        ends = frozenset(violation.vertices)
        keep = frozenset([target.edge_id] + [le.edge_id for le in to_free])
        # a frozenset, so that ``avoid |=`` below leaves queued requests alone
        avoid = frozenset([v for v in ends if v not in covered])
        for le in to_free:
            keep -= {le.edge_id}
            requests.append((le.colour, le.head, keep, avoid, frozenset()))
            avoid |= {le.head}
        requests.append((e.colour, target.head, frozenset(),
                         ends - {target.head}, frozenset()))
    out = _chain(ctx, ctx.base, 0, requests, 0)
    if isinstance(out, NotFound):
        return out
    matching, calls = out
    return AugmentOutcome(matching.with_swap((), (e.id,)), calls)


@dataclass
class IterationRecord:
    """One round of the solve loop.  ``exchanges`` is the number of switch
    calls in the landed chain, one exchange each (0 when nothing landed);
    ``base_ids`` is the round's base matching."""

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
            "matching": matching_to_json(self.matching.graph, self.matching),
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
    """
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
        current = extend_to_maximal(graph, current)
        if target >= 1 and len(current) >= target:
            status = "target_reached"
            break
        ctx = SwitchContext.build(graph, current, params,
                                  max_budget=max_budget, rng=rng)
        found = ctx.violations()
        chosen: tuple[Violation, AugmentOutcome] | None = None
        attempted = 0
        for violation in found:
            attempted += 1
            out = augment(ctx, violation)
            if isinstance(out, AugmentOutcome):
                chosen = (violation, out)
                break
        if chosen is None:
            iterations.append(IterationRecord(
                index, len(current), len(current), len(found), attempted,
                None, None, 0, current.sorted_ids))
            status = "stalled"
            break
        violation, out = chosen
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
