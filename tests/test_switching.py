"""Robust switching: base case, recursion, recipes, the solve loop."""
from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from rainbowmatch import cli, instances, multigraph, switching
from rainbowmatch import (
    AugmentOutcome,
    ColouredMultigraph,
    NotFound,
    RainbowMatching,
    SwitchContext,
    SwitchRequest,
    SwitchUsageError,
    Violation,
    augment,
    closeness_slack,
    cyclic_square,
    extend_to_maximal,
    generate_random,
    greedy,
    latin_to_graph,
    loads,
    robust_switch,
    solve,
    verify,
)
from rainbowmatch.reachability import (VIOLATION_KINDS, FlexibleStructure, Hierarchy,
                                       witness_vertices)

from conftest import (augment_calls, brute_scan, brute_switches, isotope,
                      needs_too_many_spares, random_instance, raw_graphs, recheck_call,
                      recorded_calls, spare_bound_off, switch_bound_off, tight_instance)
from test_identity import DIGESTS, instance_text
from test_matching import family_graph
from test_reachability import REACHABILITY_GOLDEN

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def requests_served(log) -> list[tuple]:
    """``(colour, vertex, budget, fix, avoid_vertices, avoid_colours)`` of
    every successful switch call in a :func:`recorded_calls` log, innermost
    first."""
    return [(r.colour, r.vertex, r.budget, r.fix, r.avoid_vertices,
             r.avoid_colours) for r in log]


class TestSlack:
    def test_values(self):
        assert [closeness_slack(i) for i in (1, 2, 3)] == [4, 10, 22]

    def test_recurrence(self):
        for i in range(2, 8):
            assert closeness_slack(i) == 2 * closeness_slack(i - 1) + 2

    def test_levels_start_at_one(self):
        with pytest.raises(ValueError):
            closeness_slack(0)


class TestBaseCase:
    def test_single_exchange(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with recorded_calls() as log:
            out = switching.robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0))
        assert not isinstance(out, NotFound)
        assert out.matching.edge_ids == {2, 3}
        assert out.distance_to_base == 4
        assert verify(g, out.matching) == []
        (call,) = out.calls
        assert (call.depth, call.level, call.case) == (0, 1, "base")
        assert call.removed == (0, 1) and call.added == (2, 3)
        (rec,) = log
        assert rec.level == 1 and rec.distance_to_base == 4
        assert rec.result_ids == (2, 3)

    def test_z_avoided(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        out = robust_switch(ctx, base, SwitchRequest(
            colour=0, vertex=0, avoid_vertices=[5]))
        assert isinstance(out, NotFound)
        assert out.reason == "no_configuration"
        assert out.rejections == {"z_avoided": 1}

    def test_w_avoided(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        out = robust_switch(ctx, base, SwitchRequest(
            colour=0, vertex=0, avoid_vertices=[4]))
        assert isinstance(out, NotFound)
        assert out.rejections == {"w_avoided": 1}

    def test_partner_fixed(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        out = robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0, fix=[1]))
        assert isinstance(out, NotFound)
        assert out.rejections == {"partner_fixed": 1}

    def test_w_not_free(self):
        # the current matching drifted onto candidate endpoint w = 4
        g = ColouredMultigraph(8, 4, [
            (0, 1, 0), (2, 3, 1), (1, 4, 1), (3, 5, 2), (6, 7, 3), (4, 7, 3)])
        base = RainbowMatching(g, [0, 1, 4])
        ctx = SwitchContext.build(base)
        drifted = RainbowMatching(g, [0, 1, 5])  # edge 5 covers w = 4
        out = robust_switch(ctx, drifted, SwitchRequest(
            colour=0, vertex=0, budget=2))
        assert isinstance(out, NotFound)
        assert out.rejections == {"w_not_free": 1}

    def test_z_not_free(self):
        g = ColouredMultigraph(8, 4, [
            (0, 1, 0), (2, 3, 1), (1, 4, 1), (3, 5, 2), (6, 7, 3), (5, 7, 3)])
        base = RainbowMatching(g, [0, 1, 4])
        ctx = SwitchContext.build(base)
        drifted = RainbowMatching(g, [0, 1, 5])  # edge 5 covers z = 5
        out = robust_switch(ctx, drifted, SwitchRequest(
            colour=0, vertex=0, budget=2))
        assert isinstance(out, NotFound)
        assert out.rejections == {"z_not_free": 1}

    def test_partner_colour_in_use_and_missing(self):
        g = ColouredMultigraph(8, 3, [
            (0, 1, 0), (2, 3, 1), (1, 4, 1), (3, 5, 2), (6, 7, 1), (6, 7, 2)])
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        holder_elsewhere = RainbowMatching(g, [0, 4])  # colour 1 via edge 4
        out = robust_switch(ctx, holder_elsewhere, SwitchRequest(
            colour=0, vertex=0, budget=2))
        assert isinstance(out, NotFound)
        assert out.rejections == {"partner_colour_in_use": 1}
        gone = RainbowMatching(g, [0, 5])  # colour 1 absent entirely
        out2 = robust_switch(ctx, gone, SwitchRequest(
            colour=0, vertex=0, budget=2))
        assert isinstance(out2, NotFound)
        assert out2.rejections == {"partner_missing": 1}

    def test_spare_colour_in_use_then_next_pair(self):
        # first spare colour occupied by the drifted current matching; the
        # second spare saves the switch
        g = ColouredMultigraph(10, 5, [
            (0, 1, 0),   # 0: target, head 0
            (2, 3, 1),   # 1: flexible partner, tail 3
            (1, 4, 1),   # 2: good edge
            (3, 5, 2),   # 3: spare, colour 2
            (3, 5, 3),   # 4: parallel spare, colour 3
            (6, 7, 4),   # 5: extra matching edge
            (8, 9, 2),   # 6: colour-2 edge the current matching drifts onto
        ])
        base = RainbowMatching(g, [0, 1, 5])
        ctx = SwitchContext.build(base)
        drifted = RainbowMatching(g, [0, 1, 6])
        out = robust_switch(ctx, drifted, SwitchRequest(
            colour=0, vertex=0, budget=2))
        assert not isinstance(out, NotFound)
        assert out.matching.edge_ids == {2, 4, 6}
        assert out.rejections == {"spare_colour_in_use": 1}

    def test_spare_colour_avoided_then_next_pair(self):
        g = ColouredMultigraph(10, 5, [
            (0, 1, 0), (2, 3, 1), (1, 4, 1), (3, 5, 2), (3, 5, 3), (6, 7, 4),
            (8, 9, 2)])
        base = RainbowMatching(g, [0, 1, 5])
        ctx = SwitchContext.build(base)
        out = robust_switch(ctx, base, SwitchRequest(
            colour=0, vertex=0, avoid_colours=[2]))
        assert not isinstance(out, NotFound)
        assert out.matching.edge_ids == {2, 4, 5}
        assert out.rejections == {"spare_colour_avoided": 1}
        assert 2 not in out.matching.colours


class TestUsageErrors:
    def test_unreachable_colour(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="not reachable"):
            robust_switch(ctx, base, SwitchRequest(colour=1, vertex=2))

    def test_wrong_vertex(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="designated head"):
            robust_switch(ctx, base, SwitchRequest(colour=0, vertex=1))

    def test_target_already_gone(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        drifted = RainbowMatching(g, [2, 3])
        with pytest.raises(SwitchUsageError, match="left the matching"):
            robust_switch(ctx, drifted, SwitchRequest(
                colour=0, vertex=0, budget=4))

    def test_fix_target(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="cannot fix"):
            robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0, fix=[0]))

    def test_fix_outside_matching(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="outside the matching"):
            robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0, fix=[3]))

    def test_avoided_vertex_covered(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="already covered"):
            robust_switch(ctx, base, SwitchRequest(
                colour=0, vertex=0, avoid_vertices=[1]))

    def test_avoided_colour_in_use(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="already in use"):
            robust_switch(ctx, base, SwitchRequest(
                colour=0, vertex=0, avoid_colours=[1]))

    def test_set_size_cap(self, reach_free_fixture):
        g = reach_free_fixture
        base = RainbowMatching(g, [0, 1, 2, 3])
        ctx = SwitchContext.build(base)
        # m = 1 so the cap at level 1 is 2(m - 1 + 1) = 2
        with pytest.raises(SwitchUsageError, match="larger than 2"):
            robust_switch(ctx, base, SwitchRequest(
                colour=0, vertex=0, avoid_vertices=[8, 9, 10]))

    def test_budget_understates_distance(self):
        g = ColouredMultigraph(10, 5, [
            (0, 1, 0), (2, 3, 1), (1, 4, 1), (3, 5, 2), (3, 6, 3), (6, 7, 4),
            (8, 9, 2)])
        base = RainbowMatching(g, [0, 1, 5])
        ctx = SwitchContext.build(base)
        drifted = RainbowMatching(g, [0, 1, 6])
        with pytest.raises(SwitchUsageError, match="farther from base"):
            robust_switch(ctx, drifted, SwitchRequest(colour=0, vertex=0))

    def test_depth_beyond_hierarchy(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="deeper"):
            robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0), depth=2)

    def test_negative_depth(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match="^negative recursion depth -1$"):
            robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0), depth=-1)

    @pytest.mark.parametrize("reserve", [-1, 1.0, True, "1", None],
                             ids=["negative", "float", "bool", "string", "none"])
    def test_reserve_not_a_count(self, base_switch_fixture, reserve):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError, match=re.escape(
                f"reserve {reserve!r} is not a non-negative int")):
            robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0),
                          reserve=reserve)

    def test_matching_of_another_graph(self, base_switch_fixture):
        # the same edges in a second graph: the same ids, so only the graph
        # tells them apart; it is checked before any other rule
        g = base_switch_fixture
        twin = ColouredMultigraph(g.num_vertices, g.num_colours,
                                  [(e.u, e.v, e.colour) for e in g.edges])
        ctx = SwitchContext.build(RainbowMatching(g, [0, 1]))
        foreign = RainbowMatching(twin, [0, 1])
        for request in (SwitchRequest(colour=0, vertex=0),
                        SwitchRequest(colour=1, vertex=5)):
            with pytest.raises(SwitchUsageError, match="another graph"):
                robust_switch(ctx, foreign, request)
        assert ctx.built == {}

    # each request breaks one rule and the next one in check order (the last
    # rule alone); the first rule's message wins, also when the budget cap
    # would block the search (max_budget 3 is below level 1's slack of 4)
    @pytest.mark.parametrize("max_budget", [64, 3])
    @pytest.mark.parametrize("current_ids,request_kw,depth,message", [
        ([0, 1], dict(colour=1, vertex=5), 0, "not reachable"),
        ([2, 3], dict(colour=0, vertex=1), 0, "designated head"),
        ([2, 3], dict(colour=0, vertex=0, fix=[0]), 0, "left the matching"),
        ([0, 1], dict(colour=0, vertex=0, fix=[0, 3]), 0, "cannot fix"),
        ([0, 1], dict(colour=0, vertex=0, fix=[3], avoid_vertices=[1]), 0,
         "outside the matching"),
        ([0, 1], dict(colour=0, vertex=0, avoid_vertices=[1],
                      avoid_colours=[1]), 0, "already covered: [1]"),
        ([0, 1], dict(colour=0, vertex=0, avoid_colours=[1, 5, 6]), 0,
         "colour 1 already in use"),
        ([0, 3], dict(colour=0, vertex=0, avoid_colours=[5, 6, 7]), 0,
         "avoid_colours larger than 2 at level 1"),
        ([0, 3], dict(colour=0, vertex=0), 2, "farther from base"),
        ([0, 1], dict(colour=0, vertex=0), 2, "deeper than the hierarchy"),
    ], ids=["unreachable+head", "head+gone", "gone+fix_target",
            "fix_target+fix_outside", "fix_outside+avoid_covered",
            "avoid_covered+colour_in_use", "colour_in_use+cap",
            "cap+budget", "budget+depth", "depth"])
    def test_first_broken_rule_wins(self, base_switch_fixture, max_budget,
                                    current_ids, request_kw, depth, message):
        g = base_switch_fixture
        ctx = SwitchContext.build(RainbowMatching(g, [0, 1]),
                                  max_budget=max_budget)
        current = RainbowMatching(g, current_ids)
        with pytest.raises(SwitchUsageError, match=re.escape(message)):
            robust_switch(ctx, current, SwitchRequest(**request_kw), depth)

    # a current of another size than the base, however close, is misused,
    # checked in the budget's slot: after the set caps, before the depth
    @pytest.mark.parametrize("current_ids,request_kw,depth,message", [
        ([0], dict(colour=0, vertex=0, budget=5), 0,
         "current matching has 1 edges, the base 2"),
        ([0], dict(colour=0, vertex=0, budget=5, avoid_colours=[5, 6, 7]), 0,
         "avoid_colours larger than 2 at level 1"),
        ([0], dict(colour=0, vertex=0), 2, "current matching has 1 edges"),
    ], ids=["smaller", "cap+smaller", "smaller+budget+depth"])
    def test_current_of_another_size(self, base_switch_fixture, current_ids,
                                     request_kw, depth, message):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        current = RainbowMatching(g, current_ids)
        assert current.distance_to(base) <= 5
        with pytest.raises(SwitchUsageError, match=f"^{re.escape(message)}"):
            robust_switch(ctx, current, SwitchRequest(**request_kw), depth)

    def test_cap_names_the_first_oversized_set(self, reach_free_fixture):
        g = reach_free_fixture
        base = RainbowMatching(g, [0, 1, 2, 3])
        ctx = SwitchContext.build(base)
        with pytest.raises(SwitchUsageError,
                           match="^avoid_vertices larger than 2 at level 1$"):
            robust_switch(ctx, base, SwitchRequest(
                colour=0, vertex=0, avoid_vertices=[8, 9, 10],
                avoid_colours=[20, 21, 22]))

    @pytest.mark.parametrize("edge_ids,problem", [
        ([0, -1], "edge id -1 not in graph"),      # not read as the last edge
        ([0, 4], "edge id 4 not in graph"),        # E = 4
        ([1, 2], "colour 1 used by edges [1, 2]"),
        ([0, 2], "vertex 1 covered by edges [0, 2]"),
    ], ids=["negative_id", "id_E", "colour_clash", "vertex_clash"])
    def test_base_not_a_rainbow_matching(self, base_switch_fixture, edge_ids,
                                         problem):
        # such a base cannot be built, so no context is ever given one
        g = base_switch_fixture
        with pytest.raises(ValueError, match=rf"^not rainbow: {re.escape(problem)}$"):
            RainbowMatching(g, edge_ids)

    def test_context_reads_the_base_graph(self):
        # g1's edge 0 covers {0, 1}, g2's covers {0, 2}: g2's edge 1 would
        # extend at (1, 3), g1's extends at (2, 3), so the base is not
        # maximal, and the violations name g1's edge
        g1 = ColouredMultigraph(4, 2, [(0, 1, 0), (2, 3, 1)])
        g2 = ColouredMultigraph(4, 2, [(0, 2, 0), (1, 3, 1)])
        base = RainbowMatching(g1, [0])
        assert extend_to_maximal(base).edge_ids == {0, 1}
        ctx = SwitchContext.build(base)
        assert ctx.base.graph is g1 and ctx.base.graph is not g2
        with pytest.raises(ValueError, match=r"^edge 1 \(2-3, colour 1\) joins two free "):
            ctx.violations()

    def test_request_coerces_collections(self):
        req = SwitchRequest(colour=0, vertex=0, fix=[1, 2],
                            avoid_vertices=(3,), avoid_colours={4})
        assert req.fix == frozenset({1, 2})
        assert isinstance(req.avoid_vertices, frozenset)
        assert isinstance(req.avoid_colours, frozenset)
        moved = req._replace(fix=[5], budget=3)
        assert (moved.fix, moved.budget) == (frozenset({5}), 3)
        assert type(moved) is SwitchRequest

    def test_request_defaults_repr_hash_immutability(self):
        req = SwitchRequest(2, 7)
        assert (req.colour, req.vertex, req.budget) == (2, 7, 0)
        assert req.fix == req.avoid_vertices == req.avoid_colours == frozenset()
        full = SwitchRequest(0, 1, 4, [3], avoid_colours=[2, 1])
        assert repr(full) == (
            "SwitchRequest(colour=0, vertex=1, budget=4, fix=frozenset({3}), "
            "avoid_vertices=frozenset(), avoid_colours=frozenset({1, 2}))")
        same = SwitchRequest(0, 1, 4, frozenset({3}), (), {1, 2})
        assert same == full and hash(same) == hash(full)
        assert len({full, same, req}) == 2
        with pytest.raises(AttributeError):
            full.budget = 5
        with pytest.raises(AttributeError):
            full.extra = 1


class TestBudgetCap:
    def test_cap_blocks_before_search(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base, max_budget=3)
        out = robust_switch(ctx, base, SwitchRequest(colour=0, vertex=0))
        assert isinstance(out, NotFound)
        assert out.reason == "budget_cap"
        assert out.rejections == {}

    def test_cap_boundary_level_two(self, descend_fixture):
        g = descend_fixture
        base = RainbowMatching(g, [0, 1, 2, 3, 4])
        blocked = SwitchContext.build(base, max_budget=9)
        out = robust_switch(blocked, base, SwitchRequest(colour=6, vertex=6))
        assert isinstance(out, NotFound) and out.reason == "budget_cap"
        exact = SwitchContext.build(base, max_budget=10)
        out2 = robust_switch(exact, base, SwitchRequest(colour=6, vertex=6))
        assert not isinstance(out2, NotFound)


class TestInductiveCase:
    def test_lift(self, lift_fixture):
        g = lift_fixture
        base = RainbowMatching(g, [0, 1, 2])
        ctx = SwitchContext.build(base)
        assert ctx.hierarchy.m == 2
        with recorded_calls() as log:
            out = switching.robust_switch(ctx, base, SwitchRequest(colour=2, vertex=6))
        assert not isinstance(out, NotFound)
        assert out.matching.edge_ids == {3, 4, 6}
        assert out.distance_to_base == 6
        assert out.distance_to_base <= closeness_slack(2)
        assert verify(g, out.matching) == []
        assert [(c.depth, c.level, c.case) for c in out.calls] == [
            (1, 1, "base"), (0, 2, "lift")]
        assert out.calls[1].removed == (2,) and out.calls[1].added == (6,)
        assert [rec.level for rec in log] == [1, 2]
        assert [rec.distance_to_base for rec in log] == [4, 6]
        # the inner switch keeps the level-2 edge and avoids the lift vertex
        assert requests_served(log) == [
            (0, 0, 0, (2,), (11,), ()), (2, 6, 0, (), (), ())]

    def test_descend(self, descend_fixture):
        g = descend_fixture
        base = RainbowMatching(g, [0, 1, 2, 3, 4])
        ctx = SwitchContext.build(base)
        assert ctx.hierarchy.m == 2
        with recorded_calls() as log:
            out = switching.robust_switch(ctx, base, SwitchRequest(colour=6, vertex=6))
        assert not isinstance(out, NotFound)
        assert out.matching.edge_ids == {5, 8, 9, 10, 11}
        # the bound is met exactly: 10 = closeness_slack(2)
        assert out.distance_to_base == closeness_slack(2) == 10
        assert verify(g, out.matching) == []
        assert [(c.depth, c.level, c.case) for c in out.calls] == [
            (1, 1, "base"), (1, 1, "base"), (0, 2, "descend")]
        assert out.calls[2].removed == (4,) and out.calls[2].added == (11,)
        # the descend is one record over the two calls it made, and the
        # second of them keeps its own rejections
        assert out.calls[2] is out and out.under == tuple(out.calls[:2])
        assert [c.under for c in out.under] == [(), ()]
        assert [c.rejections for c in out.calls] == [
            {}, {"spare_colour_in_use": 1}, {}]
        assert 6 not in out.matching.colours
        assert 6 not in out.matching.covered
        # the first inner switch keeps both the level-2 edge and the lower
        # head's edge; the second frees that head without the first colour
        assert requests_served(log) == [
            (0, 0, 0, (2, 4), (), ()), (2, 4, 4, (4,), (), (0,)),
            (6, 6, 0, (), (), ())]

    def test_lift_preferred_over_descend(self, descend_fixture):
        # same shape plus a certifying edge into a free vertex: the lift wins
        rows = [(e.u, e.v, e.colour) for e in descend_fixture.edges]
        rows.append((7, 12, 0))  # edge 12: lift candidate to free vertex 12
        g = ColouredMultigraph(17, 7, rows)
        base = RainbowMatching(g, [0, 1, 2, 3, 4])
        ctx = SwitchContext.build(base)
        out = robust_switch(ctx, base, SwitchRequest(colour=6, vertex=6))
        assert not isinstance(out, NotFound)
        assert out.calls[-1].case == "lift"
        assert out.matching.edge_ids == {2, 3, 5, 9, 12}

    def test_reserved_spares_pass_over_descends(self, descend_fixture):
        # the level-2 switch as the first of two requests: its one descend
        # would take both spare colours the base leaves unused (4 and 5),
        # and the request after it needs one of its own
        g = descend_fixture
        base = RainbowMatching(g, [0, 1, 2, 3, 4])
        ctx = SwitchContext.build(base)
        assert ctx.spares == 2
        with recorded_calls() as log:
            out = switching.robust_switch(ctx, base, SwitchRequest(colour=6, vertex=6),
                                          reserve=1)
        assert out == NotFound("no_configuration", {"too_few_spares": 1})
        assert log == []
        served = robust_switch(ctx, base, SwitchRequest(colour=6, vertex=6))
        assert served.case == "descend" and {4, 5} <= served.matching.colours

    @pytest.mark.parametrize("reserve,rejections", [
        (2, None), (3, {"too_few_spares": 1}),
    ], ids=["one_left", "none_left"])
    def test_reserved_spares_pass_over_lifts(self, lift_fixture, reserve, rejections):
        # three spare colours: a lift needs one, so a reserve of three
        # passes over it and a reserve of two does not
        g = lift_fixture
        base = RainbowMatching(g, [0, 1, 2])
        ctx = SwitchContext.build(base)
        assert ctx.spares == 3
        out = robust_switch(ctx, base, SwitchRequest(colour=2, vertex=6),
                            reserve=reserve)
        if rejections is None:
            assert out.case == "lift" and out.rejections == {}
        else:
            assert out == NotFound("no_configuration", rejections)

    @pytest.mark.parametrize("reserve", [0, 1, 2])
    @pytest.mark.parametrize("fixture,colours,ids,request_kw,case,under", [
        ("lift_fixture", 6, [0, 1, 2], dict(colour=2, vertex=6), "lift", [0]),
        # descend_fixture with two more colours, so that its descend lands
        # under any reserve up to 2
        ("descend_fixture", 9, [0, 1, 2, 3, 4], dict(colour=6, vertex=6),
         "descend", [1, 0]),
    ], ids=["lift", "descend"])
    def test_sub_calls_get_their_own_chains_reserve(
            self, request, reserve, fixture, colours, ids, request_kw, case, under):
        # never the parent's: a bound counting requests outside the switch
        # could pick a later success inside it that the full search never
        # reaches
        rows = [(e.u, e.v, e.colour) for e in request.getfixturevalue(fixture).edges]
        g = ColouredMultigraph(max(max(u, v) for u, v, _ in rows) + 1, colours, rows)
        base = RainbowMatching(g, ids)
        ctx = SwitchContext.build(base)
        seen = []
        with recorded_calls(lambda call: seen.append((call.depth, call.reserve))):
            out = switching.robust_switch(ctx, base, SwitchRequest(**request_kw),
                                          reserve=reserve)
        assert out.case == case
        # in post-order: the sub-calls return before the call they serve
        assert seen == [(1, r) for r in under] + [(0, reserve)]

    def test_recursion_failed_surfaces(self, lift_fixture):
        g = lift_fixture
        base = RainbowMatching(g, [0, 1, 2])
        ctx = SwitchContext.build(base)
        # both spare colours forbidden starves the inner base switch
        out = robust_switch(ctx, base, SwitchRequest(
            colour=2, vertex=6, avoid_colours=[4, 5]))
        assert isinstance(out, NotFound)
        assert out.reason == "no_configuration"
        assert out.rejections == {"recursion_failed": 1}


def assert_not_a_violation(ctx, edge_id) -> None:
    """``augment`` rejects ``edge_id`` as no violation of the base, before
    any switch call or exchange."""
    e = ctx.base.graph.edge(edge_id)
    message = f"edge {e.id} ({e.u}-{e.v}, colour {e.colour}) is not a violation of the base"
    with recorded_calls() as log:
        with pytest.raises(SwitchUsageError, match=f"^{re.escape(message)}$"):
            augment(ctx, edge_id)
    assert log == [] and ctx.built == {}


@st.composite
def near_threshold_graphs(draw) -> ColouredMultigraph:
    colours = draw(st.integers(8, 48))
    return generate_random(colours, colours + 2, 2 * (colours + 2),
                           max(1, colours // 16), draw(st.integers(0, 50)))


@st.composite
def latin_graphs(draw) -> ColouredMultigraph:
    return latin_to_graph(isotope(draw(st.integers(3, 16)), draw(st.integers(0, 50))))


class TestAugment:
    def test_free_free(self, free_free_fixture):
        g = free_free_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        (violation,) = ctx.violations()
        assert violation.kind == "free_free"
        with recorded_calls() as log:
            out = augment(ctx, violation.edge_id)
        assert isinstance(out, AugmentOutcome)
        assert out.matching.edge_ids == {2, 3, 5}
        assert len(out.calls) == 1
        assert verify(g, out.matching) == []
        assert len(out.matching) == len(base) + 1
        assert requests_served(log) == [(0, 0, 0, (), (6, 7), ())]

    def test_reach_free(self, reach_free_fixture):
        g = reach_free_fixture
        base = RainbowMatching(g, [0, 1, 2, 3])
        ctx = SwitchContext.build(base)
        (violation,) = ctx.violations()
        assert violation.kind == "reach_free"
        with recorded_calls() as log:
            out = augment(ctx, violation.edge_id)
        assert isinstance(out, AugmentOutcome)
        assert out.matching.edge_ids == {6, 8, 9, 10, 11}
        assert len(out.matching) == 5
        assert verify(g, out.matching) == []
        assert len(out.calls) == 2
        assert [rec.distance_to_base for rec in log] == [4, 8]
        assert [rec.budget for rec in log] == [0, 4]
        assert requests_served(log) == [
            (0, 0, 0, (2,), (9,), ()), (2, 4, 4, (), (0, 9), ())]

    def test_reach_reach(self, reach_reach_fixture):
        g = reach_reach_fixture
        base = RainbowMatching(g, [0, 1, 2, 3, 4, 5])
        ctx = SwitchContext.build(base)
        (violation,) = ctx.violations()
        assert violation.kind == "reach_reach"
        with recorded_calls() as log:
            out = augment(ctx, violation.edge_id)
        assert isinstance(out, AugmentOutcome)
        assert out.matching.edge_ids == {6, 9, 12, 13, 14, 15, 16}
        assert len(out.matching) == 7
        assert verify(g, out.matching) == []
        assert len(out.calls) == 3
        # each call of the chain keeps the rejections of its own scan
        assert [c.rejections for c in out.calls] == [
            {}, {"spare_colour_in_use": 1}, {"spare_colour_in_use": 2}]
        assert [rec.distance_to_base for rec in log] == [4, 8, 12]
        assert requests_served(log) == [
            (0, 0, 0, (2, 3), (), ()), (2, 4, 4, (3,), (0,), ()),
            (3, 6, 8, (), (0, 4), ())]

    def test_reach_free_off_own_head(self):
        """A violating edge can leave the head of its own colour's matching
        edge; one switch must then free colour and head together instead of
        fixing the edge it is switching out."""
        g = ColouredMultigraph(7, 3, [
            (0, 1, 0),   # matching edge for colour 0, head 0
            (2, 3, 1),   # flexible partner, tail 3
            (1, 4, 1),   # good edge at tail 1
            (3, 5, 2),   # spare at tail 3
            (0, 6, 0),   # violating edge in colour 0 off its own head
        ])
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        (violation,) = ctx.violations()
        assert violation.kind == "reach_free"
        assert violation.vertices == (0, 6)
        with recorded_calls() as log:
            out = augment(ctx, violation.edge_id)
        assert isinstance(out, AugmentOutcome)
        assert out.matching.edge_ids == {2, 3, 4}
        assert verify(g, out.matching) == []
        assert len(out.calls) == 1
        assert [rec.distance_to_base for rec in log] == [4]
        assert requests_served(log) == [(0, 0, 0, (), (6,), ())]

    def test_reach_reach_off_own_head(self):
        """Both endpoints reachable but one is the head of the violating
        colour's own matching edge: two chained switches instead of three."""
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
            (0, 4, 0),    # 10: violating edge joining heads 0 and 4
            (3, 13, 6),   # 11: third spare at 3
        ])
        base = RainbowMatching(g, [0, 1, 2, 3])
        ctx = SwitchContext.build(base)
        (violation,) = ctx.violations()
        assert violation.kind == "reach_reach"
        assert violation.vertices == (0, 4)
        with recorded_calls() as log:
            out = augment(ctx, violation.edge_id)
        assert isinstance(out, AugmentOutcome)
        assert out.matching.edge_ids == {5, 6, 8, 9, 10}
        assert verify(g, out.matching) == []
        assert len(out.calls) == 2
        assert [rec.distance_to_base for rec in log] == [4, 8]
        assert requests_served(log) == [
            (2, 4, 0, (0,), (), ()), (0, 0, 4, (), (4,), ())]

    # an id past the end raised IndexError, -1 read the last edge as if it
    # were the violating one, and True read edge 1
    @pytest.mark.parametrize("edge_id", [10**6, -1, True])
    def test_edge_outside_the_graph(self, free_free_fixture, edge_id):
        g = free_free_fixture
        ctx = SwitchContext.build(RainbowMatching(g, [0, 1]))
        with pytest.raises(SwitchUsageError,
                           match=f"^edge {edge_id} is not an edge of the graph$"):
            augment(ctx, edge_id)

    # this used to fail with AttributeError on the missing level edge
    def test_unreachable_violation_colour(self, base_switch_fixture):
        # edge 4 joins two free vertices in colour 1, which the base uses
        # but which is not reachable
        rows = [(e.u, e.v, e.colour) for e in base_switch_fixture.edges]
        g = ColouredMultigraph(6, 3, rows + [(4, 5, 1)])
        ctx = SwitchContext.build(RainbowMatching(g, [0, 1]))
        assert list(ctx.violations()) == []
        assert 1 in ctx.base.colours and 1 not in ctx.hierarchy.by_colour
        assert not {4, 5} & ctx.base.covered
        assert_not_a_violation(ctx, 4)

    # a loop or an extend-shaped edge used to leak a bare ValueError from the
    # exchange
    @pytest.mark.parametrize("edge_id", [
        pytest.param(12, id="loop"),
        pytest.param(13, id="unused_colour"),
        pytest.param(4, id="unused_colour_covered_end"),
        pytest.param(14, id="head_and_covered"),
        pytest.param(15, id="covered_and_free"),
        pytest.param(16, id="covered_twice"),
    ])
    def test_not_a_violation(self, reach_free_fixture, edge_id):
        # the fixture, whose base reaches colours 0, 1 and 2 once these
        # edges are in, with heads 0, 3 and 4 and free vertices 8-13
        rows = [(e.u, e.v, e.colour) for e in reach_free_fixture.edges]
        g = ColouredMultigraph(14, 7, rows + [
            (9, 9, 2), (8, 10, 4), (0, 2, 2), (1, 9, 0), (1, 5, 0)])
        ctx = SwitchContext.build(RainbowMatching(g, [0, 1, 2, 3]))
        assert ctx.hierarchy.by_colour.keys() == {0, 1, 2}
        assert ctx.hierarchy.by_head.keys() == {0, 3, 4}
        assert ctx.base.covered == set(range(8))
        assert_not_a_violation(ctx, edge_id)

    # a base edge is a violation of no kind: passed as one, it used to raise
    # "avoided vertices already covered: [1]"; the extend case's graph adds a
    # loop and a covered-end edge in the unused colour 2
    @pytest.mark.parametrize("fixture,ids,extra", [
        ("base_switch_fixture", [0, 1], [(4, 4, 2), (1, 5, 2)]),
        ("free_free_fixture", [0, 1], []),
        ("reach_free_fixture", [0, 1, 2, 3], []),
        ("reach_reach_fixture", [0, 1, 2, 3, 4, 5], []),
    ], ids=["extend_base_edge", "free_free_base_edge", "reach_free_base_edge",
            "reach_reach_base_edge"])
    def test_violation_not_of_its_kind(self, request, fixture, ids, extra):
        g = request.getfixturevalue(fixture)
        g = ColouredMultigraph(g.num_vertices, g.num_colours,
                               [(e.u, e.v, e.colour) for e in g.edges] + extra)
        ctx = SwitchContext.build(RainbowMatching(g, ids))
        assert ctx.hierarchy.by_colour
        for eid in ids:
            assert_not_a_violation(ctx, eid)

    # the kind is read from the edge's ends: a violation relabelled with
    # another kind is no edge id and is refused, and its edge is served as
    # its own kind, with that kind's chain of switches
    @pytest.mark.parametrize("fixture,ids,kind", [
        ("free_free_fixture", [0, 1], "reach_free"),
        ("reach_free_fixture", [0, 1, 2, 3], "free_free"),
    ], ids=["free_free_as_reach_free", "reach_free_as_free_free"])
    def test_violation_of_another_kind(self, request, fixture, ids, kind):
        g = request.getfixturevalue(fixture)
        ctx = SwitchContext.build(RainbowMatching(g, ids))
        (violation,) = ctx.violations()
        relabelled = violation._replace(kind=kind)
        message = f"edge {relabelled!r} is not an edge of the graph"
        with recorded_calls() as log:
            with pytest.raises(SwitchUsageError, match=f"^{re.escape(message)}$"):
                augment(ctx, relabelled)
        assert log == [] and ctx.built == {}
        out = augment(ctx, violation.edge_id)
        assert isinstance(out, AugmentOutcome)
        assert len(out.calls) == brute_switches(ctx.hierarchy, violation.colour,
                                                violation.vertices)

    @given(st.sampled_from(["random", "tight", "latin", "raw"]), st.integers(0, 60),
           st.data())
    @PROPERTY_SETTINGS
    def test_every_found_violation_is_of_its_kind(self, family, seed, data):
        # augment takes every violation find_violations yields, of every kind
        g = data.draw(raw_graphs()) if family == "raw" else family_graph(family, seed)
        ctx = SwitchContext.build(extend_to_maximal(greedy(g, seed)))
        for violation in ctx.violations():
            assert violation.kind in VIOLATION_KINDS
            assert isinstance(augment(ctx, violation.edge_id), (AugmentOutcome, NotFound))

    @pytest.mark.parametrize("graphs", [raw_graphs(), near_threshold_graphs(),
                                        latin_graphs()], ids=["raw", "near_threshold", "latin"])
    @given(data=st.data(), seed=st.integers(0, 3))
    @PROPERTY_SETTINGS
    def test_an_edge_is_a_violation_exactly_when_listed(self, graphs, data, seed):
        # augment refuses exactly the edges that the brute-force sweep does
        # not list, and finds the witness order that find_violations writes
        g = data.draw(graphs)
        base = extend_to_maximal(greedy(g, seed))
        ctx = SwitchContext.build(base)
        listed = {eid for _, eid, _, _ in brute_scan(g, base, ctx.hierarchy)}
        for eid in range(g.num_edges):
            try:
                augment(ctx, eid)
            except SwitchUsageError:
                assert eid not in listed
            else:
                assert eid in listed
        for v in ctx.violations():
            e = g.edge(v.edge_id)
            assert witness_vertices(base.covered, e.u, e.v) == v.vertices
            assert witness_vertices(base.covered, e.v, e.u) == v.vertices

    def test_violation_vertices_in_either_order(self, reach_free_fixture):
        # the violating edge written free end first: augment puts the head
        # first, as find_violations does, and lands the same chain
        rows = [(e.u, e.v, e.colour) for e in reach_free_fixture.edges]
        assert rows[10] == (0, 9, 2)
        rows[10] = (9, 0, 2)
        g = ColouredMultigraph(14, 7, rows)
        ctx = SwitchContext.build(RainbowMatching(g, [0, 1, 2, 3]))
        assert list(ctx.violations()) == [Violation("reach_free", 10, 2, (0, 9))]
        with recorded_calls() as log:
            out = augment(ctx, 10)
        assert out.matching.edge_ids == {6, 8, 9, 10, 11}
        assert requests_served(log) == [
            (0, 0, 0, (2,), (9,), ()), (2, 4, 4, (), (0, 9), ())]

    def test_not_found_propagates(self, reach_free_fixture):
        g = reach_free_fixture
        base = RainbowMatching(g, [0, 1, 2, 3])
        ctx = SwitchContext.build(base, max_budget=3)
        (violation,) = ctx.violations()
        with recorded_calls() as log:
            out = augment(ctx, violation.edge_id)
        assert isinstance(out, NotFound)
        assert out.reason == "budget_cap"
        assert requests_served(log) == []


def check_switch_contract(g, base, ctx) -> list[int]:
    """Switch every level edge of ``ctx`` from ``base`` and check the
    contract on each outcome and each recorded call; returns the levels of
    the switches that succeeded."""
    found = []
    with recorded_calls() as log:
        for level in ctx.hierarchy.levels:
            for le in level.edges:
                out = switching.robust_switch(ctx, base, SwitchRequest(
                    colour=le.colour, vertex=le.head))
                if isinstance(out, NotFound):
                    continue
                m = out.matching
                assert verify(g, m) == []
                assert len(m) == len(base)
                assert le.colour not in m.colours
                assert le.head not in m.covered
                assert out.distance_to_base <= closeness_slack(level.index)
                found.append(level.index)
    for rec in log:
        recheck_call(g, ctx.base, rec)
    return found


class TestContractFuzz:
    @given(st.integers(0, 150), st.integers(0, 3))
    @PROPERTY_SETTINGS
    def test_every_reachable_colour_obeys_the_contract(self, seed, greedy_seed):
        g = random_instance(seed)
        base = greedy(g, greedy_seed)
        check_switch_contract(g, base, SwitchContext.build(base))


# the reachability golden instances that grow level-2 edges; the random
# family above almost never does, so the inductive switch is checked here
_LEVEL2_INSTANCES = ["random_c32_s1", "random_c48_s0", "random_c48_s2",
                     "z15_iso1", "z16_iso2"]


class TestContractLevel2:
    def test_every_level_edge_obeys_the_contract(self):
        found = []
        for name in _LEVEL2_INSTANCES:
            g = REACHABILITY_GOLDEN[name][0]()
            for greedy_seed in range(4):
                base = greedy(g, greedy_seed)
                found += check_switch_contract(g, base, SwitchContext.build(base))
        assert any(level >= 2 for level in found)


class TestSolve:
    def test_reaches_full_transversal_on_small_odd_order(self):
        g = latin_to_graph(cyclic_square(5))
        report = solve(g, target_deficit=0, seed=0)
        assert report.status == "target_reached"
        assert report.exit_code == 0
        assert report.size == 5
        assert verify(g, report.matching) == []

    def test_stalls_when_target_exceeds_optimum(self):
        g = latin_to_graph(cyclic_square(4))  # optimum is 3
        report = solve(g, target_deficit=0, seed=0)
        assert report.status == "stalled"
        assert report.exit_code == 2
        assert report.size == 3
        assert verify(g, report.matching) == []
        assert report.iterations[-1].kind is None

    def test_iteration_cap(self):
        g = latin_to_graph(cyclic_square(4))
        report = solve(g, target_deficit=0, seed=0, max_iterations=0)
        assert report.status == "iteration_cap"
        assert report.exit_code == 3

    # both used to be served: -1 rounds capped at once, and a budget of -5
    # refused every switch and stalled at 30 where the defaults reach 32;
    # 0 is a valid cap for either
    @pytest.mark.parametrize("name,at_zero", [
        ("max_iterations", "iteration_cap"), ("max_budget", "stalled")])
    def test_negative_caps_raise(self, name, at_zero):
        g = generate_random(32, 34, 68, 2, 3)
        with pytest.raises(ValueError, match=f"^{name} must not be negative: -1$"):
            solve(g, **{name: -1})
        report = solve(g, **{name: 0})
        assert (report.status, report.size) == (at_zero, 30)
        assert solve(g).size == 32

    def test_context_rejects_a_negative_budget(self, base_switch_fixture):
        base = RainbowMatching(base_switch_fixture, [0, 1])
        with pytest.raises(ValueError, match="^max_budget must not be negative: -5$"):
            SwitchContext.build(base, max_budget=-5)
        assert SwitchContext.build(base, max_budget=0).max_budget == 0

    def test_empty_graph_stalls(self):
        g = ColouredMultigraph(0, 1, [])
        report = solve(g, target_deficit=0, seed=0)
        assert report.status == "stalled"
        assert report.size == 0
        report2 = solve(g, target_deficit=1, seed=0)  # target 0: never reached
        assert report2.status == "stalled"

    def test_deterministic_json(self):
        g = random_instance(3)
        a = solve(g, target_deficit=1, seed=4).to_json_dict()
        b = solve(g, target_deficit=1, seed=4).to_json_dict()
        assert a == b
        assert sorted(a) == sorted(["status", "n", "target_deficit", "target",
                                    "seed", "size", "iterations", "switches",
                                    "matching"])

    def test_timing_only_on_request(self):
        g = random_instance(0)
        report = solve(g, target_deficit=1)
        assert "wall_ms" not in report.to_json_dict()
        assert report.to_json_dict(include_timing=True)["wall_ms"] >= 0

    def test_iteration_records_monotone(self):
        g = tight_instance(3)
        report = solve(g, target_deficit=0, seed=1)
        for rec in report.iterations:
            assert rec.size_after >= rec.size_before
            assert rec.kind is None or rec.kind in VIOLATION_KINDS

    def test_shuffle_still_valid(self):
        g = tight_instance(2)
        report = solve(g, target_deficit=1, seed=5, shuffle=True)
        assert verify(g, report.matching) == []

    @given(st.integers(0, 60))
    @PROPERTY_SETTINGS
    def test_solve_always_returns_a_valid_matching(self, seed):
        g = tight_instance(seed)
        report = solve(g, target_deficit=1, seed=seed)
        assert report.status in ("target_reached", "stalled", "iteration_cap")
        assert verify(g, report.matching) == []
        assert report.size == len(report.matching)
        assert report.size >= len(greedy(g, seed))


# sha256 of the JSON report plus the log of every successful switch call and
# the iteration log, recorded before the switch engine applied deltas and
# memoised per-context facts; a speed-up must leave every one of them
# unchanged.  The plain solves pinned here and in TestLevel3 and
# TestExchangeReplay log every call of the full search, so they run with
# augment's spare-colour bound off (``no_spare_bound``); TestSpareBound pins
# the same solves with it on.
GOLDEN = {
    (1, False): "bdc3592278728316ad335a272bdac68782e110099cce118031f70a3608bf33f4",
    (1, True): "bdc3592278728316ad335a272bdac68782e110099cce118031f70a3608bf33f4",
    (3, False): "9adf3d5851a2ed94429278fe9280f3044d1e99eda198bd53093ee008a4eddbfb",
    (3, True): "5aa7db611002be8e7ac87c29640c3e15392eaea04b4cf36850258b7524b88f91",
    (5, False): "b63fa156c15e55ecef7ef6dcca65f4982566cc1761dd5f6981865f8926893951",
    (5, True): "2baae8c9d849a89219b57ef88d273fd68254cae98b18390580175e014af5ecff",
}
# solve(generate_random(48, 50, 100, 3, 1), seed=1, shuffle=...), recorded
# the same way before the recipes were folded into one chain runner
GOLDEN_DESCEND = {
    False: "32c6770ac974eef0e492ff167b9e4331dd249e498d515427bda575fb6927ff46",
    True: "8d47fe203e8a8e355c4921c5d86854b300d50e4bb570966582d39f27e786a94d",
}

# solve(latin_to_graph(isotope(n, seed)), seed=seed): (status, size,
# violations tried in the last iteration, logged calls, digest), recorded the
# same way before the switch call's checks and the violation sweep were made
# cheaper; n=64 is a full stall proof
GOLDEN_LATIN = {
    (63, 1): ("target_reached", 63, 611, 927,
              "2c2635ca0d63c14d475afe78ed552ad32dba9eddff841f2631496627d68845a8"),
    (64, 2): ("stalled", 62, 629, 799,
              "fa7c20eb9fb98fe48d8358b902d1ba2ffa7a2e8d3b834b4b26006f23934f7820"),
}


def golden_blob(report, log) -> str:
    """The golden text: ``log`` is every successful switch call of the run,
    as :func:`recorded_calls` logs them."""
    return (json.dumps(report.to_json_dict(), indent=2)
            + repr(log) + repr(report.iterations))


class TestGoldenOutput:
    @pytest.mark.parametrize("seed,shuffle", sorted(GOLDEN))
    def test_solve_output_unchanged(self, seed, shuffle, no_spare_bound):
        # near-threshold random instances: seeds 3 and 5 log 400-600
        # successful switch calls over two augmentation rounds
        with recorded_calls() as log:
            report = solve(generate_random(32, 34, 68, 2, seed), shuffle=shuffle)
        blob = golden_blob(report, log)
        assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[seed, shuffle]

    @pytest.mark.parametrize("shuffle", sorted(GOLDEN_DESCEND))
    def test_descend_output_unchanged(self, shuffle, no_spare_bound):
        # the only golden instance on which a descend lands (next to 171
        # lifts); the cases above land base switches and lifts only
        landed = Counter()

        def counting(call):
            if type(call.out) is switching.SwitchOutcome:
                landed[call.out.case] += 1

        with recorded_calls(counting) as log:
            report = solve(generate_random(48, 50, 100, 3, 1), seed=1,
                           shuffle=shuffle)
        assert (landed["lift"], landed["descend"]) == (171, 1)
        blob = golden_blob(report, log)
        assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_DESCEND[shuffle]

    @pytest.mark.parametrize("n,seed", sorted(GOLDEN_LATIN))
    def test_latin_stall_proof_unchanged(self, n, seed, no_spare_bound):
        with recorded_calls() as log:
            report = solve(latin_to_graph(isotope(n, seed)), seed=seed)
        *shape, digest = GOLDEN_LATIN[n, seed]
        assert [report.status, report.size, report.iterations[-1].attempted,
                len(log)] == shape
        blob = golden_blob(report, log)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


# sha256 of repr(report.switch_calls) on the GOLDEN_LATIN cases, which land
# 6 and 7 exchanges: the report keeps the calls of landed chains only
GOLDEN_LATIN_LANDED = {
    (63, 1): (6, "bd53bb74edd3c188eae08e1cfc412d6f4729f79ffec2a19f30789f047dfc544c"),
    (64, 2): (7, "7cffcb1eb519bce54ae1d0cc00a4f4201dd5858a71f16d8a4fc432c55ce3872d"),
}


def _landed_cases():
    """``(instance, solve seed, shuffle)`` of every golden solve above."""
    for seed, shuffle in sorted(GOLDEN):
        yield pytest.param(lambda seed=seed: generate_random(32, 34, 68, 2, seed),
                           0, shuffle, id=f"random_s{seed}_{shuffle}")
    for shuffle in sorted(GOLDEN_DESCEND):
        yield pytest.param(lambda: generate_random(48, 50, 100, 3, 1), 1, shuffle,
                           id=f"descend_{shuffle}")
    for n, seed in sorted(GOLDEN_LATIN):
        yield pytest.param(lambda n=n, seed=seed: latin_to_graph(isotope(n, seed)),
                           seed, False, id=f"latin_{n}_s{seed}")


class TestLandedCalls:
    @pytest.mark.parametrize("make,seed,shuffle", _landed_cases())
    def test_one_checked_record_per_exchange(self, make, seed, shuffle):
        g = make()
        with recorded_calls() as log:
            report = solve(g, seed=seed, shuffle=shuffle)
        landed = report.switch_calls
        assert 0 < len(landed) == sum(it.exchanges for it in report.iterations)
        # an in-order subsequence of every call made
        calls = iter(log)
        assert all(rec in calls for rec in landed)
        for rec in landed:
            recheck_call(g, RainbowMatching(g, rec.base_ids), rec)

    @pytest.mark.parametrize("n,seed", sorted(GOLDEN_LATIN_LANDED))
    def test_latin_landed_calls_unchanged(self, n, seed):
        report = solve(latin_to_graph(isotope(n, seed)), seed=seed)
        count, digest = GOLDEN_LATIN_LANDED[n, seed]
        assert len(report.switch_calls) == count
        blob = repr(report.switch_calls)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest


# Two solves that the identity corpus pins, checked further here:
# "level3-C128-s7" (generate_random(128, 130, 260, 8, 7)) is the one instance
# measured whose solve serves level-3 calls (4 of the 270 it makes) when
# augment's spare-colour bound is off; it reaches 128.  "random-C256-s6"
# (generate_random(256, 258, 516, 16, 6)), shuffled, stalls at 255 in a
# three-level context whose stall proof serves 2 depth-2 calls (level-1 base
# exchanges under a level-3 call).
def corpus_file(name, tmp_path):
    """The graph of corpus instance ``name``, and a file of its text."""
    path = tmp_path / "instance.txt"
    path.write_text(instance_text(name))
    return loads(instance_text(name)), str(path)


class TestLevel3:
    def test_level3_solve_unchanged_and_within_contract(self, tmp_path, capsys,
                                                        no_spare_bound):
        g, path = corpus_file("level3-C128-s7", tmp_path)
        with recorded_calls() as log:
            assert cli.main(["solve", "--input", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["level3-C128-s7 json"]
        assert any(rec.level == 3 for rec in log)
        bases = {}
        for rec in log:
            base = bases.get(rec.base_ids)
            if base is None:
                base = bases[rec.base_ids] = RainbowMatching(g, rec.base_ids)
            recheck_call(g, base, rec)

    def test_level3_solve_on_the_shipped_path(self, tmp_path, capsys):
        # the same stdout with the spare-colour bound on; the chains augment
        # refutes held every level-3 call, and each call left is re-checked
        g, path = corpus_file("level3-C128-s7", tmp_path)
        with recorded_calls() as log:
            assert cli.main(["solve", "--input", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["level3-C128-s7 json"]
        assert Counter(rec.level for rec in log) == {1: 26, 2: 4}
        for rec in log:
            recheck_call(g, RainbowMatching(g, rec.base_ids), rec)

    def test_level3_solve_with_augments_bound_alone(self, tmp_path, capsys):
        # the same stdout with the bound inside switches off: the chains
        # that augment leaves to run then serve 20 more level-1 calls
        g, path = corpus_file("level3-C128-s7", tmp_path)
        with switch_bound_off(), recorded_calls() as log:
            assert cli.main(["solve", "--input", path, "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["level3-C128-s7 json"]
        assert Counter(rec.level for rec in log) == {1: 46, 2: 4}

    def test_depth2_solve_unchanged_and_within_contract(self, tmp_path, capsys):
        g, path = corpus_file("random-C256-s6", tmp_path)
        deep = []

        def recording(call):
            if call.depth == 2 and type(call.out) is switching.SwitchOutcome:
                deep.append(switching.CallRecord.from_call(call.ctx.base, call.out))

        with recorded_calls(recording):
            assert cli.main(["solve", "--input", path, "--json", "--shuffle"]) == 2
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["random-C256-s6 json-shuffle"]
        assert len(deep) == 2
        for rec in deep:
            recheck_call(g, RainbowMatching(g, rec.base_ids), rec)


# the plain golden solves above with the spare-colour bound on: (calls served
# with the bound off, calls served with augment's bound alone, sha256 of
# golden_blob, and the same two with the bound inside switches too)
SPARE_BOUND_CASES = {
    "random_s3": (lambda: generate_random(32, 34, 68, 2, 3), 0),
    "random_s5": (lambda: generate_random(32, 34, 68, 2, 5), 0),
    "descend": (lambda: generate_random(48, 50, 100, 3, 1), 1),
    "latin_63_1": (lambda: latin_to_graph(isotope(63, 1)), 1),
    "latin_64_2": (lambda: latin_to_graph(isotope(64, 2)), 2),
    "level3": (lambda: generate_random(128, 130, 260, 8, 7), 0),
}
SPARE_BOUND_GOLDEN = {
    "random_s3": (403, 7, "7ec8809f0c7071273c4d34680275031e9ee0323de7370f564c39a1f89e9286b9",
                  7, "7ec8809f0c7071273c4d34680275031e9ee0323de7370f564c39a1f89e9286b9"),
    "random_s5": (598, 15, "475d391b6c7ee90ad6c38c0d0a3d92526946f3eb4f3081b9ffbd34cf5dd69f18",
                  4, "dff7de8e1d0a588aa754826aa6d3d78d9b4a3e91f4e7fe912e448d3975fc2a98"),
    "descend": (1220, 21, "364f3410a85a1bc50fd2effd3b4d03d82bb05953b384ecb9807d8169608a4215",
                7, "8b47508cc9bcd411412710c7c7803e7b766b260ea87ce0a62090d868f4b84c11"),
    "latin_63_1": (927, 172,
                   "681ce8d9504e3efb67d8621a3d91039d847ea3d2e3b9be894740cf002eace969",
                   52, "deb9b5cdf066afcde655948c77f1faf4446522158ac89d59f700a3154436800e"),
    "latin_64_2": (799, 187,
                   "1a02faf5d5d93c2779fe0ce797acc8bb2eb89ab86b97bd0f00cc1d448ac5dd97",
                   65, "cf6c2eb584c843a7b6a90cd054ba07248ff474362a62517812f44741ce70a5da"),
    "level3": (9949, 50, "5927a441a3193cb280ed9946275fe1f3174a5035f95a26cdce6ce2d9d2196a31",
               30, "e362aa851072b8adab9bde5b0a6de0b731749b040f70f75b76a904470dcadc7b"),
}


class TestSpareBound:
    @pytest.mark.parametrize("name", sorted(SPARE_BOUND_CASES))
    def test_only_refuted_chains_lose_their_calls(self, name):
        make, seed = SPARE_BOUND_CASES[name]
        g = make()
        with spare_bound_off(), augment_calls() as tried:
            full = solve(g, seed=seed)
        # augment's bound alone: the chains it refutes lose all their calls,
        # every other chain none
        with switch_bound_off(), recorded_calls() as log:
            report = solve(g, seed=seed)
        # with the bound inside switches too, some of those calls go as well
        with recorded_calls() as shipped_log:
            shipped = solve(g, seed=seed)
        for got in (report, shipped):
            assert got.to_json_dict() == full.to_json_dict()
            assert got.iterations == full.iterations
            assert got.switch_calls == full.switch_calls
        refuted = [needs_too_many_spares(ctx, eid) for ctx, eid, _, _ in tried]
        assert any(refuted)
        assert all(isinstance(out, NotFound)
                   for (_, _, out, _), r in zip(tried, refuted) if r)
        assert log == [rec for (*_, served), r in zip(tried, refuted) if not r
                       for rec in served]
        calls = iter(log)
        assert all(rec in calls for rec in shipped_log)
        full_calls = sum(len(served) for *_, served in tried)
        assert (full_calls,
                len(log), hashlib.sha256(golden_blob(report, log).encode()).hexdigest(),
                len(shipped_log),
                hashlib.sha256(golden_blob(shipped, shipped_log).encode()).hexdigest()
                ) == SPARE_BOUND_GOLDEN[name]

    # the bound stays out of shuffled solves, whose later draws depend on
    # every chain run before them: their pinned logs hold with the bound on
    @pytest.mark.parametrize("args,seed,digest", [
        pytest.param((32, 34, 68, 2, 3), 0, GOLDEN[3, True], id="random_s3"),
        pytest.param((32, 34, 68, 2, 5), 0, GOLDEN[5, True], id="random_s5"),
        pytest.param((48, 50, 100, 3, 1), 1, GOLDEN_DESCEND[True], id="descend"),
    ])
    def test_shuffled_solves_run_every_chain(self, args, seed, digest):
        with recorded_calls() as log:
            report = solve(generate_random(*args), seed=seed, shuffle=True)
        blob = golden_blob(report, log)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    @pytest.mark.parametrize("graphs", [raw_graphs(), near_threshold_graphs(),
                                        latin_graphs()], ids=["raw", "near_threshold", "latin"])
    @given(data=st.data(), seed=st.integers(0, 3), shuffle=st.booleans())
    @PROPERTY_SETTINGS
    def test_refuted_chains_never_land(self, graphs, data, seed, shuffle):
        # with the bound off, every chain it refutes comes back NotFound, and
        # a landed chain makes at most C - |M| level-1 exchanges
        g = data.draw(graphs)
        with spare_bound_off(), augment_calls() as tried:
            solve(g, seed=seed, shuffle=shuffle)
        for ctx, edge_id, out, _ in tried:
            if needs_too_many_spares(ctx, edge_id):
                assert isinstance(out, NotFound)
            elif isinstance(out, AugmentOutcome):
                bases = sum(call.case == "base" for call in out.calls)
                assert bases <= g.num_colours - len(ctx.base)


class TestSwitchBound:
    @pytest.mark.parametrize("graphs", [raw_graphs(), near_threshold_graphs(),
                                        latin_graphs()], ids=["raw", "near_threshold", "latin"])
    @given(data=st.data(), seed=st.integers(0, 3))
    @PROPERTY_SETTINGS
    def test_no_outcome_moves(self, graphs, data, seed):
        # the bound inside switches only passes over candidates whose chain
        # fails either way: the same augment calls with the same outcomes,
        # landed ones call for call, and each one's served calls a subsequence
        # of what the full search serves
        g = data.draw(graphs)
        with switch_bound_off(), augment_calls() as full_tried:
            full = solve(g, seed=seed)
        with augment_calls() as tried:
            report = solve(g, seed=seed)
        assert json.dumps(report.to_json_dict()) == json.dumps(full.to_json_dict())
        assert report.iterations == full.iterations
        assert report.switch_calls == full.switch_calls
        assert len(tried) == len(full_tried)
        for (_, edge_id, out, served), (_, full_edge_id, full_out, full_served) \
                in zip(tried, full_tried):
            assert edge_id == full_edge_id
            assert type(out) is type(full_out)
            if isinstance(out, AugmentOutcome):
                assert out == full_out
                assert served == full_served
            calls = iter(full_served)
            assert all(rec in calls for rec in served)


class _Unshuffled(random.Random):
    """A random source whose shuffle leaves every list as it is."""

    def shuffle(self, x):
        pass


def served_as(ctx, edge_id):
    """What ``augment`` makes of the violating edge ``edge_id`` in ``ctx``:
    the landed matching's ids or the :class:`NotFound`, with the records of
    the switch calls served on the way."""
    with recorded_calls() as log:
        out = augment(ctx, edge_id)
    if isinstance(out, AugmentOutcome):
        return "landed", out.matching.sorted_ids, log
    return out, log


@contextmanager
def option_builds():
    """Log ``(owner, tail, level, inputs)`` for every ``base_pairs`` and
    ``certificate`` call that the switch engine makes inside the block: a
    base-pairs build as ``(flex, tail, 1, edge_id)``, a certificate build as
    ``(heads, tail, level, (colours, covered))``.  ``flex`` and ``heads`` are
    the calling context's flexible structure and heads by ``by_head``, kept
    so that their ids stay unique.  Placement calls
    ``reachability.certificate`` through its own module global, so it is
    not logged."""
    log = []
    pairs, certificate = switching.base_pairs, switching.certificate

    def logging_pairs(graph, flex, good_at, edge_id, tail):
        log.append((flex, tail, 1, edge_id))
        return pairs(graph, flex, good_at, edge_id, tail)

    def logging_certificate(graph, tail, colours, covered, heads, level):
        log.append((heads, tail, level, (colours, covered)))
        return certificate(graph, tail, colours, covered, heads, level)

    switching.base_pairs, switching.certificate = logging_pairs, logging_certificate
    try:
        yield log
    finally:
        switching.base_pairs, switching.certificate = pairs, certificate


@contextmanager
def switches_read():
    """Log ``(ctx, colour)`` for every switch call made inside the block that
    reads its options: every call but one refused at the budget cap."""
    log = []

    def reading(call):
        if not (type(call.out) is NotFound and call.out.reason == "budget_cap"):
            log.append((call.ctx, call.request.colour))

    with recorded_calls(reading):
        yield log


def assert_options_built_once(g, seed, shuffle) -> tuple[int, int]:
    """Solve ``g`` and check that each context built each level edge's
    switch options at most once, from the edge's own inputs, only for the
    edges whose switches read them, and kept them all in ``ctx.options``;
    return the number of level-1 and of higher builds."""
    with option_builds() as built, switches_read() as read, augment_calls() as tried:
        solve(g, seed=seed, shuffle=shuffle)
    contexts = {}
    for ctx, _, _, _ in tried:
        contexts[id(ctx.flex)] = contexts[id(ctx.hierarchy.by_head)] = ctx
    edges_built = {id(ctx): [] for ctx in contexts.values()}
    for owner, tail, level, inputs in built:
        ctx = contexts[id(owner)]
        (le,) = [le for le in ctx.hierarchy.by_colour.values() if le.tail == tail]
        assert le.level == level
        if level == 1:
            assert (owner, inputs) == (ctx.flex, le.edge_id)
        else:
            assert owner is ctx.hierarchy.by_head
            assert inputs == (ctx.hierarchy.levels[le.cert - 1].colours, ctx.base.covered)
        edges_built[id(ctx)].append(le.edge_id)
    for ctx in contexts.values():
        edges_read = {ctx.hierarchy.by_colour[c].edge_id for at, c in read if at is ctx}
        assert sorted(edges_built[id(ctx)]) == sorted(ctx.options) == sorted(edges_read)
    levels = Counter(level > 1 for _, _, level, _ in built)
    return levels[False], levels[True]


class TestShufflePolicy:
    """A shuffled context differs from a plain one only in the order of its
    candidates and in its spare bound, and it builds switch options as a
    plain one does, at every level: once per edge and context, when a switch
    first reads them."""

    @pytest.mark.parametrize("graphs", [raw_graphs(), near_threshold_graphs(),
                                        latin_graphs()], ids=["raw", "near_threshold", "latin"])
    @given(data=st.data(), seed=st.integers(0, 3))
    @PROPERTY_SETTINGS
    def test_a_shuffle_that_moves_nothing_serves_as_plain(self, graphs, data, seed):
        # with the bound off, a plain context serves every violation exactly
        # as a shuffled one whose shuffle leaves every list in place
        g = data.draw(graphs)
        base = extend_to_maximal(greedy(g, seed))
        unshuffled = SwitchContext.build(base, rng=_Unshuffled())
        with spare_bound_off():
            plain = SwitchContext.build(base)
        found = list(plain.violations())
        assert list(unshuffled.violations()) == found
        for violation in found:
            assert served_as(unshuffled, violation.edge_id) == served_as(
                plain, violation.edge_id)

    @pytest.mark.parametrize("graphs", [raw_graphs(), near_threshold_graphs(),
                                        latin_graphs()], ids=["raw", "near_threshold", "latin"])
    @given(data=st.data(), seed=st.integers(0, 3), shuffle=st.booleans())
    @PROPERTY_SETTINGS
    def test_pairs_built_at_most_once_per_context(self, graphs, data, seed, shuffle):
        assert_options_built_once(data.draw(graphs), seed, shuffle)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_a_solve_builds_pairs(self, shuffle):
        # the descend instance: level-1 switches run in both orders
        assert assert_options_built_once(generate_random(48, 50, 100, 3, 1), 1,
                                         shuffle)[0] > 0

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_a_level3_solve_builds_higher_options(self, shuffle):
        # switches at levels 1 and 2 read their options in both orders
        low, high = assert_options_built_once(generate_random(128, 130, 260, 8, 7), 0,
                                              shuffle)
        assert low > 0 and high > 0

    def test_a_latin_solve_builds_higher_options(self):
        low, high = assert_options_built_once(latin_to_graph(isotope(16, 2)), 0, False)
        assert low > 0 and high > 0


def assert_built_fresh(ctx, got, fresh) -> None:
    """``got``, a matching that ``ctx`` served, equals ``fresh``, the same
    exchange built anew, and knows its exact distance to the base."""
    assert (got.edge_ids, got.covered, got.colours) == (
        fresh.edge_ids, fresh.covered, fresh.colours)
    assert got.distance_to(ctx.base) == len(got.edge_ids ^ ctx.base.edge_ids)


class TestSharedExchanges:
    def test_value_equal_start_shares_the_build(self, base_switch_fixture):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        built = ctx.exchange(base, (0, 1), (2, 3))
        assert ctx.exchange(RainbowMatching(g, [0, 1]), (0, 1), (2, 3)) is built
        assert ctx.built == {(base.edge_ids, (0, 1), (2, 3)): built}
        assert SwitchContext.build(base).built == {}

    @pytest.mark.parametrize("removed,added,message", [
        ((3,), (), "cannot remove absent edges [3]"),
        ((), (2,), "cannot add edge 2 (1-4, colour 1): a loop, or its colour "
                   "or a vertex is in use"),
    ], ids=["absent", "clash"])
    def test_an_exchange_that_raises_stores_nothing(self, base_switch_fixture,
                                                    removed, added, message):
        g = base_switch_fixture
        base = RainbowMatching(g, [0, 1])
        ctx = SwitchContext.build(base)
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ctx.exchange(base, removed, added)
            assert ctx.built == {}

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("args,seed", [
        pytest.param((48, 50, 100, 3, 1), 1, id="descend"),
        pytest.param((128, 130, 260, 8, 7), 0, id="level3"),
    ])
    def test_every_served_call_matches_a_fresh_build(self, args, seed, shuffle,
                                                     monkeypatch):
        g = generate_random(*args)
        contexts = []
        build = SwitchContext.build.__func__

        def building(cls, *a, **kw):
            ctx = build(cls, *a, **kw)
            assert ctx.built == {}
            contexts.append(ctx)
            return ctx

        first = {}
        repeats = Counter()

        def checking(call):
            out = call.out
            if type(out) is switching.SwitchOutcome:
                start = out.start if out.case == "base" else out.under[-1].matching
                got, fresh = out.matching, start.with_swap(out.removed, out.added)
                assert_built_fresh(call.ctx, got, fresh)
                key = (id(call.ctx), start.edge_ids, out.removed, out.added)
                if key in first:
                    assert first[key] is got
                    repeats[out.case] += 1
                else:
                    first[key] = got

        monkeypatch.setattr(SwitchContext, "build", classmethod(building))
        with recorded_calls(checking):
            solve(g, seed=seed, shuffle=shuffle)
        assert repeats["base"] > 0
        # augment's final add goes through the same dict
        for ctx in contexts:
            for (ids, removed, added), got in ctx.built.items():
                fresh = RainbowMatching(g, ids).with_swap(removed, added)
                assert_built_fresh(ctx, got, fresh)


def replayed_cases(make, seed, shuffle) -> Counter:
    """Solve ``make()`` and check that each call's removed/added ids rebuild
    its result from its start (base) or from the result of the call just
    under it (lift, descend); returns the calls checked by case."""
    checked = Counter()

    def replaying(call):
        ctx, out = call.ctx, call.out
        if type(out) is switching.SwitchOutcome:
            calls = out.calls
            for i, c in enumerate(calls):
                if c.case == "base":
                    assert c.start.with_swap(c.removed, c.added) == c.matching
                else:
                    assert i > 0 and calls[i - 1].depth == c.depth + 1
                    before = calls[i - 1].matching
                    assert before.with_swap(c.removed, c.added) == c.matching
                assert c.removed[0] == ctx.hierarchy.by_colour[c.request.colour].edge_id
                # a chain builds its requests uncoerced: every set is a frozenset
                assert type(c.request) is SwitchRequest
                assert [type(x) for x in c.request[3:]] == [frozenset] * 3
                checked[c.case] += 1

    with recorded_calls(replaying):
        solve(make(), seed=seed, shuffle=shuffle)
    return checked


class TestExchangeReplay:
    @pytest.mark.parametrize("make,seed,shuffle,cases", [
        pytest.param(lambda: generate_random(32, 34, 68, 2, 3), 0, False,
                     {"base", "lift"}, id="random_s3"),
        pytest.param(lambda: generate_random(48, 50, 100, 3, 1), 1, False,
                     {"base", "lift", "descend"}, id="descend_False"),
        pytest.param(lambda: generate_random(48, 50, 100, 3, 1), 1, True,
                     {"base", "lift", "descend"}, id="descend_True"),
    ])
    def test_every_call_replays_its_exchange(self, make, seed, shuffle, cases,
                                             no_spare_bound):
        assert set(replayed_cases(make, seed, shuffle)) == cases

    # plain solves with the spare-colour bound on: on random_s3 the chains
    # it leaves to run serve base switches only, and on the 48-colour
    # instance above its bound inside switches passes over every descend
    # that would land; the 96-colour instance still serves one
    @pytest.mark.parametrize("make,seed,cases", [
        pytest.param(lambda: generate_random(32, 34, 68, 2, 3), 0, {"base"},
                     id="random_s3"),
        pytest.param(lambda: generate_random(96, 98, 196, 6, 1), 1,
                     {"base", "lift", "descend"}, id="descend"),
        pytest.param(lambda: generate_random(48, 50, 100, 3, 1), 1,
                     {"base", "lift"}, id="descend_48"),
    ])
    def test_shipped_path_replays_its_exchanges(self, make, seed, cases):
        assert set(replayed_cases(make, seed, False)) == cases

    def test_augments_bound_alone_replays_a_descend(self):
        # the 48-colour instance with the bound inside switches off serves
        # the descend that the shipped path passes over
        with switch_bound_off():
            cases = replayed_cases(lambda: generate_random(48, 50, 100, 3, 1), 1,
                                   False)
        assert set(cases) == {"base", "lift", "descend"}


# every name that perfbench/tracing.py patches, by owner: it reads each from
# the owner's own ``__dict__``, so a name moved or inherited breaks the benchmark
TRACED_NAMES = [
    (cli, ["main", "solve", "max_rainbow_matching", "max_partial_transversal"]),
    (multigraph, ["loads"]),
    (instances, ["loads_square"]),
    (switching, ["robust_switch", "closeness", "greedy", "extend_to_maximal",
                 "compute_flexible", "classify_good_bad", "build_hierarchy",
                 "find_violations", "augment"]),
    (SwitchContext, ["build"]),
    (RainbowMatching, ["__init__", "with_swap"]),
    (Hierarchy, ["entry", "head_entry"]),
    (FlexibleStructure, ["by_colour"]),
]


@pytest.mark.parametrize("owner,names", TRACED_NAMES,
                         ids=[owner.__name__ for owner, _ in TRACED_NAMES])
def test_traced_names_are_in_their_owners_dict(owner, names):
    assert [name for name in names if name not in vars(owner)] == []

