"""Flexible structure, level growth, violation detection, counting."""
from __future__ import annotations

import hashlib
import itertools
import json
import re
from math import ceil, floor, inf

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowmatch import (
    AugmentOutcome,
    ColouredMultigraph,
    InstanceParams,
    NotFound,
    OrientedEdge,
    RainbowMatching,
    SwitchContext,
    Violation,
    augment,
    build_hierarchy,
    classify_good_bad,
    compute_flexible,
    counting_diagnostics,
    cyclic_square,
    extend_to_maximal,
    find_violations,
    generate_random,
    greedy,
    latin_to_graph,
    solve,
    switching,
)
from rainbowmatch.cli import main
from rainbowmatch.matching import external_edges
from rainbowmatch.multigraph import dumps
from rainbowmatch.reachability import base_pairs

from conftest import (augment_calls, bad_per_colour, brute_scan, brute_switches,
                      default_params, isotope, needs_too_many_spares, random_instance,
                      rank, raw_graphs, spare_bound_off)

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)

NOT_MAXIMAL = re.compile(r"^edge (\d+) \((\d+)-(\d+), colour (\d+)\) joins two free "
                         r"vertices in a colour the matching does not use: it is not "
                         r"maximal$")


def analyse(graph, matching, params=None):
    params = params or default_params(graph)
    flex = compute_flexible(matching, params)
    good_at = classify_good_bad(matching, flex, params)
    hier = build_hierarchy(matching, flex, good_at, params)
    return params, flex, good_at, hier


class TestFlexibleStructure:
    def test_star_of_externals(self):
        # one matching edge, three unused-colour externals at vertex 0
        g = ColouredMultigraph(5, 4, [(0, 1, 0), (0, 2, 1), (0, 3, 2), (0, 4, 3)])
        m = RainbowMatching(g, [0])
        params, flex, _, _ = analyse(g, m)
        assert [c for c in range(g.num_colours) if c not in m.colours] == [1, 2, 3]
        assert max(1, ceil(params.alpha * 3)) == 1  # the tail threshold
        assert len(flex.partners) == 1
        oe = flex.partners[0]
        assert (oe.edge_id, oe.tail, oe.head, oe.colour) == (0, 0, 1, 0)
        assert {oe.head for oe in flex.partners.values()} == {1}
        assert flex.partners.keys() == {0}
        assert flex.external_free_at == {0: (1, 2, 3)}
        assert flex.by_colour(0) == oe
        assert flex.by_colour(9) is None

    def test_tail_tie_break_prefers_lower_id(self):
        # both endpoints qualify: the lower one becomes the tail
        g = ColouredMultigraph(6, 3, [(0, 1, 0), (0, 2, 1), (1, 3, 2)])
        _, flex, _, _ = analyse(g, RainbowMatching(g, [0]))
        assert flex.partners[0].tail == 0 and flex.partners[0].head == 1

    def test_tail_follows_the_externals(self):
        g = ColouredMultigraph(6, 3, [(0, 1, 0), (1, 3, 2)])
        _, flex, _, _ = analyse(g, RainbowMatching(g, [0]))
        assert flex.partners[0].tail == 1 and flex.partners[0].head == 0

    def test_full_colour_matching_short_circuits(self):
        g = ColouredMultigraph(2, 1, [(0, 1, 0)])
        m = RainbowMatching(g, [0])
        _, flex, good_at, hier = analyse(g, m)
        assert g.num_colours - len(m) == 0  # the matching uses every colour
        assert not flex.partners
        assert not any(good_at.values()) and not bad_per_colour(m, flex, good_at)
        assert hier.m == 0

    def test_no_externals_means_no_structure(self):
        g = ColouredMultigraph(4, 3, [(0, 1, 0), (2, 3, 1)])
        m = RainbowMatching(g, [0, 1])
        _, flex, good_at, hier = analyse(g, m)
        assert g.num_colours - len(m) > 0  # not every colour is used
        assert flex.partners == {}
        assert hier.m == 0
        assert not hier.by_head
        assert list(find_violations(m, hier)) == []


class TestGoodBad:
    def test_reach_free_fixture_classification(self, reach_free_fixture):
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        params, flex, good_at, _ = analyse(g, m)
        assert flex.partners.keys() == {1, 3}
        assert {oe.tail for oe in flex.partners.values()} == {3, 7}
        assert max(1, ceil(params.alpha * (g.num_colours - len(m)) / 2)) == 1
        assert {i for ids in good_at.values() for i in ids} == {8, 9}
        # every external flexible-coloured edge is good
        assert {e.id for e in g.edges if e.colour in (1, 3)
                and (e.u in m.covered) != (e.v in m.covered)} == {8, 9}
        assert good_at == {1: (8,), 5: (9,)}
        assert bad_per_colour(m, flex, good_at) == {1: 0, 3: 0}

    def test_edge_eating_the_reserve_is_bad(self):
        # the only flexible-coloured external lands on the reserve itself,
        # wiping it out, so it cannot be good
        g = ColouredMultigraph(8, 4, [
            (0, 1, 0),   # 0: matching
            (2, 3, 1),   # 1: matching, flexible via edge 2
            (3, 4, 2),   # 2: the single reserve edge at tail 3
            (1, 4, 1),   # 3: flexible-coloured, but touches reserve vertex 4
        ])
        m = RainbowMatching(g, [0, 1])
        _, flex, good_at, _ = analyse(g, m)
        assert flex.partners.keys() == {1}
        assert {i for ids in good_at.values() for i in ids} == set()
        assert all(3 not in ids for ids in good_at.values())
        assert bad_per_colour(m, flex, good_at) == {1: 1}


class TestHierarchy:
    def test_reach_free_fixture_levels(self, reach_free_fixture):
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        params, flex, good_at, hier = analyse(g, m)
        assert hier.m == 1
        assert max(1, ceil(params.alpha * g.num_colours)) == 1  # the stop threshold
        level = hier.levels[0]
        assert {le.edge_id for le in level.edges} == {0, 2}
        assert {le.head for le in level.edges} == {0, 4}
        assert level.colours == {0, 2}
        assert all(le.cert == 0 for le in level.edges)
        assert hier.by_head.keys() == {0, 4}
        assert hier.by_colour.keys() == {0, 2}
        assert hier.stopped == ()
        assert hier.by_colour[0] is level.edges[0]
        assert hier.by_head[4] is level.edges[1]

    def test_high_alpha_stops_before_level_one(self, reach_free_fixture):
        # same graph, alpha forced up: 2 candidates < stop threshold 3,
        # so they land in ``stopped`` and nothing is reachable
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        params = InstanceParams.for_graph(g, epsilon="1/2", alpha="1/3")
        _, _, good_at, hier = analyse(g, m, params)
        assert max(1, ceil(params.alpha * g.num_colours)) == 3
        assert hier.m == 0
        assert {le.edge_id for le in hier.stopped} == {0, 2}
        assert not hier.by_head
        assert list(find_violations(m, hier)) == []


class TestViolations:
    def test_reach_free_detection(self, reach_free_fixture):
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        _, _, _, hier = analyse(g, m)
        assert list(find_violations(m, hier)) == [
            Violation("reach_free", 10, 2, (0, 9)),
        ]

    def test_reach_reach_detection(self, reach_reach_fixture):
        g = reach_reach_fixture
        m = RainbowMatching(g, [0, 1, 2, 3, 4, 5])
        _, _, _, hier = analyse(g, m)
        assert hier.by_head.keys() == {0, 4, 6}
        assert list(find_violations(m, hier)) == [
            Violation("reach_reach", 16, 3, (0, 4)),
        ]

    def test_free_free_detection(self, free_free_fixture):
        g = free_free_fixture
        m = RainbowMatching(g, [0, 1])
        _, _, _, hier = analyse(g, m)
        assert list(find_violations(m, hier)) == [
            Violation("free_free", 5, 0, (6, 7)),
        ]

    def test_rank_order(self):
        vs = [
            Violation("free_free", 1, 0, (0, 1)),
            Violation("reach_free", 9, 5, (2, 3)),
            Violation("reach_reach", 4, 2, (4, 5)),
            Violation("reach_free", 3, 1, (6, 7)),
            Violation("reach_free", 2, 5, (2, 3)),
        ]
        assert [v.kind for v in sorted(vs, key=rank)] == [
            "reach_free", "reach_free", "reach_free", "reach_reach", "free_free"]
        # ties within a kind fall back to witness vertices then edge id
        assert [v.edge_id for v in sorted(vs, key=rank)][:3] == [2, 9, 3]

    def test_named_tuple_repr_and_immutability(self):
        v = Violation("reach_free", 10, 2, (0, 9))
        assert repr(v) == ("Violation(kind='reach_free', edge_id=10, colour=2, "
                           "vertices=(0, 9))")
        assert rank(v) == (0, (0, 9), 10)
        with pytest.raises(AttributeError):
            v.kind = "free_free"


def brute_pairs(g, m, flex, good_at, le) -> tuple:
    """The level-1 configurations ``(w, z, gid, hid, partner, spare)`` of
    ``le``, enumerated from the graph: good edges at the tail (external,
    flexible-coloured, not bad) times the external unused-colour edges at the
    tail of their colour's flexible edge, minus ``z == w`` and ``le``'s own
    flexible edge as partner; sorted by the first four."""
    out = []
    for gid in g.edges_at(le.tail):
        ge = g.edge(gid)
        if ge.u == ge.v or ge.colour not in flex.partners:
            continue
        w = ge.other(le.tail)
        # an external flexible-coloured edge is bad unless good_at holds it
        if w in m.covered or gid not in good_at.get(le.tail, ()):
            continue
        partner = flex.partners[ge.colour]
        if partner.edge_id == le.edge_id:
            continue
        for hid in g.edges_at(partner.tail):
            he = g.edge(hid)
            if he.u == he.v or he.colour in m.colours:
                continue
            z = he.other(partner.tail)
            if z not in m.covered and z != w:
                out.append((w, z, gid, hid, partner, he.colour))
    return tuple(sorted(out, key=lambda t: t[:4]))


def recount_certificates(g, m) -> int:
    """Recount every level edge's certificate from scratch, check that the
    switch context builds exactly the switch options counted for each level
    edge, and return how many level-2+ edges were checked."""
    params, flex, good_at, hier = analyse(g, m)
    ctx = SwitchContext(m, flex, hier, good_at=good_at)
    free_set = {v for v in range(g.num_vertices) if v not in m.covered}
    flex_colours = flex.partners.keys()
    level1_threshold = (max(1, ceil(params.alpha * len(flex_colours)))
                        if flex_colours else 1)

    checked = 0
    heads_below: set[int] = set()
    for level in hier.levels:
        for le in level.edges:
            if level.index == 1:
                assert le.cert == 0
                assert len(good_at.get(le.tail, ())) >= level1_threshold
                assert (ctx.options_of(le) == base_pairs(g, flex, good_at, le.edge_id, le.tail)
                        == brute_pairs(g, m, flex, good_at, le))
                continue
            assert 1 <= le.cert < level.index
            targets = free_set | heads_below
            for j in range(1, le.cert + 1):
                lower = hier.levels[j - 1]
                need = max(1, ceil(params.alpha * len(lower.colours)))
                counted = sorted(
                    (g.edge(eid).other(le.tail), eid)
                    for eid in g.edges_at(le.tail)
                    if g.edge(eid).colour in lower.colours
                    and g.edge(eid).other(le.tail) in targets)
                if j < le.cert:
                    assert len(counted) < need  # cert is the smallest level
                else:
                    assert len(counted) >= need
            # the context builds exactly the certifying edges counted
            lifts, descends = ctx.options_of(le)
            assert all(v in free_set for v, _ in lifts)
            assert all(v in heads_below for v, _ in descends)
            assert list(lifts) == sorted(lifts)
            assert list(descends) == sorted(descends)
            assert sorted(lifts + descends) == counted
            checked += 1
        heads_below |= {le.head for le in level.edges}
    return checked


def assert_not_maximal(g, m, hier) -> int:
    """``find_violations`` refuses ``m``, naming an edge of a colour that
    ``m`` does not use between two free vertices; returns that edge's id."""
    with pytest.raises(ValueError) as raised:
        find_violations(m, hier)
    named = NOT_MAXIMAL.match(str(raised.value))
    assert named, str(raised.value)
    e = g.edge(int(named[1]))
    assert (e.u, e.v, e.colour) == tuple(map(int, named.groups()[1:]))
    assert e.u != e.v and e.colour not in m.colours
    assert not {e.u, e.v} & m.covered
    return e.id


def check_structure(g, m):
    """The violation and hierarchy facts that hold for any maximal ``m``."""
    params, _, _, hier = analyse(g, m)

    found = find_violations(m, hier)

    # detector agrees with the brute-force sweep, order and witnesses too
    assert [(v.kind, v.edge_id, v.colour, v.vertices)
            for v in found] == brute_scan(g, m, hier)

    # each reachable colour's level edge is the matching's own edge of that
    # colour, which is no violation (its tail is covered and no head); each
    # head its own
    for c, le in hier.by_colour.items():
        assert le.colour == c
        assert le.edge_id in m.edge_ids
        assert g.edge(le.edge_id).colour == c
    for h, le in hier.by_head.items():
        assert le.head == h

    # levels partition a subset of the matching edges
    seen: set[int] = set()
    for level in hier.levels:
        ids = {le.edge_id for le in level.edges}
        assert ids <= m.edge_ids
        assert not ids & seen
        assert len(level.edges) >= max(1, ceil(params.alpha * g.num_colours))
        seen |= ids

    # the level count respects the 1/alpha bound
    assert hier.m <= floor(1 / params.alpha)


class TestProperties:
    @given(st.integers(0, 200), st.integers(0, 7))
    @PROPERTY_SETTINGS
    def test_structure_invariants(self, seed, greedy_seed):
        g = random_instance(seed)
        check_structure(g, greedy(g, greedy_seed))

    # few random_instance bases grow a level; near-threshold shapes, as
    # TestLookups draws them, almost all do (cap 1 fails placement on most
    # of these colour counts)
    @given(st.integers(16, 32), st.integers(0, 199), st.integers(0, 7))
    @PROPERTY_SETTINGS
    def test_structure_invariants_near_threshold(self, colours, seed, greedy_seed):
        g = generate_random(colours, colours + 2, 2 * (colours + 2), 2, seed)
        check_structure(g, greedy(g, greedy_seed))

    @given(st.integers(0, 200), st.integers(0, 7), st.integers(0, 50))
    @PROPERTY_SETTINGS
    def test_violations_on_non_maximal_matchings(self, seed, greedy_seed, drop):
        # greedy minus one edge: the freed edge, at least, joins two free
        # vertices in an unused colour, so the base is refused; extended to
        # maximal again, it is read
        g = random_instance(seed)
        full = greedy(g, greedy_seed)
        if not full.sorted_ids:
            return
        dropped = full.sorted_ids[drop % len(full)]
        m = RainbowMatching(g, full.edge_ids - {dropped})
        _, _, _, hier = analyse(g, m)
        assert_not_maximal(g, m, hier)
        m = extend_to_maximal(m)
        _, _, _, hier = analyse(g, m)
        found = find_violations(m, hier)
        assert [(v.kind, v.edge_id, v.colour, v.vertices)
                for v in found] == brute_scan(g, m, hier)
        assert [rank(v) for v in found] == sorted(map(rank, found))

    @given(st.integers(0, 200), st.integers(0, 7))
    @PROPERTY_SETTINGS
    def test_certificates_recount(self, seed, greedy_seed):
        g = random_instance(seed)
        recount_certificates(g, greedy(g, greedy_seed))

    @given(st.integers(0, 200), st.integers(0, 7))
    @PROPERTY_SETTINGS
    def test_counting_partition(self, seed, greedy_seed):
        g = random_instance(seed)
        m = greedy(g, greedy_seed)
        params, flex, good_at, hier = analyse(g, m)
        doc = counting_diagnostics(m, hier, params)

        # core is covered - heads - fringe, so this holds exactly when the
        # fringe lies in the covered vertices and misses the heads
        assert (doc["core_size"] + doc["fringe_size"] + len(hier.by_head)
                == len(m.covered))

        assert doc["reach_edges_total"] == sum(
            g.colour_class_size(c) for c in hier.by_colour)
        assert (doc["reach_edges_touching_fringe"]
                + doc["reach_edges_core_not_fringe"]) <= doc["reach_edges_total"]
        assert doc["reach_edges_inside_core"] <= doc["reach_edges_core_not_fringe"]
        assert doc["max_inside_core"] <= floor(doc["core_size"] / 2)
        assert doc["forced_into_core"] == (doc["expected_min_total"]
                                           - doc["fringe_capacity"])
        assert doc["contradiction"] == (doc["forced_into_core"]
                                        > doc["core_capacity"])

    def test_count_report_json_keys(self):
        g = random_instance(0)
        m = greedy(g)
        params, flex, good_at, hier = analyse(g, m)
        doc = counting_diagnostics(m, hier, params)
        assert list(doc) == [
            "reach_colours", "fringe_size", "core_size", "reach_edges_total",
            "reach_edges_touching_fringe", "reach_edges_core_not_fringe",
            "reach_edges_inside_core", "max_inside_core", "expected_min_total",
            "fringe_capacity", "core_capacity", "forced_into_core",
            "contradiction"]


# near-threshold random instances (cap 2, as above) and Latin isotopes:
# almost every base grows a level, so the reachable kinds are common
ranked_instances = st.one_of(
    st.builds(lambda c, s: generate_random(c, c + 2, 2 * (c + 2), 2, s),
              st.integers(16, 32), st.integers(0, 199)),
    st.builds(lambda n, s: latin_to_graph(isotope(n, s)),
              st.integers(5, 16), st.integers(0, 2**30)),
)


class TestRankedViolations:
    """``find_violations`` counts every candidate but sorts and builds them
    as they are iterated; every pass over it yields the eager ranked list,
    and a ranked pass given a spare count passes over exactly the buckets
    whose every chain needs more."""

    @given(ranked_instances, st.integers(0, 7), st.booleans(), st.integers(0, 300))
    @PROPERTY_SETTINGS
    def test_lazy_sequence_is_the_ranked_list(self, g, greedy_seed, drop, stop):
        m = greedy(g, greedy_seed)
        if drop and m.sorted_ids:
            # another maximal base: one matching edge dropped, then edges
            # added in id order
            m = extend_to_maximal(RainbowMatching(g, m.sorted_ids[1:]))
        _, _, _, hier = analyse(g, m)
        eager = [Violation(*t) for t in brute_scan(g, m, hier)]
        found = find_violations(m, hier)
        assert len(found) == len(eager)
        # a partial iteration of a fresh sequence yields the list's prefix
        assert list(itertools.islice(found, stop)) == eager[:stop]
        assert list(found) == eager
        # two iterations at once, over a fresh sequence
        fresh = find_violations(m, hier)
        assert list(zip(fresh, fresh)) == [(v, v) for v in eager]

    @given(ranked_instances, st.integers(0, 3))
    @settings(max_examples=15, deadline=None)
    def test_solve_records_follow_the_ranked_list(self, g, seed):
        # each of a round's first ``attempted`` ranked violations either
        # reaches augment, in rank order, or sits in a bucket passed over
        # whole: every violation of its kind needs more spare colours than
        # the base leaves, and augment refutes it for that
        with augment_calls() as tried:
            report = solve(g, seed=seed)
        for rec in report.iterations:
            ctx = SwitchContext.build(RainbowMatching(g, rec.base_ids))
            eager = [Violation(*t) for t in brute_scan(g, ctx.base, ctx.hierarchy)]
            assert rec.violations == len(eager)
            mine = []
            while tried and tried[0][0].base.sorted_ids == rec.base_ids:
                mine.append(tried.pop(0))
            ranked = eager[:rec.attempted]
            by_edge = {v.edge_id: v for v in eager}
            reached = [by_edge[edge_id] for _, edge_id, _, _ in mine]
            kinds = {v.kind for v in reached}
            assert reached == [v for v in ranked if v.kind in kinds]
            passed_over = [v for v in ranked if v.kind not in kinds]
            for violation in passed_over:
                assert augment(ctx, violation.edge_id) == NotFound("too_few_spares", {})
            for kind in {v.kind for v in passed_over}:
                assert all(needs_too_many_spares(ctx, v.edge_id)
                           for v in eager if v.kind == kind)
            landed = [isinstance(out, AugmentOutcome) for _, _, out, _ in mine]
            if rec.kind is None:
                assert rec.attempted == len(eager) and not any(landed)
                assert rec.edge_id is None
            else:
                assert landed == [False] * (len(landed) - 1) + [True]
                assert reached[-1] == ranked[-1]
                assert (rec.kind, rec.edge_id) == ranked[-1][:2]
        assert tried == []

    @pytest.mark.parametrize("mode", ["shuffle", "bound_off"])
    @pytest.mark.parametrize("make,seed", [
        pytest.param(lambda: generate_random(48, 50, 100, 3, 1), 1, id="random"),
        pytest.param(lambda: latin_to_graph(isotope(15, 1)), 0, id="latin"),
    ])
    def test_shuffled_and_unbounded_solves_pass_over_nothing(self, make, seed, mode):
        g = make()
        with augment_calls() as plain:
            report = solve(g, seed=seed)
        # the plain solve passes over some violation
        assert len(plain) < sum(rec.attempted for rec in report.iterations)
        with augment_calls() as tried:
            if mode == "shuffle":
                report = solve(g, seed=seed, shuffle=True)
            else:
                with spare_bound_off():
                    report = solve(g, seed=seed)
        for rec in report.iterations:
            base = RainbowMatching(g, rec.base_ids)
            _, _, _, hier = analyse(g, base)
            eager = [Violation(*t) for t in brute_scan(g, base, hier)]
            mine, tried = tried[:rec.attempted], tried[rec.attempted:]
            assert [(ctx.base.sorted_ids, edge_id) for ctx, edge_id, _, _ in mine] == [
                (rec.base_ids, v.edge_id) for v in eager[:rec.attempted]]
        assert tried == []

    @pytest.mark.parametrize("spares", [None, 0, 1, 2])
    def test_extend_is_never_passed_over(self, spares):
        # greedy minus its first edge: that edge goes back in, so the base
        # is refused before any bucket is counted, let alone passed over at
        # any spare bound; on the base extend_to_maximal makes of it, no
        # violation whose own chain fits in ``spares`` is passed over
        g = generate_random(32, 34, 68, 2, 3)
        full = greedy(g, 0)
        m = RainbowMatching(g, full.sorted_ids[1:])
        _, _, _, hier = analyse(g, m)
        assert hier.m >= 1
        assert assert_not_maximal(g, m, hier) == full.sorted_ids[0]
        m = extend_to_maximal(m)
        _, _, _, hier = analyse(g, m)
        found = find_violations(m, hier)
        # None: the default bound, which passes over nothing
        kept = dict(found.ranked() if spares is None else found.ranked(spares))
        eager = [Violation(*t) for t in brute_scan(g, m, hier)]
        fits = [(i, v) for i, v in enumerate(eager, 1) if spares is None
                or brute_switches(hier, v.colour, v.vertices) <= spares]
        assert fits or spares == 0
        assert all(kept.get(i) == v for i, v in fits)

    def test_a_full_base_leaves_nothing_to_pass_over(self):
        # past n, at target_deficit -1, the last round's base uses every
        # colour, so it has no spare: no flexible edge, no level, and so no
        # violation of any kind to try or to pass over
        g = generate_random(32, 34, 68, 2, 3)
        with augment_calls() as tried:
            report = solve(g, target_deficit=-1)
        assert (report.status, report.size) == ("stalled", 32)
        last = report.iterations[-1]
        ctx = SwitchContext.build(RainbowMatching(g, last.base_ids))
        assert ctx.spares == 0 and ctx.hierarchy.m == 0
        assert brute_scan(g, ctx.base, ctx.hierarchy) == []
        assert (last.violations, last.attempted, last.kind) == (0, 0, None)
        assert all(c.base.sorted_ids != last.base_ids for c, _, _, _ in tried)

    @given(st.one_of(ranked_instances, raw_graphs()), st.integers(0, 7), st.booleans())
    @PROPERTY_SETTINGS
    def test_passed_over_buckets_match_a_brute_scan(self, g, greedy_seed, drop):
        m = greedy(g, greedy_seed)
        if drop and m.sorted_ids:
            m = extend_to_maximal(RainbowMatching(g, m.sorted_ids[1:]))
        _, _, _, hier = analyse(g, m)
        self.assert_passes_over_by_brute_scan(g, m, hier)

    @pytest.mark.parametrize("fixture,size,extra,switches", [
        # colours 0 and 2 get a second edge at head 0, colour 0's own head
        ("reach_free_fixture", 4, [(0, 13, 0), (0, 4, 0), (0, 4, 2)],
         {("reach_free", 10): 2, ("reach_free", 12): 1, ("reach_reach", 13): 2,
          ("reach_reach", 14): 2}),
        # colour 3 gets two more edges at head 6, its own head
        ("reach_reach_fixture", 6, [(0, 6, 3), (6, 13, 3)],
         {("reach_free", 18): 1, ("reach_reach", 16): 3, ("reach_reach", 17): 2}),
    ], ids=["reach_free", "reach_reach"])
    def test_an_endpoint_at_its_own_colours_head(self, request, fixture, size, extra,
                                                 switches):
        # an improper colouring: a chain whose edge meets its own colour's
        # head makes one switch fewer than the others of its kind
        g = request.getfixturevalue(fixture)
        g = ColouredMultigraph(g.num_vertices, g.num_colours,
                               [(u, v, c) for _, u, v, c in g.edges] + extra)
        m = RainbowMatching(g, range(size))  # the fixture's base
        _, _, _, hier = analyse(g, m)
        assert {(kind, eid): brute_switches(hier, c, vertices)
                for kind, eid, c, vertices in brute_scan(g, m, hier)} == switches
        self.assert_passes_over_by_brute_scan(g, m, hier)
        # every bucket is counted from edge ids and built when first reached
        eager = [Violation(*t) for t in brute_scan(g, m, hier)]
        found = find_violations(m, hier)
        assert len(found) == len(eager)
        assert list(found) == eager

    @staticmethod
    def assert_passes_over_by_brute_scan(g, m, hier):
        """``ranked(spares)`` keeps the ranks of the brute-force list and
        passes over exactly the kinds whose fewest switches exceed
        ``spares``: after a full pass, on a fresh sequence, and while
        another pass is paused just before or inside a bucket."""
        eager = [Violation(*t) for t in brute_scan(g, m, hier)]
        full = list(enumerate(eager, 1))
        fewest = {}
        for v in eager:
            fewest[v.kind] = min(fewest.get(v.kind, len(eager) + 9),
                                 brute_switches(hier, v.colour, v.vertices))

        def kept(spares):
            return [(i, v) for i, v in full if fewest[v.kind] <= spares]

        found = find_violations(m, hier)
        assert list(found.ranked()) == full
        for spares in range(4):
            assert list(found.ranked(spares)) == kept(spares)
            # no bucket reached yet
            assert list(find_violations(m, hier).ranked(spares)) == kept(spares)
        # a pass paused after the violation before a kind's first, then after
        # that first one, while second passes reach the kind's bucket
        firsts = {}
        for i, v in enumerate(eager):
            firsts.setdefault(v.kind, i)
        for stop in (i + more for i in firsts.values() for more in (0, 1)):
            found = find_violations(m, hier)
            paused = found.ranked()
            head = list(itertools.islice(paused, stop))
            for spares in (*range(4), inf):
                assert list(found.ranked(spares)) == kept(spares)
            assert head + list(paused) == full


def reference_orient(e, certify):
    lo, hi = (e.u, e.v) if e.u < e.v else (e.v, e.u)
    for tail, head in ((lo, hi), (hi, lo)):
        found = certify(tail)
        if found is not None:
            return tail, head, found
    return None


def reference_certificate(graph, tail, colours, covered, below):
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


def reference_base_pairs(graph, flex, good_at, edge_id, tail):
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


def reference_hierarchy(matching, flex, good_at, params):
    """``build_hierarchy`` as it was before certificates were kept per
    ``(tail, level)`` and level-1 pairs were built on first read, with each
    level edge as the tuple ``(edge_id, tail, head, colour, level, cert,
    pairs, lifts, descends)``: ``(levels, stopped, by_colour, by_head)``,
    each level as ``(index, edges, colours)``."""
    graph = matching.graph
    stop = max(1, ceil(params.alpha * graph.num_colours))
    level1_threshold = max(1, ceil(params.alpha * len(flex.partners)))
    covered = matching.covered
    levels = []
    by_colour = {}
    by_head = {}

    def certified_by_good(tail):
        if len(good_at.get(tail, ())) >= level1_threshold:
            return 0, (), ()
        return None

    def certified_below(tail):
        for index, _, colours in levels:
            need = max(1, ceil(params.alpha * len(colours)))
            lifts, descends = reference_certificate(graph, tail, colours, covered,
                                                    by_head)
            if len(lifts) + len(descends) >= need:
                return index, lifts, descends
        return None

    while True:
        certify = certified_by_good if not levels else certified_below
        index = len(levels) + 1
        cands = []
        for eid in matching.sorted_ids:
            e = graph.edge(eid)
            if e.colour in by_colour:
                continue
            found = reference_orient(e, certify)
            if found is not None:
                tail, head, (cert, lifts, descends) = found
                pairs = (reference_base_pairs(graph, flex, good_at, eid, tail)
                         if cert == 0 else ())
                cands.append((eid, tail, head, e.colour, index, cert, pairs, lifts,
                              descends))
        if len(cands) < stop:
            return levels, cands, by_colour, by_head
        levels.append((index, cands, frozenset(t[3] for t in cands)))
        for t in cands:
            by_colour[t[3]] = t
            by_head[t[2]] = t


def level_edge_fields(le, ctx) -> tuple:
    """Every field of a level edge, with the switch options that ``ctx``
    builds for it where the reference kept them: its level-1 ``pairs``
    (empty above level 1), then its ``lifts`` and ``descends`` (empty on
    level 1)."""
    options = ctx.options_of(le)
    pairs, (lifts, descends) = (options, ((), ())) if le.cert == 0 else ((), options)
    return (le.edge_id, le.tail, le.head, le.colour, le.level, le.cert, pairs, lifts,
            descends)


near_threshold = st.builds(
    lambda c, s: generate_random(c, c + 2, 2 * (c + 2), max(2, c // 16), s),
    st.integers(16, 64), st.integers(0, 199))


class TestHierarchyAgainstReference:
    """Computing each level's threshold once, counting each certificate only
    up to it, and taking every switch option out of the level edges into the
    switch context leave the hierarchy as it was: the same levels, stopped
    candidates and lookups, every level edge field equal, and the options
    that the context builds equal to those the reference kept."""

    @given(st.one_of(raw_graphs(), ranked_instances, near_threshold), st.integers(0, 7),
           st.booleans(), st.sampled_from([None, "1/64", "1/200"]))
    # a tail that fails in one growth round and is certified in the next by
    # a lower level's descends into the heads placed in between
    @example(latin_to_graph(isotope(6, 1)), 2, False, None)
    @example(latin_to_graph(isotope(8, 1)), 1, False, "1/64")
    # near threshold at alpha 1/1000 every threshold is 1, so counting stops
    # at the first certifying edge
    @example(generate_random(128, 130, 260, 8, 1), 3, False, "1/1000")
    @PROPERTY_SETTINGS
    def test_same_hierarchy(self, g, greedy_seed, drop, alpha):
        m = greedy(g, greedy_seed)
        if drop and m.sorted_ids:
            m = RainbowMatching(g, m.sorted_ids[1:])
        params = InstanceParams.for_graph(g, epsilon="1/2", alpha=alpha)
        flex = compute_flexible(m, params)
        good_at = classify_good_bad(m, flex, params)
        hier = build_hierarchy(m, flex, good_at, params)
        levels, stopped, by_colour, by_head = reference_hierarchy(
            m, flex, good_at, params)
        ctx = SwitchContext(m, flex, hier, good_at=good_at)

        def fields(le):
            return level_edge_fields(le, ctx)

        assert [(lv.index, [fields(le) for le in lv.edges], lv.colours)
                for lv in hier.levels] == levels
        assert [fields(le) for le in hier.stopped] == stopped
        assert {c: fields(le) for c, le in hier.by_colour.items()} == by_colour
        assert {h: fields(le) for h, le in hier.by_head.items()} == by_head


class TestCountingErrors:
    def test_improper_colouring_breaks_the_properness_bound(self, improper_witness):
        g = improper_witness
        m = greedy(g, 0)
        params, flex, good_at, hier = analyse(g, m, InstanceParams.for_graph(g))
        with pytest.raises(ValueError, match=r"colour 2 has 2 edges inside a "
                                             r"core of 2 vertices"):
            counting_diagnostics(m, hier, params)


def scan_entry(hier, key, attr):
    """First level edge whose ``attr`` equals ``key``, in level order, then
    edge order."""
    for level in hier.levels:
        for le in level.edges:
            if getattr(le, attr) == key:
                assert le.level == level.index
                return le
    return None


class TestLookups:
    # greedy starts with two-level hierarchies (and a few with one level)
    @pytest.mark.parametrize("graph,seed", [
        *((generate_random(24, 26, 52, 2, s), 0) for s in range(4)),
        *((latin_to_graph(cyclic_square(n)), s) for n in (11, 12) for s in range(3)),
    ])
    def test_match_a_first_match_scan(self, graph, seed):
        m = greedy(graph, seed)
        params = InstanceParams.for_graph(graph)
        _, flex, _, hier = analyse(graph, m, params)
        assert flex.partners and hier.levels
        for level in hier.levels:
            assert level.colours == {le.colour for le in level.edges}
        # recount from the graph: the tails that see at least the threshold
        # of external unused-colour edges, the lower id first
        threshold = max(1, ceil(params.alpha * (graph.num_colours - len(m))))
        seen = {v: 0 for v in range(graph.num_vertices)}
        for e in graph.edges:
            if e.colour not in m.colours and (e.u in m.covered) != (e.v in m.covered):
                seen[e.u if e.u in m.covered else e.v] += 1
        tails = {}
        for eid in m.edge_ids:
            e = graph.edge(eid)
            ends = [x for x in sorted((e.u, e.v)) if seen[x] >= threshold]
            if e.u != e.v and ends:
                tails[e.colour] = ends[0]
        assert flex.partners.keys() == tails.keys()
        own = {graph.edge(i).colour: i for i in m.edge_ids}
        for c in range(graph.num_colours + 1):
            assert hier.by_colour.get(c) == scan_entry(hier, c, "colour")
            oe = flex.by_colour(c)
            if c not in tails:
                assert oe is None
                continue
            e = graph.edge(own[c])
            assert isinstance(oe, OrientedEdge)
            assert (oe.edge_id, oe.colour) == (e.id, c)
            assert (oe.tail, oe.head) == (tails[c], e.other(tails[c]))
        for v in range(graph.num_vertices + 1):
            assert hier.by_head.get(v) == scan_entry(hier, v, "head")
        # as in test_structure_invariants, on hierarchies that surely grow
        for c, le in hier.by_colour.items():
            assert (le.colour, le.edge_id) == (c, own[c])
        for h, le in hier.by_head.items():
            assert le.head == h

    @pytest.mark.parametrize("graph,levels,stopped", [
        (generate_random(32, 34, 68, 2, 1), 2, 0),
        (generate_random(32, 34, 68, 2, 3), 1, 1),
    ])
    def test_each_level_edge_knows_its_level(self, graph, levels, stopped):
        _, _, _, hier = analyse(graph, greedy(graph, 0), InstanceParams.for_graph(graph))
        assert (hier.m, len(hier.stopped)) == (levels, stopped)
        for level in hier.levels:
            assert {le.level for le in level.edges} == {level.index}
        # a stopped candidate carries the level it failed to start
        assert all(le.level == hier.m + 1 for le in hier.stopped)

    def test_entry_and_head_entry_are_the_dict_lookups(self):
        # the methods that the engine no longer calls
        g = generate_random(24, 26, 52, 2, 0)
        hier = analyse(g, greedy(g, 0))[3]
        assert hier.levels
        for c in range(g.num_colours + 1):
            assert hier.entry(c) is hier.by_colour.get(c)
        for v in range(g.num_vertices + 1):
            assert hier.head_entry(v) is hier.by_head.get(v)


def reachability_facts(graph, tmp_path, capsys) -> dict:
    """Every reachability fact of the greedy (seed 0) base as plain values:
    no record reprs, so fields may move between records as long as the facts
    stay."""
    m = greedy(graph, 0)
    ctx = SwitchContext.build(m)
    flex, hier = ctx.flex, ctx.hierarchy
    good_at = classify_good_bad(m, flex, InstanceParams.for_graph(graph))

    def level_edge(le):
        return [le.edge_id, le.tail, le.head, le.colour, le.cert]

    levels = []
    for level in hier.levels:
        entries = []
        for le in level.edges:
            # a level-2+ edge carries no base pairs; they stay pinned anyway
            pairs = (base_pairs(graph, flex, good_at, le.edge_id, le.tail)
                     if level.index == 1 else brute_pairs(graph, m, flex, good_at, le))
            entry = {"edge": level_edge(le), "base_pairs": [
                [w, z, gid, hid, partner.edge_id, partner.tail, spare]
                for w, z, gid, hid, partner, spare in pairs]}
            if level.index >= 2:
                entry["walks"] = ctx.options_of(le)
            entries.append(entry)
        levels.append(entries)
    path = tmp_path / "instance.txt"
    path.write_text(dumps(graph))
    assert main(["stats", "--input", str(path), "--seed", "0"]) == 0
    return {
        "flexible": [[oe.edge_id, oe.tail, oe.head, oe.colour]
                     for oe in flex.partners.values()],
        "external_free_at": sorted(flex.external_free_at.items()),
        "good_at": sorted(good_at.items()),
        "bad": sorted(set(external_edges(m, flex.partners))
                      - {i for ids in good_at.values() for i in ids}),
        "bad_per_colour": sorted(bad_per_colour(m, flex, good_at).items()),
        "levels": levels,
        "stopped": [level_edge(le) for le in hier.stopped],
        "reach_heads": sorted(hier.by_head),
        "reach_colours": sorted(hier.by_colour),
        "violations": [[v.kind, v.edge_id, v.colour, v.vertices]
                       for v in find_violations(m, hier)],
        "stats": json.loads(capsys.readouterr().out),
    }


# name: (instance, sha256 of ``reachability_facts`` as sorted JSON), recorded
# before the certificate, orientation and external-edge rules each moved into
# one function of the reachability module
REACHABILITY_GOLDEN = {
    # 3 level-2 edges
    "random_c32_s1": (lambda: generate_random(32, 34, 68, 2, 1),
                      "9be54162a6d4b42f6970ed4563f26933a659e24b2a6fa41497d09aea52b00ba3"),
    # one level and one stopped candidate
    "random_c32_s3": (lambda: generate_random(32, 34, 68, 2, 3),
                      "aae1acceba41444a41b26ecba78f909b037d5ea198172afe4b01c1d8797d115f"),
    # 4 level-2 edges
    "random_c48_s0": (lambda: generate_random(48, 50, 100, 3, 0),
                      "a13dccf3182768e3c47c6392acea3da2e367dd185b93f27c28d3a2ac8b271a0a"),
    # 4 level-2 edges
    "random_c48_s2": (lambda: generate_random(48, 50, 100, 3, 2),
                      "1fa89d221dd6ed2adb4636333e5a99e445b9a619957f4fcfb3187b9e384c8c81"),
    # 4 level-2 edges
    "z15_iso1": (lambda: latin_to_graph(isotope(15, 1)),
                 "04b6574847258a3e1784ab0da6291bb71b41f00b0bfc7f7ddac7f67e87025bda"),
    # 5 level-2 edges
    "z16_iso2": (lambda: latin_to_graph(isotope(16, 2)),
                 "ea0cab01cabc01c32e24b740561d6aaec398e2f7483ae7649495fc1a25d28d21"),
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(REACHABILITY_GOLDEN))
    def test_reachability_facts_unchanged(self, name, tmp_path, capsys):
        instance, digest = REACHABILITY_GOLDEN[name]
        facts = reachability_facts(instance(), tmp_path, capsys)
        blob = json.dumps(facts, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(REACHABILITY_GOLDEN))
    def test_certificates_recount(self, name):
        # the random family above rarely grows a second level; these do
        g = REACHABILITY_GOLDEN[name][0]()
        checked = recount_certificates(g, greedy(g, 0))
        assert checked >= (0 if name == "random_c32_s3" else 3)
