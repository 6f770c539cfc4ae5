"""Flexible structure, level growth, violation detection, counting."""
from __future__ import annotations

import hashlib
import json
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from rainbowmatch import (
    ColouredMultigraph,
    InstanceParams,
    OrientedEdge,
    RainbowMatching,
    SwitchContext,
    Violation,
    build_hierarchy,
    classify_good_bad,
    compute_flexible,
    counting_diagnostics,
    cyclic_square,
    find_violations,
    generate_random,
    greedy,
    latin_to_graph,
)
from rainbowmatch.cli import main
from rainbowmatch.matching import external_edges
from rainbowmatch.multigraph import dumps

from conftest import brute_scan, default_params, isotope, random_instance

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


def analyse(graph, matching, params=None):
    params = params or default_params(graph)
    flex = compute_flexible(graph, matching, params)
    good = classify_good_bad(graph, matching, flex, params)
    hier = build_hierarchy(graph, matching, flex, good, params)
    return params, flex, good, hier


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
        _, flex, good, hier = analyse(g, m)
        assert g.num_colours - len(m) == 0  # the matching uses every colour
        assert not flex.partners
        assert not any(good.good_at.values()) and not good.bad_per_colour
        assert hier.m == 0

    def test_no_externals_means_no_structure(self):
        g = ColouredMultigraph(4, 3, [(0, 1, 0), (2, 3, 1)])
        m = RainbowMatching(g, [0, 1])
        _, flex, good, hier = analyse(g, m)
        assert g.num_colours - len(m) > 0  # not every colour is used
        assert flex.partners == {}
        assert hier.m == 0
        assert not hier.by_head
        assert find_violations(g, m, hier) == []


class TestGoodBad:
    def test_reach_free_fixture_classification(self, reach_free_fixture):
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        params, flex, good, _ = analyse(g, m)
        assert flex.partners.keys() == {1, 3}
        assert {oe.tail for oe in flex.partners.values()} == {3, 7}
        assert max(1, ceil(params.alpha * (g.num_colours - len(m)) / 2)) == 1
        assert {i for ids in good.good_at.values() for i in ids} == {8, 9}
        # every external flexible-coloured edge is good
        assert {e.id for e in g.edges if e.colour in (1, 3)
                and (e.u in m.covered) != (e.v in m.covered)} == {8, 9}
        assert good.good_at == {1: (8,), 5: (9,)}
        assert good.bad_per_colour == {1: 0, 3: 0}

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
        _, flex, good, _ = analyse(g, m)
        assert flex.partners.keys() == {1}
        assert {i for ids in good.good_at.values() for i in ids} == set()
        assert all(3 not in ids for ids in good.good_at.values())
        assert good.bad_per_colour == {1: 1}


class TestHierarchy:
    def test_reach_free_fixture_levels(self, reach_free_fixture):
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        params, flex, good, hier = analyse(g, m)
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
        assert hier.entry(0) is level.edges[0]
        assert hier.entry(5) is None
        assert hier.head_entry(4) is level.edges[1]
        assert hier.head_entry(3) is None

    def test_high_alpha_stops_before_level_one(self, reach_free_fixture):
        # same graph, alpha forced up: 2 candidates < stop threshold 3,
        # so they land in ``stopped`` and nothing is reachable
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        params = InstanceParams.for_graph(g, epsilon="1/2", alpha="1/3")
        _, _, good, hier = analyse(g, m, params)
        assert max(1, ceil(params.alpha * g.num_colours)) == 3
        assert hier.m == 0
        assert {le.edge_id for le in hier.stopped} == {0, 2}
        assert not hier.by_head
        assert find_violations(g, m, hier) == []


class TestViolations:
    def test_reach_free_detection(self, reach_free_fixture):
        g = reach_free_fixture
        m = RainbowMatching(g, [0, 1, 2, 3])
        _, _, _, hier = analyse(g, m)
        assert find_violations(g, m, hier) == [
            Violation("reach_free", 10, 2, (0, 9)),
        ]

    def test_reach_reach_detection(self, reach_reach_fixture):
        g = reach_reach_fixture
        m = RainbowMatching(g, [0, 1, 2, 3, 4, 5])
        _, _, _, hier = analyse(g, m)
        assert hier.by_head.keys() == {0, 4, 6}
        assert find_violations(g, m, hier) == [
            Violation("reach_reach", 16, 3, (0, 4)),
        ]

    def test_free_free_detection(self, free_free_fixture):
        g = free_free_fixture
        m = RainbowMatching(g, [0, 1])
        _, _, _, hier = analyse(g, m)
        assert find_violations(g, m, hier) == [
            Violation("free_free", 5, 0, (6, 7)),
        ]

    def test_rank_order(self):
        vs = [
            Violation("free_free", 1, 0, (0, 1)),
            Violation("extend", 9, 5, (2, 3)),
            Violation("reach_reach", 4, 2, (4, 5)),
            Violation("reach_free", 3, 1, (6, 7)),
            Violation("extend", 2, 5, (2, 3)),
        ]
        assert [v.kind for v in sorted(vs, key=lambda v: v.rank)] == [
            "extend", "extend", "reach_free", "reach_reach", "free_free"]
        # ties within a kind fall back to witness vertices then edge id
        assert sorted(vs, key=lambda v: v.rank)[0].edge_id == 2

    def test_named_tuple_repr_and_immutability(self):
        v = Violation("reach_free", 10, 2, (0, 9))
        assert repr(v) == ("Violation(kind='reach_free', edge_id=10, colour=2, "
                           "vertices=(0, 9))")
        assert v.rank == (1, (0, 9), 10)
        with pytest.raises(AttributeError):
            v.kind = "extend"


def brute_pairs(g, m, flex, good, le) -> tuple:
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
        if w in m.covered or gid not in good.good_at.get(le.tail, ()):
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
    """Recount every level edge's certificate from scratch, check that each
    level edge carries exactly the switch options counted, and return how
    many level-2+ edges were checked."""
    params, flex, good, hier = analyse(g, m)
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
                assert len(good.good_at.get(le.tail, ())) >= level1_threshold
                assert le.pairs == brute_pairs(g, m, flex, good, le)
                assert le.lifts == le.descends == ()
                continue
            assert 1 <= le.cert < level.index
            assert le.pairs == ()
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
            # the edge carries exactly the certifying edges counted
            assert all(v in free_set for v, _ in le.lifts)
            assert all(v in heads_below for v, _ in le.descends)
            assert list(le.lifts) == sorted(le.lifts)
            assert list(le.descends) == sorted(le.descends)
            assert sorted(le.lifts + le.descends) == counted
            checked += 1
        heads_below |= {le.head for le in level.edges}
    return checked


class TestProperties:
    @given(st.integers(0, 200), st.integers(0, 7))
    @PROPERTY_SETTINGS
    def test_structure_invariants(self, seed, greedy_seed):
        g = random_instance(seed)
        m = greedy(g, greedy_seed)
        params, flex, good, hier = analyse(g, m)

        # maximal matchings leave no extend violations
        found = find_violations(g, m, hier)
        assert all(v.kind != "extend" for v in found)

        # detector agrees with the brute-force sweep, order and witnesses too
        assert [(v.kind, v.edge_id, v.colour, v.vertices)
                for v in found] == brute_scan(g, m, hier)

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

    @given(st.integers(0, 200), st.integers(0, 7), st.integers(0, 50))
    @PROPERTY_SETTINGS
    def test_violations_on_non_maximal_matchings(self, seed, greedy_seed, drop):
        # greedy minus one edge: the freed edge, at least, is an extend
        # violation, which a maximal matching never has
        g = random_instance(seed)
        full = greedy(g, greedy_seed)
        if not full.sorted_ids:
            return
        dropped = full.sorted_ids[drop % len(full)]
        m = RainbowMatching(g, full.edge_ids - {dropped})
        _, _, _, hier = analyse(g, m)
        found = find_violations(g, m, hier)
        assert [(v.kind, v.edge_id, v.colour, v.vertices)
                for v in found] == brute_scan(g, m, hier)
        assert ("extend", dropped) in [(v.kind, v.edge_id) for v in found]
        assert [v.rank for v in found] == sorted(v.rank for v in found)

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
        params, flex, good, hier = analyse(g, m)
        doc = counting_diagnostics(g, m, hier, params)

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
        params, flex, good, hier = analyse(g, m)
        doc = counting_diagnostics(g, m, hier, params)
        assert list(doc) == [
            "reach_colours", "fringe_size", "core_size", "reach_edges_total",
            "reach_edges_touching_fringe", "reach_edges_core_not_fringe",
            "reach_edges_inside_core", "max_inside_core", "expected_min_total",
            "fringe_capacity", "core_capacity", "forced_into_core",
            "contradiction"]


class TestCountingErrors:
    def test_improper_colouring_breaks_the_properness_bound(self, improper_witness):
        g = improper_witness
        m = greedy(g, 0)
        params, flex, good, hier = analyse(g, m, InstanceParams.for_graph(g))
        with pytest.raises(ValueError, match=r"colour 2 has 2 edges inside a "
                                             r"core of 2 vertices"):
            counting_diagnostics(g, m, hier, params)


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
        for c in range(graph.num_colours + 1):
            assert hier.entry(c) == scan_entry(hier, c, "colour")
            oe = flex.by_colour(c)
            if c not in tails:
                assert oe is None
                continue
            e = graph.edge(m.edge_of_colour(c))
            assert isinstance(oe, OrientedEdge)
            assert (oe.edge_id, oe.colour) == (e.id, c)
            assert (oe.tail, oe.head) == (tails[c], e.other(tails[c]))
        for v in range(graph.num_vertices + 1):
            assert hier.head_entry(v) == scan_entry(hier, v, "head")

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


def reachability_facts(graph, tmp_path, capsys) -> dict:
    """Every reachability fact of the greedy (seed 0) base as plain values:
    no record reprs, so fields may move between records as long as the facts
    stay."""
    m = greedy(graph, 0)
    ctx = SwitchContext.build(graph, m)
    flex, hier = ctx.flex, ctx.hierarchy
    good = classify_good_bad(graph, m, flex, InstanceParams.for_graph(graph))

    def level_edge(le):
        return [le.edge_id, le.tail, le.head, le.colour, le.cert]

    levels = []
    for level in hier.levels:
        entries = []
        for le in level.edges:
            # a level-2+ edge carries no base pairs; they stay pinned anyway
            pairs = le.pairs if level.index == 1 else brute_pairs(
                graph, m, flex, good, le)
            entry = {"edge": level_edge(le), "base_pairs": [
                [w, z, gid, hid, partner.edge_id, partner.tail, spare]
                for w, z, gid, hid, partner, spare in pairs]}
            if level.index >= 2:
                entry["walks"] = (le.lifts, le.descends)
            entries.append(entry)
        levels.append(entries)
    path = tmp_path / "instance.txt"
    path.write_text(dumps(graph))
    assert main(["stats", "--input", str(path), "--seed", "0"]) == 0
    return {
        "flexible": [[oe.edge_id, oe.tail, oe.head, oe.colour]
                     for oe in flex.partners.values()],
        "external_free_at": sorted(flex.external_free_at.items()),
        "good_at": sorted(good.good_at.items()),
        "bad": sorted(set(external_edges(graph, m, flex.partners))
                      - {i for ids in good.good_at.values() for i in ids}),
        "bad_per_colour": sorted(good.bad_per_colour.items()),
        "levels": levels,
        "stopped": [level_edge(le) for le in hier.stopped],
        "reach_heads": sorted(hier.by_head),
        "reach_colours": sorted(hier.by_colour),
        "violations": [[v.kind, v.edge_id, v.colour, v.vertices]
                       for v in find_violations(graph, m, hier)],
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


# name: sha256 of the raw ``stats --input`` stdout on the instance above, so
# key order and layout are pinned too; recorded while the counting document
# was still built from a record class
STATS_STDOUT_GOLDEN = {
    "random_c32_s1": "683f14c7da0ba0099bca9904b5ab9ce43a314a4fc8e49f84d33386fcf72edaa4",
    "random_c32_s3": "00856c5514ac5ff934ad87d0357ca2e420767ad1f486eadb407fa98fa1afff32",
    "random_c48_s0": "f698e7fa7c589a9d3e76e0f0ce4b7fc22281191ad8b4314b6f7e4532c9b559db",
    "random_c48_s2": "dd05264059ce6483013c485364e5ac7b9d340db9746f837dc0428b705e0b6327",
    "z15_iso1": "4c327a7e097f9927172fd5270fbdc4975300404457e4d1665baf6c365c8fbe39",
    "z16_iso2": "d0f36e6406da3c5065d8e010ad6a73f386504b7d7215241e2c716198d8c12a92",
}


class TestGolden:
    @pytest.mark.parametrize("name", sorted(REACHABILITY_GOLDEN))
    def test_reachability_facts_unchanged(self, name, tmp_path, capsys):
        instance, digest = REACHABILITY_GOLDEN[name]
        facts = reachability_facts(instance(), tmp_path, capsys)
        blob = json.dumps(facts, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(STATS_STDOUT_GOLDEN))
    def test_stats_stdout_unchanged(self, name, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        path.write_text(dumps(REACHABILITY_GOLDEN[name][0]()))
        assert main(["stats", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == STATS_STDOUT_GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(REACHABILITY_GOLDEN))
    def test_certificates_recount(self, name):
        # the random family above rarely grows a second level; these do
        g = REACHABILITY_GOLDEN[name][0]()
        checked = recount_certificates(g, greedy(g, 0))
        assert checked >= (0 if name == "random_c32_s3" else 3)
