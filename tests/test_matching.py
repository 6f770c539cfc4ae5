"""Matching container, greedy construction, verification, closeness."""
from __future__ import annotations

import itertools
import random
import re
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowmatch import (
    ColouredMultigraph,
    RainbowMatching,
    closeness,
    cyclic_square,
    extend_to_maximal,
    external_edges,
    greedy,
    latin_to_graph,
    matching,
    matching_from_json,
    matching_to_json,
    max_rainbow_matching,
    verify,
)

from rainbowmatch.matching import document_ids

from conftest import isotope, random_instance, raw_graphs, tight_instance

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def examples(cases):
    """``@example(*case)`` for each of ``cases``, as one decorator."""
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


def triangle() -> ColouredMultigraph:
    # Three mutually adjacent vertices, one colour: max rainbow matching is 1.
    return ColouredMultigraph(3, 1, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])


class TestContainer:
    def test_views(self):
        g = random_instance(0)
        m = RainbowMatching(g, [7, 0])  # colours 0 and 1: rainbow
        e0, e1 = g.edge(0), g.edge(7)
        assert len(m) == 2
        assert 0 in m and 2 not in m
        assert list(m) == [0, 7]
        assert m.covered == frozenset({e0.u, e0.v, e1.u, e1.v})
        assert m.colours == {e0.colour, e1.colour}
        assert [i for i in m.edge_ids if g.edge(i).colour == e0.colour] == [0]
        assert m.edge_ids == {0, 7}
        assert e0.u in m.covered and not any(
            v in m.covered for v in range(g.num_vertices)
            if v not in (e0.u, e0.v, e1.u, e1.v))

    def test_equality_is_by_edge_set(self):
        g = random_instance(0)
        assert RainbowMatching(g, [2, 9]) == RainbowMatching(g, (9, 2, 9))
        assert hash(RainbowMatching(g, [2, 9])) == hash(RainbowMatching(g, [9, 2]))
        assert RainbowMatching(g, [2]) != RainbowMatching(g, [5])

    def test_with_swap(self):
        g = random_instance(0)
        m = RainbowMatching(g, [0, 7])  # colours 0 and 1: rainbow
        m2 = m.with_swap(removed=[0], added=[14])
        assert m2.edge_ids == frozenset({7, 14})
        assert verify(g, m2) == []
        assert m.edge_ids == frozenset({0, 7})  # original untouched
        assert views(m) == views(RainbowMatching(g, [0, 7]))

    def test_with_swap_rejects_bad_ids(self):
        g = random_instance(0)
        m = RainbowMatching(g, [0, 7])
        with pytest.raises(ValueError, match="absent"):
            m.with_swap(removed=[3])
        with pytest.raises(ValueError, match="present"):
            m.with_swap(added=[7])
        # each id is checked as given, before any set is built: one that
        # equals an edge id, present or absent, is still not an int
        one = RainbowMatching(g, [1])
        for removed, added, bad in [
            ([True], [], True),    # equals present edge 1
            ([1.0], [], 1.0),      # equals present edge 1
            ([8.0], [], 8.0),      # equals an absent edge
            ([], [True], True),    # equals present edge 1
            ([], [1.0], 1.0),
            ([1], [2, None], None),
        ]:
            with pytest.raises(TypeError, match=re.escape(f"edge id {bad!r} is not an int")):
                one.with_swap(removed, added)
        assert views(one) == views(RainbowMatching(g, [1]))

    @pytest.mark.parametrize("ids, first", [
        ([0.9, True], 0.9),   # int() would have built [0, 1]
        ([1, True], True),    # a bool is not an id, even where it equals one
        ([0, "1"], "1"),
        ([None], None),
        ([0, 1, -1, 2.0], 2.0),  # checked before the ids are (0 and 1 clash)
    ])
    def test_non_int_id_is_a_type_error(self, ids, first):
        g = random_instance(0)
        with pytest.raises(TypeError, match=re.escape(f"edge id {first!r} is not an int")):
            RainbowMatching(g, ids)

    @given(raw_graphs(), st.data())
    @PROPERTY_SETTINGS
    def test_raises_exactly_when_verify_reports(self, g, data):
        ids = data.draw(st.lists(st.integers(-2, g.num_edges + 1), max_size=5))
        issues = verify(g, ids)
        if issues:
            with pytest.raises(ValueError) as err:
                RainbowMatching(g, ids)
            assert str(err.value) == "not rainbow: " + issues[0].detail
            return
        m = RainbowMatching(g, ids)
        edges = [g.edge(i) for i in set(ids)]
        assert len(m) == len(edges)
        assert m.edge_ids == {e.id for e in edges}
        assert m.covered == {x for e in edges for x in (e.u, e.v)}
        assert m.colours == {e.colour for e in edges}


def views(m: RainbowMatching) -> tuple:
    """The three read sets, ``covered`` and ``colours`` first checked against
    a scan of the edge ids."""
    ends = [m.graph.edge(i) for i in m.edge_ids]
    assert m.covered == {x for e in ends for x in (e.u, e.v)}
    assert m.colours == {e.colour for e in ends}
    return (m.edge_ids, set(m.covered), set(m.colours))


def clash_graph() -> ColouredMultigraph:
    return ColouredMultigraph(6, 3, [
        (0, 1, 0),
        (2, 3, 1),
        (4, 5, 0),   # colour 0 again
        (1, 4, 2),   # meets edge 0 at vertex 1
        (5, 5, 2),   # loop
        (4, 5, 2),   # fits beside edges 0 and 1
    ])


class TestWithSwapMatchesRebuild:
    """A swap patches the parent's read sets by the delta and equals a fresh
    build; a result that is not rainbow raises instead, and the parent is
    left as it was either way.  A parent that is not rainbow cannot be
    built."""

    @pytest.mark.parametrize("start,removed,added", [
        ([0, 1], [1], [5]),      # clean result
        ([0, 1], [0], [2]),      # reuses the colour just freed
        ([0, 1], [], [2]),       # colour clash
        ([0, 1], [], [3]),       # vertex clash
        ([0, 1], [], [4]),       # loop
        ([0, 1], [], [99]),      # unknown id
        ([0, 2], [], [1]),       # unclean parent
        ([0, 2], [2], [5]),      # unclean parent, clean result
        ([0, 4], [4], [5]),      # loop in the parent
    ])
    def test_cases(self, start, removed, added):
        g = clash_graph()
        if start != [0, 1]:  # the parents that are not rainbow
            with pytest.raises(ValueError, match="not rainbow"):
                RainbowMatching(g, start)
            return
        parent = RainbowMatching(g, start)
        if removed:  # the two clean cases
            want = RainbowMatching(g, (set(start) - set(removed)) | set(added))
            assert views(parent.with_swap(removed, added)) == views(want)
        else:
            with pytest.raises(ValueError, match="cannot add edge"):
                parent.with_swap(removed, added)
        assert views(parent) == views(RainbowMatching(g, start))

    @pytest.mark.parametrize("start,added,message", [
        ([0, 1], [2], "cannot add edge 2 (4-5, colour 0)"),   # colour clash
        ([0, 1], [3], "cannot add edge 3 (1-4, colour 2)"),   # vertex clash
        ([0, 1], [4], "cannot add edge 4 (5-5, colour 2)"),   # loop
        ([0, 1], [99], "cannot add edge 99: not an edge of the graph"),
        # the parent itself is refused
        ([0, 2], [], "not rainbow: colour 0 used by edges [0, 2]"),
        ([0, 4], [], "not rainbow: edge 4 is a loop at vertex 5"),
    ])
    def test_error_names_the_fault(self, start, added, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            RainbowMatching(clash_graph(), start).with_swap((), added)

    def test_non_int_added_id_is_a_type_error(self):
        m = RainbowMatching(clash_graph(), [0, 1])
        with pytest.raises(TypeError, match=re.escape("edge id 5.0 is not an int")):
            m.with_swap((), [5.0])

    def test_clean_swap_skips_the_rebuild(self, monkeypatch):
        g = clash_graph()
        m = RainbowMatching(g, [0, 1])
        builds = []
        init = RainbowMatching.__init__
        monkeypatch.setattr(RainbowMatching, "__init__",
                            lambda self, *a: builds.append(a) or init(self, *a))
        m.with_swap([1], [5])
        with pytest.raises(ValueError):
            m.with_swap([], [3])
        assert builds == []

    @given(st.integers(0, 6), st.booleans(), st.booleans(), st.data())
    @PROPERTY_SETTINGS
    def test_property(self, seed, from_greedy, admissible, data):
        g = with_loops(seed)
        if from_greedy:
            start = greedy(g, seed).edge_ids
        else:
            start = draw_rainbow(data, g)
        removed = data.draw(st.sets(st.sampled_from(sorted(start)))
                            if start else st.just(set()))
        m = RainbowMatching(g, start)
        if admissible:  # fits beside the kept edges
            added = draw_additions(data, m, removed)
        else:
            added = data.draw(st.sets(
                st.integers(0, g.num_edges + 2).filter(lambda i: i not in start),
                max_size=3))
        result = (set(start) - removed) | added
        if verify(g, result):
            with pytest.raises(ValueError):
                m.with_swap(removed, added)
        else:
            assert views(m.with_swap(removed, added)) == views(RainbowMatching(g, result))
        assert views(m) == views(RainbowMatching(g, start))  # parent untouched


def with_loops(seed: int) -> ColouredMultigraph:
    """``random_instance(seed)`` plus two loops, so a swap can add one."""
    base = random_instance(seed)
    return ColouredMultigraph(
        base.num_vertices, base.num_colours,
        [(e.u, e.v, e.colour) for e in base.edges] + [(0, 0, 0), (1, 1, 1)])


def fitting(g: ColouredMultigraph, kept, ids) -> set[int]:
    """The edges of ``ids``, in that order, that fit beside the rainbow
    matching ``kept`` and the edges taken before them: no loop, and no
    colour or vertex used twice."""
    used_v = {x for i in kept for x in g.edge(i)[1:3]}
    used_c = {g.edge(i).colour for i in kept}
    taken = set()
    for i in ids:
        _, u, v, c = g.edge(i)
        if u != v and c not in used_c and u not in used_v and v not in used_v:
            taken.add(i)
            used_v.update((u, v))
            used_c.add(c)
    return taken


def draw_rainbow(data, g: ColouredMultigraph) -> set[int]:
    """A rainbow matching's ids, as the constructor would be given them."""
    return fitting(g, (), data.draw(st.lists(st.integers(0, g.num_edges - 1),
                                             max_size=6)))


def draw_additions(data, m: RainbowMatching, removed=frozenset(),
                   max_size=3) -> set[int]:
    """Admissible additions to the rainbow matching ``m`` less ``removed``:
    edges outside ``m`` drawn from those that fit beside the kept ones, less
    any that clash with one drawn before them."""
    g = m.graph
    kept = m.edge_ids - removed
    fits = [i for i in range(g.num_edges) if i not in m and fitting(g, kept, [i])]
    drawn = data.draw(st.lists(st.sampled_from(fits), max_size=max_size)
                      if fits else st.just([]))
    return fitting(g, kept, drawn)


class TestCovered:
    """``covered`` is the set of endpoints of the edges, read off the graph,
    however the matching was made."""

    @given(st.integers(0, 6), st.data())
    @PROPERTY_SETTINGS
    def test_equals_the_endpoint_set(self, seed, data):
        g = with_loops(seed)
        user = RainbowMatching(g, draw_rainbow(data, g))
        root = greedy(g, seed)
        removed = data.draw(st.sets(st.sampled_from(root.sorted_ids), max_size=3)
                            if len(root) else st.just(set()))
        added = draw_additions(data, root, removed)
        trimmed = root.with_swap(removed, ())
        swapped = root.with_swap(removed, added)
        for m in (user,
                  user.with_swap((), draw_additions(data, user)),
                  root, trimmed, swapped, extend_to_maximal(trimmed),
                  extend_to_maximal(swapped),
                  extend_to_maximal(RainbowMatching(g, trimmed.edge_ids))):
            ends = {x for i in m.edge_ids for x in g.edge(i)[1:3]}
            assert m.covered == ends


class TestReadSets:
    """The three read sets, ``edge_ids``, ``covered`` and ``colours``, equal a
    fresh build's on every matching of a chain of swaps and greedy passes,
    and ``distance_to`` equals the symmetric difference."""

    @given(st.integers(0, 6), st.booleans(), st.data())
    @PROPERTY_SETTINGS
    def test_equal_a_fresh_build(self, seed, from_greedy, data):
        g = with_loops(seed)
        root = greedy(g, seed) if from_greedy else RainbowMatching(g, draw_rainbow(data, g))
        chain = [root]
        for _ in range(data.draw(st.integers(1, 8))):
            m = chain[-1]
            if data.draw(st.integers(0, 3)) == 0:
                chain.append(extend_to_maximal(m))
                continue
            removed = data.draw(st.sets(st.sampled_from(m.sorted_ids), max_size=3)
                                if len(m) else st.just(set()))
            chain.append(m.with_swap(removed, draw_additions(data, m, removed)))
        chain.append(greedy(g, seed + 1))
        for m in chain:
            fresh = RainbowMatching(g, m.edge_ids)
            assert m.edge_ids == fresh.edge_ids
            assert m.covered == fresh.covered
            assert m.colours == fresh.colours
            # against every other matching: O(1) where it is the chain root
            for other in chain:
                assert m.distance_to(other) == len(other.edge_ids ^ m.edge_ids)

    def test_distance_to_another_graph_raises(self):
        a, b = with_loops(0), with_loops(0)
        with pytest.raises(ValueError, match="^matchings belong to different graphs$"):
            greedy(a, 0).distance_to(greedy(b, 0))


class TestChainDistance:
    """A ``with_swap`` result carries its distance to the chain root."""

    @given(st.integers(0, 6), st.booleans(), st.data())
    @PROPERTY_SETTINGS
    def test_matches_the_symmetric_difference(self, seed, from_greedy, data):
        g = with_loops(seed)
        if from_greedy:  # a maximal root
            start = greedy(g, seed).edge_ids
        else:  # a rainbow root that the constructor built
            start = draw_rainbow(data, g)
        root = RainbowMatching(g, start)
        chain = [root]
        for _ in range(data.draw(st.integers(1, 6))):
            m = chain[-1]
            removed = data.draw(st.sets(st.sampled_from(m.sorted_ids))
                                if len(m) else st.just(set()))
            added = draw_additions(data, m, removed)
            chain.append(m.with_swap(removed, added))
        for m in chain:
            assert m.distance_to(root) == len(root.edge_ids ^ m.edge_ids)
            assert m.sorted_ids == tuple(sorted(m.edge_ids))
            assert views(m) == views(RainbowMatching(g, m.edge_ids))
        # pairs where neither is the other's root take the full path
        for a, b in zip(chain, chain[1:]):
            assert a.distance_to(b) == len(a.edge_ids ^ b.edge_ids)
            assert b.distance_to(a) == len(a.edge_ids ^ b.edge_ids)

    # with_loops(0) is random_instance(0), whose edges 0 and 1 both have
    # colour 0 and edges 1 and 6 share vertex 5, plus loops 24 and 25
    @pytest.mark.parametrize("start,kind", [
        ([0, 1], "colour_clash"),
        ([1, 6], "vertex_clash"),
        ([24], "loop"),
        ([999], "unknown_edge"),
    ])
    def test_non_rainbow_parent_raises(self, start, kind):
        # no chain can start from it: building it raises
        g = with_loops(0)
        issue = verify(g, start)[0]
        assert issue.kind == kind
        with pytest.raises(ValueError, match="not rainbow: " + re.escape(issue.detail)):
            RainbowMatching(g, start)

    def test_unrelated_matchings(self):
        g = with_loops(0)
        root = greedy(g, 0)
        twin = RainbowMatching(g, root.edge_ids)  # equal, but not the root
        first, second = root.sorted_ids[:2]
        child = root.with_swap([first], [])
        sibling = root.with_swap([second], [])

        def fields(a, b):
            return b.distance_to(a), len(a) == len(b)

        assert fields(root, child) == (1, False)
        assert fields(twin, child) == (1, False)
        assert fields(child, twin) == (1, False)
        assert fields(child, sibling) == (2, True)
        assert fields(child, child) == (0, True)

    def test_sorted_ids_computed_once(self):
        g = random_instance(0)
        m = RainbowMatching(g, [19, 9, 14])  # colours 3, 1 and 2: rainbow
        assert m.sorted_ids == (9, 14, 19)
        assert m.sorted_ids is m.sorted_ids
        assert repr(m) == "RainbowMatching([9, 14, 19])"
        swapped = m.with_swap([14], [3])
        assert swapped.sorted_ids == (3, 9, 19)
        assert swapped.sorted_ids is swapped.sorted_ids
        assert m.sorted_ids == (9, 14, 19)


class TestVerify:
    def test_clean(self):
        g = random_instance(0)
        assert verify(g, greedy(g)) == []

    def test_colour_clash(self):
        g = ColouredMultigraph(4, 1, [(0, 1, 0), (2, 3, 0)])
        issues = verify(g, [1, 0, 1])  # any iterable of ids; repeats collapse
        assert [i.kind for i in issues] == ["colour_clash"]
        assert issues[0].colour == 0
        assert set(issues[0].edge_ids) == {0, 1}

    def test_vertex_clash(self):
        g = ColouredMultigraph(3, 2, [(0, 1, 0), (1, 2, 1)])
        issues = verify(g, (0, 1))
        assert [i.kind for i in issues] == ["vertex_clash"]
        assert issues[0].vertex == 1

    def test_unknown_edge(self):
        g = random_instance(0)
        issues = verify(g, iter([0, 404]))
        assert [i.kind for i in issues] == ["unknown_edge"]
        assert issues[0].edge_ids == (404,)

    def test_loop(self):
        # a loop covers one vertex only, so the pair looks disjoint, yet the
        # largest rainbow matching here has one edge
        g = ColouredMultigraph(3, 2, [(0, 0, 0), (1, 2, 1)])
        issues = verify(g, {0, 1})
        assert [i.kind for i in issues] == ["loop"]
        assert (issues[0].edge_ids, issues[0].vertex) == ((0,), 0)
        assert max_rainbow_matching(g).size == 1


@contextmanager
def greedy_passes():
    """Log the edge order of each greedy pass made inside the block, as the
    pass reads it: ``range(graph.num_edges)`` for a full pass in id order,
    else a list."""
    log = []
    inner = matching._greedy_pass

    def spy(graph, order, start):
        log.append(order)
        return inner(graph, order, start)

    matching._greedy_pass = spy
    try:
        yield log
    finally:
        matching._greedy_pass = inner


def greedy_order(graph, seed) -> list[int]:
    """The edge order that ``greedy(graph, seed)`` passes over."""
    with greedy_passes() as log:
        greedy(graph, seed)
    [order] = log
    return order


class TestGreedy:
    def test_deterministic_per_seed(self):
        g = random_instance(2)
        assert greedy(g, seed=5) == greedy(g, seed=5)

    @given(st.integers(0, 600), st.integers(-2**70, 2**70))
    # greedy walks the swaps one draw width at a time; these lengths end a
    # width, start one, or sit one past a start
    @example(0, 1)
    @example(1, 1)
    @example(2, 1)
    @example(3, 1)
    @example(4, 1)
    @example(255, 1)
    @example(256, 1)
    @example(257, 1)
    # 2,400 edges take 12-bit draws, past the range drawn above; a seed of
    # 2**40 seeds the generator from a key of two 32-bit words, and a
    # negative seed is read as its absolute value
    @examples(itertools.product((0, 1, 2, 3, 64, 65, 600, 2400), (0, 1, 7, 2**40, -5)))
    @PROPERTY_SETTINGS
    def test_order_is_the_library_shuffle(self, edges, seed):
        # greedy draws its shuffle inline; the draws and swaps must stay
        # those of ``random.Random(seed).shuffle``, which the goldens pin
        g = ColouredMultigraph(2, 1, [(0, 1, 0)] * edges)
        order = list(range(edges))
        random.Random(seed).shuffle(order)
        assert greedy_order(g, seed) == order

    def test_is_rainbow(self):
        for seed in range(6):
            g = random_instance(seed)
            assert verify(g, greedy(g, seed=seed)) == []

    def test_is_maximal(self):
        for seed in range(6):
            g = random_instance(seed)
            m = greedy(g, seed=seed)
            for e in g.edges:
                if e.u == e.v:
                    continue
                blocked = (e.u in m.covered or e.v in m.covered
                           or e.colour in m.colours)
                assert blocked, f"edge {e.id} extends a 'maximal' matching"

    def test_triangle_matches_oracle(self):
        g = triangle()
        assert len(greedy(g)) == 1
        assert max_rainbow_matching(g).size == 1

    def test_extend_to_maximal_keeps_start(self):
        g = random_instance(3)
        base = RainbowMatching(g, [4])
        m = extend_to_maximal(base)
        assert 4 in m
        assert verify(g, m) == []
        for e in g.edges:
            if e.u == e.v:
                continue
            assert e.u in m.covered or e.v in m.covered or e.colour in m.colours

    @pytest.mark.parametrize("ids, unknown", [
        ([-1], [-1]),         # used to read the last edge and extend to [-1, 0]
        ([7], [7]),           # used to raise a bare IndexError
        ([2, 0, -3], [-3, 2]),
    ])
    def test_extend_to_maximal_rejects_unknown_ids(self, ids, unknown):
        # such a start cannot be built, so it never reaches the pass
        g = ColouredMultigraph(4, 2, [(0, 1, 0), (2, 3, 1)])
        with pytest.raises(ValueError, match=re.escape(
                f"not rainbow: edge id {unknown[0]} not in graph")):
            extend_to_maximal(RainbowMatching(g, ids))

    @pytest.mark.parametrize("ids, kind", [
        ([4], "loop"),
        ([0, 2], "colour_clash"),
        ([0, 3], "vertex_clash"),
    ])
    def test_extend_to_maximal_rejects_non_rainbow(self, ids, kind):
        # such a start cannot be built, so it never reaches the pass
        g = clash_graph()
        issue = verify(g, ids)[0]
        assert issue.kind == kind
        with pytest.raises(ValueError, match="not rainbow: " + re.escape(issue.detail)):
            extend_to_maximal(RainbowMatching(g, ids))

    def test_extend_to_maximal_reads_the_matchings_graph(self):
        # g1's edge 0 covers {0, 1}, g2's covers {0, 2}: the same ids name
        # other edges in g2, so the extension must be g1's
        g1 = ColouredMultigraph(4, 2, [(0, 1, 0), (2, 3, 1)])
        g2 = ColouredMultigraph(4, 2, [(0, 2, 0), (1, 3, 1)])
        for m in (RainbowMatching(g1, [0]), greedy(g1)):
            got = extend_to_maximal(m)
            assert got.graph is g1 and got.edge_ids == {0, 1}
            assert got == RainbowMatching(g1, [0, 1])
            assert got != RainbowMatching(g2, [0, 1])


def reference_extension(g: ColouredMultigraph, ids) -> frozenset[int]:
    """``ids`` plus every edge, in id order, that no vertex or colour used so
    far blocks: the full pass, as a plain loop over the graph."""
    chosen = set(ids)
    used_v: set[int] = set()
    used_c: set[int] = set()
    for i in ids:
        e = g.edge(i)
        used_v.update((e.u, e.v))
        used_c.add(e.colour)
    for e in g.edges:
        if (e.u != e.v and e.u not in used_v and e.v not in used_v
                and e.colour not in used_c):
            chosen.add(e.id)
            used_v.update((e.u, e.v))
            used_c.add(e.colour)
    return frozenset(chosen)


def family_graph(family: str, seed: int) -> ColouredMultigraph:
    if family == "random":
        return random_instance(seed)
    if family == "tight":
        return tight_instance(seed)
    return latin_to_graph(isotope(4 + seed % 5, seed))


class TestDeltaExtension:
    """``extend_to_maximal`` passes over the delta only for ``with_swap``
    descendants of a maximal root, and always returns what the full id-order
    pass returns; a matching is extended on its own graph."""

    @given(st.sampled_from(["random", "tight", "latin"]), st.integers(0, 60),
           st.sampled_from(["greedy", "extended", "user", "foreign"]), st.data())
    @PROPERTY_SETTINGS
    def test_swap_chains_match_the_full_pass(self, family, seed, root_kind, data):
        g = family_graph(family, seed)
        start = greedy(g, seed)
        if root_kind == "greedy":
            root = start
        elif root_kind == "extended":  # maximal, and built by extension
            kept = data.draw(st.sets(st.sampled_from(start.sorted_ids)))
            root = extend_to_maximal(RainbowMatching(g, kept))
        elif root_kind == "user":  # maximal, but nothing records it
            root = RainbowMatching(g, start.edge_ids)
        else:  # maximal on an equal graph object that is not ``g``
            other = ColouredMultigraph(g.num_vertices, g.num_colours,
                                       [(e.u, e.v, e.colour) for e in g.edges])
            root = greedy(other, seed)
        chain = [root]
        for _ in range(data.draw(st.integers(1, 5))):
            m = chain[-1]
            removed = data.draw(st.sets(st.sampled_from(m.sorted_ids), max_size=3)
                                if len(m) else st.just(set()))
            added = draw_additions(data, m, removed, max_size=2)
            chain.append(m.with_swap(removed, added))
        for m in chain:
            if root_kind == "foreign":
                got = extend_to_maximal(m)
                assert got.graph is other and got.graph is not g
                assert got.edge_ids == reference_extension(other, m.edge_ids)
                continue
            with greedy_passes() as orders:
                got = extend_to_maximal(m)
            # "full" when a pass reads every edge of the graph, "delta" when
            # it reads a subset
            log = ["full" if order == range(g.num_edges) else "delta"
                   for order in orders]
            assert got.graph is g
            assert got.edge_ids == reference_extension(g, m.edge_ids)
            assert views(got) == views(RainbowMatching(g, got.edge_ids))
            if root_kind == "user":
                assert log == ["full"]
            elif m is root:
                assert log == [] and got is m
            else:
                assert log == ["delta"]
            assert extend_to_maximal(got) is got  # it records being maximal


class TestCloseness:
    """The symmetric-difference distance between matchings of one graph, as
    ``distance_to`` reads it, and ``closeness``, which only pairs it with
    the sizes' agreement and which the engine no longer calls."""

    def test_requires_same_graph(self):
        a, b = random_instance(0), random_instance(0)
        with pytest.raises(ValueError, match="different graphs"):
            RainbowMatching(b, []).distance_to(RainbowMatching(a, []))

    def test_values(self):
        g = random_instance(0)
        m1 = RainbowMatching(g, [0, 7])
        m2 = RainbowMatching(g, [7, 14])
        assert m2.distance_to(m1) == m1.distance_to(m2) == 2
        assert RainbowMatching(g, [7]).distance_to(m1) == 1

    @given(st.integers(0, 6), st.data())
    @PROPERTY_SETTINGS
    def test_metric_properties(self, seed, data):
        g = random_instance(seed)
        a = RainbowMatching(g, draw_rainbow(data, g))
        b = RainbowMatching(g, draw_rainbow(data, g))
        c = RainbowMatching(g, draw_rainbow(data, g))
        assert a.distance_to(b) == b.distance_to(a)  # symmetry
        assert a.distance_to(a) == 0
        # triangle inequality for the symmetric-difference metric
        assert c.distance_to(a) <= b.distance_to(a) + c.distance_to(b)

    def test_closeness_is_distance_to_and_size_agreement(self):
        g = random_instance(0)
        ms = [RainbowMatching(g, ids) for ids in ([0, 7], [7, 14], [7], [])]
        for a in ms:
            for b in ms:
                c = closeness(a, b)
                assert c == (b.distance_to(a), len(a) == len(b))
                assert [c.within(k) for k in range(4)] == \
                    [c.size_equal and c.distance <= k for k in range(4)]
        with pytest.raises(ValueError, match="^matchings belong to different graphs$"):
            closeness(ms[0], RainbowMatching(random_instance(0), []))


class TestExternalEdges:
    def test_exactly_one_covered_endpoint(self):
        g = random_instance(1)
        m = greedy(g)
        free = set(g.num_colours - c - 1 for c in range(2))
        for i in external_edges(m, free):
            e = g.edge(i)
            assert e.colour in free
            assert (e.u in m.covered) != (e.v in m.covered)

    def test_sorted_and_complete(self):
        g = random_instance(4)
        m = greedy(g)
        got = external_edges(m, range(g.num_colours))
        expect = [e.id for e in g.edges
                  if (e.u in m.covered) != (e.v in m.covered)]
        assert got == expect

    def test_sorted_by_id_across_colour_classes(self):
        # a Latin square's graph numbers its edges by cell, so its colour
        # classes interleave in id order (the random family's do not)
        g = latin_to_graph(cyclic_square(6))
        m = greedy(g)
        expect = [e.id for e in g.edges
                  if (e.u in m.covered) != (e.v in m.covered)]
        assert expect and external_edges(m, range(g.num_colours)) == expect
        assert external_edges(m, [3, 1]) == [
            i for i in expect if g.edge(i).colour in (1, 3)]


class TestJson:
    def test_round_trip(self):
        g = random_instance(2)
        m = greedy(g, seed=3)
        doc = matching_to_json(m)
        assert doc["size"] == len(m)
        assert [item["edge_id"] for item in doc["edges"]] == list(m.sorted_ids)
        assert matching_from_json(g, doc) == m

    def test_unknown_id_is_read_but_not_built(self):
        g = random_instance(0)
        doc = matching_to_json(RainbowMatching(g, [0]))
        doc["edges"].append({"u": None, "v": None, "colour": None, "edge_id": 999})
        doc["edges"].append({"edge_id": 0})
        assert document_ids(doc) == [0, 999, 0]
        assert [i.kind for i in verify(g, document_ids(doc))] == ["unknown_edge"]
        with pytest.raises(ValueError, match="^not rainbow: edge id 999 not in graph$"):
            matching_from_json(g, doc)

    def test_malformed_document(self):
        g = random_instance(0)
        for doc in ({"edges": [{"u": 0}]}, {}, {"edges": [{"edge_id": 1.0}]}):
            for read in (document_ids, lambda d: matching_from_json(g, d)):
                with pytest.raises(ValueError, match="^malformed matching document: "):
                    read(doc)
        # an ``edges`` that is not a list, or an item that is not an object,
        # is named; a dict or a string used to read as an empty matching
        for doc, detail in (
                ({"edges": {}}, "'edges' is not a list"),
                ({"edges": ""}, "'edges' is not a list"),
                ({"edges": {"x": 1}}, "'edges' is not a list"),
                ({"edges": None}, "'edges' is not a list"),
                ({"edges": [{"edge_id": 0}, 1]}, "item 1 of 'edges' is not an object"),
                ({"edges": ["edge_id"]}, "item 0 of 'edges' is not an object"),
                ({"edges": [{"u": 0}, 1]}, "'edge_id'"),
                ({}, "'edges'"),
                ([], "the document is not an object"),
                (7, "the document is not an object"),
                ("x", "the document is not an object"),
                (None, "the document is not an object")):
            for read in (document_ids, lambda d: matching_from_json(g, d)):
                with pytest.raises(ValueError) as info:
                    read(doc)
                assert str(info.value) == f"malformed matching document: {detail}"
