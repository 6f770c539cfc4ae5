"""Exact oracles: frozen values, cross-checks, caps."""
from __future__ import annotations

import itertools
import random
import sys
import time

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from rainbowmatch import (
    CapExceeded,
    ColouredMultigraph,
    LatinSquare,
    PlacementError,
    RainbowMatching,
    certify_cyclic,
    cyclic_square,
    enumerate_reduced_squares,
    latin_to_graph,
    max_partial_transversal,
    max_rainbow_matching,
    permute_square,
    verify,
)

from rainbowmatch.oracle import (DEFAULT_MAX_NODES, DEFAULT_TIME_LIMIT, OracleResult,
                                 _breach, _deadline, _greedy_cover, _next_check)

from conftest import isotope, random_instance, raw_graphs, tight_instance
from stdlib_helpers import group_table, witness_problems

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)

# Frozen before the solver existed; both oracles agree on every value.
CYCLIC_OPTIMA = {1: 1, 2: 1, 3: 3, 4: 3, 5: 5, 6: 5, 7: 7}


def outcome(search, instance, **caps):
    """``(status, size, witness, nodes)``: status is "ok" for a finished
    search, else the reason of its ``CapExceeded``."""
    try:
        res, status = search(instance, **caps), "ok"
    except CapExceeded as exc:
        res, status = exc.best, exc.reason
    return status, res.size, res.witness, res.nodes


Z7_DIAGONAL = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6))
Z8_AT_4096_GRAPH = (0, 9, 18, 27, 37, 46, 55)
Z8_AT_4096_SQUARE = ((0, 0), (1, 1), (2, 2), (3, 3), (4, 5), (5, 6), (6, 7))


class TestFrozenValues:
    @pytest.mark.parametrize("n,expected", sorted(CYCLIC_OPTIMA.items()))
    def test_cyclic_graph_oracle(self, n, expected):
        res = max_rainbow_matching(latin_to_graph(cyclic_square(n)))
        assert res.size == expected

    @pytest.mark.parametrize("n,expected", sorted(CYCLIC_OPTIMA.items()))
    def test_cyclic_square_oracle(self, n, expected):
        res = max_partial_transversal(cyclic_square(n))
        assert res.size == expected


class TestCrossAgreement:
    def test_reduced_catalogue(self):
        # Every reduced square of order <= 5: the two independent searches
        # must give the same optimum.
        for n in range(1, 6):
            for sq in enumerate_reduced_squares(n):
                a = max_rainbow_matching(latin_to_graph(sq))
                b = max_partial_transversal(sq)
                assert a.size == b.size, sq.rows

    def test_permuted_order_six(self):
        rng = random.Random(17)
        base = cyclic_square(6)
        for _ in range(5):
            perms = [list(rng.sample(range(6), 6)) for _ in range(3)]
            sq = permute_square(base, *perms)
            assert max_rainbow_matching(latin_to_graph(sq)).size == 5
            assert max_partial_transversal(sq).size == 5

    @pytest.mark.parametrize("n,expected", [(10, 9), (11, 11)])
    def test_cyclic_past_order_eight(self, n, expected):
        # both finish under the default caps, so both sizes are certified
        sq = cyclic_square(n)
        assert max_rainbow_matching(latin_to_graph(sq)).size \
            == max_partial_transversal(sq).size == expected


class TestWitness:
    def test_graph_witness_is_valid_and_max(self):
        for seed in range(5):
            g = random_instance(seed)
            res = max_rainbow_matching(g)
            m = RainbowMatching(g, res.witness)
            assert len(m) == res.size
            assert verify(g, m) == []

    def test_square_witness_cells(self):
        sq = cyclic_square(5)
        res = max_partial_transversal(sq)
        cells = res.witness
        assert len(cells) == res.size == 5
        assert len({i for i, _ in cells}) == 5
        assert len({j for _, j in cells}) == 5
        assert len({sq.rows[i][j] for i, j in cells}) == 5


def isomorphic_to_cyclic(square: LatinSquare) -> bool:
    """Whether some bijection f of the symbols has f(L[i][j]) = f(i) + f(j)
    mod n: for a reduced square, whose first row and column read 0..n-1,
    that is isotopy to Z_n.  Tries all n! bijections."""
    n = square.order
    return any(all(f[square[i][j]] == (f[i] + f[j]) % n
                   for i in range(n) for j in range(n))
               for f in itertools.permutations(range(n)))


def certificate_problems(square: LatinSquare, res: OracleResult) -> list:
    """:func:`witness_problems` of the certificate's cells, and any node
    count but 0 or cells out of row order."""
    problems = witness_problems(square, res.size, res.witness)
    if res.nodes != 0 or list(res.witness) != sorted(res.witness):
        problems.append(res)
    return problems


class TestCyclicCertificate:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_agrees_with_both_searches(self, n):
        for square in (cyclic_square(n), isotope(n, 0), isotope(n, 1)):
            res = certify_cyclic(square)
            assert res is not None
            assert res.size == max_partial_transversal(square).size \
                == max_rainbow_matching(latin_to_graph(square)).size \
                == (n if n % 2 else n - 1)
            assert certificate_problems(square, res) == []

    def test_refuses_the_empty_square(self):
        # no group has an empty table; both searches prove 0
        square = LatinSquare(())
        assert certify_cyclic(square) is None
        assert max_partial_transversal(square).size \
            == max_rainbow_matching(latin_to_graph(square)).size == 0

    def test_reduced_squares_of_orders_4_and_5(self):
        # it accepts exactly the reduced squares that are isotopes of Z_n:
        # 3 of the 4 of order 4 (not Z_2 x Z_2) and 6 of the 56 of order 5
        accepted = 0
        for n in (4, 5):
            for square in enumerate_reduced_squares(n):
                res = certify_cyclic(square)
                assert (res is not None) == isomorphic_to_cyclic(square), square.rows
                if res is not None:
                    accepted += 1
                    assert res.size == max_partial_transversal(square).size
                    assert certificate_problems(square, res) == []
        assert accepted == 9

    @pytest.mark.parametrize("orders", [(2, 2), (2, 4)], ids=["Z2xZ2", "Z2xZ4"])
    def test_refuses_non_cyclic_groups(self, orders):
        # both have a transversal, so a bound of n - 1 would be wrong
        square = group_table(*orders)
        assert certify_cyclic(square) is None
        assert max_partial_transversal(square).size == square.order

    def test_refuses_z6_with_an_intercalate_turned(self):
        # cells (0, 0), (0, 3), (3, 0) and (3, 3) of Z_6 hold 0, 3, 3, 0;
        # turned, the square is still Latin, no longer an isotope of Z_6,
        # and it has a transversal
        rows = [list(row) for row in cyclic_square(6).rows]
        for i, j in itertools.product((0, 3), repeat=2):
            rows[i][j] = (rows[i][j] + 3) % 6
        square = LatinSquare(tuple(map(tuple, rows)))
        assert certify_cyclic(square) is None
        assert max_partial_transversal(square).size == 6

    @pytest.mark.parametrize("n", [64, 65, 256])
    def test_large_orders(self, n):
        for square in (cyclic_square(n), isotope(n, 0)):
            res = certify_cyclic(square)
            assert res.size == (n if n % 2 else n - 1)
            assert certificate_problems(square, res) == []


def exhaustive_optimum(graph: ColouredMultigraph) -> int:
    """Check every subset of edges; only sane for tiny instances."""
    ids = [e.id for e in graph.edges if e.u != e.v]
    best = 0
    for r in range(len(ids), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(ids, r):
            if not verify(graph, combo):
                best = max(best, r)
                break
    return best


class TestAgainstExhaustive:
    def test_tiny_catalogue(self):
        cases = [
            ColouredMultigraph(3, 1, [(0, 1, 0), (1, 2, 0), (0, 2, 0)]),
            ColouredMultigraph(4, 2, [(0, 1, 0), (2, 3, 1), (1, 2, 0)]),
            ColouredMultigraph(2, 3, [(0, 1, 0), (0, 1, 1), (0, 1, 2)]),
            ColouredMultigraph(5, 2, [(0, 0, 0), (1, 2, 1), (3, 4, 0)]),
            latin_to_graph(cyclic_square(2)),
            latin_to_graph(cyclic_square(3)),
        ]
        for g in cases:
            assert max_rainbow_matching(g).size == exhaustive_optimum(g)

    @given(st.integers(0, 2**30), st.integers(4, 8), st.integers(3, 10))
    @PROPERTY_SETTINGS
    def test_small_random(self, seed, vertices, edge_count):
        rng = random.Random(seed)
        edges = [(rng.randrange(vertices), rng.randrange(vertices),
                  rng.randrange(3)) for _ in range(edge_count)]
        g = ColouredMultigraph(vertices, 3, edges)
        assert max_rainbow_matching(g).size == exhaustive_optimum(g)


def colour_bound_search(graph: ColouredMultigraph) -> tuple:
    """``(size, witness, nodes)`` of the graph search with the colour term as
    its only bound: same edge order, same take-then-skip branching."""
    order = sorted((e for e in graph.edges if e.u != e.v),
                   key=lambda e: (graph.colour_class_size(e.colour), e.id))
    m = len(order)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | 1 << order[i].colour
    nodes, best, chosen = 0, (), []
    stack = [(0, 0, 0, 0)]
    while stack:
        i, used_v, used_c, k = stack.pop()
        del chosen[k:]
        while True:
            nodes += 1
            if k > len(best):
                best = tuple(chosen)
            if i == m or k + (suffix[i] & ~used_c).bit_count() <= len(best):
                break
            e = order[i]
            vmask, cbit = 1 << e.u | 1 << e.v, 1 << e.colour
            if not (used_v & vmask or used_c & cbit):
                stack.append((i + 1, used_v, used_c, k))
                chosen.append(e.id)
                used_v, used_c, k = used_v | vmask, used_c | cbit, k + 1
            i += 1
    return len(best), best, nodes


@st.composite
def search_instances(draw):
    """Small multigraphs with loops and parallel edges, generated random and
    tight instances, and Latin isotopes of orders 3 to 7."""
    kind = draw(st.sampled_from(["multigraph", "random", "tight", "latin"]))
    if kind == "multigraph":
        n, colours = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                        st.integers(0, colours - 1)), max_size=14))
        return ColouredMultigraph(n, colours, edges)
    seed = draw(st.integers(0, 2**30))
    if kind == "latin":
        return latin_to_graph(isotope(draw(st.integers(3, 7)), seed))
    try:
        return (random_instance if kind == "random" else tight_instance)(seed)
    except PlacementError:
        reject()


class TestAgainstColourBound:
    # the vertex-cover terms only prune: the improving nodes, and so size and
    # witness, are those of the colour bound alone
    @given(search_instances())
    @PROPERTY_SETTINGS
    def test_same_result_in_no_more_nodes(self, graph):
        size, witness, nodes = colour_bound_search(graph)
        res = max_rainbow_matching(graph)
        assert (res.size, res.witness) == (size, witness)
        assert res.nodes <= nodes


def reference_rainbow_matching(graph, max_nodes=DEFAULT_MAX_NODES,
                               time_limit=DEFAULT_TIME_LIMIT):
    """A frozen copy of the graph search that tests every node's fit and
    colour term one node at a time: the search tree that
    :func:`max_rainbow_matching` must walk, node for node."""
    order = [e for e in graph.edges if e.u != e.v]
    order.sort(key=lambda e: (graph.colour_class_size(e.colour), e.id))
    m = len(order)
    ids = [e.id for e in order]
    ends = sorted({x for e in order for x in (e.u, e.v)})
    bit = {v: i for i, v in enumerate(ends)}
    vmasks = [1 << bit[e.u] | 1 << bit[e.v] for e in order]
    rank = {c: i for i, c in enumerate(sorted({e.colour for e in order}))}
    cbits = [1 << rank[e.colour] for e in order]
    adjacent = [0] * len(bit)
    for e in order:
        adjacent[bit[e.u]] |= 1 << bit[e.v]
        adjacent[bit[e.v]] |= 1 << bit[e.u]
    cover1 = _greedy_cover(adjacent, range(len(bit)))
    cover2 = _greedy_cover(adjacent, range(len(bit) - 1, -1, -1))
    suffix = [0] * (m + 1)
    vsuffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cbits[i]
        vsuffix[i] = vsuffix[i + 1] | vmasks[i]
    s1 = [vs & cover1 for vs in vsuffix]
    s2 = [vs & cover2 for vs in vsuffix]
    nc = [x.bit_count() for x in suffix]
    nv = [x.bit_count() for x in vsuffix]
    n1 = [x.bit_count() for x in s1]
    n2 = [x.bit_count() for x in s2]
    deadline = _deadline(time_limit)
    nodes = 0
    check_at = _next_check(0, max_nodes)
    best_size = 0
    best = ()
    chosen = []
    stack = [(0, 0, 0, 0)]
    while stack:
        i, used_v, used_c, k = stack.pop()
        del chosen[k:]
        fresh = True
        while True:
            nodes += 1
            if nodes >= check_at:
                breach = _breach(nodes, max_nodes, deadline)
                if breach:
                    raise CapExceeded(breach, OracleResult(best_size, best, nodes))
                check_at = _next_check(nodes, max_nodes)
            if k > best_size:
                best_size = k
                best = tuple(chosen)
            if i == m:
                break
            slack = best_size - k
            if nc[i] - (suffix[i] & used_c).bit_count() <= slack:
                break
            if fresh:
                if (n1[i] - (s1[i] & used_v).bit_count() <= slack
                        or n2[i] - (s2[i] & used_v).bit_count() <= slack
                        or (nv[i] - (vsuffix[i] & used_v).bit_count()) // 2 <= slack):
                    break
                fresh = False
            if not (used_v & vmasks[i] or used_c & cbits[i]):
                stack.append((i + 1, used_v, used_c, k))
                chosen.append(ids[i])
                used_v |= vmasks[i]
                used_c |= cbits[i]
                k += 1
                fresh = True
            i += 1
    return OracleResult(best_size, best, nodes)


def reference_partial_transversal(square, max_nodes=DEFAULT_MAX_NODES,
                                  time_limit=DEFAULT_TIME_LIMIT):
    """A frozen copy of the square search that counts the used columns and
    symbols at every node: the search tree that
    :func:`max_partial_transversal` must walk, node for node."""
    n = square.order
    rows = square.rows
    deadline = _deadline(time_limit)
    nodes = 0
    check_at = _next_check(0, max_nodes)
    best_size = 0
    best = ()
    chosen = []
    stack = [(0, 0, 0, 0, None)]
    while stack:
        i, cols, syms, k, cell = stack.pop()
        del chosen[k:]
        if cell is not None:
            chosen.append(cell)
            k += 1
        nodes += 1
        if nodes >= check_at:
            breach = _breach(nodes, max_nodes, deadline)
            if breach:
                raise CapExceeded(breach, OracleResult(best_size, best, nodes))
            check_at = _next_check(nodes, max_nodes)
        if k > best_size:
            best_size = k
            best = tuple(chosen)
        if i == n:
            continue
        room = min(n - i, n - cols.bit_count(), n - syms.bit_count())
        if k + room <= best_size:
            continue
        stack.append((i + 1, cols, syms, k, None))
        row = rows[i]
        for j in range(n - 1, -1, -1):
            s = row[j]
            if not (cols >> j & 1 or syms >> s & 1):
                stack.append((i + 1, cols | 1 << j, syms | 1 << s, k, (i, j)))
    return OracleResult(best_size, best, nodes)


# orders drawn evenly, so that order 8, whose searches pass node 4096, is
# common
isotopes = st.builds(isotope, st.sampled_from(range(1, 9)), st.integers(0, 2**30))

# both clock strides 4096 and 8192 lie within reach, and a time limit of 0
# fires on the first of them that the node cap does not pre-empt
search_caps = st.fixed_dictionaries({
    "max_nodes": st.one_of(st.integers(0, 9_000), st.just(DEFAULT_MAX_NODES)),
    "time_limit": st.sampled_from([DEFAULT_TIME_LIMIT, 0]),
})


class TestAgainstReference:
    """Counting a run of blocked edges in one step, and the precomputed row
    cells, leave both search trees as they were: equal status, size,
    witness and node count, at every cap."""

    @given(st.one_of(raw_graphs(), search_instances(),
                     isotopes.map(latin_to_graph)), search_caps)
    @example(latin_to_graph(isotope(8, 0)), {"max_nodes": 4095, "time_limit": 0})
    @example(latin_to_graph(isotope(8, 1)), {"max_nodes": 4096, "time_limit": 60})
    @example(latin_to_graph(isotope(8, 2)), {"max_nodes": 8191, "time_limit": 60})
    @PROPERTY_SETTINGS
    def test_graph_search(self, graph, caps):
        assert outcome(max_rainbow_matching, graph, **caps) \
            == outcome(reference_rainbow_matching, graph, **caps)

    @given(isotopes, search_caps)
    @example(isotope(8, 0), {"max_nodes": 4095, "time_limit": 0})
    @example(isotope(8, 1), {"max_nodes": 4096, "time_limit": 60})
    @example(isotope(8, 2), {"max_nodes": 8191, "time_limit": 60})
    @PROPERTY_SETTINGS
    def test_square_search(self, square, caps):
        assert outcome(max_partial_transversal, square, **caps) \
            == outcome(reference_partial_transversal, square, **caps)


class TestCaps:
    def test_node_cap_carries_lower_bound(self):
        g = latin_to_graph(cyclic_square(7))
        with pytest.raises(CapExceeded) as info:
            max_rainbow_matching(g, max_nodes=10)
        exc = info.value
        assert exc.reason == "nodes"
        assert exc.best.nodes == 11  # breach detected on the node past the cap
        m = RainbowMatching(g, exc.best.witness)
        assert len(m) == exc.best.size <= 7
        assert verify(g, m) == []

    def test_square_node_cap(self):
        with pytest.raises(CapExceeded) as info:
            max_partial_transversal(cyclic_square(7), max_nodes=5)
        assert info.value.reason == "nodes"
        assert info.value.best.size <= 7

    def test_generous_cap_not_triggered(self):
        res = max_rainbow_matching(latin_to_graph(cyclic_square(4)))
        assert res.nodes > 0
        res2 = max_rainbow_matching(latin_to_graph(cyclic_square(4)),
                                    max_nodes=res.nodes)
        assert res2.size == 3

    # the node at which each cap fires, pinned on both searches
    @pytest.mark.parametrize("n,max_nodes,graph,square", [
        (7, 1, ("nodes", 0, (), 2), ("nodes", 0, (), 2)),
        (7, 10, ("nodes", 2, (0, 8), 11), ("nodes", 7, Z7_DIAGONAL, 11)),
        (7, 29, ("nodes", 4, (0, 8, 16, 24), 30), ("nodes", 7, Z7_DIAGONAL, 30)),
        (7, 30, ("nodes", 4, (0, 8, 16, 24), 31), ("ok", 7, Z7_DIAGONAL, 30)),
        (7, 56, ("nodes", 7, (0, 8, 16, 24, 32, 40, 48), 57), ("ok", 7, Z7_DIAGONAL, 30)),
        (7, 57, ("ok", 7, (0, 8, 16, 24, 32, 40, 48), 57), ("ok", 7, Z7_DIAGONAL, 30)),
        (7, 4095, ("ok", 7, (0, 8, 16, 24, 32, 40, 48), 57), ("ok", 7, Z7_DIAGONAL, 30)),
        (7, 4096, ("ok", 7, (0, 8, 16, 24, 32, 40, 48), 57), ("ok", 7, Z7_DIAGONAL, 30)),
        (7, 4097, ("ok", 7, (0, 8, 16, 24, 32, 40, 48), 57), ("ok", 7, Z7_DIAGONAL, 30)),
        (8, 4095, ("nodes", 7, Z8_AT_4096_GRAPH, 4096), ("nodes", 7, Z8_AT_4096_SQUARE, 4096)),
        (8, 4096, ("nodes", 7, Z8_AT_4096_GRAPH, 4097), ("nodes", 7, Z8_AT_4096_SQUARE, 4097)),
        (8, 4097, ("nodes", 7, Z8_AT_4096_GRAPH, 4098), ("nodes", 7, Z8_AT_4096_SQUARE, 4098)),
        # 0 is a cap: it fires on the root
        (7, 0, ("nodes", 0, (), 1), ("nodes", 0, (), 1)),
    ])
    def test_node_caps(self, n, max_nodes, graph, square):
        sq = cyclic_square(n)
        assert outcome(max_rainbow_matching, latin_to_graph(sq),
                       max_nodes=max_nodes) == graph
        assert outcome(max_partial_transversal, sq, max_nodes=max_nodes) == square

    # the clock is read on every 4096th node only
    def test_expired_clock_fires_on_node_4096(self):
        sq = cyclic_square(8)
        assert outcome(max_rainbow_matching, latin_to_graph(sq), time_limit=0) \
            == ("time", 7, Z8_AT_4096_GRAPH, 4096)
        assert outcome(max_partial_transversal, sq, time_limit=0) \
            == ("time", 7, Z8_AT_4096_SQUARE, 4096)

    # a NaN deadline compares False forever, which would switch the clock off
    def test_nan_time_limit_refused(self):
        sq = cyclic_square(8)
        with pytest.raises(ValueError, match="^time limit is NaN$"):
            max_rainbow_matching(latin_to_graph(sq), time_limit=float("nan"))
        with pytest.raises(ValueError, match="^time limit is NaN$"):
            max_partial_transversal(sq, time_limit=float("nan"))

    # a negative node cap would stop every search after its first node
    @pytest.mark.parametrize("max_nodes", [-1, -4096])
    def test_negative_node_cap_refused(self, max_nodes):
        sq = cyclic_square(7)
        message = f"^max_nodes must not be negative: {max_nodes}$"
        with pytest.raises(ValueError, match=message):
            max_rainbow_matching(latin_to_graph(sq), max_nodes=max_nodes)
        with pytest.raises(ValueError, match=message):
            max_partial_transversal(sq, max_nodes=max_nodes)

    # a negative time limit would stop every search at its first clock reading
    @pytest.mark.parametrize("time_limit", [-1, -0.5, float("-inf")])
    def test_negative_time_limit_refused(self, time_limit):
        sq = cyclic_square(7)
        message = f"^time_limit must not be negative: {time_limit}$"
        with pytest.raises(ValueError, match=message):
            max_rainbow_matching(latin_to_graph(sq), time_limit=time_limit)
        with pytest.raises(ValueError, match=message):
            max_partial_transversal(sq, time_limit=time_limit)

    def test_infinite_time_limit_allowed(self):
        sq = cyclic_square(5)
        assert max_rainbow_matching(latin_to_graph(sq), time_limit=float("inf")).size == 5
        assert max_partial_transversal(sq, time_limit=float("inf")).size == 5

    def test_node_cap_checked_before_the_clock(self):
        sq = cyclic_square(8)
        assert outcome(max_rainbow_matching, latin_to_graph(sq), max_nodes=4095,
                       time_limit=0) == ("nodes", 7, Z8_AT_4096_GRAPH, 4096)
        assert outcome(max_partial_transversal, sq, max_nodes=4095,
                       time_limit=0) == ("nodes", 7, Z8_AT_4096_SQUARE, 4096)


class TestGolden:
    """Exact search trees, node for node: size, witness and node count."""

    @pytest.mark.parametrize("seed,expected", [
        (0, (7, (0, 9, 18, 27, 36, 46, 53), 56514)),
        (1, (7, (0, 9, 19, 26, 38, 45, 52), 57231)),
        (2, (7, (0, 9, 18, 28, 35, 45, 62), 56572)),
    ])
    def test_graph_on_z8_isotopes(self, seed, expected):
        res = max_rainbow_matching(latin_to_graph(isotope(8, seed)))
        assert (res.size, res.witness, res.nodes) == expected

    @pytest.mark.parametrize("seed,expected", [
        (0, (7, ((0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 6), (6, 5)), 7378)),
        (1, (7, ((0, 0), (1, 1), (2, 3), (3, 2), (4, 6), (5, 5), (6, 4)), 7410)),
        (2, (7, ((0, 0), (1, 1), (2, 2), (3, 4), (4, 3), (5, 5), (7, 6)), 7394)),
    ])
    def test_square_on_z8_isotopes(self, seed, expected):
        res = max_partial_transversal(isotope(8, seed))
        assert (res.size, res.witness, res.nodes) == expected

    @pytest.mark.parametrize("seed,expected", [
        (0, (4, (0, 6, 13, 21), 27)),
        (1, (6, (0, 9, 20, 29, 36, 46), 54)),
        (2, (6, (0, 10, 18, 27, 36, 45), 53)),
    ])
    def test_graph_on_random_instances(self, seed, expected):
        res = max_rainbow_matching(random_instance(seed))
        assert (res.size, res.witness, res.nodes) == expected

    # vertex v moved to 3v + 1, so isolated vertices sit before, between and
    # after the others in the same ascending order
    @pytest.mark.parametrize("graph", [
        *(latin_to_graph(isotope(8, s)) for s in range(3)),
        *(random_instance(s) for s in range(3)),
        ColouredMultigraph(5, 3, [(0, 1, 0), (2, 2, 1), (1, 3, 2)]),
    ])
    def test_isolated_vertices_change_nothing(self, graph):
        padded = ColouredMultigraph(
            3 * graph.num_vertices + 5, graph.num_colours,
            [(3 * e.u + 1, 3 * e.v + 1, e.colour) for e in graph.edges])
        assert max_rainbow_matching(padded) == max_rainbow_matching(graph)

    # Z_8's colours moved near 4,000,000, in order and shuffled: a colour's
    # bit is its rank, so the ids change nothing and cost nothing
    @pytest.mark.parametrize("relabel", [lambda c: 3_999_983 + c,
                                         lambda c: 3_999_983 + 5 * c % 8],
                             ids=["shifted", "shuffled"])
    def test_colour_ids_change_nothing(self, relabel):
        graph = latin_to_graph(isotope(8, 0))
        far = ColouredMultigraph(16, 4_000_000, [(e.u, e.v, relabel(e.colour))
                                                 for e in graph.edges])
        assert max_rainbow_matching(far, time_limit=5) == max_rainbow_matching(graph)

    def test_sparse_header_costs_nothing(self):
        g = ColouredMultigraph(1_000_000, 2, [(0, 1, 0), (2, 3, 1)])
        start = time.perf_counter()
        res = max_rainbow_matching(g)
        assert time.perf_counter() - start < 2
        assert (res.size, res.witness) == (2, (0, 1))


def call_near_recursion_limit(fn, *args, headroom=20):
    """``fn(*args)`` called with only ``headroom`` frames left below the
    recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back

    def descend(k):
        return fn(*args) if k == 0 else descend(k - 1)

    return descend(sys.getrecursionlimit() - headroom - depth)


class TestStackDepth:
    @pytest.mark.parametrize("square", [cyclic_square(33), isotope(8, 0)],
                             ids=["z33", "z8_isotope"])
    def test_same_result_deep_in_the_stack(self, square):
        graph = latin_to_graph(square)
        assert call_near_recursion_limit(max_rainbow_matching, graph) \
            == max_rainbow_matching(graph)
        assert call_near_recursion_limit(max_partial_transversal, square) \
            == max_partial_transversal(square)
