"""Latin squares, the bipartite reduction, and the random generator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (InstanceParams, LatinSquare, PlacementError, cyclic_square,
                          dumps, dumps_square, enumerate_reduced_squares,
                          generate_random, hypothesis_check, latin_to_graph,
                          loads_square, max_partial_transversal, permute_square,
                          validate)
from conftest import random_instance

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def test_cyclic_square_cells():
    sq = cyclic_square(3)
    assert sq.rows == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert sq.order == 3
    assert sq[1] == (1, 2, 0)


def test_latin_square_rejects_non_latin():
    with pytest.raises(ValueError):
        LatinSquare(((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        LatinSquare(((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        LatinSquare(((0, 1, 2), (1, 2, 0)))


def test_latin_to_graph_shape():
    g = latin_to_graph(cyclic_square(3))
    assert g.num_vertices == 6
    assert g.num_colours == 3
    assert g.num_edges == 9
    # edge id i*n + j is cell (i, j)
    e = g.edge(5)
    assert (e.u, e.v, e.colour) == (1, 5, 0)
    assert validate(g) == []


def test_reduced_square_counts():
    # classical counts of reduced Latin squares
    expected = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56}
    for n, want in expected.items():
        squares = list(enumerate_reduced_squares(n))
        assert len(squares) == want
        for sq in squares:
            assert sq.rows[0] == tuple(range(n))
            assert tuple(row[0] for row in sq.rows) == tuple(range(n))


def test_square_text_round_trip():
    sq = cyclic_square(4)
    again = loads_square(dumps_square(sq))
    assert again.rows == sq.rows
    with pytest.raises(ValueError):
        loads_square("2\n0 1\n")
    with pytest.raises(ValueError):
        loads_square("")


@given(seed=st.integers(0, 5000))
@PROPERTY_SETTINGS
def test_transversal_size_invariant_under_permutations(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 6)
    base = cyclic_square(n)
    perms = [list(range(n)) for _ in range(3)]
    for p in perms:
        rng.shuffle(p)
    shuffled = permute_square(base, *perms)
    assert max_partial_transversal(shuffled).size == max_partial_transversal(base).size


def test_generator_deterministic():
    a = generate_random(6, 9, 18, 1, 42)
    b = generate_random(6, 9, 18, 1, 42)
    assert dumps(a) == dumps(b)
    c = generate_random(6, 9, 18, 1, 43)
    assert dumps(c) != dumps(a)


def test_generator_meets_hypotheses():
    g = generate_random(8, 12, 24, 1, 7)
    assert validate(g) == []
    for c in range(8):
        assert g.colour_class_size(c) == 12
    assert g.max_multiplicity() <= 1
    assert hypothesis_check(g, InstanceParams.for_graph(g, epsilon="1/2")).ok


def test_generator_rejects_impossible():
    with pytest.raises(ValueError):
        generate_random(2, 4, 6, 1, 0)  # count > vertices // 2
    with pytest.raises(ValueError):
        generate_random(2, 2, 4, 0, 0)  # cap < 1


def test_generator_placement_fails_on_a_feasible_shape():
    # a known defect of the rejection sampler, kept visible until a
    # constructive generator replaces it: ten colour classes of 15 edges (a
    # perfect matching each) fit on 30 vertices, as any ten classes of a
    # 1-factorisation of K_30 show, but this seed exhausts the 64 tries
    with pytest.raises(PlacementError):
        generate_random(10, 15, 30, 1, 8391)


@given(seed=st.integers(0, 10_000))
@PROPERTY_SETTINGS
def test_generator_always_proper_with_exact_counts(seed):
    g = random_instance(seed)
    assert validate(g) == []
    sizes = {g.colour_class_size(c) for c in range(g.num_colours)}
    assert len(sizes) == 1  # every colour placed the full count
