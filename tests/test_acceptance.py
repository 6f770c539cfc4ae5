"""Acceptance gate: the primary behavioural guarantees.

One test per guarantee; each prints a single summary line on success (run
with ``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
exact unless a runtime ceiling is stated.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import ceil

from rainbowmatch import (
    ColouredMultigraph,
    InstanceParams,
    NotFound,
    RainbowMatching,
    SwitchContext,
    SwitchRequest,
    build_hierarchy,
    classify_good_bad,
    compute_flexible,
    cyclic_square,
    enumerate_reduced_squares,
    find_violations,
    greedy,
    hypothesis_check,
    latin_to_graph,
    max_partial_transversal,
    max_rainbow_matching,
    solve,
    verify,
)
from rainbowmatch import switching

from conftest import (bad_per_colour, brute_scan, default_params, random_instance,
                      recheck_call, recorded_calls)

_SOLVE_FUZZ_SEEDS = 1000
_SOLVE_FUZZ_LIMIT_S = 300.0
_LATIN_LIMIT_S = 120.0


def _report(line: str) -> None:
    print(f"\n{line}", flush=True)


# -- shared instance collections ----------------------------------------------

@lru_cache(maxsize=1)
def _qualifying_pairs():
    """At least 100 (graph, maximal matching, params) triples where the
    instance passes the density hypotheses at epsilon 1/2 and the matching
    misses at least one colour."""
    pairs = []
    seed = 0
    while len(pairs) < 120 and seed < 2000:
        g = random_instance(seed)
        params = InstanceParams.for_graph(g, epsilon="1/2")
        if hypothesis_check(g, params) == []:
            for greedy_seed in range(8):
                m = greedy(g, greedy_seed)
                if len(m) < g.num_colours:
                    pairs.append((g, m, params))
        seed += 1
    assert len(pairs) >= 100, f"only {len(pairs)} qualifying matchings found"
    return pairs


@lru_cache(maxsize=1)
def _small_instances():
    """Instances with at most 14 edges: a hand catalogue, the Latin squares
    of order <= 3, and seeded fuzz."""
    graphs = [
        ColouredMultigraph(3, 1, [(0, 1, 0), (1, 2, 0), (0, 2, 0)]),
        ColouredMultigraph(2, 3, [(0, 1, 0), (0, 1, 1), (0, 1, 2)]),
        ColouredMultigraph(5, 2, [(0, 0, 0), (1, 2, 1), (3, 4, 0)]),
        ColouredMultigraph(6, 3, [(0, 1, 0), (2, 3, 1), (1, 4, 1), (3, 5, 2)]),
        ColouredMultigraph(11, 6, [(0, 1, 0), (2, 3, 1), (1, 8, 1), (3, 9, 4),
                                   (3, 10, 5), (6, 7, 0)]),
        ColouredMultigraph(12, 6, [(0, 1, 0), (2, 3, 1), (6, 7, 2), (1, 8, 1),
                                   (3, 9, 4), (3, 10, 5), (7, 11, 0)]),
    ]
    for n in range(1, 4):
        graphs.extend(latin_to_graph(sq) for sq in enumerate_reduced_squares(n))
    for seed in range(150):
        rng = random.Random(seed)
        vertices = rng.randint(4, 10)
        colours = rng.randint(2, 5)
        edges = [(rng.randrange(vertices), rng.randrange(vertices),
                  rng.randrange(colours))
                 for _ in range(rng.randint(3, 14))]
        graphs.append(ColouredMultigraph(vertices, colours, edges))
    assert all(g.num_edges <= 14 for g in graphs)
    return graphs


# -- the gate ------------------------------------------------------------------

def test_validity_fuzz():
    t0 = time.perf_counter()
    for seed in range(_SOLVE_FUZZ_SEEDS):
        g = random_instance(seed)
        assert g.num_colours <= 12 and g.num_edges <= 400
        report = solve(g, target_deficit=seed % 2, seed=seed)
        assert verify(g, report.matching) == [], f"seed {seed}"
        assert report.size == len(report.matching)
    elapsed = time.perf_counter() - t0
    assert elapsed < _SOLVE_FUZZ_LIMIT_S
    _report(f"PASS validity fuzz: {_SOLVE_FUZZ_SEEDS}/{_SOLVE_FUZZ_SEEDS} "
            f"solve outputs verified clean in {elapsed:.1f}s")


def test_oracle_soundness_on_small_instances():
    checked = augments = 0
    for g in _small_instances():
        optimum = max_rainbow_matching(g).size
        report = solve(g, target_deficit=0, seed=0)
        assert verify(g, report.matching) == []
        assert report.size <= optimum, (report.size, optimum)
        for rec in report.iterations:
            if rec.kind is not None:
                augments += 1
                assert rec.size_after == rec.size_before + 1
        checked += 1
    assert checked >= 150
    _report(f"PASS oracle soundness: {checked} instances with <= 14 edges, "
            f"solve <= optimum everywhere, {augments} augments all +1")


def test_flexible_colour_lower_bound():
    pairs = _qualifying_pairs()
    for g, m, params in pairs:
        flex = compute_flexible(m, params)
        n = g.num_colours
        bound = ceil((Fraction(params.epsilon, 2) - params.alpha) * n)
        assert len(flex.partners) >= bound, (
            f"|F| = {len(flex.partners)} < {bound} on n = {n}")
    _report(f"PASS flexible colour bound: |F| >= ceil((eps/2 - alpha) n) "
            f"on {len(pairs)} maximal matchings short of n")


def test_bad_edge_upper_bound():
    pairs = _qualifying_pairs()
    limit = None
    for g, m, params in pairs:
        flex = compute_flexible(m, params)
        good_at = classify_good_bad(m, flex, params)
        limit = 2 / params.alpha
        for colour, count in bad_per_colour(m, flex, good_at).items():
            assert count <= limit, (colour, count)
    _report(f"PASS bad edge bound: per flexible colour <= 2/alpha = {limit} "
            f"on {len(pairs)} matchings")


def test_switch_closeness_contract(lift_fixture, descend_fixture):
    """Every successful switch satisfies the robustness clauses: target colour
    and vertex gone, fix kept, avoid sets respected, and the result within
    budget + 3 * 2^level - 2 of the base.

    The level-indexed slack starts at 4, the distance of the elementary
    four-edge exchange (see the decisions ledger on the published f(i)).
    """
    observed = []
    for seed in range(150):
        g = random_instance(seed)
        with recorded_calls() as log:
            solve(g, target_deficit=seed % 2, seed=seed)
        observed.extend((g, rec) for rec in log)
    for g, base, params in _qualifying_pairs():
        ctx = SwitchContext.build(base, params=params)
        with recorded_calls() as log:
            for level in ctx.hierarchy.levels:
                for le in level.edges:
                    switching.robust_switch(ctx, base, SwitchRequest(le.colour, le.head))
        observed.extend((g, rec) for rec in log)
    # two-level recursions, guaranteed by construction
    for g, ids, colour, head in ((lift_fixture, (0, 1, 2), 2, 6),
                                 (descend_fixture, (0, 1, 2, 3, 4), 6, 6)):
        ctx = SwitchContext.build(RainbowMatching(g, ids))
        with recorded_calls() as log:
            out = switching.robust_switch(ctx, ctx.base, SwitchRequest(colour, head))
        assert not isinstance(out, NotFound)
        observed.extend((g, rec) for rec in log)
    levels_seen = set()
    for g, rec in observed:
        levels_seen.add(rec.level)
        recheck_call(g, RainbowMatching(g, rec.base_ids), rec)
    assert len(observed) >= 100, f"only {len(observed)} switch calls observed"
    _report(f"PASS switch contract: {len(observed)} successful calls at "
            f"levels {sorted(levels_seen)}, all clauses hold, distance <= "
            f"budget + (3 * 2^level - 2)")


def test_latin_square_values():
    t0 = time.perf_counter()
    for n in (2, 4, 6):
        g = latin_to_graph(cyclic_square(n))
        optimum = max_rainbow_matching(g).size
        assert optimum == n - 1, (n, optimum)   # no full transversal
        assert max_partial_transversal(cyclic_square(n)).size == n - 1
    for n in (1, 3, 5, 7):
        g = latin_to_graph(cyclic_square(n))
        report = solve(g, target_deficit=0, seed=0)
        assert report.status == "target_reached", (n, report.status)
        assert report.size == n
        assert verify(g, report.matching) == []
    catalogue = 0
    for n in range(1, 6):
        for sq in enumerate_reduced_squares(n):
            assert max_partial_transversal(sq).size >= n - 1, sq.rows
            catalogue += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < _LATIN_LIMIT_S
    _report(f"PASS latin squares: cyclic even optima = n-1, odd solves reach "
            f"n, all {catalogue} reduced squares of order <= 5 have partial "
            f"transversal >= n-1 ({elapsed:.1f}s)")


def test_hierarchy_sanity():
    instances = matchings = 0
    for seed in range(150):
        g = random_instance(seed)
        assert g.num_edges <= 400
        params = default_params(g)
        for greedy_seed in range(3):
            m = greedy(g, greedy_seed)
            flex = compute_flexible(m, params)
            good_at = classify_good_bad(m, flex, params)
            hier = build_hierarchy(m, flex, good_at, params)

            assert hier.m < 1 / params.alpha

            seen: set[int] = set()
            for level in hier.levels:
                ids = {le.edge_id for le in level.edges}
                assert ids <= m.edge_ids
                assert not ids & seen
                seen |= ids

            found = sorted((v.kind, v.edge_id)
                           for v in find_violations(m, hier))
            assert found == sorted((kind, eid) for kind, eid, _, _
                                   in brute_scan(g, m, hier))
            matchings += 1
        instances += 1
    _report(f"PASS hierarchy sanity: m < 1/alpha, levels partition the "
            f"matching, detector matches the brute scan on {matchings} "
            f"matchings over {instances} instances")
