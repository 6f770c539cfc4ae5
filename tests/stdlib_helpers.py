"""Test helpers that need the standard library alone.

``isotope(n, seed)``, the one seeded Latin square family,
``group_table(*orders)``, the addition table of a product of cyclic groups,
``plus_vertex(graph)``, which keeps a graph from the cyclic certificate,
``witness_problems()``, the one check of an ``oracle`` witness, and
``spare_bound_off()``, which turns the spare-colour bound off everywhere.
``tests/test_identity.py`` imports them so that it runs with nothing
installed; ``conftest`` re-exports them for the suites.
"""

from __future__ import annotations

import itertools
import random
import sys
from contextlib import contextmanager

from rainbowmatch import (ColouredMultigraph, LatinSquare, cyclic_square, latin_to_graph,
                          permute_square, switching, verify)


def isotope(n: int, seed: int):
    """Z_n with seeded row, column and symbol permutations, as a square."""
    rng = random.Random(seed)
    perms = [rng.sample(range(n), n) for _ in range(3)]
    return permute_square(cyclic_square(n), *perms)


def group_table(*orders: int) -> LatinSquare:
    """The addition table of Z_{orders[0]} x Z_{orders[1]} x ..., elements
    numbered in lexicographic order."""
    elements = list(itertools.product(*(range(k) for k in orders)))
    number = {x: i for i, x in enumerate(elements)}
    return LatinSquare(tuple(
        tuple(number[tuple((a + b) % k for a, b, k in zip(x, y, orders))]
              for y in elements) for x in elements))


def plus_vertex(graph: ColouredMultigraph) -> ColouredMultigraph:
    """``graph`` with one more vertex, on no edge.  No square's graph has an
    odd vertex count, so ``oracle`` searches it, and the graph search takes
    the same nodes on it as on ``graph``."""
    return ColouredMultigraph(graph.num_vertices + 1, graph.num_colours,
                              [(e.u, e.v, e.colour) for e in graph.edges])


def witness_problems(instance, size: int, witness) -> list[str]:
    """What is wrong with an ``oracle`` witness of ``size`` on ``instance``:
    :func:`verify`'s issues, with edge ids for a graph and, for a
    :class:`LatinSquare`, (row, column) cells read as the edges of
    :func:`latin_to_graph`; a cell off the square; and a ``size`` other than
    the number of witness entries, or an entry listed twice."""
    if isinstance(instance, LatinSquare):
        n = instance.order
        problems = [f"cell {cell} off the square" for cell in witness
                    if not all(0 <= x < n for x in cell)]
        graph, ids = latin_to_graph(instance), [i * n + j for i, j in witness]
    else:
        problems, graph, ids = [], instance, list(witness)
    problems += [f"{i.kind}: {i.detail}" for i in verify(graph, ids)]
    if not size == len(ids) == len(set(ids)):
        problems.append(f"size {size} but {len(ids)} witness entries, "
                        f"{len(set(ids))} distinct")
    return problems


@contextmanager
def spare_bound_off():
    """Turn off ``augment``'s spare-colour bound inside the block.

    Every context that ``SwitchContext.build`` makes in the block claims
    more spare colours (``ctx.spares``, which the bound reads in
    ``augment`` and ``solve`` passes to ``RankedViolations.ranked``) than
    any chain can ask for, so no bucket is passed over and every
    augmentation runs its chain as it did before the bound.  A context
    manager, so it also serves hypothesis tests.  A context without
    ``spares`` fails an assert, so a rename cannot leave the patch setting
    an attribute that nothing reads.
    """
    build = switching.SwitchContext.__dict__["build"]

    def building(cls, *args, **kwargs):
        ctx = build.__func__(cls, *args, **kwargs)
        assert hasattr(ctx, "spares")
        ctx.spares = sys.maxsize
        return ctx

    switching.SwitchContext.build = classmethod(building)
    try:
        yield
    finally:
        switching.SwitchContext.build = build
