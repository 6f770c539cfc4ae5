"""Exact brute-force baselines for small instances.

Two independent searches: a branch-and-bound over graph edges for maximum
rainbow matchings, and a row-by-row search over Latin square cells for maximum
partial transversals.  They share no code beyond the result type, so agreement
between them on square-induced graphs is a real cross-check.

Both searches are depth-first loops over an explicit stack, so their depth is
bounded by memory, not by Python's recursion limit.  Both honour a node cap and
a wall-clock limit and raise :class:`CapExceeded` (carrying the best matching
found so far) when either is hit, so callers can distinguish a certified
optimum from a lower bound.  The node cap is checked on every node and the
clock on every ``_TIME_CHECK_STRIDE``-th.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .instances import LatinSquare
from .multigraph import ColouredMultigraph

DEFAULT_MAX_NODES = 100_000_000
DEFAULT_TIME_LIMIT = 60.0

_TIME_CHECK_STRIDE = 4096


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum with a witness.

    ``witness`` holds edge ids for graph searches and (row, column) pairs for
    square searches; ``nodes`` is the number of search-tree nodes visited.
    """

    size: int
    witness: tuple
    nodes: int


class CapExceeded(Exception):
    """Search hit its node or time cap; ``best`` is a valid lower bound."""

    def __init__(self, reason: str, best: OracleResult):
        super().__init__(f"oracle cap exceeded ({reason}); best found {best.size}")
        self.reason = reason
        self.best = best


def _next_check(nodes: int, max_nodes: int) -> int:
    """The first node count after ``nodes`` at which a cap may fire: one past
    the node cap, or the next multiple of the clock stride."""
    return min(max_nodes + 1, (nodes // _TIME_CHECK_STRIDE + 1) * _TIME_CHECK_STRIDE)


def _breach(nodes: int, max_nodes: int, deadline: float) -> str | None:
    """The cap that node number ``nodes`` breaches, node cap first."""
    if nodes > max_nodes:
        return "nodes"
    if nodes % _TIME_CHECK_STRIDE == 0 and time.perf_counter() > deadline:
        return "time"
    return None


def max_rainbow_matching(graph: ColouredMultigraph,
                         max_nodes: int = DEFAULT_MAX_NODES,
                         time_limit: float = DEFAULT_TIME_LIMIT) -> OracleResult:
    """Exact maximum rainbow matching by branch and bound.

    Edges are ordered by ascending colour-class size (scarce colours first);
    the bound adds the number of distinct unused colours in the remaining
    suffix to the current size.  Loops never enter a matching and are skipped
    outright.  Each node first takes its edge (when it fits) and then skips
    it; the skip branch waits on the stack while the take branch runs.
    """
    order = [e for e in graph.edges if e.u != e.v]
    order.sort(key=lambda e: (graph.colour_class_size(e.colour), e.id))
    m = len(order)
    ids = [e.id for e in order]
    vmasks = [1 << e.u | 1 << e.v for e in order]
    cbits = [1 << e.colour for e in order]
    # suffix[i] = bitmask of colours on order[i:]
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cbits[i]
    deadline = time.perf_counter() + time_limit
    nodes = 0
    check_at = _next_check(0, max_nodes)
    best_size = 0
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    # skip branches still to visit: (edge index, used vertices, used colours,
    # len(chosen))
    stack = [(0, 0, 0, 0)]
    while stack:
        i, used_v, used_c, k = stack.pop()
        del chosen[k:]
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
            if i == m or k + (suffix[i] & ~used_c).bit_count() <= best_size:
                break
            if not (used_v & vmasks[i] or used_c & cbits[i]):
                stack.append((i + 1, used_v, used_c, k))
                chosen.append(ids[i])
                used_v |= vmasks[i]
                used_c |= cbits[i]
                k += 1
            i += 1
    return OracleResult(best_size, best, nodes)


def max_partial_transversal(square: LatinSquare,
                            max_nodes: int = DEFAULT_MAX_NODES,
                            time_limit: float = DEFAULT_TIME_LIMIT) -> OracleResult:
    """Exact maximum partial transversal by row-wise search over cells.

    Works on the square directly (columns and symbols as bitmasks), with the
    bound min(rows left, free columns, free symbols).  A node's children are
    its free cells in row ``i`` by ascending column, then the child that
    leaves row ``i`` empty; they are pushed in reverse so they pop in that
    order.  Independent of the graph search above.
    """
    n = square.order
    rows = square.rows
    deadline = time.perf_counter() + time_limit
    nodes = 0
    check_at = _next_check(0, max_nodes)
    best_size = 0
    best: tuple = ()
    chosen: list[tuple[int, int]] = []
    # nodes still to visit: (row, used columns, used symbols, len(chosen) of
    # the parent, cell taken in the parent's row or None)
    stack: list[tuple[int, int, int, int, tuple[int, int] | None]] = [(0, 0, 0, 0, None)]
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
