"""Exact optima for small instances: a certificate for isotopes of Z_n, and
brute-force searches for everything else.

:func:`certify_cyclic` proves the optimum of a Latin square isotopic to the
addition table of Z_n in O(n^2), with no search.  It finds maps r, c and s
from rows, columns and symbols to Z_n with ``s[L[i][j]] == (r[i] + c[j]) % n``
on every cell, bounds a partial transversal by n for odd n and n - 1 for even
n, and builds a witness of that size (Hall-Paige 1955; Wanless, "Transversals
in Latin squares: a survey", 2011).  On any other square it returns None, and
the caller falls back to a search.

Two independent searches: a branch-and-bound over graph edges for maximum
rainbow matchings, and a row-by-row search over Latin square cells for maximum
partial transversals.  They share the result type and the cap machinery, and
nothing of their search order or bound, so agreement between them on
square-induced graphs is a real cross-check.

The graph search bounds a node by the least of: the unused colours left in
the edge suffix, the free vertices of either of two fixed vertex covers, and
half the free vertices, all counted over the suffix.  The vertex terms prune
only what no larger matching lies under, so size and witness are those of the
colour term alone.  They cut the node count (about 57k on a Z_8 isotope,
against 741k for the colour term alone), so the search proves every cyclic
square up to order 13 under the default caps.

Both searches are depth-first loops over an explicit stack, so their depth is
bounded by memory, not by Python's recursion limit.  Both honour a node cap and
a wall-clock limit and raise :class:`CapExceeded` (carrying the best matching
found so far) when either is hit, so callers can distinguish a certified
optimum from a lower bound.  The node cap is checked on every node and the
clock on every ``_TIME_CHECK_STRIDE``-th.  A NaN time limit raises
ValueError: no clock reading would ever exceed its deadline.  So do a
negative time limit, which would stop every search at its first clock
reading, and a negative node cap, which would stop every search after one
node.  A limit of 0 is a cap like any other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isnan

from .instances import LatinSquare
from .multigraph import ColouredMultigraph

DEFAULT_MAX_NODES = 100_000_000
DEFAULT_TIME_LIMIT = 60.0

_TIME_CHECK_STRIDE = 4096


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum with a witness.

    ``witness`` holds edge ids for graph searches and (row, column) pairs for
    square searches and certificates; ``nodes`` is the number of search-tree
    nodes visited, 0 for a certificate.
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


def certify_cyclic(square: LatinSquare) -> OracleResult | None:
    """The maximum partial transversal of ``square`` if it is an isotope of
    Z_n, proved from the group structure in O(n^2); None otherwise.

    Rows, columns and symbols get values in Z_n: ``r[i]`` and ``c[j]`` are
    the values of the symbols in cell (i, 0) and cell (0, j), and a symbol's
    value is its exponent among the powers of one symbol ``g``, taken in the
    loop ``x * y = L[i][j]`` where x is in cell (i, 0) and y in cell (0, j).
    That loop is isomorphic to Z_n exactly when the square is an isotope of
    Z_n (a loop isotopic to a group is isomorphic to it), so one ``g`` whose
    powers reach every symbol serves, and the square is certified when
    ``s[L[i][j]] == (r[i] + c[j]) % n`` on every cell.  That check alone
    makes the result sound; a square that fails it, has no symbol of order
    n or is empty gets None.

    The optimum is n for odd n.  For even n it is n - 1: summed over a
    transversal, the identity gives n(n-1)/2 = 0 (mod n), which is false.
    The witness takes the cells where r = c = x, for every x below n when n
    is odd; when n is even, for x below n/2, then r = x and c = x + 1 for
    n/2 <= x <= n - 2, which misses only symbol value n - 1.  Its cells come
    in row order.
    """
    rows = square.rows
    n = len(rows)
    if n == 0:
        return None  # no group has an empty table
    first = rows[0]
    row_of = [0] * n  # row_of[x]: the row whose first cell holds x
    for i, row in enumerate(rows):
        row_of[row[0]] = i
    col_of = [0] * n  # col_of[y]: the column whose first-row cell holds y
    for j, y in enumerate(first):
        col_of[y] = j
    powers = None
    for g in range(n):
        j = col_of[g]
        x = first[0]
        walk = [x]
        seen = {x}
        for _ in range(n - 1):
            x = rows[row_of[x]][j]
            if x in seen:
                break
            seen.add(x)
            walk.append(x)
        if len(walk) == n:
            powers = walk
            break
    if powers is None:
        return None
    value = [0] * n
    for k, x in enumerate(powers):
        value[x] = k
    # row_at[a] and col_at[a]: the row with r = a and the column with c = a
    row_at = [row_of[x] for x in powers]
    col_at = [col_of[x] for x in powers]
    # read in column order c = 0, 1, ..., the row with r = a holds the
    # values a, a + 1, ... (mod n)
    ring = list(range(n)) * 2
    for a, i in enumerate(row_at):
        row = rows[i]
        if [value[row[j]] for j in col_at] != ring[a:a + n]:
            return None
    size = n if n % 2 else n - 1
    shift_from = n if n % 2 else n // 2
    cells = sorted((row_at[x], col_at[x + (x >= shift_from)]) for x in range(size))
    return OracleResult(size, tuple(cells), 0)


def _next_check(nodes: int, max_nodes: int) -> int:
    """The first node count after ``nodes`` at which a cap may fire: one past
    the node cap, or the next multiple of the clock stride."""
    return min(max_nodes + 1, (nodes // _TIME_CHECK_STRIDE + 1) * _TIME_CHECK_STRIDE)


def _first_check(max_nodes: int) -> int:
    """:func:`_next_check` for a search that has visited no node; a negative
    ``max_nodes`` raises ValueError."""
    if max_nodes < 0:
        raise ValueError(f"max_nodes must not be negative: {max_nodes}")
    return _next_check(0, max_nodes)


def _deadline(time_limit: float) -> float:
    """The clock reading past which a search started now is out of time; a
    NaN or negative ``time_limit`` raises ValueError."""
    if isnan(time_limit):
        raise ValueError("time limit is NaN")
    if time_limit < 0:
        raise ValueError(f"time_limit must not be negative: {time_limit}")
    return time.perf_counter() + time_limit


def _breach(nodes: int, max_nodes: int, deadline: float) -> str | None:
    """The cap that node number ``nodes`` breaches, node cap first."""
    if nodes > max_nodes:
        return "nodes"
    if nodes % _TIME_CHECK_STRIDE == 0 and time.perf_counter() > deadline:
        return "time"
    return None


def _greedy_cover(adjacent: list[int], vertices) -> int:
    """Bitmask of a vertex cover: every vertex outside the maximal
    independent set that a greedy pass over ``vertices`` picks, where
    ``adjacent[v]`` is the bitmask of ``v``'s neighbours."""
    independent = 0
    for v in vertices:
        if not adjacent[v] & independent:
            independent |= 1 << v
    return (1 << len(adjacent)) - 1 & ~independent


def max_rainbow_matching(graph: ColouredMultigraph,
                         max_nodes: int = DEFAULT_MAX_NODES,
                         time_limit: float = DEFAULT_TIME_LIMIT) -> OracleResult:
    """Exact maximum rainbow matching by branch and bound.

    Edges are ordered by ascending colour-class size (scarce colours first),
    then by id.  Loops never enter a matching and are skipped outright.  Each
    node first takes its edge (when it fits) and then skips it; the skip
    branch waits on the stack while the take branch runs.

    A node at edge ``i`` holding ``k`` edges is pruned when ``k`` plus the
    least of these is at most the best size found so far:

    - the unused colours on the suffix ``order[i:]``;
    - the free vertices of cover S1 with an edge in the suffix, and the same
      for cover S2;
    - half the free vertices with an edge in the suffix, rounded down.

    S1 and S2 are vertex covers of the loopless graph: the vertices outside
    a greedy maximal independent set taken in ascending and in descending
    vertex order (on :func:`~rainbowmatch.instances.latin_to_graph`'s
    K_{n,n}, the columns and the rows).  Only the vertices with a non-loop
    edge are indexed: an isolated vertex joins both independent sets and
    blocks nothing, so the header's vertex count costs nothing.  Likewise a
    colour's bit is its rank among the colours of those edges, so a mask is
    as wide as the colours that occur, not as the largest colour id.  Every
    further matching edge comes from the suffix and uses a distinct unused
    colour, a distinct free vertex of each cover and two free vertices of its
    own, so the bound is valid.  The colour term decides at every node, the
    vertex terms are tested once per state: after each pop and after each
    take.  Tested at every node, they cost more than they prune on general
    graphs.

    A free mask holds the positions in ``order`` that no chosen edge blocks.
    After a node whose edge is blocked, the nodes up to the next free
    position only skip: ``k`` and the best size stay put, and the colour
    term can only fall, as each suffix's colours hold the next one's.  So
    such a run is counted in one step when the colour term passes at its
    last node, and up to the first node where it fails otherwise.  A run
    stops short of the next node at which a cap may fire, so caps fire at
    the same node as when each node is stepped through.

    A valid bound never prunes a node whose subtree holds a matching larger
    than the best found so far.  With the branching order fixed, the nodes
    that improve the best size are therefore those of the colour term alone,
    reached in the same order: the vertex terms lower ``nodes``, never the
    ``size`` or ``witness`` of a search that finishes.
    """
    order = [e for e in graph.edges if e.u != e.v]
    order.sort(key=lambda e: (graph.colour_class_size(e.colour), e.id))
    m = len(order)
    ids = [e.id for e in order]
    # bit i of a vertex mask is the i-th vertex, in ascending id order, of
    # those with an edge in ``order``: the rest are in no mask
    ends = sorted({x for e in order for x in (e.u, e.v)})
    bit = {v: i for i, v in enumerate(ends)}
    vmasks = [1 << bit[e.u] | 1 << bit[e.v] for e in order]
    rank = {c: i for i, c in enumerate(sorted({e.colour for e in order}))}
    cbits = [1 << rank[e.colour] for e in order]
    # keep[i]: three masks whose AND holds the positions of the edges that
    # share no vertex and no colour with order[i] (those off each of its
    # ends and off its colour).  Shared per vertex and colour, they take
    # O((V + C) m) bits like the suffix tables; one mask per edge takes m^2
    at_v = [0] * len(bit)
    at_c = [0] * len(rank)
    for i, e in enumerate(order):
        at_v[bit[e.u]] |= 1 << i
        at_v[bit[e.v]] |= 1 << i
        at_c[rank[e.colour]] |= 1 << i
    full = (1 << m) - 1
    off_v = [full & ~x for x in at_v]
    off_c = [full & ~x for x in at_c]
    keep = [(off_v[bit[e.u]], off_v[bit[e.v]], off_c[rank[e.colour]]) for e in order]
    adjacent = [0] * len(bit)
    for e in order:
        adjacent[bit[e.u]] |= 1 << bit[e.v]
        adjacent[bit[e.v]] |= 1 << bit[e.u]
    cover1 = _greedy_cover(adjacent, range(len(bit)))
    cover2 = _greedy_cover(adjacent, range(len(bit) - 1, -1, -1))
    # suffix[i] = bitmask of colours on order[i:], vsuffix[i] of their
    # vertices, and s1[i] and s2[i] of those vertices in each cover
    suffix = [0] * (m + 1)
    vsuffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | cbits[i]
        vsuffix[i] = vsuffix[i + 1] | vmasks[i]
    s1 = [vs & cover1 for vs in vsuffix]
    s2 = [vs & cover2 for vs in vsuffix]
    # each term is a count over a suffix mask less its used part: positive
    # masks only, which Python ANDs faster than a complement
    nc = [x.bit_count() for x in suffix]
    nv = [x.bit_count() for x in vsuffix]
    n1 = [x.bit_count() for x in s1]
    n2 = [x.bit_count() for x in s2]
    deadline = _deadline(time_limit)
    nodes = 0
    check_at = _first_check(max_nodes)
    best_size = 0
    best: tuple[int, ...] = ()
    chosen: list[int] = []
    # skip branches still to visit: (edge index, used vertices, used colours,
    # len(chosen), free positions)
    stack = [(0, 0, 0, 0, full)]
    while stack:
        i, used_v, used_c, k, free = stack.pop()
        del chosen[k:]
        fresh = True  # the vertex terms are still to be tested for used_v
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
            if free >> i & 1:
                stack.append((i + 1, used_v, used_c, k, free))
                chosen.append(ids[i])
                used_v |= vmasks[i]
                used_c |= cbits[i]
                a, b, c = keep[i]
                free &= a & b & c
                k += 1
                fresh = True
            else:
                # nodes i+1 .. last only skip a blocked edge: last is short
                # of the next free position and of node check_at
                rest = free >> i + 1
                last = i + (rest & -rest).bit_length() - 1 if rest else m - 1
                if last - i >= check_at - nodes:
                    last = i + check_at - 1 - nodes
                if nc[last] - (suffix[last] & used_c).bit_count() <= slack:
                    # the colour term only falls along the run: count up to
                    # the node where it first fails
                    p = i + 1
                    while nc[p] - (suffix[p] & used_c).bit_count() > slack:
                        p += 1
                    nodes += p - i
                    break
                nodes += last - i
                i = last
            i += 1
    return OracleResult(best_size, best, nodes)


def max_partial_transversal(square: LatinSquare,
                            max_nodes: int = DEFAULT_MAX_NODES,
                            time_limit: float = DEFAULT_TIME_LIMIT) -> OracleResult:
    """Exact maximum partial transversal by row-wise search over cells.

    Works on the square directly (columns and symbols as bitmasks), with the
    bound min(rows left, free columns, free symbols): a node holding ``k``
    cells has ``n - k`` free columns and as many free symbols.  A node's
    children are its free cells in row ``i`` by ascending column, then the
    child that leaves row ``i`` empty; they are pushed in reverse so they
    pop in that order, from each row's cells built once.  Independent of
    the graph search above.
    """
    n = square.order
    # each row's cells as (column bit, symbol bit, cell), in push order
    bits = [1 << j for j in range(n)]
    cells = [[(bits[j], bits[row[j]], (i, j)) for j in range(n - 1, -1, -1)]
             for i, row in enumerate(square.rows)]
    deadline = _deadline(time_limit)
    nodes = 0
    check_at = _first_check(max_nodes)
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
        if k + min(n - i, n - k) <= best_size:
            continue
        stack.append((i + 1, cols, syms, k, None))
        for cbit, sbit, cell in cells[i]:
            if not (cols & cbit or syms & sbit):
                stack.append((i + 1, cols | cbit, syms | sbit, k, cell))
    return OracleResult(best_size, best, nodes)
