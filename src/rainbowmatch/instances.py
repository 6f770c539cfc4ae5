"""Instance generators: Latin squares and random dense proper colourings.

A Latin square of order n turns into a properly n-edge-coloured copy of
K_{n,n} (rows are vertices 0..n-1, columns n..2n-1, the cell symbol is the
edge colour), so partial transversals of the square are exactly rainbow
matchings of the graph.  The random generator places each colour class as a
matching, respecting a parallel-edge cap, and is fully determined by its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .multigraph import ColouredMultigraph


class PlacementError(ValueError):
    """Admissible parameters, but bounded retries failed to place them."""


@dataclass(frozen=True)
class LatinSquare:
    """An order-n Latin square with symbols 0..n-1, validated on construction."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        symbols = set(range(n))
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            if set(row) != symbols:
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if {row[j] for row in self.rows} != symbols:
                raise ValueError(f"column {j} is not a permutation of 0..{n - 1}")

    @property
    def order(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.rows[i]


def cyclic_square(n: int) -> LatinSquare:
    """The addition table of Z_n: cell (i, j) holds (i + j) mod n."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return LatinSquare(tuple(tuple((i + j) % n for j in range(n)) for i in range(n)))


def permute_square(square: LatinSquare, row_perm: list[int], col_perm: list[int],
                   sym_perm: list[int]) -> LatinSquare:
    """Apply row, column and symbol permutations; the result is again Latin."""
    n = square.order
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[row_perm[i]][col_perm[j]] = sym_perm[square.rows[i][j]]
    return LatinSquare(tuple(tuple(r) for r in rows))


def latin_to_graph(square: LatinSquare) -> ColouredMultigraph:
    """K_{n,n} coloured by the square: edge (i, n+j) has colour square[i][j].

    Edge ids run row-major over cells, so edge id i*n + j is cell (i, j).
    """
    n = square.order
    triples = [(i, n + j, square.rows[i][j]) for i in range(n) for j in range(n)]
    return ColouredMultigraph(2 * n, n, triples)


def enumerate_reduced_squares(n: int) -> Iterator[LatinSquare]:
    """Yield every reduced Latin square of order n (first row and first
    column both equal to 0..n-1), in lexicographic cell order."""
    if n < 1:
        return
    if n == 1:
        yield LatinSquare(((0,),))
        return
    grid = [[-1] * n for _ in range(n)]
    grid[0] = list(range(n))
    for i in range(1, n):
        grid[i][0] = i
    row_used = [set(row if i == 0 else [i]) for i, row in enumerate(grid)]
    col_used = [set(grid[i][j] for i in range(n) if grid[i][j] >= 0) for j in range(n)]

    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> Iterator[LatinSquare]:
        if k == len(cells):
            yield LatinSquare(tuple(tuple(r) for r in grid))
            return
        i, j = cells[k]
        for s in range(n):
            if s in row_used[i] or s in col_used[j]:
                continue
            grid[i][j] = s
            row_used[i].add(s)
            col_used[j].add(s)
            yield from fill(k + 1)
            grid[i][j] = -1
            row_used[i].remove(s)
            col_used[j].remove(s)

    yield from fill(0)


def generate_random(colours: int, count: int, vertices: int, cap: int,
                    seed: int) -> ColouredMultigraph:
    """A random proper instance: ``colours`` colour classes of exactly
    ``count`` edges each on ``vertices`` vertices, no pair of vertices joined
    by more than ``cap`` edges.

    Deterministic in ``seed``.  Raises ValueError when the parameters cannot
    be satisfied (detected up front for the obvious cases, after bounded
    retries otherwise).

    The seed-to-instance map is test and benchmark data, pinned by
    ``tests/test_instances.py::TestGeneratorGolden``: vertex draws are
    exactly the ones ``rng.randrange(vertices)`` makes (inlined for speed),
    so instances are byte-for-byte those of the plain ``randrange`` loop.
    """
    if colours < 0 or count < 0 or vertices < 0 or cap < 1:
        raise ValueError("counts must be non-negative and cap >= 1")
    if count > vertices // 2:
        raise ValueError(f"count {count} exceeds a perfect matching on {vertices} vertices")

    rng = random.Random(seed)
    for _ in range(64):
        triples = _try_generate(colours, count, vertices, cap, rng)
        if triples is not None:
            return ColouredMultigraph(vertices, colours, triples)
    raise PlacementError("could not place all colour classes; loosen the parameters")


def _try_generate(colours: int, count: int, vertices: int, cap: int,
                  rng: random.Random) -> list[tuple[int, int, int]] | None:
    triples: list[tuple[int, int, int]] = []
    pair_load: dict[tuple[int, int], int] = {}
    for c in range(colours):
        placed: list[tuple[int, int]] = []
        used = set()
        # rejection sampling first, systematic sweep as a fallback
        for _ in range(count):
            edge = _sample_edge(vertices, cap, used, pair_load, rng)
            if edge is None:
                break
            placed.append(edge)
            used.update(edge)
        if len(placed) < count:
            return None
        for u, v in placed:
            key = (u, v) if u <= v else (v, u)
            pair_load[key] = pair_load.get(key, 0) + 1
            triples.append((u, v, c))
    return triples


def _sample_edge(vertices: int, cap: int, used: set[int],
                 pair_load: dict[tuple[int, int], int],
                 rng: random.Random) -> tuple[int, int] | None:
    # each endpoint is ``rng.randrange(vertices)`` drawn the way CPython's
    # ``Random._randbelow`` draws it: ``k``-bit words until one is below
    # ``vertices``; inlined because the calls cost two thirds of generation
    getrandbits = rng.getrandbits
    k = vertices.bit_length()
    for _ in range(200):
        u = getrandbits(k)
        while u >= vertices:
            u = getrandbits(k)
        v = getrandbits(k)
        while v >= vertices:
            v = getrandbits(k)
        if u == v or u in used or v in used:
            continue
        key = (u, v) if u <= v else (v, u)
        if pair_load.get(key, 0) >= cap:
            continue
        return (u, v)
    free = [x for x in range(vertices) if x not in used]
    rng.shuffle(free)
    for a in range(len(free)):
        for b in range(a + 1, len(free)):
            u, v = free[a], free[b]
            key = (u, v) if u <= v else (v, u)
            if pair_load.get(key, 0) < cap:
                return (u, v)
    return None


# -- square text format -------------------------------------------------------
#
# First non-comment line is the order n, then n lines of n symbols.

def loads_square(text: str) -> LatinSquare:
    order: int | None = None
    rows: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        nums = line.split()
        try:
            vals = [int(p) for p in nums]
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers") from None
        if order is None:
            if len(vals) != 1:
                raise ValueError(f"line {lineno}: first line must be the order")
            order = vals[0]
            continue
        if len(vals) != order:
            raise ValueError(f"line {lineno}: expected {order} symbols")
        rows.append(tuple(vals))
    if order is None:
        raise ValueError("missing order line")
    if len(rows) != order:
        raise ValueError(f"expected {order} rows, got {len(rows)}")
    return LatinSquare(tuple(rows))


def dumps_square(square: LatinSquare) -> str:
    lines = [str(square.order)]
    lines.extend(" ".join(str(s) for s in row) for row in square.rows)
    return "\n".join(lines) + "\n"


def load_square(path) -> LatinSquare:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_square(fh.read())


def save_square(square: LatinSquare, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_square(square))
