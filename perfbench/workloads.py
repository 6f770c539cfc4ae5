"""The benchmark's workloads: seeded instance sets, the CLI calls that make
up one job, and the checks on each job's output.

A job is one timed operation.  Every instance seed derives from the
workload's ``--seed`` through one endless stream, so a smaller instance set is
a prefix of a larger one and no two jobs of a run share an instance.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Callable

from rainbowmatch.instances import (cyclic_square, generate_random, latin_to_graph,
                                    permute_square)
from rainbowmatch.matching import RainbowMatching, matching_from_json


@dataclass(frozen=True)
class Instance:
    """One generated instance on disk.  ``optimum`` is the known or certified
    maximum rainbow matching size, or None where it is unknown."""

    index: int
    seed: int
    n: int
    optimum: int | None
    graph_path: str
    square_path: str | None


@dataclass(frozen=True)
class Workload:
    """``generate(index, seed)`` returns (graph, square or None, optimum);
    ``calls(instance)`` the argv lists of one job; ``check(instance, graph,
    outputs, verify)`` the failure reasons and the size ``solve`` reached."""

    name: str
    why: str
    generate: Callable
    calls: Callable
    check: Callable
    has_gap: bool


def instance_seeds(workload: str, seed: int) -> Iterator[int]:
    """Instance seeds of one run; seeding by string is stable across processes."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1 << 30)


def latin_optimum(n: int) -> int:
    """Largest partial transversal of any isotope of Z_n."""
    return n if n % 2 else n - 1


def isotope(n: int, seed: int):
    """Z_n with row, column and symbol permutations drawn from ``seed``."""
    rng = random.Random(seed)
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    return permute_square(cyclic_square(n), rows, cols, syms)


def _solve_call(inst: Instance) -> list[str]:
    return ["solve", "--input", inst.graph_path, "--json", "--seed", str(inst.seed)]


def _parse(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _check_solve(inst: Instance, graph, code: int, out: str, verify) -> tuple[list[str], int | None]:
    # solve exits 0 (target reached), 2 (stalled) or 3 (iteration cap)
    if code not in (0, 2, 3):
        return [f"exit_code_{code}"], None
    doc = _parse(out)
    if not isinstance(doc, dict) or "matching" not in doc:
        return ["bad_document"], None
    try:
        m = matching_from_json(graph, doc["matching"])
    except ValueError:
        return ["bad_document"], None
    reasons = []
    if verify(graph, m):
        reasons.append("verify_issue")
    if doc.get("size") != len(m) or doc.get("n") != inst.n:
        reasons.append("bad_document")
    if len(m) > (inst.optimum if inst.optimum is not None else inst.n):
        reasons.append("above_optimum")
    return reasons, len(m)


def _check_solve_job(inst, graph, outputs, verify):
    (code, out), = outputs
    return _check_solve(inst, graph, code, out, verify)


def _oracle_doc(code: int, out: str, reasons: list[str]):
    if code == 2:
        reasons.append("oracle_cap")
    elif code != 0:
        reasons.append(f"exit_code_{code}")
        return None
    doc = _parse(out)
    if not isinstance(doc, dict) or not isinstance(doc.get("size"), int):
        reasons.append("bad_document")
        return None
    if doc.get("exact") is not True and "oracle_cap" not in reasons:
        reasons.append("oracle_cap")
    return doc


def _witness_ok(graph, square, gdoc, sdoc, verify) -> bool:
    edges = gdoc.get("witness", [])
    m = RainbowMatching(graph, edges)
    if len(m) != len(edges) or len(m) != gdoc["size"] or verify(graph, m):
        return False
    cells = [tuple(c) for c in sdoc.get("witness", [])]
    if len(cells) != sdoc["size"]:
        return False
    n = square.order
    if not all(0 <= i < n and 0 <= j < n for i, j in cells):
        return False
    rows = {i for i, _ in cells}
    cols = {j for _, j in cells}
    syms = {square[i][j] for i, j in cells}
    return len(rows) == len(cols) == len(syms) == len(cells)


def _check_certify(inst, graph, outputs, verify):
    (gcode, gout), (scode, sout), (code, out) = outputs
    reasons: list[str] = []
    gdoc = _oracle_doc(gcode, gout, reasons)
    sdoc = _oracle_doc(scode, sout, reasons)
    if gdoc is not None and sdoc is not None:
        square = isotope(inst.n, inst.seed)
        if not _witness_ok(graph, square, gdoc, sdoc, verify):
            reasons.append("oracle_witness_invalid")
        if not gdoc["size"] == sdoc["size"] == inst.optimum:
            reasons.append("oracle_disagreement")
    solve_reasons, size = _check_solve(inst, graph, code, out, verify)
    return reasons + solve_reasons, size


def _gen_random(index: int, seed: int):
    # near-threshold: count = C + 2, vertices = 2 * count, cap = C // 16
    return generate_random(48, 50, 100, 3, seed), None, None


def _gen_switch_latin(index: int, seed: int):
    n = 63 if index % 2 == 0 else 64
    return latin_to_graph(isotope(n, seed)), None, latin_optimum(n)


def _gen_certify(index: int, seed: int):
    square = isotope(8, seed)
    return latin_to_graph(square), square, latin_optimum(8)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="switch_random",
        why="near-threshold random instances, where greedy stalls and the "
            "switching and matching layers do the work",
        generate=_gen_random,
        calls=lambda inst: [_solve_call(inst)],
        check=_check_solve_job,
        has_gap=False,
    ),
    Workload(
        name="switch_latin",
        why="isotopes of Z_63 and Z_64: bipartite, n edges per colour, 4096 "
            "edges per context, known optimum",
        generate=_gen_switch_latin,
        calls=lambda inst: [_solve_call(inst)],
        check=_check_solve_job,
        has_gap=True,
    ),
    Workload(
        name="certify_latin",
        why="isotopes of Z_8: both exact oracles do almost all the work and "
            "certify the solve result",
        generate=_gen_certify,
        calls=lambda inst: [
            ["oracle", "--input", inst.graph_path, "--json"],
            ["oracle", "--input", inst.square_path, "--latin", "--json"],
            _solve_call(inst),
        ],
        check=_check_certify,
        has_gap=True,
    ),
)}
