"""Output identity: the one table of CLI-output pins.

:data:`DIGESTS` maps ``"<instance> <mode>"`` to a sha256.  Every output of
the ``rainbowmatch`` command that a test pins is pinned here, but for the
two ``solve`` text digests of ``test_cli.py``'s
``TestSolve::test_human_output_unchanged``, and no other file repeats a
digest of this table.  Library-level outputs have tables of their own: the
generator's seed-to-instance map in ``test_instances.py``
(``_BENCH_DIGESTS``, ``_SHAPE_DIGESTS``, ``_TIGHT_DIGESTS``), the switch
engine's call logs in ``test_switching.py`` (``GOLDEN``,
``GOLDEN_DESCEND``, ``GOLDEN_LATIN``, ``GOLDEN_LATIN_LANDED``,
``SPARE_BOUND_GOLDEN``) and the reachability facts in
``test_reachability.py`` (``REACHABILITY_GOLDEN``).  Each mode belongs to
one of three families, and each family hashes in its own way:

* the corpus solves (:data:`MODES` ``plain``, ``shuffle`` and ``text``:
  ``rainbowmatch solve --json``, the same with ``--shuffle``, and ``solve``
  without ``--json``) hash the stdout together with every
  :class:`~rainbowmatch.switching.IterationRecord` of the run, so the number
  of violations found and tried per round is pinned too;
* the corpus ``stats`` and ``check`` (``check --json``) hash the exit code,
  a newline and the stdout, so an instance that ``stats`` refuses for a
  colour clash is pinned by its exit code and empty stdout;
* the raw modes (:data:`RAW_MODES`) hash the raw stdout, or the instance
  text for ``file``.  They hold what CI's ``sha256sum --check`` lines and
  the tests' raw-stdout constants pinned, hashed as those did, so each of
  those values carried over unchanged.  The command must also exit with the
  code that :data:`RAW_PINS` gives; otherwise the digest is that code.

The seeded instances are pinned in every corpus mode: near-threshold random
instances (C = 8-64), isotopes of Z_n (orders 15-33), the instance whose
plain solve serves level-3 calls with the spare-colour bound off (C=128,
seed 7), and raw multigraphs: uniform ``(u, v, c)`` triples on 2-16 vertices
and 1-9 colours, so loops, colour clashes and parallel edges.  In the plain
solves of raw seeds 7, 24, 30 and 110, ``augment`` refutes a chain for too
few spare colours; in those of 105 and 170 one is refuted and another lands.

:data:`RAW_PINS` lists the raw modes of each instance that has any.  These
instances are pinned in the raw modes alone unless seeded: the
near-threshold random instances at C=32 (seeds 3 and 1), 128 (seed 7), 256
(seed 6) and 512 (seed 0); cyclic Z_8, as a graph and as a square, which
``oracle`` certifies; Z_8's graph with a 17th vertex and Z_2 x Z_4's square,
which the certificate refuses, so ``oracle`` searches them; cyclic Z_10,
Z_63 and Z_64; and ``generate_random(10, 15, 30, 1, 8391)``, which the
generator's fallback places.  The ``json-bound-off`` mode solves inside
``spare_bound_off()``, and its digest equals the ``json`` one on each
instance that has it.

A pin freezes an output whether it is right or not, so every pinned
``solve --json`` document (the ``plain`` and ``shuffle`` modes, and the raw
``json``, ``json-shuffle`` and ``json-bound-off``) must also hold a matching
that passes :func:`verify` and its document checks, with a ``size`` equal
to its number of ids.  So must the witness of every pinned ``oracle
--json`` document (:data:`ORACLE_MODES`), its cells read as the edges of
:func:`latin_to_graph`, and a document that names a ``proof`` must claim
an exact optimum with 0 nodes.  The gates read the runs that the digests
made.

The corpus is built from seeds, so no data file is kept.  The module needs
the standard library alone.  Run it as a script to compare every digest and
print the first that differs, then to verify every solve document and
oracle witness and print the first that fails, or, with ``--print``, every
digest as it is now::

    PYTHONPATH=src python tests/test_identity.py [--print]
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile

from rainbowmatch import (ColouredMultigraph, LatinSquare, cli, cyclic_square, dumps,
                          dumps_square, generate_random, latin_to_graph, loads, verify)
from rainbowmatch.matching import document_ids, document_issues

from stdlib_helpers import (group_table, isotope, plus_vertex, spare_bound_off,
                            witness_problems)

# corpus mode: the command and the flags that follow its ``--input F``; the
# solve modes come first
MODES = {"plain": ("solve", "--json"), "shuffle": ("solve", "--json", "--shuffle"),
         "text": ("solve",), "stats": ("stats",), "check": ("check", "--json")}

# raw mode: the command and the flags that follow its ``--input F``, where
# ``{saved}`` is the matching that ``solve --target-deficit 1 --json`` saves
# and ``{clash}`` is CLASH; ``file`` runs no command
RAW_MODES = {
    "file": None,
    "json": ("solve", "--json"),
    "json-shuffle": ("solve", "--json", "--shuffle"),
    "json-bound-off": ("solve", "--json"),  # inside spare_bound_off()
    "stats-raw": ("stats",),
    "check-text": ("check",),
    "check-json": ("check", "--json"),
    "verify-text": ("verify", "--matching", "{saved}"),
    "verify-json": ("verify", "--matching", "{saved}", "--json"),
    "stats-matching": ("stats", "--matching", "{saved}"),
    "verify-clash": ("verify", "--matching", "{clash}", "--json"),
    "oracle": ("oracle", "--json"),
    "oracle-capped": ("oracle", "--max-nodes", "1000", "--json"),
    "oracle-latin": ("oracle", "--latin", "--json"),
    "oracle-latin-capped": ("oracle", "--latin", "--max-nodes", "100", "--json"),
}
# edges 1 and 10 of Z_10 share a colour
CLASH = '{"edges": [{"edge_id": 1}, {"edge_id": 10}]}\n'


def _random(colours, seed):
    return generate_random(colours, colours + 2, 2 * (colours + 2),
                           max(1, colours // 16), seed)


def _latin(order, seed):
    return latin_to_graph(isotope(order, seed))


def _cyclic(order):
    return latin_to_graph(cyclic_square(order))


def _cyclic_plus_vertex(order):
    return plus_vertex(_cyclic(order))


def _raw(seed):
    rng = random.Random(seed)
    vertices, colours = rng.randint(2, 16), rng.randint(1, 9)
    return ColouredMultigraph(vertices, colours, [
        (rng.randrange(vertices), rng.randrange(vertices), rng.randrange(colours))
        for _ in range(rng.randint(0, 60))])


# pinned in every corpus mode
SEEDED = {
    **{f"random-C{c}-s{s}": functools.partial(_random, c, s)
       for c in (8, 12, 16, 24, 32, 40, 48, 64) for s in range(3)},
    **{f"latin-n{n}-s{s}": functools.partial(_latin, n, s)
       for n in (15, 16, 17, 21, 24, 27, 30, 33) for s in range(2)},
    "level3-C128-s7": functools.partial(generate_random, 128, 130, 260, 8, 7),
    **{f"raw-s{s}": functools.partial(_raw, s)
       for s in (*range(12), 24, 30, 105, 110, 170)},
}

CORPUS = {
    **SEEDED,
    "random-C32-s3": functools.partial(_random, 32, 3),
    "random-C256-s6": functools.partial(_random, 256, 6),
    "random-C512-s0": functools.partial(_random, 512, 0),
    "cyclic-Z8": functools.partial(_cyclic, 8),
    "cyclic-Z8-square": functools.partial(cyclic_square, 8),
    "cyclic-Z8-plus-vertex": functools.partial(_cyclic_plus_vertex, 8),
    "group-Z2xZ4-square": functools.partial(group_table, 2, 4),
    **{f"cyclic-Z{n}": functools.partial(_cyclic, n) for n in (10, 63, 64)},
    "fallback-C10-s8391": functools.partial(generate_random, 10, 15, 30, 1, 8391),
    "latin-n16-s2": functools.partial(_latin, 16, 2),
}

# instance: {raw mode: the exit code of its command, None for ``file``}
RAW_PINS = {
    # check exits 2: 34 edges per colour are fewer than the 48 that epsilon
    # 1/2 asks for.  The plain solve serves 7 level-1 switch calls (403 with
    # the spare-colour bound off), the shuffled one 475, some at level 2;
    # both reach 32.  The saved matching's base grows two levels.
    "random-C32-s3": {"file": None, "json": 0, "json-shuffle": 0, "json-bound-off": 0,
                      "verify-text": 0, "verify-json": 0, "stats-matching": 0,
                      "stats-raw": 0, "check-text": 2, "check-json": 2},
    # two levels and 30 reachable colours
    "random-C32-s1": {"file": None, "stats-raw": 0},
    # plain, it serves 4 level-3 calls of 270 with the bound off, and 50 at
    # levels 1 and 2 with it on; shuffled, level-1 and level-2 calls only
    "level3-C128-s7": {"file": None, "json": 0, "json-shuffle": 0, "json-bound-off": 0,
                       "stats-raw": 0},
    # stalls at 255 in a three-level context whose stall proof serves 2
    # depth-2 calls: the one solve of 336 scanned at C=96-256, plain and
    # shuffled, that serves any
    "random-C256-s6": {"file": None, "json-shuffle": 2},
    # ten contexts of two or three levels; it stalls at 511.  Shuffled, it
    # takes 13 s, so that solve is not pinned
    "random-C512-s0": {"file": None, "json": 2},
    # the cyclic certificate, which the caps do not touch
    "cyclic-Z8": {"oracle": 0, "oracle-capped": 0},
    "cyclic-Z8-square": {"oracle-latin": 0, "oracle-latin-capped": 0},
    # the exact searches, and capped with the best found so far, on inputs
    # that the certificate refuses: Z_8's graph with a 17th vertex, which
    # the graph search treats as Z_8's, and Z_2 x Z_4, which has a
    # transversal
    "cyclic-Z8-plus-vertex": {"oracle": 0, "oracle-capped": 2},
    "group-Z2xZ4-square": {"oracle-latin": 0, "oracle-latin-capped": 2},
    "cyclic-Z10": {"verify-clash": 2},
    # stall proofs, where the bound inside switches cuts the most calls;
    # Z_63's last iteration tries every violation before it reports the stall
    "cyclic-Z63": {"json": 2, "json-shuffle": 2, "json-bound-off": 2},
    "cyclic-Z64": {"json": 2, "json-bound-off": 2},
    # seed 8391 exhausts the 64 sampling tries on this feasible shape, so a
    # 1-factorisation of K_30 places the ten classes; check finds no issue
    "fallback-C10-s8391": {"file": None, "check-text": 0},
    # greedy bases that grow 4, 4, 4 and 5 level-2 edges
    **{name: {"stats-raw": 0} for name in ("random-C48-s0", "random-C48-s2",
                                            "latin-n15-s1", "latin-n16-s2")},
}


def keys():
    """Every pinned key, in corpus order: a seeded instance in every corpus
    mode, then each instance in its raw modes."""
    for name in CORPUS:
        for mode in (*(MODES if name in SEEDED else ()), *RAW_PINS.get(name, ())):
            yield f"{name} {mode}"


@functools.cache
def instance_text(name: str) -> str:
    made = CORPUS[name]()
    return dumps_square(made) if isinstance(made, LatinSquare) else dumps(made)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@functools.cache
def output(name: str, argv: tuple, bound_off: bool = False):
    """Exit code, stdout and iteration records of ``rainbowmatch`` with
    ``argv`` (``--input F`` after its command) on instance ``name``, inside
    ``spare_bound_off()`` if ``bound_off``.  The records are a solve's, else
    empty."""
    reports = []
    solve = cli.solve

    def recording(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        files = {"saved": os.path.join(tmp, "saved.json"),
                 "clash": os.path.join(tmp, "clash.json")}
        _write(path, instance_text(name))
        _write(files["clash"], CLASH)

        def run(command, *flags):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                return cli.main([command, "--input", path, *flags]), out.getvalue()

        if "{saved}" in argv:
            code, out = run("solve", "--target-deficit", "1", "--json",
                            "--save-matching", files["saved"])
            if code:
                return code, out, []
        cli.solve = recording
        try:
            with spare_bound_off() if bound_off else contextlib.nullcontext():
                code, out = run(*(arg.format(**files) for arg in argv))
        finally:
            cli.solve = solve
    return code, out, [dataclasses.astuple(rec) for report in reports
                       for rec in report.iterations]


def _mode_output(name: str, mode: str):
    """:func:`output` of instance ``name`` in ``mode``, other than ``file``."""
    if mode in MODES:
        return output(name, MODES[mode])
    return output(name, RAW_MODES[mode], mode == "json-bound-off")


def digest(name: str, mode: str) -> str:
    """sha256 of instance ``name`` in ``mode``, by its family's formula."""
    if mode == "file":
        return _sha(instance_text(name))
    code, out, records = _mode_output(name, mode)
    if mode in MODES:
        return _sha(out + repr(records)) if MODES[mode][0] == "solve" else _sha(f"{code}\n{out}")
    expected = RAW_PINS[name][mode]
    return _sha(out) if code == expected else f"exit code {code}, not {expected}"


# the modes whose stdout is one ``solve --json`` document
SOLVE_JSON_MODES = ("plain", "shuffle", "json", "json-shuffle", "json-bound-off")


def solve_json_keys():
    """Every pinned key whose output is a ``solve --json`` document."""
    return [key for key in keys() if key.rsplit(" ", 1)[1] in SOLVE_JSON_MODES]


# the modes whose stdout is one ``oracle --json`` document
ORACLE_MODES = ("oracle", "oracle-capped", "oracle-latin", "oracle-latin-capped")


def oracle_keys():
    """Every pinned key whose output is an ``oracle --json`` document."""
    return [key for key in keys() if key.rsplit(" ", 1)[1] in ORACLE_MODES]


def oracle_problems(key: str) -> list[str]:
    """What is wrong with the ``oracle --json`` document of ``key``, read
    from the run its digest made: :func:`witness_problems`, and a document
    that names a ``proof`` but does not claim an exact optimum with 0
    nodes."""
    name, mode = key.rsplit(" ", 1)
    doc = json.loads(_mode_output(name, mode)[1])
    problems = witness_problems(CORPUS[name](), doc["size"], doc["witness"])
    if "proof" in doc and (doc["exact"], doc["nodes"]) != (True, 0):
        problems.append(f"proof with exact {doc['exact']} and {doc['nodes']} nodes")
    return problems


def document_problems(key: str) -> list[str]:
    """What is wrong with the matching in the ``solve --json`` document of
    ``key``, read from the run its digest made: the matching document's own
    issues and :func:`verify`'s, as ``kind: detail`` lines, and a ``size``
    other than the number of ids."""
    name, mode = key.rsplit(" ", 1)
    doc = json.loads(_mode_output(name, mode)[1])
    graph = loads(instance_text(name))
    ids = document_ids(doc["matching"])
    problems = [f"{i.kind}: {i.detail}" for i in
                document_issues(graph, doc["matching"]) + verify(graph, ids)]
    if doc["size"] != len(ids):
        problems.append(f"size {doc['size']} but {len(ids)} ids")
    return problems


# recorded before the one-pass loader and the free-vertex rounds landed
DIGESTS = {
    "random-C8-s0 plain": "cc044f7300ff4c4e24ceef032f8bcba7316ecf50e4825fb384957dc5b0b01775",
    "random-C8-s0 shuffle": "cc044f7300ff4c4e24ceef032f8bcba7316ecf50e4825fb384957dc5b0b01775",
    "random-C8-s1 plain": "2093571d31a7f61527bae8e3b0ac2a7aa20ecdf38665bb39e697d9a8bbd499d0",
    "random-C8-s1 shuffle": "2093571d31a7f61527bae8e3b0ac2a7aa20ecdf38665bb39e697d9a8bbd499d0",
    "random-C8-s2 plain": "f7a169be026f00ef56f667f82c600539c76b35fc1af432aa7543634fa5bc02f3",
    "random-C8-s2 shuffle": "f7a169be026f00ef56f667f82c600539c76b35fc1af432aa7543634fa5bc02f3",
    "random-C12-s0 plain": "e091eb43744a462d022268370fbadd5d12940d2cabae4e84554a970428eb0f5a",
    "random-C12-s0 shuffle": "e091eb43744a462d022268370fbadd5d12940d2cabae4e84554a970428eb0f5a",
    "random-C12-s1 plain": "f27121ec00364aa2e43e798a40a45bad7cabbfc0d3c0d8d3efec64df49aeb5de",
    "random-C12-s1 shuffle": "f27121ec00364aa2e43e798a40a45bad7cabbfc0d3c0d8d3efec64df49aeb5de",
    "random-C12-s2 plain": "9eae2856a8765d17b9ce7d7e64e1a38bd9860dcfddefb1e1a851d9f1567bd657",
    "random-C12-s2 shuffle": "9eae2856a8765d17b9ce7d7e64e1a38bd9860dcfddefb1e1a851d9f1567bd657",
    "random-C16-s0 plain": "9afd1d19c4e1dbd9b7302fde2df5834a6d968ef3b47cb9bcdcf0b51dfff980d9",
    "random-C16-s0 shuffle": "9afd1d19c4e1dbd9b7302fde2df5834a6d968ef3b47cb9bcdcf0b51dfff980d9",
    "random-C16-s1 plain": "2e0988e35d1724df35ca29637aab7c4358d108dbe68875d4866d0040bd938e78",
    "random-C16-s1 shuffle": "2e0988e35d1724df35ca29637aab7c4358d108dbe68875d4866d0040bd938e78",
    "random-C16-s2 plain": "530254be5e5ecfb4e9efd7e3c68c3c2960fb6603f58831a89c48552e46e69a1f",
    "random-C16-s2 shuffle": "530254be5e5ecfb4e9efd7e3c68c3c2960fb6603f58831a89c48552e46e69a1f",
    "random-C24-s0 plain": "8983454578a56fe0f8cc5e6ad6c028e8142be5404e65f5fb10b3b6f48b2fcd44",
    "random-C24-s0 shuffle": "8983454578a56fe0f8cc5e6ad6c028e8142be5404e65f5fb10b3b6f48b2fcd44",
    "random-C24-s1 plain": "17b24328ecb1f6103b3d9fecc41e9a77a28a6f0f78078ed38fd24a2c8b44e6c4",
    "random-C24-s1 shuffle": "17b24328ecb1f6103b3d9fecc41e9a77a28a6f0f78078ed38fd24a2c8b44e6c4",
    "random-C24-s2 plain": "cb80cbaf32c9ab991e3e096e385b9f4e5dd522bff9e52d1685791f04895fb877",
    "random-C24-s2 shuffle": "7a0228bd6fda875153f6792cffe74b46dcb404c77adca35a33fed91e777384d7",
    "random-C32-s0 plain": "84f608b77044f306c8b2708c39215e17ff00a18b1e73d8dea22d8b9941c0a107",
    "random-C32-s0 shuffle": "84f608b77044f306c8b2708c39215e17ff00a18b1e73d8dea22d8b9941c0a107",
    "random-C32-s1 plain": "87230dc29d0ab422c0babd4070d0fa7d65506ba93b9f8bbd651f9fe73b7feb43",
    "random-C32-s1 shuffle": "87230dc29d0ab422c0babd4070d0fa7d65506ba93b9f8bbd651f9fe73b7feb43",
    "random-C32-s2 plain": "e0e2c9d3bdc012ff5dd14337d8877e90894405c94a4b7da13cdcbaa874b32cf1",
    "random-C32-s2 shuffle": "6bf4bd83275273ab3d09b6e6139d27fde66ed0880fa65346b1aa91aefff92cab",
    "random-C40-s0 plain": "1e77ff4df6f2d8972a60a216875fbc02206e20c8d0757a4ad5db7eb378e704fb",
    "random-C40-s0 shuffle": "f64de49dccadf1d875aecc29b2faac85ca18be66f99e3bfb83fc49827311e471",
    "random-C40-s1 plain": "2edaaf543e86af62eaa764fd5fe3fbf8c3a41719174fb615e6bb4009d6a198df",
    "random-C40-s1 shuffle": "79fa11a7abd8147e36440c895b981aa849982daefd56efeacd7b41c8aafce2f4",
    "random-C40-s2 plain": "f5096d7d0d3508e20158cfc3f5b0774c3d18ba91c43b37d2e68cfc85b3dce41c",
    "random-C40-s2 shuffle": "7eba4891a3ca30b1250a0276ba3f4278a7c66cb89c2b233d2736800e3d5cb2c8",
    "random-C48-s0 plain": "a94cc7115038d6c3bbc9f031b15894dc6c84f49c331080641ffe4d372de8bc93",
    "random-C48-s0 shuffle": "a94cc7115038d6c3bbc9f031b15894dc6c84f49c331080641ffe4d372de8bc93",
    "random-C48-s1 plain": "dd72330d417bf130272a7cd01bfcac14430c7cb215ce6c6c900163526fdef282",
    "random-C48-s1 shuffle": "dd72330d417bf130272a7cd01bfcac14430c7cb215ce6c6c900163526fdef282",
    "random-C48-s2 plain": "7299ba358e18620c8270cfb4394056a1e265906c250b759db4dc301bee5d9ca4",
    "random-C48-s2 shuffle": "18954bee4730341a417751b8ad2ccde56989d51f470adf0d8818b8b5d9367fd1",
    "random-C64-s0 plain": "90ad1389a630cfa6c7e118a54eeae7e7a731a62a5f0783e2c655b3fe11569534",
    "random-C64-s0 shuffle": "90ad1389a630cfa6c7e118a54eeae7e7a731a62a5f0783e2c655b3fe11569534",
    "random-C64-s1 plain": "8c6b989a4545442a590adfaadce0fb8cfd3917aee619ceafc04d439ab63da81c",
    "random-C64-s1 shuffle": "3a000526d7d1e4b2045ea5cadf0d4a4b2cd8f72e6e54e87cdf6b0e42ba903363",
    "random-C64-s2 plain": "c2995c27db0d01302537eef56805e6e246042b422579842d734059595f961730",
    "random-C64-s2 shuffle": "4b87e7f8f1568b29ca6c6cf3df95361ad14fb191f5ca9a647cd980a5d5e86352",
    "latin-n15-s0 plain": "c5f27427c15069f960ddf48d1df8c80b57c382bbce6a028c0046f92e9db26a46",
    "latin-n15-s0 shuffle": "c5f27427c15069f960ddf48d1df8c80b57c382bbce6a028c0046f92e9db26a46",
    "latin-n15-s1 plain": "a4d15573eacf625159c0ecace0b0cc80011f65f118bb7bad7188e2bcb6879d0a",
    "latin-n15-s1 shuffle": "a4d15573eacf625159c0ecace0b0cc80011f65f118bb7bad7188e2bcb6879d0a",
    "latin-n16-s0 plain": "8c6f50990d72722d0565b511ee1ae7906adfd139c0f72c64da97cdcc40b856fc",
    "latin-n16-s0 shuffle": "8c6f50990d72722d0565b511ee1ae7906adfd139c0f72c64da97cdcc40b856fc",
    "latin-n16-s1 plain": "f5139697c1be1a1ad75dfa1cc7bef9b1c25d479544ed9e79e0b0e2be800e2c11",
    "latin-n16-s1 shuffle": "f5139697c1be1a1ad75dfa1cc7bef9b1c25d479544ed9e79e0b0e2be800e2c11",
    "latin-n17-s0 plain": "1e6f8b4431377f3e4e26e1ed972545d8a9516100ad73a39224b97b7d3529aa6e",
    "latin-n17-s0 shuffle": "1e6f8b4431377f3e4e26e1ed972545d8a9516100ad73a39224b97b7d3529aa6e",
    "latin-n17-s1 plain": "39a8d9028cc7113b6f3d53276c8016a75931f531c0017b4784a9575ef1f5f2de",
    "latin-n17-s1 shuffle": "39a8d9028cc7113b6f3d53276c8016a75931f531c0017b4784a9575ef1f5f2de",
    "latin-n21-s0 plain": "4e33ff870882fbf9b50ddb2f4a977189e16a47c899081f9783e1cba0ec5b041e",
    "latin-n21-s0 shuffle": "4e33ff870882fbf9b50ddb2f4a977189e16a47c899081f9783e1cba0ec5b041e",
    "latin-n21-s1 plain": "52d3a6f146bfcd4e5811308ea76a191fee4d966eec59b6b42ded3a04dcf6060f",
    "latin-n21-s1 shuffle": "52d3a6f146bfcd4e5811308ea76a191fee4d966eec59b6b42ded3a04dcf6060f",
    "latin-n24-s0 plain": "98486ab30a5dae305ebcb56c5e8af739d0c972cc53b3aa9ec2a95d44020fae4c",
    "latin-n24-s0 shuffle": "98486ab30a5dae305ebcb56c5e8af739d0c972cc53b3aa9ec2a95d44020fae4c",
    "latin-n24-s1 plain": "2a5cb61accea573a084084f1b2aa3982eefd1b85abb4c736643d271b09ca6fbc",
    "latin-n24-s1 shuffle": "2a5cb61accea573a084084f1b2aa3982eefd1b85abb4c736643d271b09ca6fbc",
    "latin-n27-s0 plain": "eb86b3945f7574b3772bb8b963ba5021e20251d501a3267f5c3bb0f0a3380037",
    "latin-n27-s0 shuffle": "eb86b3945f7574b3772bb8b963ba5021e20251d501a3267f5c3bb0f0a3380037",
    "latin-n27-s1 plain": "283ee670ddc0041a12c735f790f0ec787a3847092865d3c166f1ab09d38c5b5f",
    "latin-n27-s1 shuffle": "2bbe9d7814526ec4ccbaf669282d99ec02be7fccff0eafec7b0cfd05233d6d9e",
    "latin-n30-s0 plain": "70c51b3c1468352c632878b02f25068d1acc3ec5a2001f7d8f831743f63fc447",
    "latin-n30-s0 shuffle": "0b1d294f18b112fe9537d0abc6ab0cd38c882c31c011d05d3b1cf0665491d3ad",
    "latin-n30-s1 plain": "e76f3e80cca5cb57d677ca18e6e0f623cbc1a11888a3acdd3ad9ebbe97eb54b7",
    "latin-n30-s1 shuffle": "e76f3e80cca5cb57d677ca18e6e0f623cbc1a11888a3acdd3ad9ebbe97eb54b7",
    "latin-n33-s0 plain": "e26eab740a869811b259e74d6486b653d186b04d935b0c87c7f0206a31079c1c",
    "latin-n33-s0 shuffle": "f9dd47d980013a299b2e4e13fabb032b723002dc8682721408d89f2c86422214",
    "latin-n33-s1 plain": "968de297536247fae6fc015bb5d0ff725189a8de3d53c8f3cff57bd5977ed97c",
    "latin-n33-s1 shuffle": "cee9451479d33ddd0cca8f78081fe5ea8e5f0cd89eaa715cc789c9464ebd1aa8",
    "level3-C128-s7 plain": "2935c471da7cd6955705a372772cecbdf8517bdd2d8d79edd27671ea9c4b1d7c",
    "level3-C128-s7 shuffle": "934feb66c740e28aeee4622519163075ee12b34024ee7748120d785a786a340c",
    # the raw multigraphs, recorded before augment took an edge id
    "raw-s0 plain": "3cb88866f6be1f8c3cece3707f1576612117cf2489362c580d5e70a15deb42a4",
    "raw-s0 shuffle": "3cb88866f6be1f8c3cece3707f1576612117cf2489362c580d5e70a15deb42a4",
    "raw-s1 plain": "fb1cc43084b72d8d664ed8094e5c4aef4ca01f602fc1d1262cb1859e4be38c90",
    "raw-s1 shuffle": "fb1cc43084b72d8d664ed8094e5c4aef4ca01f602fc1d1262cb1859e4be38c90",
    "raw-s2 plain": "cd05cebea7a1d4156078919a40b7b8ec9543290c623d30fa8718f859e8ee8136",
    "raw-s2 shuffle": "cd05cebea7a1d4156078919a40b7b8ec9543290c623d30fa8718f859e8ee8136",
    "raw-s3 plain": "1b6d3f5426acf8a57c3f2c5761ad5e149e56bd8c097111827d2efa1880f957f6",
    "raw-s3 shuffle": "1b6d3f5426acf8a57c3f2c5761ad5e149e56bd8c097111827d2efa1880f957f6",
    "raw-s4 plain": "cc453a8e44caea60cf16dd6c9719ee6c38a6daeaeb1de3bd85c3bbbaf028a4a7",
    "raw-s4 shuffle": "cc453a8e44caea60cf16dd6c9719ee6c38a6daeaeb1de3bd85c3bbbaf028a4a7",
    "raw-s5 plain": "7819787ca8b9f4e84cfd2c43acc489cdd597a6420457a2262c72eed05d32d726",
    "raw-s5 shuffle": "7819787ca8b9f4e84cfd2c43acc489cdd597a6420457a2262c72eed05d32d726",
    "raw-s6 plain": "fc760c650f2716e9375240d105e9d1ae6b3e0046aad3f488f9727f5bc1cd522c",
    "raw-s6 shuffle": "fc760c650f2716e9375240d105e9d1ae6b3e0046aad3f488f9727f5bc1cd522c",
    "raw-s7 plain": "4e83d162404bc96c3d41ddd846998be55bbf9088d398abfd5b4c1802a4e0a955",
    "raw-s7 shuffle": "4e83d162404bc96c3d41ddd846998be55bbf9088d398abfd5b4c1802a4e0a955",
    "raw-s8 plain": "9ed669e064878367cef5fecdab05e748dbe4d66626cea934c4d2b687cd825912",
    "raw-s8 shuffle": "9ed669e064878367cef5fecdab05e748dbe4d66626cea934c4d2b687cd825912",
    "raw-s9 plain": "0be16472b662deddcb404a24d8045007ba1a945da9dbaad0f36f59c3e1623dea",
    "raw-s9 shuffle": "0be16472b662deddcb404a24d8045007ba1a945da9dbaad0f36f59c3e1623dea",
    "raw-s10 plain": "cff00e1bb0f2d9e841b5edb89ad2f566ef3ce166e972909188f9ef15702b28a7",
    "raw-s10 shuffle": "cff00e1bb0f2d9e841b5edb89ad2f566ef3ce166e972909188f9ef15702b28a7",
    "raw-s11 plain": "173e6f16eb14ec5bea3c4102f796839e50b6b2b2e875b61e83d627dfdfc72f39",
    "raw-s11 shuffle": "173e6f16eb14ec5bea3c4102f796839e50b6b2b2e875b61e83d627dfdfc72f39",
    "raw-s24 plain": "5fc2c1ff166078b8cb28f2ce295e2697bba5eddd9a99ebfa59644fda49542d4f",
    "raw-s24 shuffle": "5fc2c1ff166078b8cb28f2ce295e2697bba5eddd9a99ebfa59644fda49542d4f",
    "raw-s30 plain": "62bc2b30df84f3bae8c503ed44b67e5fd8d0668a21c9f7beeccbf85c94a984f7",
    "raw-s30 shuffle": "62bc2b30df84f3bae8c503ed44b67e5fd8d0668a21c9f7beeccbf85c94a984f7",
    "raw-s105 plain": "53985cf4f38f49ed7344ec3982856c9d6399feafd81f27d73552dfa30ad1d808",
    "raw-s105 shuffle": "53985cf4f38f49ed7344ec3982856c9d6399feafd81f27d73552dfa30ad1d808",
    "raw-s110 plain": "e9ca29d22974e69d25af68cff57a10ddd8f4732737ab7b9eb040ee775b3fd630",
    "raw-s110 shuffle": "e9ca29d22974e69d25af68cff57a10ddd8f4732737ab7b9eb040ee775b3fd630",
    "raw-s170 plain": "1207dce3fd442db6f997ed7cedad041addc51b59d6c3a24270a2b8093bec5e16",
    "raw-s170 shuffle": "1207dce3fd442db6f997ed7cedad041addc51b59d6c3a24270a2b8093bec5e16",
    # ``stats`` and ``check --json`` of every instance, recorded before the
    # level records became named tuples
    "random-C8-s0 stats": "65a9ac364b81a699fdb09f9a6b062a80364085dc42dc3e6b1f31ab10d0d99d96",
    "random-C8-s0 check": "ee1dacbfb5b55a3be6e6d8061f934d2d8b10fd3ffc494e0f2fb4ec63c69f15ac",
    "random-C8-s1 stats": "65a9ac364b81a699fdb09f9a6b062a80364085dc42dc3e6b1f31ab10d0d99d96",
    "random-C8-s1 check": "ee1dacbfb5b55a3be6e6d8061f934d2d8b10fd3ffc494e0f2fb4ec63c69f15ac",
    "random-C8-s2 stats": "015719b0b760788ac93e115f4e2876fad2e84b5d2fa3f6a7a58178ef35733d7f",
    "random-C8-s2 check": "ee1dacbfb5b55a3be6e6d8061f934d2d8b10fd3ffc494e0f2fb4ec63c69f15ac",
    "random-C12-s0 stats": "f685c0837c05c48e368ef45eb940c664287212805ea6719a4f730399115af680",
    "random-C12-s0 check": "c87e3652931f0e7b04c121f2950066a3c61ad6cb0b1ecc05aea6d144aab7db59",
    "random-C12-s1 stats": "8e94268cd6e4922e2db197572b3cc26d438b75cb6829a417fdb461b0b2a11c1d",
    "random-C12-s1 check": "c87e3652931f0e7b04c121f2950066a3c61ad6cb0b1ecc05aea6d144aab7db59",
    "random-C12-s2 stats": "47d091d5656f121bf43e55b8044f964a0421a193c9f7c21f25933fcd14a54195",
    "random-C12-s2 check": "c87e3652931f0e7b04c121f2950066a3c61ad6cb0b1ecc05aea6d144aab7db59",
    "random-C16-s0 stats": "a7ded1ebc494874deefb97c3b6e091b7de37f2694c0fb566cf1683416ca69228",
    "random-C16-s0 check": "193caf7e72dcd0f08c65dccf1fd4eb70aaaa4d9657b0fea32dc5f0b1e119a8f1",
    "random-C16-s1 stats": "f257fccd7501ab03fe7ad8ac8ccf883dfb890344fe5d85dee716492b49832ade",
    "random-C16-s1 check": "193caf7e72dcd0f08c65dccf1fd4eb70aaaa4d9657b0fea32dc5f0b1e119a8f1",
    "random-C16-s2 stats": "a7ded1ebc494874deefb97c3b6e091b7de37f2694c0fb566cf1683416ca69228",
    "random-C16-s2 check": "193caf7e72dcd0f08c65dccf1fd4eb70aaaa4d9657b0fea32dc5f0b1e119a8f1",
    "random-C24-s0 stats": "c8c1c428b0809eb7897d1eaeb48934c2934936863c511bde735aea7f85222a33",
    "random-C24-s0 check": "bd0b6ce03d811582f53b717ad1fe99dd0fafbc0aa5adf956973a1d20695d9e24",
    "random-C24-s1 stats": "69ba9b82093d6057d5723168612f3d55db75f35b78ba64fec4b24938139a907e",
    "random-C24-s1 check": "bd0b6ce03d811582f53b717ad1fe99dd0fafbc0aa5adf956973a1d20695d9e24",
    "random-C24-s2 stats": "947f77db047f697ba976dd0d214a22ae5c7a466b6e2b95076e542c538f11e378",
    "random-C24-s2 check": "bd0b6ce03d811582f53b717ad1fe99dd0fafbc0aa5adf956973a1d20695d9e24",
    "random-C32-s0 stats": "d0f8c8e29a5e86ac9cc136e3ed2c3bc89b234d77954574b5a7adec87cc93779a",
    "random-C32-s0 check": "547612f8ae4fccec4495b72ae155e398fc6c7d1e8efdb9d0a2d156ebb3f529a1",
    "random-C32-s1 stats": "ba0ced879211751cad0d07d25fa03890b7be91e54911f443fa073e17c535c10a",
    "random-C32-s1 check": "547612f8ae4fccec4495b72ae155e398fc6c7d1e8efdb9d0a2d156ebb3f529a1",
    "random-C32-s2 stats": "05a8b5b55cac350fe2ac1f095d6fc09632f2a968f96edf1e928c5ef513fc125f",
    "random-C32-s2 check": "547612f8ae4fccec4495b72ae155e398fc6c7d1e8efdb9d0a2d156ebb3f529a1",
    "random-C40-s0 stats": "89c8bc778968df56aa5c6c4547090064c340937216b6174ba2a0b03d1fca44d0",
    "random-C40-s0 check": "1621817bdeb3cb2d16d5f0c4094870d995b9b7aee031c53ce5196e06549411ba",
    "random-C40-s1 stats": "3d7263308d0c48298e6e26d2aa2c1d8b5f4493a7705abbc05aee4fd5a5727be7",
    "random-C40-s1 check": "1621817bdeb3cb2d16d5f0c4094870d995b9b7aee031c53ce5196e06549411ba",
    "random-C40-s2 stats": "e00c575d6865c1074ecaf262c8be1f567b0521b5f6d9ab380c1fb3c75c507d67",
    "random-C40-s2 check": "1621817bdeb3cb2d16d5f0c4094870d995b9b7aee031c53ce5196e06549411ba",
    "random-C48-s0 stats": "44d00036d2e23937ffa57c4ada75138b422a3c594994cd6907801c10f91d61f5",
    "random-C48-s0 check": "1956f8abf1e38225bcbb482ae1ad9945f59fe3c320e1bb84ab3c788151b5fbb0",
    "random-C48-s1 stats": "5df107fdbe718eeba8e1fe49e395cdad21bfa181024fed57b0ecdc72639009ac",
    "random-C48-s1 check": "1956f8abf1e38225bcbb482ae1ad9945f59fe3c320e1bb84ab3c788151b5fbb0",
    "random-C48-s2 stats": "dc9ac5413eda0c9462933694b447766d6eaed22d32d42917cbe59ab993a98017",
    "random-C48-s2 check": "1956f8abf1e38225bcbb482ae1ad9945f59fe3c320e1bb84ab3c788151b5fbb0",
    "random-C64-s0 stats": "e76f779ecce12d8e0bb707cc990d9711f68190ac2f46c60b38d235cb4c3dabf9",
    "random-C64-s0 check": "2b23c45e1058686e918cebd6f7da1663284382b1f2a7ef8e19397e420d3a888c",
    "random-C64-s1 stats": "78e8018ee7b62a02adda182c0e957455e95c93203636829c4286f0d7197a582b",
    "random-C64-s1 check": "2b23c45e1058686e918cebd6f7da1663284382b1f2a7ef8e19397e420d3a888c",
    "random-C64-s2 stats": "17870590b688a609ce9e834a1acdc30236f1ce195f18e43b62999826b29117d2",
    "random-C64-s2 check": "2b23c45e1058686e918cebd6f7da1663284382b1f2a7ef8e19397e420d3a888c",
    "latin-n15-s0 stats": "9fbad70137c6d2356b13c15a8cb38df64e5f63eb4726993bf01d01b481407f9d",
    "latin-n15-s0 check": "8a8a96de4b8e7978b8f8b9d22b3c7db7930fdca999856c4d7244657d278c2989",
    "latin-n15-s1 stats": "7e98b63992b914105c4f55e64c094ffd5db7c4a2e17c4d361576ebb310cbb8af",
    "latin-n15-s1 check": "8a8a96de4b8e7978b8f8b9d22b3c7db7930fdca999856c4d7244657d278c2989",
    "latin-n16-s0 stats": "92f6c4c705ef9fa0d913ebd92d4b91d6b45738dc81d0160cc6dfbe266b020d68",
    "latin-n16-s0 check": "31f3fc29a30fb042f264b72d7513f3538bf342ebfd0a314cc6e975d5823c4ec6",
    "latin-n16-s1 stats": "8b7798b1cb508edc4a49f5289849b337ce2913c9682ce46dd86e0db642e236fd",
    "latin-n16-s1 check": "31f3fc29a30fb042f264b72d7513f3538bf342ebfd0a314cc6e975d5823c4ec6",
    "latin-n17-s0 stats": "97b265656855d3ed346edc2215c4c4aa658cb973d4798636b0ba0eef3d1d6fa2",
    "latin-n17-s0 check": "dec1aa0eb41d7078665f2735e4189af187f9498fb03a2a01532dbe655b23d269",
    "latin-n17-s1 stats": "5baf2a5425b65c0fffe38417f0326bac68181079d61d7ad4492b896a21106936",
    "latin-n17-s1 check": "dec1aa0eb41d7078665f2735e4189af187f9498fb03a2a01532dbe655b23d269",
    "latin-n21-s0 stats": "0fcd1830ac29b65d7c47a305fca37947a5f3236dd5f2a5e67cfa09c9b3138b94",
    "latin-n21-s0 check": "6443c869f76e962faf16636be9b4e8a48a935f54820ece8ea97b7f4f533950eb",
    "latin-n21-s1 stats": "f197bfe83f8b1c58c9e615b7344826e5800875a1782ecb77a90ec3fcdec4a74e",
    "latin-n21-s1 check": "6443c869f76e962faf16636be9b4e8a48a935f54820ece8ea97b7f4f533950eb",
    "latin-n24-s0 stats": "e65b00e0dc806a1beb86b88bd512a8308dd58927147ad959bede3565b8601c44",
    "latin-n24-s0 check": "03132464fc78095085e0256300f482af6e21237fc690135148c9d457b1f6d0c4",
    "latin-n24-s1 stats": "00aaff4293b879c1d0e132f94404beecb7a0a651cd70767b43b309f1b9da30cc",
    "latin-n24-s1 check": "03132464fc78095085e0256300f482af6e21237fc690135148c9d457b1f6d0c4",
    "latin-n27-s0 stats": "c3d0d77d86baf931183a86d48f340a79f90ecb175d7c9a963ef6b2a32e5cbff8",
    "latin-n27-s0 check": "57153268d70d0911d9d7659ff89c61560de33f58820f88636b9b3a94615c1c18",
    "latin-n27-s1 stats": "c872d035d362ad52a57cef1e2367ed8efc269a63b40660c67f26a8edd51c69bc",
    "latin-n27-s1 check": "57153268d70d0911d9d7659ff89c61560de33f58820f88636b9b3a94615c1c18",
    "latin-n30-s0 stats": "5ff66e83b211178e5231d2d9d927a3cd804ce0f9f10d96a63c7377dca9a830f2",
    "latin-n30-s0 check": "b613366caa57d802f087bdab8a36f5e69ef351f918653a912dea6cf8703f5dc1",
    "latin-n30-s1 stats": "964f0551490366216d9b2bf6f835988b76ab8b8a13db11677ff43a6f21b62030",
    "latin-n30-s1 check": "b613366caa57d802f087bdab8a36f5e69ef351f918653a912dea6cf8703f5dc1",
    "latin-n33-s0 stats": "1e6b9d5869195be97b380291beb09ca4d1f3fa7857c87e4e77f885834a1206e2",
    "latin-n33-s0 check": "d783ee138a8fbd972557e4d88921688c2ec686022ffdcddde3dbaad990e5fcc6",
    "latin-n33-s1 stats": "05692c608e2f27265794ce53386fe804a9702064aa9752877c0724ce54f4ec98",
    "latin-n33-s1 check": "d783ee138a8fbd972557e4d88921688c2ec686022ffdcddde3dbaad990e5fcc6",
    "level3-C128-s7 stats": "77e73aa1b57fe720dfc61bb05be284a151706bc0d454008d92457f7aa999da46",
    "level3-C128-s7 check": "7d19eb146ccca6b686d1ead92172cfac60b5e079e645e8e3d1e84b5e24d136db",
    "raw-s0 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s0 check": "91d91ca9c86ad4923da4eb56612e13b230338e45279ff2f503ebc2c814a03d35",
    "raw-s1 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s1 check": "681ccc8aec8445e26356d642804cc5625238449867d84a4b74772212e0e5082c",
    "raw-s2 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s2 check": "ec23952b36f87f88421f8cbbb2599115da9646c0b8cd1d0f22570795cb75d8b3",
    "raw-s3 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s3 check": "c3912128b41c9b423c08e63373eef69740f15e99c500200fbfd2fc7765313f72",
    "raw-s4 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s4 check": "edbfe2953556207d9dda4255c7ec6edf96649c2dd0ea84f7095f184acca0baa4",
    "raw-s5 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s5 check": "73d8d12c24bf50cb4ebb5c46227839c40fb10ac59ae874b20380941e74fca258",
    "raw-s6 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s6 check": "a7eb137fd7099d3ccb3e3675ee536a6641d0795b6c09ca97aa59297c21a23fa2",
    "raw-s7 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s7 check": "d4c1b043e774e688c3d933d50a28d7c06c993d5328625c716354388873f08e7a",
    "raw-s8 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s8 check": "ce04c94dc16437dc260195c59513c609b7d1e8269697fc2dca18774f8d87bda5",
    "raw-s9 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s9 check": "b59ca18207d1bfc917e3bb6025a489d14fa1a64b47341b981479d3c442319194",
    "raw-s10 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s10 check": "538df451d1da44441358b5ad3ba9afc620bb3012bbdf6c6760356fc95039a140",
    "raw-s11 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s11 check": "43c247e84afd34886316db4bd16ef0b61768f124b1a451feab2b1e2dc0d2e737",
    "raw-s24 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s24 check": "ed423c8648d37f11fa4c9f02cff54819853340b43d94594e8134a1e3aff57c83",
    "raw-s30 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s30 check": "c86654b4b554a68f83697a4724f9f53be069f9e3634c93527ea0d9e3ae57b30f",
    "raw-s105 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s105 check": "00fb9bf81738b208321f286281ba628bf7f3e5e0940357ec44508589af67dd5f",
    "raw-s110 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s110 check": "aad3bbaad905763ce00682fa6890fa3affe8cc4235224d9c7ec21ceb7064544f",
    "raw-s170 stats": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "raw-s170 check": "36262930d81e539948129ffb99f2a7e52e30f1d5db3747b7b86071e66e75d96a",
    # plain-text ``solve`` of every seeded instance, recorded when CI's pins
    # joined the table
    "random-C8-s0 text": "2639c399040eefcbd5d9bb321947bd265bc504f3c3b46fc01fe0fc5bacf13587",
    "random-C8-s1 text": "93809a949a22cc2af743bdfa0cdfbde7a4165eba8b9fa6e749a1c1c67867c123",
    "random-C8-s2 text": "fb9df0afc4c74ea4536fbdacbdfb93bceb54f09226028c748fad4d523b8a39f7",
    "random-C12-s0 text": "84d335f3abb43789dac14a50c528cf901f9110bf9cad17f6243bef92cd6bd848",
    "random-C12-s1 text": "8f90b7e52f02078ed8cc3cceeb79893e13532575d4267f6bf8e1701074c32f9e",
    "random-C12-s2 text": "173cc333f44a47ce63bb6cb0c10e7e7d8c64c646a8b7d1ea4a203771fbd36d23",
    "random-C16-s0 text": "1b882017a8a3cad33d7c23abdbffc892b01c9fdfc48fbf66a298b9d3101e8f4c",
    "random-C16-s1 text": "39db71623c91adef08089381043ef3bf56131dc853cf03d266c53955bb4304b5",
    "random-C16-s2 text": "e686187d3a04a4cfc48c2834a0bc2df22779eab15456ec7b9f7fb410e46f6184",
    "random-C24-s0 text": "f8aaf655148b60f48b169a8c62168a61d5992877637cab491917b2dbefb0cbfa",
    "random-C24-s1 text": "f1bcfd99296f04feaf8230841ef5bf20c16a0314511ed514210c9233534ad60a",
    "random-C24-s2 text": "c8db8538d620b2cfb967e32cac065983d76dc11a2e7eebc350963252b0466c60",
    "random-C32-s0 text": "7ded7ffece53a347de08275f0b71b6a7ddb5877f88d9ab30b73cb21711845cc4",
    "random-C32-s1 text": "e7a9523830f499d57f1e43bbab0567df79fbefb105c0d3f8976f3153db41758e",
    "random-C32-s2 text": "e8fd7ea864615fe7f74ba586f29a62392db79eb36f10e2b884775841baad385c",
    "random-C40-s0 text": "458d72cd353f1e0df783b313ba34b958a71067ffa5d299a9839d41cb5e724c84",
    "random-C40-s1 text": "cae883cde38f0303e676ac30078c756dbd2219296b395962171ce86de7be57d4",
    "random-C40-s2 text": "0ff57e78694cdc22684f1083165a36c0725ab594c62c95e70d6c8597b6273703",
    "random-C48-s0 text": "44fd2de0eaf0b183068e91cf0f8e23a0d3a22aec72e6a623c7e60e441135c440",
    "random-C48-s1 text": "e052469691100f3672900cd595327b1aec369bc3452f8b34acf2ae511ba8fbf5",
    "random-C48-s2 text": "f409969346031dcdf9f37886fbec98b682d31ad7e454aeee792e79673a32687d",
    "random-C64-s0 text": "bde5a971d4b180a3ce271845c7b638e91bd1eb807bd78b6713ecebafa3db1d4a",
    "random-C64-s1 text": "090ac6e64ff435b88d0f18c8dc4ddadb572ba5b691ad3c6ca1d198820544657f",
    "random-C64-s2 text": "d3ca3978fd3fd3f2e0d2579b16a6b373308002ca75e456ca3799df6141bd495d",
    "latin-n15-s0 text": "57bf9de7488a12232cc37e46a19ca62e8ac19feee6a1597681e8b53fdb1a3ba3",
    "latin-n15-s1 text": "0b7062e9c3a1eb05c7c14e8551c713011a7da0c6960bed32e50b122dff75fdef",
    "latin-n16-s0 text": "9bc77027a69f305b87a1e141471f034b006c8fecd7c3ec8dd38b89b0723e394d",
    "latin-n16-s1 text": "2d1ef6d55ca806d72916dd80c1a3bfc5ab54bbe3b3662458515965088e95c92b",
    "latin-n17-s0 text": "f24d53f0356b4ba632d2487c1cb6159f5cfba18273e6247e26b4ff317ec83bd9",
    "latin-n17-s1 text": "07471f1dd836c55ef4909469326b34ea6a080d26cb50f6af29205e31cc21fb50",
    "latin-n21-s0 text": "e2010814affb43e6067ccd751a6be06bd077a124885e11341955e34868f44c75",
    "latin-n21-s1 text": "e3db972c68884c7425122a077f163362f93bd4a86af05df769863bb728b6d7f8",
    "latin-n24-s0 text": "f011c06a1a1ee15265fd7820814240e93c172a635917d6bd3da0fc221090ee7b",
    "latin-n24-s1 text": "a00dd0be27e6132d34fd6114dc710f61bc2e575cdb3d86d4bd9c75f91bce3bad",
    "latin-n27-s0 text": "e048d817187e2f3ac0ebf17b26a7478b4c6a6ae52d0054cd1ef3a25f22a3004d",
    "latin-n27-s1 text": "27a20df0edd6f73c8126285f9a65168f06806f766758cd77a6ab3ae508e95260",
    "latin-n30-s0 text": "a73b5a28121386a589330bb6dab1569d9587bfb3f1ab2dfa60918aa0293ec315",
    "latin-n30-s1 text": "62f138f4e004abc5d7fe860000242d7e5d23b1a76d612dd793cbb6ca4c237011",
    "latin-n33-s0 text": "c8873b50b0bd4ab4232f3c65938dd32854fd1cd65ed072556cb50cff88d4c31a",
    "latin-n33-s1 text": "2c2370c3fb51ca5d3f635fa77612aa1c6870d80eb9820455a3a8c65411cee0d9",
    "level3-C128-s7 text": "26dd507224af26fd2294dcb2f207caf54df7f3f9b66c1f6e4bc6bdc2e661462f",
    "raw-s0 text": "1e2f609c254886f828ccf85a044bbdf2823ae0b69ba030ac5d2216508bdf4844",
    "raw-s1 text": "ac5e2aeda669e84a81a694dd536b134f3cd4a277c7d8494f76b4354364e333ab",
    "raw-s2 text": "58f6faa179358fba46a51187a537e970cec9a0b33ef39c94b03d34598e6c4353",
    "raw-s3 text": "b5cc8a4129fd096badb3fdbfce8c18f313d09a04433f0ec5841a681f3426ea4e",
    "raw-s4 text": "463ee7dfb481c95c3ffce5af8cfd35d2cf9a271877781b940728d726737cdf22",
    "raw-s5 text": "9f99f19d0c93662e0c21c713d060471198efcc6ee3b7e945a3fc5cc6997cdb9b",
    "raw-s6 text": "64e78c70f620dfeb42a1717ecdb58d5da085040731abf0249c347ed6abff5a88",
    "raw-s7 text": "655a3d2ac24fe4e200ea7eaa6471042a7a03a6da13a189a9ee5975fb81f0a850",
    "raw-s8 text": "8c7cbbe6d6835dcb5a6fb95e9338c83acc897057f4cd57a5f7dd3f08519f11a3",
    "raw-s9 text": "ba797cbe0cbd5d4e9efd17735c5fbbbfe46ff1e9e090fe6619700311d5c6cea6",
    "raw-s10 text": "8fd272c7f37f440d45717b0ba72d76e5b69e74fabf33e71024f35c2baabb48b9",
    "raw-s11 text": "98c04bc633355adbec829165fc9cf9b324979d5ea454473f3d8b7db3f584017f",
    "raw-s24 text": "f4953e37b775823d8677e336f9c052cd8248823b9a0056b17b13647452ab1810",
    "raw-s30 text": "57770d5304eba6a9b74e52533c57730264c2743c3ac8d31ecab8af5845afe736",
    "raw-s105 text": "531b6e25e785bd568f926f261ce928c5e8d7cd875a68a276017d7c33421db275",
    "raw-s110 text": "c77a6fd14d3d4b124340089be01e2e0d3b135c29ab8a5211067e5a8a0fc83526",
    "raw-s170 text": "38e13e7ff5daa50641542486187c14b834fc54712a98306fe3d64e9cacf13db9",
    # CI's pins, each the value of one ``sha256sum --check`` line that CI ran
    # on Python 3.10 and 3.12, carried over unchanged
    "random-C32-s3 file": "c8d87eb6be666ee7deda4a8a4f0ab4d3cae068dedc721b425e4b3c62d8cd8298",
    "random-C32-s3 json": "587885e5420f03e7da2afa4ecce57abcbceefaaca791177de07aea865c24e77f",
    "random-C32-s3 json-shuffle": "16832ed0c0315e817bd93d65283148b0111a0f331f87cb33ff70a71acb616f75",
    "random-C32-s3 verify-text": "7d7a72c091158f8b4061cabb5ec855bf1ac2009de434c047931f36f162641478",
    "random-C32-s3 verify-json": "9f3405785459a178fd0664e0781c267ed37f0685e9074def4078b1203324fc79",
    "random-C32-s3 stats-matching": "3fadef14b6be5722c1e8b0b81b604d3641580dd5b01d7485dcb3f3423ab42013",
    "random-C32-s3 stats-raw": "00856c5514ac5ff934ad87d0357ca2e420767ad1f486eadb407fa98fa1afff32",
    "random-C32-s3 check-text": "3f2462377e31a391a7b1cf236dfe8a5f43bf6a59b6b665234bb0a60cd6598f55",
    "random-C32-s3 check-json": "201cfa99d7ca69d268624ad5d2c90369b993416dd921aac76efc394281f7e7fa",
    "fallback-C10-s8391 file": "9ce4eeb4366e737d2b7678d0eebc075608da3951d0615929052e7cb40f4f8758",
    "random-C32-s1 file": "070e456894500cea85dbe135419e8ca9e38374b307ef6d326311eaf0a5e6388f",
    "random-C32-s1 stats-raw": "683f14c7da0ba0099bca9904b5ab9ce43a314a4fc8e49f84d33386fcf72edaa4",
    "level3-C128-s7 file": "8a74977ee022cbf635e9894dcfc35abb8bd7d404c96cd771b3df90ba15c25025",
    "level3-C128-s7 json": "98a2cf3e7889333646b090c5096c558639e13828e536532b4275d5c3637073e4",
    "level3-C128-s7 json-shuffle": "3843407b998aad9ad2e5b646e522b4c03a3ee28039653246f872c9080aab10b3",
    "level3-C128-s7 stats-raw": "a7470d750f6b9c45e129d652d2d57aab87f0a0a6fd907165ead3604298ba8399",
    "cyclic-Z63 json": "d41294311f6d25e9f7fa4827a5b63ca26f2735d9bb698a6eb330052fbccca54c",
    "cyclic-Z64 json": "40c73273194bf97b3c6b0c37866972c9251f265125a66f715a3096d8a1def174",
    "random-C256-s6 file": "2636961666881ca73f23a516ef71f2760332a954fecff4e73c2e840d1110e19c",
    "random-C256-s6 json-shuffle": "bef043ec6c0c80df067dea0f8a9bf8601107a22696efb8a6b67b9833548d7b27",
    "cyclic-Z63 json-shuffle": "1456d226f243b13f715e39e6abca3eefc0ce188c2018cd0a6cbed547893ba380",
    "random-C512-s0 file": "2e6d17715ad59f9a7501a01605fb27a4e3826af8ca277032f08e3041fd362eba",
    "random-C512-s0 json": "c51ab0831bb1fe46aa8b1f34cce7eb115e40afe0e289ef1f3117b6c9eb7093fd",
    # the cyclic certificate, capped or not; before it, these four keys
    # pinned the searches, whose digests the next two keys carry over
    "cyclic-Z8 oracle": "f1b36236d9d4b7b25b1ca2c7e7f663e28aaaf22f7e280dedca51cac1c5488b90",
    "cyclic-Z8 oracle-capped": "f1b36236d9d4b7b25b1ca2c7e7f663e28aaaf22f7e280dedca51cac1c5488b90",
    "cyclic-Z8-square oracle-latin": "e52eeafe53b929416d83c39493bb679ef3a5a3a9837524e5facf140906c60cf4",
    "cyclic-Z8-square oracle-latin-capped": "e52eeafe53b929416d83c39493bb679ef3a5a3a9837524e5facf140906c60cf4",
    # the graph search on Z_8 plus a vertex: Z_8's digests from before the
    # certificate
    "cyclic-Z8-plus-vertex oracle": "fd67e73fbfb14df055b385422107a3668bb2dd80dfb555cbd912dafc4847923b",
    "cyclic-Z8-plus-vertex oracle-capped": "35d69f10ad1f41853625ca54a9ae429e6728cf4e297ecdfe759d6aaba3ff5eeb",
    # the square search on Z_2 x Z_4, recorded when the certificate came
    "group-Z2xZ4-square oracle-latin": "36217df6353349bc8501409d8a2f22db1da12ff71434dd7a59f938de7f94b1a3",
    "group-Z2xZ4-square oracle-latin-capped": "d2c9e5f3bbfd8d5377c5fd8a9445f797365b55b3951d5fc5d5adbe56b9100ca4",
    "cyclic-Z10 verify-clash": "fcf9beade7fb9db103cc32954ef55eb93d0de09c89eef473ae3ffa57d71283cb",
    # the same plain solves with the spare-colour bound off, as CI compared
    # them with the stdout it had pinned
    "random-C32-s3 json-bound-off": "587885e5420f03e7da2afa4ecce57abcbceefaaca791177de07aea865c24e77f",
    "level3-C128-s7 json-bound-off": "98a2cf3e7889333646b090c5096c558639e13828e536532b4275d5c3637073e4",
    "cyclic-Z63 json-bound-off": "d41294311f6d25e9f7fa4827a5b63ca26f2735d9bb698a6eb330052fbccca54c",
    "cyclic-Z64 json-bound-off": "40c73273194bf97b3c6b0c37866972c9251f265125a66f715a3096d8a1def174",
    # ``check`` on the fallback instance, whose exit code CI checked but whose
    # stdout it did not pin; recorded when CI's pins joined the table
    "fallback-C10-s8391 check-text": "7686144e2dcb98498d7c6d7f77511dbfcdff4b2d51110945b060d582c328e388",
    # raw ``stats`` stdout, so key order and layout are pinned too; carried
    # over from the tests, where it was recorded while the counting document
    # was still built from a record class
    "random-C48-s0 stats-raw": "f698e7fa7c589a9d3e76e0f0ce4b7fc22281191ad8b4314b6f7e4532c9b559db",
    "random-C48-s2 stats-raw": "dd05264059ce6483013c485364e5ac7b9d340db9746f837dc0428b705e0b6327",
    "latin-n15-s1 stats-raw": "4c327a7e097f9927172fd5270fbdc4975300404457e4d1665baf6c365c8fbe39",
    "latin-n16-s2 stats-raw": "d0f36e6406da3c5065d8e010ad6a73f386504b7d7215241e2c716198d8c12a92",
}


def pytest_generate_tests(metafunc):
    # parametrised here rather than by a pytest decorator, so that the
    # module imports the standard library alone
    if "key" in metafunc.fixturenames:
        metafunc.parametrize("key", sorted(DIGESTS))
    if "solve_key" in metafunc.fixturenames:
        metafunc.parametrize("solve_key", solve_json_keys())
    if "oracle_key" in metafunc.fixturenames:
        metafunc.parametrize("oracle_key", oracle_keys())


def test_output_unchanged(key):
    name, mode = key.rsplit(" ", 1)
    assert digest(name, mode) == DIGESTS[key]


def test_solve_document_verifies(solve_key):
    assert document_problems(solve_key) == []


def test_oracle_witness_verifies(oracle_key):
    assert oracle_problems(oracle_key) == []


def test_corpus_is_pinned_whole():
    assert sorted(DIGESTS) == sorted(keys())


def test_bound_off_leaves_plain_solves_unchanged():
    # augment refutes a chain that needs more spare colours than the base
    # leaves unused, and a switch passes over the lifts and descends its
    # chain cannot afford; with the bound off, these solves print the same
    off = {key.split()[0]: DIGESTS[key] for key in DIGESTS if key.endswith(" json-bound-off")}
    assert off == {name: DIGESTS[f"{name} json"] for name in
                   ("random-C32-s3", "level3-C128-s7", "cyclic-Z63", "cyclic-Z64")}


def test_no_other_file_repeats_a_pin():
    # a copy of a pin elsewhere in the tests or in CI would be a second
    # place to re-record, and a stale one would check nothing
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pins = set(DIGESTS.values())
    copies = []
    for top in ("tests", ".github"):
        for folder, subfolders, files in os.walk(os.path.join(root, top)):
            subfolders[:] = [f for f in subfolders if f != "__pycache__"]
            for f in files:
                path = os.path.join(folder, f)
                if path == os.path.abspath(__file__):
                    continue
                with open(path, encoding="utf-8", errors="replace") as fh:
                    copies += [(path, hexes) for hexes in re.findall(r"\b[0-9a-f]{64}\b", fh.read())
                               if hexes in pins]
    assert copies == []


def first_difference():
    """``(key, pinned, now)`` of the first key whose digest differs, in
    corpus order, else None."""
    for key in keys():
        now = digest(*key.rsplit(" ", 1))
        if DIGESTS.get(key) != now:
            return key, DIGESTS.get(key), now
    return None


def first_invalid_document():
    """``(key, problems)`` of the first ``solve --json`` key whose matching
    has a problem, then of the first ``oracle --json`` key whose witness has
    one, in corpus order, else None."""
    for key in solve_json_keys():
        problems = document_problems(key)
        if problems:
            return key, problems
    for key in oracle_keys():
        problems = oracle_problems(key)
        if problems:
            return key, problems
    return None


if __name__ == "__main__":
    if "--print" in sys.argv[1:]:
        for key in keys():
            print(f'    "{key}": "{digest(*key.rsplit(" ", 1))}",')
    else:
        diff = first_difference()
        print(f"all {len(DIGESTS)} digests match" if diff is None
              else "first difference: {} pinned {} now {}".format(*diff))
        invalid = first_invalid_document()
        print(f"all {len(solve_json_keys())} solve documents and "
              f"{len(oracle_keys())} oracle witnesses verify" if invalid is None
              else "invalid matching: {} {}".format(*invalid))
        sys.exit(diff is not None or invalid is not None)
