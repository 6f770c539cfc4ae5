"""End-to-end command-line behaviour via main(argv)."""
from __future__ import annotations

import hashlib
import json
import logging
import os
import subprocess
import sys
import time

import pytest

from rainbowmatch import (cli, cyclic_square, dumps_square, generate_random, latin_to_graph,
                          load, max_rainbow_matching)
from rainbowmatch.cli import _COMMANDS, main
from rainbowmatch.multigraph import dumps as dumps_graph

from stdlib_helpers import group_table, isotope, plus_vertex, witness_problems
from test_identity import DIGESTS, instance_text


@pytest.fixture
def z4_path(tmp_path):
    path = tmp_path / "z4.txt"
    path.write_text(dumps_graph(latin_to_graph(cyclic_square(4))))
    return str(path)


@pytest.fixture
def z4_plus_vertex_path(tmp_path):
    # the cyclic certificate refuses it, so ``oracle`` searches it
    path = tmp_path / "z4-plus-vertex.txt"
    path.write_text(dumps_graph(plus_vertex(latin_to_graph(cyclic_square(4)))))
    return str(path)


@pytest.fixture
def z5_path(tmp_path):
    path = tmp_path / "z5.txt"
    path.write_text(dumps_graph(latin_to_graph(cyclic_square(5))))
    return str(path)


class TestSolve:
    def test_target_reached_json(self, z4_path, capsys):
        code = main(["solve", "--input", z4_path, "--target-deficit", "1",
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["status"] == "target_reached"
        assert doc["size"] >= 3
        assert doc["target"] == 3
        assert "wall_ms" not in doc
        assert doc["matching"]["size"] == doc["size"]

    def test_stalled_exit_code(self, z4_path, capsys):
        code = main(["solve", "--input", z4_path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["status"] == "stalled"
        assert doc["size"] == 3  # the optimum; the target of 4 is unattainable

    def test_iteration_cap_exit_code(self, z4_path, capsys):
        code = main(["solve", "--input", z4_path, "--max-iterations", "0"])
        capsys.readouterr()
        assert code == 3

    def test_human_output(self, z5_path, capsys):
        code = main(["solve", "--input", z5_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: target_reached" in out
        assert "size: 5 (target 5, n 5)" in out
        assert out.count("edge ") == 5

    # sha256 of the plain stdout, recorded before the printer read
    # ``RainbowMatching.sorted_ids`` directly
    @pytest.mark.parametrize("graph,digest", [
        (latin_to_graph(cyclic_square(5)),
         "aa379581510c3941de1ae40b1d03f4b41f287ac71dce8ef0c1cf80b18de8fcf3"),
        (generate_random(32, 34, 68, 2, 3),
         "853addd6265f2f8d399551b5882aa51b61136b6843493b338f8ee12ca457599e"),
    ])
    def test_human_output_unchanged(self, tmp_path, capsys, graph, digest):
        path = tmp_path / "instance.txt"
        path.write_text(dumps_graph(graph))
        assert main(["solve", "--input", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_timing_flag(self, z4_path, capsys):
        main(["solve", "--input", z4_path, "--target-deficit", "1", "--json",
              "--timing"])
        doc = json.loads(capsys.readouterr().out)
        assert "wall_ms" in doc and doc["wall_ms"] >= 0

    def test_json_is_byte_identical_across_runs(self, z5_path, capsys):
        main(["solve", "--input", z5_path, "--json"])
        first = capsys.readouterr().out
        main(["solve", "--input", z5_path, "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestPipeline:
    def test_generate_solve_verify(self, tmp_path, capsys):
        instance = str(tmp_path / "inst.txt")
        matching = str(tmp_path / "m.json")
        assert main(["generate", "latin", "--cyclic", "5",
                     "--output", instance]) == 0
        assert main(["solve", "--input", instance, "--save-matching", matching,
                     "--json"]) == 0
        capsys.readouterr()
        assert main(["verify", "--input", instance, "--matching", matching,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["size"] == 5

    def test_verify_flags_corrupt_document(self, tmp_path, z4_path, capsys):
        matching = tmp_path / "bad.json"
        matching.write_text(json.dumps({"size": 2, "edges": [
            {"u": 0, "v": 4, "colour": 0, "edge_id": 0},
            {"u": 0, "v": 5, "colour": 1, "edge_id": 1},
        ]}))
        code = main(["verify", "--input", z4_path, "--matching", str(matching),
                     "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["ok"] is False
        assert doc["issues"][0]["kind"] == "vertex_clash"

    # z4's edge 0 is 0-4 colour 0 and edge 5 is 1-5 colour 2; {0, 5} is a
    # rainbow matching, so each document's only fault is the one named.
    # Edges 1 (0-5) and 4 (1-4) share colour 1 and no vertex
    @pytest.mark.parametrize("doc,kind,detail", [
        ({"size": 2, "edges": [{"edge_id": 0}, {"edge_id": 0}]},
         "duplicate_edge", "edge 0 listed 2 times"),
        ({"size": 2, "edges": [{"u": 0, "v": 4, "colour": 1, "edge_id": 0},
                               {"edge_id": 5}]},
         "edge_mismatch", "edge 0 is 0-4 colour 0, listed as 0-4 colour 1"),
        ({"size": 2, "edges": [{"u": 0, "v": 6, "colour": 0, "edge_id": 0},
                               {"edge_id": 5}]},
         "edge_mismatch", "edge 0 is 0-4 colour 0, listed as 0-6 colour 0"),
        ({"size": 3, "edges": [{"edge_id": 0}, {"edge_id": 5}]},
         "size_mismatch", "size 3 but 2 edges listed"),
        ({"size": 2, "edges": [{"edge_id": 1}, {"edge_id": 4}]},
         "colour_clash", "colour 1 used by edges [1, 4]"),
        ({"size": 2, "edges": [{"edge_id": 0}, {"edge_id": 100}]},
         "unknown_edge", "edge id 100 not in graph"),
    ], ids=["duplicate", "colour", "endpoint", "size", "colour_clash", "unknown"])
    def test_verify_flags_inconsistent_document(self, tmp_path, z4_path, capsys,
                                                doc, kind, detail):
        matching = tmp_path / "bad.json"
        matching.write_text(json.dumps(doc))
        code = main(["verify", "--input", z4_path, "--matching", str(matching),
                     "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["ok"] is False
        assert out["issues"] == [{"kind": kind, "detail": detail}]
        assert main(["verify", "--input", z4_path, "--matching", str(matching)]) == 2
        assert capsys.readouterr().out == f"{kind}: {detail}\n"

    def test_verify_accepts_either_endpoint_order(self, tmp_path, z4_path, capsys):
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"size": 2, "edges": [
            {"u": 4, "v": 0, "colour": 0, "edge_id": 0},
            {"u": 1, "v": 5, "colour": 2, "edge_id": 5}]}))
        assert main(["verify", "--input", z4_path, "--matching", str(matching)]) == 0

    @pytest.mark.parametrize("edge_id", [0.9, True, "0", None],
                             ids=["float", "bool", "string", "null"])
    @pytest.mark.parametrize("command", ["verify", "stats"])
    def test_non_integer_id_is_malformed(self, tmp_path, z4_path, capsys,
                                         command, edge_id):
        # int() would read 0.9 as edge 0 and true as edge 1
        matching = tmp_path / "bad.json"
        matching.write_text(json.dumps({"size": 2, "edges": [
            {"edge_id": 5}, {"edge_id": edge_id}]}))
        code = main([command, "--input", z4_path, "--matching", str(matching)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == (f"error: malformed matching document: edge id {edge_id!r} "
                       "is not an integer\n")

    @pytest.mark.parametrize("doc,detail", [
        ({"edges": {}}, "'edges' is not a list"),
        ({"edges": ""}, "'edges' is not a list"),
        ({"edges": {"x": 1}}, "'edges' is not a list"),
        ({"edges": [7]}, "item 0 of 'edges' is not an object"),
    ], ids=["dict", "string", "keyed", "int_item"])
    @pytest.mark.parametrize("command", ["verify", "stats"])
    def test_edges_of_the_wrong_type_are_malformed(self, tmp_path, z4_path, capsys,
                                                   command, doc, detail):
        # a dict or a string used to read as a valid empty matching
        matching = tmp_path / "bad.json"
        matching.write_text(json.dumps(doc))
        code = main([command, "--input", z4_path, "--matching", str(matching)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == f"error: malformed matching document: {detail}\n"

    @pytest.mark.parametrize("command", ["verify", "stats"])
    def test_deeply_nested_document_is_malformed(self, tmp_path, z4_path, capsys,
                                                 command):
        # nesting past the JSON decoder's recursion limit
        matching = tmp_path / "deep.json"
        matching.write_text("[" * 100_000 + "]" * 100_000)
        code = main([command, "--input", z4_path, "--matching", str(matching)])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed matching document: ")
        assert len(err.splitlines()) == 1

    def test_generate_random_then_check(self, tmp_path, capsys):
        instance = str(tmp_path / "r.txt")
        assert main(["generate", "random", "--colours", "6", "--seed", "3",
                     "--output", instance]) == 0
        assert main(["check", "--input", instance, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_generate_without_output_writes_stdout(self, capsys):
        # the defaults for four colours: count 6, 12 vertices, cap 1
        assert main(["generate", "random", "--colours", "4", "--seed", "2"]) == 0
        assert capsys.readouterr().out == dumps_graph(generate_random(4, 6, 12, 1, 2))
        assert main(["generate", "random", "--colours", "32", "--count", "34",
                     "--vertices", "68", "--cap", "2", "--seed", "3"]) == 0
        assert capsys.readouterr().out == instance_text("random-C32-s3")
        assert main(["generate", "latin", "--cyclic", "3", "--format", "square"]) == 0
        assert capsys.readouterr().out == dumps_square(cyclic_square(3))
        assert main(["generate", "latin", "--cyclic", "3"]) == 0
        assert capsys.readouterr().out == dumps_graph(latin_to_graph(cyclic_square(3)))

    def test_generate_latin_square_format(self, tmp_path, capsys):
        out = str(tmp_path / "sq.txt")
        assert main(["generate", "latin", "--cyclic", "3", "--format", "square",
                     "--output", out]) == 0
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == dumps_square(cyclic_square(3))


class TestOracle:
    def test_graph_oracle_json(self, z4_path, capsys):
        code = main(["oracle", "--input", z4_path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["size"] == 3
        assert doc["exact"] is True
        assert len(doc["witness"]) == 3

    def test_latin_oracle(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text(dumps_square(cyclic_square(6)))
        code = main(["oracle", "--input", str(path), "--latin", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["size"] == 5
        assert all(len(cell) == 2 for cell in doc["witness"])

    # the cap tests and the search past a thousand edges read graphs that
    # the cyclic certificate refuses: a cyclic input is never searched
    def test_cap_exceeded_exit_code(self, z4_plus_vertex_path, capsys):
        code = main(["oracle", "--input", z4_plus_vertex_path, "--max-nodes", "3", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["exact"] is False
        assert doc["size"] <= 3

    @pytest.mark.parametrize("caps,code,tag", [
        ([], 0, "optimum"), (["--max-nodes", "3"], 2, "best found (cap exceeded)"),
        (["--max-nodes", "0"], 2, "best found (cap exceeded)"),
    ], ids=["exact", "capped", "capped_at_0"])
    def test_plain_text(self, z4_plus_vertex_path, capsys, caps, code, tag):
        assert main(["oracle", "--input", z4_plus_vertex_path, "--json", *caps]) == code
        doc = json.loads(capsys.readouterr().out)
        assert main(["oracle", "--input", z4_plus_vertex_path, *caps]) == code
        assert capsys.readouterr().out == f"{tag}: {doc['size']}  nodes: {doc['nodes']}\n"

    def test_exact_on_z33_past_a_thousand_edges(self, tmp_path, capsys):
        # 1089 edges: one Python frame per edge would pass the recursion
        # limit.  A 67th vertex, on no edge, keeps the certificate out
        path = tmp_path / "z33.txt"
        path.write_text(dumps_graph(plus_vertex(latin_to_graph(cyclic_square(33)))))
        code = main(["oracle", "--input", str(path), "--json"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["size"] == 33
        assert doc["exact"] is True
        assert "proof" not in doc
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"edges": [
            {"edge_id": i} for i in doc["witness"]]}))
        assert main(["verify", "--input", str(path), "--matching",
                     str(matching)]) == 0
        assert capsys.readouterr().out == "ok: valid rainbow matching of size 33\n"

    # the searches cannot prove Z_14 under their default caps
    @pytest.mark.parametrize("n", [4, 6, 14, 64])
    @pytest.mark.parametrize("latin", [False, True], ids=["graph", "square"])
    def test_certified(self, tmp_path, capsys, n, latin):
        square = isotope(n, 3)
        path = tmp_path / "in.txt"
        path.write_text(dumps_square(square) if latin
                        else dumps_graph(latin_to_graph(square)))
        flags = ["--latin"] if latin else []
        assert main(["oracle", "--input", str(path), *flags, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["size", "witness", "nodes", "exact", "proof"]
        assert (doc["size"], doc["nodes"], doc["exact"], doc["proof"]) \
            == (n - 1, 0, True, f"isotope of Z_{n}")
        # cells in row order, or edge ids in order; as edges, a rainbow matching
        witness = [tuple(cell) for cell in doc["witness"]] if latin else doc["witness"]
        assert witness == sorted(witness)
        assert witness_problems(square if latin else latin_to_graph(square),
                                doc["size"], witness) == []
        assert main(["oracle", "--input", str(path), *flags]) == 0
        assert capsys.readouterr().out == f"optimum: {n - 1}  proof: isotope of Z_{n}\n"

    @pytest.mark.parametrize("caps", [["--max-nodes", "0"], ["--time-limit", "0"]],
                             ids=["nodes", "time"])
    @pytest.mark.parametrize("latin", [False, True], ids=["graph", "square"])
    def test_caps_bound_the_search_only(self, tmp_path, capsys, caps, latin):
        square = cyclic_square(14)
        path = tmp_path / "z14.txt"
        path.write_text(dumps_square(square) if latin
                        else dumps_graph(latin_to_graph(square)))
        flags = ["--latin"] if latin else []
        assert main(["oracle", "--input", str(path), *flags, *caps, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["size"], doc["exact"]) == (13, True)

    @pytest.mark.parametrize("text,size", [
        # K_{3,3} with a colour repeated in row 0: the shape is Latin, the
        # colouring is not
        ("6 3\n0 3 0\n0 4 0\n0 5 2\n1 3 1\n1 4 2\n1 5 0\n2 3 2\n2 4 0\n2 5 1\n", 3),
        # Z_8 with its colours moved near 4,000,000
        ("\n".join(["16 4000000", *(f"{i} {8 + j} {3_999_983 + (i + j) % 8}"
                                     for i in range(8) for j in range(8))]) + "\n", 7),
        # Z_10 with a 21st vertex: it has no transversal, so proving 9
        # searches the whole tree, within the default caps
        (dumps_graph(plus_vertex(latin_to_graph(cyclic_square(10)))), 9),
        # two edges among 4,000,000 vertices: only the vertices with an edge
        # get a bit
        ("4000000 2\n0 1 0\n2 3 1\n", 2),
    ], ids=["k33_not_latin", "z8_far", "z10_plus_vertex", "sparse"])
    @pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "text"])
    def test_unrecognised_graph_is_searched(self, tmp_path, capsys, text, size,
                                            json_flag):
        path = tmp_path / "g.txt"
        path.write_text(text)
        res = max_rainbow_matching(load(str(path)))
        assert res.size == size
        assert main(["oracle", "--input", str(path), *json_flag]) == 0
        out = capsys.readouterr().out
        if json_flag:
            assert json.loads(out) == {"size": res.size, "witness": list(res.witness),
                                       "nodes": res.nodes, "exact": True}
        else:
            assert out == f"optimum: {res.size}  nodes: {res.nodes}\n"


class TestStats:
    def test_schema(self, z5_path, capsys):
        assert main(["stats", "--input", z5_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == ["F_size", "R_size", "counting", "levels", "m"]
        assert doc["m"] == len(doc["levels"])
        for entry in doc["levels"]:
            assert sorted(entry) == ["colours", "i", "size"]
        assert "contradiction" in doc["counting"]

    def test_with_supplied_matching(self, tmp_path, z5_path, capsys):
        matching = str(tmp_path / "m.json")
        main(["solve", "--input", z5_path, "--save-matching", matching])
        capsys.readouterr()
        assert main(["stats", "--input", z5_path, "--matching", matching]) == 0
        doc = json.loads(capsys.readouterr().out)
        # a full transversal uses every colour: nothing is flexible
        assert doc["F_size"] == 0 and doc["m"] == 0

    @pytest.mark.parametrize("edge_ids,kind", [
        ([0, 99], "unknown_edge"),   # past the last edge
        ([0, -1], "unknown_edge"),   # not read as the last edge
        ([0, 1], "vertex_clash"),    # edges 0 and 1 share vertex 0
        ([0, 0], "duplicate_edge"),  # one edge listed twice
        ([1, 4], "colour_clash"),    # edges 1 and 4 share colour 1
    ], ids=["unknown_id", "negative_id", "vertex_clash", "duplicate_edge",
            "colour_clash"])
    def test_rejects_invalid_matching(self, tmp_path, z4_path, capsys,
                                      edge_ids, kind):
        matching = tmp_path / "bad.json"
        matching.write_text(json.dumps({"edges": [
            {"edge_id": i} for i in edge_ids]}))
        code = main(["stats", "--input", z4_path, "--matching", str(matching)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"{kind}: ")
        assert "Traceback" not in err

    def test_improper_colouring_exits_1(self, tmp_path, improper_witness, capsys):
        path = tmp_path / "improper.txt"
        path.write_text(dumps_graph(improper_witness))
        assert main(["stats", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: not properly coloured: vertex 0 carries 2 "
                              "edges of colour 2")
        assert len(err.splitlines()) == 1

    def test_improper_colouring_within_the_core_bound_exits_1(self, tmp_path,
                                                              capsys):
        # two paths of two colours: no colour breaks the core bound, so the
        # counting alone would print a full document and exit 0
        path = tmp_path / "improper.txt"
        path.write_text("4 2\n0 1 0\n1 2 0\n2 3 1\n0 3 1\n")
        assert main(["stats", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: not properly coloured: vertex 1 carries 2 edges "
                       "of colour 0\n")

    def test_loop_is_not_a_clash(self, tmp_path, capsys):
        path = tmp_path / "loop.txt"
        path.write_text("4 2\n0 1 0\n2 3 1\n2 2 0\n")
        assert main(["stats", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "contradiction" in doc["counting"]


class TestSparseColourHeader:
    """Two edges under a header of 4,000,000 colours: only the colour
    classes with an edge are read, a rainbow matching M leaves C - |M|
    colours unused, and ``check`` reports the empty classes as one issue, so
    the colour count costs nothing.  Each command takes milliseconds; a
    probe of every empty colour class takes about a second, which the bound
    catches.  ``solve`` is also run under a header of 4,000,000 vertices."""

    @pytest.fixture
    def sparse_path(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("4 4000000\n0 1 0\n2 3 1\n")
        return str(path)

    def test_solve(self, sparse_path, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["solve", "--input", sparse_path, "--json"])
        assert time.perf_counter() - start < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert code == 2  # stalled far below the target of 4,000,000
        assert (doc["size"], doc["target"]) == (2, 4_000_000)
        # four edges among 4,000,000 vertices: the greedy base of two edges
        # grows one level and stalls, so one context is built; only the
        # vertices with an edge are read
        path = tmp_path / "sparse-vertices.txt"
        path.write_text("4000000 3\n2 3 2\n0 6 2\n1 2 0\n6 5 1\n")
        start = time.perf_counter()
        code = main(["solve", "--input", str(path), "--json"])
        assert time.perf_counter() - start < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert (doc["status"], doc["size"], doc["iterations"]) == ("stalled", 2, 1)

    def test_stats(self, sparse_path, capsys):
        start = time.perf_counter()
        code = main(["stats", "--input", sparse_path])
        assert time.perf_counter() - start < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (doc["F_size"], doc["m"]) == (0, 0)

    def test_check(self, sparse_path, capsys):
        start = time.perf_counter()
        code = main(["check", "--input", sparse_path])
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "colour_count: colour 0 has 1 edges, needs >= 6000000",
            "colour_count: colour 1 has 1 edges, needs >= 6000000",
            "colour_count: no edges in 3999998 of 4000000 colours, need >= 6000000; "
            "the first is colour 2",
        ]
        assert main(["check", "--input", sparse_path, "--json"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert not doc["ok"]
        assert len(doc["issues"]) == 3


class TestBench:
    def test_csv_shape(self, capsys):
        assert main(["bench", "--seeds", "0..2", "--colours", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "seed,n,found,optimum,iterations,switches,ms"
        assert len(lines) == 4
        for line in lines[1:]:
            seed, n, found, optimum, iters, switches, ms = line.split(",")
            assert int(n) == 5
            assert int(found) <= int(optimum)
            float(ms)

    def test_no_oracle_leaves_column_empty(self, capsys):
        assert main(["bench", "--seeds", "7", "--colours", "4",
                     "--no-oracle"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[3] == ""

    def test_capped_oracle_leaves_column_empty(self, capsys):
        for cap in ("1", "0"):  # 0 is a cap, not a usage error
            assert main(["bench", "--seeds", "7", "--colours", "4",
                         "--max-nodes", cap]) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert len(lines) == 2
            assert lines[1].split(",")[:4] == ["7", "4", "4", ""]

    def test_optimum_past_a_thousand_edges(self, capsys):
        # 32 colours at the default density: 1536 edges
        assert main(["bench", "--seeds", "0", "--colours", "32"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 2
        seed, n, found, optimum = lines[1].split(",")[:4]
        assert (seed, n, optimum) == ("0", "32", "32")
        assert int(found) <= 32

    def test_unplaceable_seed_skipped_not_fatal(self, capsys, monkeypatch):
        from rainbowmatch import PlacementError
        from rainbowmatch.instances import generate_random
        import rainbowmatch.cli as cli

        def flaky(colours, count, vertices, cap, seed):
            if seed == 1:
                raise PlacementError("could not place all colour classes")
            return generate_random(colours, count, vertices, cap, seed)

        monkeypatch.setattr(cli, "generate_random", flaky)
        assert main(["bench", "--seeds", "0..2", "--colours", "4",
                     "--no-oracle"]) == 0
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "2"]
        assert "seed 1 skipped" in err

    def test_params_built_once_per_run(self, capsys, caplog):
        with caplog.at_level(logging.WARNING, logger="rainbowmatch"):
            assert main(["bench", "--seeds", "0..2", "--colours", "4",
                         "--no-oracle", "--alpha", "1/2"]) == 0
        warned = [r for r in caplog.records if "exceeds epsilon/12" in r.getMessage()]
        assert len(warned) == 1
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    def test_bad_parameters_still_fatal(self, capsys):
        # count beyond a perfect matching is a usage error, not a skip
        assert main(["bench", "--seeds", "0..2", "--colours", "4",
                     "--count", "9", "--vertices", "10"]) == 1
        assert "error:" in capsys.readouterr().err


class TestErrors:
    def test_missing_file(self, capsys):
        code = main(["solve", "--input", "/nonexistent/path.txt"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve"])
        assert info.value.code == 1

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["conquer"])
        assert info.value.code == 1

    def test_malformed_instance(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("4 2\n0 1\n")
        code = main(["solve", "--input", str(path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epsilon", "--alpha"])
    @pytest.mark.parametrize("command", [
        ["solve", "--input", "{z4}"], ["stats", "--input", "{z4}"],
        ["check", "--input", "{z4}"],
        ["bench", "--seeds", "0", "--colours", "4", "--no-oracle"],
    ], ids=["solve", "stats", "check", "bench"])
    def test_zero_denominator(self, z4_path, capsys, command, flag):
        argv = [arg.format(z4=z4_path) for arg in command] + [flag, "1/0"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""  # bench reads the ratios before its CSV header
        assert err.startswith("error: ") and "zero denominator" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command,flag,value,message", [
        pytest.param(command, flag, value, message, id=f"{flag_id}-{command_id}")
        for commands, flags in (
            ({"solve": ["solve", "--input", "{z4}"],
              "solve_json": ["solve", "--input", "{z4}", "--json"],
              "bench": ["bench", "--seeds", "0", "--colours", "4", "--no-oracle"]},
             {"iterations": ("--max-iterations", "-1", "must not be negative: -1"),
              "budget": ("--max-budget", "-1", "must not be negative: -1"),
              "budget_64": ("--max-budget", "-64", "must not be negative: -64"),
              "not_an_int": ("--max-iterations", "x", "invalid int value: 'x'")}),
            ({"oracle": ["oracle", "--input", "{z4}"],
              "oracle_latin": ["oracle", "--input", "{z4}", "--latin"],
              "bench": ["bench", "--seeds", "0", "--colours", "4"]},
             {"nodes": ("--max-nodes", "-1", "must not be negative: -1"),
              "seconds": ("--time-limit", "-1", "must not be negative: -1"),
              "seconds_small": ("--time-limit", "-0.5", "must not be negative: -0.5")}),
        )
        for flag_id, (flag, value, message) in flags.items()
        for command_id, command in commands.items()
    ])
    def test_negative_cap(self, z4_path, capsys, command, flag, value, message):
        # a negative cap would stop the solve before its first round, refuse
        # every switch or stop the oracle after one node or at its first
        # clock reading, and still look like a result
        argv = [arg.format(z4=z4_path) for arg in command]
        with pytest.raises(SystemExit) as info:
            main(argv + [flag, value])
        out, err = capsys.readouterr()
        assert info.value.code == 1
        assert out == ""  # bench rejects it before its CSV header
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: argument {flag}: {message}"]
        assert "Traceback" not in err

    def test_minus_infinity_time_limit(self, z4_path, capsys):
        # argparse reads a bare ``-inf`` as an option, so it comes with ``=``
        with pytest.raises(SystemExit) as info:
            main(["oracle", "--input", z4_path, "--time-limit=-inf"])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (1, "")
        assert err.splitlines()[-1] == (
            "error: argument --time-limit: must not be negative: -inf")

    def test_zero_budget_is_a_cap(self, z4_path, capsys):
        # 0 is a cap, not a usage error: every switch is refused and the
        # solve stalls (a zero --max-iterations is TestSolve's cap test)
        assert main(["solve", "--input", z4_path, "--json", "--max-budget", "0"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["status"] == "stalled"
        assert err == ""

    def test_impossible_generate(self, capsys):
        code = main(["generate", "random", "--colours", "4", "--count", "10",
                     "--vertices", "6"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["oracle", "--input", "{z4}"], ["oracle", "--input", "{z4}", "--latin"],
        ["bench", "--seeds", "0", "--colours", "4"],
    ], ids=["oracle", "oracle_latin", "bench"])
    @pytest.mark.parametrize("value", ["nan", "NaN", "abc"])
    def test_time_limit_not_a_number(self, z4_path, capsys, command, value):
        # a NaN deadline would never pass, so the clock would never fire
        argv = [arg.format(z4=z4_path) for arg in command]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--time-limit", value])
        out, err = capsys.readouterr()
        assert info.value.code == 1
        assert out == ""  # bench rejects it before its CSV header
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: argument --time-limit: not a number of seconds: {value!r}"]
        assert "Traceback" not in err

    def test_time_limit_inf_is_no_limit(self, z4_plus_vertex_path, capsys):
        assert main(["oracle", "--input", z4_plus_vertex_path, "--time-limit", "inf",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] is True

    @pytest.mark.parametrize("latin", [[], ["--latin"]], ids=["oracle", "oracle_latin"])
    def test_zero_time_limit_is_a_cap(self, z4_plus_vertex_path, tmp_path, capsys,
                                      latin):
        # 0 is a cap, not a usage error: the clock is read on every 4096th
        # node only, and the searches of Z_4's graph plus a vertex and of
        # Z_2 x Z_2's square, which the cyclic certificate refuses, end
        # before that
        path = tmp_path / "z2xz2.txt"
        path.write_text(dumps_square(group_table(2, 2)))
        assert main(["oracle", "--input", str(path) if latin else z4_plus_vertex_path,
                     *latin, "--json", "--time-limit", "0"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["exact"] is True
        assert err == ""

    @pytest.mark.parametrize("shape, fragment", [
        (["--colours", "-3"], "counts must be non-negative and cap >= 1"),
        (["--colours", "4", "--cap", "0"], "counts must be non-negative and cap >= 1"),
        (["--colours", "4", "--vertices", "1"], "count 6 exceeds a perfect matching "
                                                "on 1 vertices"),
    ], ids=["colours", "cap", "vertices"])
    def test_bench_impossible_shape(self, capsys, shape, fragment):
        code = main(["bench", "--seeds", "0", *shape, "--no-oracle"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""  # bench rejects it before its CSV header
        assert err == f"error: {fragment}\n"

    @pytest.mark.parametrize("seeds, fragment", [
        ("abc", "expected a seed or a range"),
        ("3..1", "empty range"),
    ])
    def test_bench_bad_seeds(self, capsys, seeds, fragment):
        code = main(["bench", "--seeds", seeds, "--colours", "4", "--no-oracle"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: --seeds: ") and fragment in err
        assert len(err.splitlines()) == 1


class TestParser:
    """Every argv is read by the one parser that registers every subcommand
    (the full tree), built on the first :func:`main` call in the process and
    reused by every later one; no call leaves state for the next."""

    @staticmethod
    def outcome(argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        return info.value.code, out, err

    @pytest.mark.parametrize("argv", [
        [name, "--help"] for name in _COMMANDS
    ] + [["generate", "random", "--help"], ["generate", "latin", "--help"], ["--help"]],
        ids=lambda argv: " ".join(argv))
    def test_help_matches_the_full_tree(self, argv, capsys):
        code, out, err = self.outcome(argv, capsys)
        assert (code, err) == (0, "") and out.startswith("usage: rainbowmatch")

    @pytest.mark.parametrize("argv", [
        [], ["solvee"], ["-x", "solve"], ["solve"], ["solve", "--input"],
        ["solve", "--input", "x", "--bogus"], ["verify", "--input", "x"],
        ["oracle", "--input", "x", "--time-limit", "nan"], ["generate"],
        ["generate", "fancy"], ["generate", "latin", "--cyclic", "3", "--format", "png"],
        ["bench", "--seeds", "0"], ["check", "--input", "x", "--seed", "1"],
    ], ids=lambda argv: " ".join(argv) or "nothing")
    def test_errors_match_the_full_tree(self, argv, capsys):
        code, out, err = self.outcome(argv, capsys)
        assert (code, out) == (1, "") and err.startswith("usage: rainbowmatch")
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            err.splitlines()[-1]]

    # every field of each namespace, the defaults included
    @pytest.mark.parametrize("argv,want", [
        (["solve", "--input", "x", "--shuffle", "--max-budget", "9"],
         dict(command="solve", handler=cli._cmd_solve, input="x", epsilon="1/2",
              alpha=None, target_deficit=0, max_budget=9, max_iterations=1000, seed=0,
              shuffle=True, json=False, timing=False, save_matching=None)),
        (["generate", "random", "--colours", "6"],
         dict(command="generate", handler=cli._cmd_generate, what="random", colours=6,
              count=None, vertices=None, cap=None, seed=0, output=None)),
        (["bench", "--seeds", "0..3", "--colours", "4", "--time-limit", "inf"],
         dict(command="bench", handler=cli._cmd_bench, seeds="0..3", colours=4,
              count=None, vertices=None, cap=None, epsilon="1/2", alpha=None,
              target_deficit=0, max_budget=cli.DEFAULT_MAX_BUDGET, max_iterations=1000,
              no_oracle=False, max_nodes=cli.DEFAULT_MAX_NODES, time_limit=float("inf"))),
    ], ids=["solve", "generate", "bench"])
    def test_arguments_match_the_full_tree(self, argv, want):
        assert vars(cli._parser().parse_args(argv)) == want

    # the full tree's own stderr, pinned literally
    @pytest.mark.parametrize("argv,err", [
        (["solve", "--input", "x", "--bogus"],
         "error: unrecognized arguments: --bogus\n"),
        ([], "error: the following arguments are required: command\n"),
        (["solvee"], "error: argument command: invalid choice: 'solvee' (choose from "
         "'solve', 'verify', 'oracle', 'stats', 'check', 'generate', 'bench')\n"),
    ], ids=["unrecognized", "nothing", "typo"])
    def test_literal_errors(self, argv, err, capsys):
        assert self.outcome(argv, capsys) == (
            1, "", "usage: rainbowmatch [-h] "
                   "{solve,verify,oracle,stats,check,generate,bench} ...\n" + err)

    def test_only_the_named_subcommand_is_filled(self):
        # every subcommand is registered, but a namespace holds the fields of
        # the subcommand its argv names and of no other
        choices = cli._parser()._subparsers._group_actions[0].choices
        assert set(choices) == set(_COMMANDS)

        def fields(*parsers):
            return {"command", "handler"} | {
                action.dest for parser in parsers for action in parser._actions
                if action.dest != "help"}

        latin = choices["generate"]._subparsers._group_actions[0].choices["latin"]
        for argv, want in [
            (["solve", "--input", "x"], fields(choices["solve"])),
            (["verify", "--input", "x", "--matching", "m"], fields(choices["verify"])),
            (["oracle", "--input", "x"], fields(choices["oracle"])),
            (["stats", "--input", "x"], fields(choices["stats"])),
            (["check", "--input", "x"], fields(choices["check"])),
            (["generate", "latin", "--cyclic", "5"], fields(choices["generate"], latin)),
            (["bench", "--seeds", "0", "--colours", "4"], fields(choices["bench"])),
        ]:
            args = vars(cli._parser().parse_args(argv))
            assert set(args) == want
            assert args["command"] == argv[0]
            assert args["handler"] is getattr(cli, "_cmd_" + argv[0])

    def test_one_parser_per_first_word(self, capsys):
        # every first word, none and a typo included, reaches the same parser
        cli._parser.cache_clear()
        for name in _COMMANDS:
            assert self.outcome([name, "--help"], capsys)[0] == 0
        for argv in [[], ["solvee"], ["--help"]]:
            self.outcome(argv, capsys)
        assert cli._parser.cache_info().misses == 1

    def test_solve_flags_do_not_carry_over(self, tmp_path, capsys):
        path, saved = tmp_path / "r32.txt", tmp_path / "saved.json"
        path.write_text(instance_text("random-C32-s3"))
        assert main(["solve", "--input", str(path), "--json", "--shuffle", "--seed", "3",
                     "--save-matching", str(saved)]) == 0
        saved.unlink()
        capsys.readouterr()
        assert main(["solve", "--input", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS["random-C32-s3 json"]
        assert not saved.exists()

    def test_generate_dispatches_each_call(self, capsys):
        random_argv = ["generate", "random", "--colours", "6", "--seed", "2"]
        for argv, want in [
            (random_argv, dumps_graph(generate_random(6, 9, 18, 1, 2))),
            (["generate", "latin", "--cyclic", "5"],
             dumps_graph(latin_to_graph(cyclic_square(5)))),
            (random_argv, dumps_graph(generate_random(6, 9, 18, 1, 2))),
        ]:
            assert main(argv) == 0
            assert capsys.readouterr().out == want

    def test_usage_error_leaves_the_next_call_alone(self, z4_path, capsys):
        argv = ["solve", "--input", z4_path, "--json"]
        main(argv)
        want = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main(["solve", "--input", z4_path, "--bogus"])
        assert info.value.code == 1
        assert capsys.readouterr().out == ""
        main(argv)
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]],
                             ids=lambda argv: " ".join(argv))
    def test_help_reads_the_same_when_repeated(self, argv, capsys):
        cli._parser.cache_clear()  # so that the first call builds the parser
        outcomes = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            outcomes.append((info.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, out, err = outcomes[0]
        assert (code, err) == (0, "") and out.startswith("usage: rainbowmatch")


class TestLogLevel:
    """``RAINBOW_LOG`` picks the level of the log lines on stderr and leaves
    stdout alone.  Run in a subprocess: pytest's logging plugin keeps root
    handlers, so :func:`logging.basicConfig` does nothing in process."""

    @pytest.mark.parametrize("level,want", [
        ("debug", ["DEBUG rainbowmatch.switching: iteration 0: reach_free via edge 133, "
                   "size 30 -> 31",
                   "DEBUG rainbowmatch.switching: iteration 1: free_free via edge 1041, "
                   "size 31 -> 32"]),
        ("info", []), ("loud", []), (None, []),
    ], ids=["debug", "info", "unknown", "unset"])
    def test_rainbow_log(self, level, want, tmp_path):
        path = tmp_path / "r32.txt"
        path.write_text(instance_text("random-C32-s3"))
        env = {k: v for k, v in os.environ.items() if k != "RAINBOW_LOG"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        if level is not None:
            env["RAINBOW_LOG"] = level
        run = subprocess.run([sys.executable, "-m", "rainbowmatch.cli", "solve",
                              "--input", str(path), "--json"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stderr.splitlines()) == (0, want)
        assert hashlib.sha256(run.stdout.encode()).hexdigest() == DIGESTS["random-C32-s3 json"]
