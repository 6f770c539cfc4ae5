"""End-to-end command-line behaviour via main(argv)."""
from __future__ import annotations

import hashlib
import json
import logging
import time

import pytest

from rainbowmatch import cyclic_square, dumps_square, generate_random, latin_to_graph
from rainbowmatch.cli import _COMMANDS, _build_parser, main
from rainbowmatch.multigraph import dumps as dumps_graph


@pytest.fixture
def z4_path(tmp_path):
    path = tmp_path / "z4.txt"
    path.write_text(dumps_graph(latin_to_graph(cyclic_square(4))))
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
    # rainbow matching, so each document's only fault is the one named
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
    ], ids=["duplicate", "colour", "endpoint", "size"])
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

    def test_cap_exceeded_exit_code(self, z4_path, capsys):
        code = main(["oracle", "--input", z4_path, "--max-nodes", "3", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["exact"] is False
        assert doc["size"] <= 3

    def test_exact_on_z33_past_a_thousand_edges(self, tmp_path, capsys):
        # 1089 edges: one Python frame per edge would pass the recursion limit
        path = tmp_path / "z33.txt"
        path.write_text(dumps_graph(latin_to_graph(cyclic_square(33))))
        code = main(["oracle", "--input", str(path), "--json"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["size"] == 33
        assert doc["exact"] is True
        matching = tmp_path / "m.json"
        matching.write_text(json.dumps({"edges": [
            {"edge_id": i} for i in doc["witness"]]}))
        assert main(["verify", "--input", str(path), "--matching",
                     str(matching)]) == 0
        assert capsys.readouterr().out == "ok: valid rainbow matching of size 33\n"


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
    ], ids=["unknown_id", "negative_id", "vertex_clash", "duplicate_edge"])
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
    catches."""

    @pytest.fixture
    def sparse_path(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("4 4000000\n0 1 0\n2 3 1\n")
        return str(path)

    def test_solve(self, sparse_path, capsys):
        start = time.perf_counter()
        code = main(["solve", "--input", sparse_path, "--json"])
        assert time.perf_counter() - start < 0.5
        doc = json.loads(capsys.readouterr().out)
        assert code == 2  # stalled far below the target of 4,000,000
        assert (doc["size"], doc["target"]) == (2, 4_000_000)

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

    def test_time_limit_inf_is_no_limit(self, z4_path, capsys):
        assert main(["oracle", "--input", z4_path, "--time-limit", "inf",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] is True

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
    """The parser fills in only the subcommand that argv names, and reads
    every argv exactly as the full tree does."""

    @staticmethod
    def outcome(parser, argv, capsys):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        out, err = capsys.readouterr()
        return info.value.code, out, err

    @pytest.mark.parametrize("argv", [
        [name, "--help"] for name in _COMMANDS
    ] + [["generate", "random", "--help"], ["generate", "latin", "--help"], ["--help"]],
        ids=lambda argv: " ".join(argv))
    def test_help_matches_the_full_tree(self, argv, capsys):
        want = self.outcome(_build_parser([]), argv, capsys)
        assert want[0] == 0 and want[1].startswith("usage: rainbowmatch")
        assert self.outcome(_build_parser(argv), argv, capsys) == want

    @pytest.mark.parametrize("argv", [
        [], ["solvee"], ["-x", "solve"], ["solve"], ["solve", "--input"],
        ["solve", "--input", "x", "--bogus"], ["verify", "--input", "x"],
        ["oracle", "--input", "x", "--time-limit", "nan"], ["generate"],
        ["generate", "fancy"], ["generate", "latin", "--cyclic", "3", "--format", "png"],
        ["bench", "--seeds", "0"], ["check", "--input", "x", "--seed", "1"],
    ], ids=lambda argv: " ".join(argv) or "nothing")
    def test_errors_match_the_full_tree(self, argv, capsys):
        want = self.outcome(_build_parser([]), argv, capsys)
        assert want[0] == 1 and want[1] == "" and "error: " in want[2]
        assert self.outcome(_build_parser(argv), argv, capsys) == want

    @pytest.mark.parametrize("argv", [
        ["solve", "--input", "x", "--shuffle", "--max-budget", "9"],
        ["generate", "random", "--colours", "6"],
        ["bench", "--seeds", "0..3", "--colours", "4", "--time-limit", "inf"],
    ], ids=lambda argv: argv[0])
    def test_arguments_match_the_full_tree(self, argv):
        assert _build_parser(argv).parse_args(argv) == _build_parser([]).parse_args(argv)

    def test_only_the_named_subcommand_is_filled(self):
        def filled(parser):
            choices = parser._subparsers._group_actions[0].choices
            return {name for name, p in choices.items() if len(p._actions) > 1}

        assert filled(_build_parser([])) == set(_COMMANDS)
        assert filled(_build_parser(["--help", "solve"])) == set(_COMMANDS)
        for name in _COMMANDS:
            assert filled(_build_parser([name, "--help"])) == {name}
