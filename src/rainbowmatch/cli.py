"""Command-line interface.

Subcommands: solve, verify, oracle, stats, check, generate, bench.  JSON
goes to stdout, logs to stderr (level picked by the RAINBOW_LOG environment
variable: error, info or debug).  Exit codes: 0 success, 1 bad arguments or
unreadable input, and per-command codes documented on each handler (solve:
2 stalled, 3 iteration cap; verify: 2 violations; oracle: 2 cap exceeded;
stats: 2 the --matching file is not a rainbow matching; check: 2 hypotheses
not met).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from math import ceil

from . import multigraph
from .instances import (PlacementError, cyclic_square, dumps_square, generate_random,
                        latin_to_graph, load_square)
from .matching import greedy, matching_from_json, matching_to_json, verify
from .multigraph import InstanceParams, hypothesis_check
from .oracle import (DEFAULT_MAX_NODES, DEFAULT_TIME_LIMIT, CapExceeded,
                     max_partial_transversal, max_rainbow_matching)
from .reachability import counting_diagnostics
from .switching import SwitchContext, solve

logger = logging.getLogger(__name__)

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("RAINBOW_LOG", "").lower(), logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_for(graph, args) -> InstanceParams:
    return InstanceParams.for_graph(graph, epsilon=args.epsilon, alpha=args.alpha)


def _cmd_solve(args) -> int:
    graph = multigraph.load(args.input)
    params = _params_for(graph, args)
    report = solve(graph, params, target_deficit=args.target_deficit,
                   seed=args.seed, max_budget=args.max_budget,
                   max_iterations=args.max_iterations, shuffle=args.shuffle)
    if args.save_matching:
        with open(args.save_matching, "w", encoding="utf-8") as fh:
            json.dump(matching_to_json(graph, report.matching), fh, indent=2)
            fh.write("\n")
    if args.json:
        doc = report.to_json_dict(include_timing=args.timing)
        print(json.dumps(doc, indent=2))
    else:
        print(f"status: {report.status}")
        print(f"size: {report.size} (target {report.target}, n {report.n})")
        print(f"iterations: {len(report.iterations)}  exchanges: {report.total_exchanges}")
        for i in report.matching.sorted_edge_ids():
            e = graph.edge(i)
            print(f"  edge {i}: {e.u} {e.v} colour {e.colour}")
    return report.exit_code


def _cmd_verify(args) -> int:
    graph = multigraph.load(args.input)
    with open(args.matching, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    m = matching_from_json(graph, doc)
    issues = verify(graph, m)
    if args.json:
        print(json.dumps({
            "ok": not issues,
            "size": len(m),
            "issues": [{"kind": i.kind, "detail": i.detail} for i in issues],
        }, indent=2))
    else:
        if issues:
            for i in issues:
                print(f"{i.kind}: {i.detail}")
        else:
            print(f"ok: valid rainbow matching of size {len(m)}")
    return 2 if issues else 0


def _cmd_oracle(args) -> int:
    exact = True
    try:
        if args.latin:
            square = load_square(args.input)
            res = max_partial_transversal(square, args.max_nodes, args.time_limit)
        else:
            graph = multigraph.load(args.input)
            res = max_rainbow_matching(graph, args.max_nodes, args.time_limit)
    except CapExceeded as exc:
        res, exact = exc.best, False
    if args.latin:
        witness = [list(cell) for cell in res.witness]
    else:
        witness = list(res.witness)
    if args.json:
        print(json.dumps({"size": res.size, "witness": witness,
                          "nodes": res.nodes, "exact": exact}, indent=2))
    else:
        tag = "optimum" if exact else "best found (cap exceeded)"
        print(f"{tag}: {res.size}  nodes: {res.nodes}")
    return 0 if exact else 2


def _cmd_stats(args) -> int:
    graph = multigraph.load(args.input)
    params = _params_for(graph, args)
    if args.matching:
        with open(args.matching, "r", encoding="utf-8") as fh:
            m = matching_from_json(graph, json.load(fh))
        issues = verify(graph, m)
        if issues:
            for i in issues:
                print(f"{i.kind}: {i.detail}", file=sys.stderr)
            return 2
    else:
        m = greedy(graph, args.seed)
    ctx = SwitchContext.build(graph, m, params)
    counting = counting_diagnostics(graph, m, ctx.flex, ctx.hierarchy, params)
    doc = {
        "levels": [{"i": lv.index, "size": len(lv.edges),
                    "colours": sorted(lv.colours)}
                   for lv in ctx.hierarchy.levels],
        "m": ctx.hierarchy.m,
        "F_size": len(ctx.flex.colours),
        "R_size": len(ctx.hierarchy.reach_colours),
        "counting": counting.to_json_dict(),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _random_shape(args) -> tuple[int, int, int, int]:
    """``(colours, count, vertices, cap)`` from the flags, defaulting to
    ``count = ceil(1.5 * colours)``, ``vertices = 2 * count`` and
    ``cap = max(1, colours // 16)``."""
    colours = args.colours
    count = args.count if args.count is not None else ceil(3 * colours / 2)
    vertices = args.vertices if args.vertices is not None else 2 * count
    cap = args.cap if args.cap is not None else max(1, colours // 16)
    return colours, count, vertices, cap


def _cmd_generate(args) -> int:
    if args.what == "random":
        graph = generate_random(*_random_shape(args), args.seed)
        _emit(multigraph.dumps(graph), args.output)
        return 0
    square = cyclic_square(args.cyclic)
    if args.format == "square":
        _emit(dumps_square(square), args.output)
    else:
        _emit(multigraph.dumps(latin_to_graph(square)), args.output)
    return 0


def _parse_seed_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        seeds = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"--seeds: expected a seed or a range like 0..99, "
                         f"got {text!r}") from None
    if not seeds:
        raise ValueError(f"--seeds: {text} is an empty range")
    return seeds


def _cmd_bench(args) -> int:
    colours, count, vertices, cap = _random_shape(args)
    seeds = _parse_seed_range(args.seeds)  # before the header: errors leave stdout empty
    print("seed,n,found,optimum,iterations,switches,ms")
    for seed in seeds:
        try:
            graph = generate_random(colours, count, vertices, cap, seed)
        except PlacementError as exc:
            # a seed that cannot be placed should not abort the sweep
            print(f"seed {seed} skipped: {exc}", file=sys.stderr)
            continue
        params = _params_for(graph, args)
        report = solve(graph, params, target_deficit=args.target_deficit,
                       seed=seed, max_budget=args.max_budget,
                       max_iterations=args.max_iterations)
        optimum = ""
        if not args.no_oracle:
            try:
                optimum = str(max_rainbow_matching(graph, args.max_nodes,
                                                   args.time_limit).size)
            except CapExceeded:
                optimum = ""
        print(f"{seed},{colours},{report.size},{optimum},"
              f"{len(report.iterations)},{report.total_exchanges},"
              f"{report.wall_ms:.3f}")
    return 0


def _cmd_check(args) -> int:
    graph = multigraph.load(args.input)
    params = _params_for(graph, args)
    report = hypothesis_check(graph, params)
    if args.json:
        print(json.dumps({
            "ok": report.ok,
            "issues": [{"kind": i.kind, "detail": i.detail} for i in report.issues],
        }, indent=2))
    else:
        if report.ok:
            print("ok: instance satisfies the hypotheses")
        else:
            for i in report.issues:
                print(f"{i.kind}: {i.detail}")
    return 0 if report.ok else 2


def _add_density_flags(p) -> None:
    p.add_argument("--epsilon", default="1/2",
                   help="density margin, a fraction like 1/2 (default 1/2)")
    p.add_argument("--alpha", default=None,
                   help="structure threshold ratio (default epsilon/12)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="rainbowmatch",
                     description="Rainbow matchings in properly edge-coloured multigraphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="greedy plus switching augmentation")
    p.add_argument("--input", required=True, help="instance file")
    _add_density_flags(p)
    p.add_argument("--target-deficit", type=int, default=0,
                   help="stop at size n minus this (default 0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-budget", type=int, default=64,
                   help="cap on distance to the iteration base (default 64)")
    p.add_argument("--max-iterations", type=int, default=1000)
    p.add_argument("--shuffle", action="store_true",
                   help="seeded shuffle of switch configurations")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include wall_ms in JSON output")
    p.add_argument("--save-matching", default=None,
                   help="also write the matching JSON to this file")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="check a matching document against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--matching", required=True, help="matching JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="exact optimum by branch and bound")
    p.add_argument("--input", required=True)
    p.add_argument("--latin", action="store_true",
                   help="input is a Latin square, search cells instead of edges")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("stats", help="levels and counting diagnostics as JSON")
    p.add_argument("--input", required=True)
    _add_density_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="greedy seed when no --matching is given")
    p.add_argument("--matching", default=None, help="matching JSON file")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("check", help="validate an instance against the hypotheses")
    p.add_argument("--input", required=True)
    _add_density_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("generate", help="write an instance")
    gsub = p.add_subparsers(dest="what", required=True)
    pr = gsub.add_parser("random", help="random dense proper instance")
    pr.add_argument("--colours", type=int, required=True)
    pr.add_argument("--count", type=int, default=None,
                    help="edges per colour (default ceil(1.5 * colours))")
    pr.add_argument("--vertices", type=int, default=None,
                    help="default 2 * count")
    pr.add_argument("--cap", type=int, default=None,
                    help="parallel edge cap (default max(1, colours // 16))")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--output", default=None)
    pr.set_defaults(handler=_cmd_generate)
    pl = gsub.add_parser("latin", help="cyclic Latin square instance")
    pl.add_argument("--cyclic", type=int, required=True, help="order of the square")
    pl.add_argument("--format", choices=("graph", "square"), default="graph")
    pl.add_argument("--output", default=None)
    pl.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("bench", help="solve random instances, CSV to stdout")
    p.add_argument("--seeds", required=True, help="a range like 0..99 or one seed")
    p.add_argument("--colours", type=int, required=True)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--vertices", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    _add_density_flags(p)
    p.add_argument("--target-deficit", type=int, default=0)
    p.add_argument("--max-budget", type=int, default=64)
    p.add_argument("--max-iterations", type=int, default=1000)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the exact optimum column")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--time-limit", type=float, default=10.0)
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
