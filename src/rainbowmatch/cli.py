"""Command-line interface.

Subcommands: solve, verify, oracle, stats, check, generate, bench.  JSON
goes to stdout, logs to stderr (level picked by the RAINBOW_LOG environment
variable: error, info or debug).  Exit codes: 0 success, 1 bad arguments or
unreadable input, and per-command codes documented on each handler (solve:
2 stalled, 3 iteration cap; verify: 2 violations, or a matching document
that disagrees with itself or the instance; oracle: 2 cap exceeded; stats: 2
the same for the --matching file; check: 2 hypotheses not met).  A matching
document with an edge id that is not an integer is unreadable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from math import ceil, isnan

from . import multigraph
from .instances import (PlacementError, check_random_shape, cyclic_square, dumps_square,
                        generate_random, latin_to_graph, load_square, square_of)
from .matching import (RainbowMatching, document_ids, document_issues, greedy,
                       matching_to_json, verify)
from .multigraph import InstanceParams, hypothesis_check
from .oracle import (DEFAULT_MAX_NODES, DEFAULT_TIME_LIMIT, CapExceeded, OracleResult,
                     certify_cyclic, max_partial_transversal, max_rainbow_matching)
from .reachability import counting_diagnostics
from .switching import DEFAULT_MAX_BUDGET, SwitchContext, solve

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


def _params_for(num_colours: int, args) -> InstanceParams:
    return InstanceParams.for_colours(num_colours, args.epsilon, args.alpha)


def _cmd_solve(args) -> int:
    graph = multigraph.load(args.input)
    params = _params_for(graph.num_colours, args)
    report = solve(graph, params, target_deficit=args.target_deficit,
                   seed=args.seed, max_budget=args.max_budget,
                   max_iterations=args.max_iterations, shuffle=args.shuffle)
    if args.save_matching:
        with open(args.save_matching, "w", encoding="utf-8") as fh:
            json.dump(matching_to_json(report.matching), fh, indent=2)
            fh.write("\n")
    if args.json:
        doc = report.to_json_dict(include_timing=args.timing)
        print(json.dumps(doc, indent=2))
    else:
        print(f"status: {report.status}")
        print(f"size: {report.size} (target {report.target}, n {report.n})")
        print(f"iterations: {len(report.iterations)}  exchanges: {report.total_exchanges}")
        for i in report.matching.sorted_ids:
            e = graph.edge(i)
            print(f"  edge {i}: {e.u} {e.v} colour {e.colour}")
    return report.exit_code


def _load_matching(graph, path: str):
    """The edge ids that the JSON document at ``path`` lists, and every
    issue with them: the document's own first, then :func:`verify`'s."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            # nesting deeper than the decoder's recursion limit
            raise ValueError(f"malformed matching document: {exc}") from None
    ids = document_ids(doc)
    return ids, document_issues(graph, doc) + verify(graph, ids)


def _print_issues(issues, as_json=False, ok_line=None, file=None, **fields) -> int:
    """Print ``issues`` and return the exit code: 2 if there are any, else 0.
    As JSON, ``{"ok", **fields, "issues"}``; as text, one ``kind: detail``
    line per issue, or ``ok_line`` when there are none."""
    if as_json:
        print(json.dumps({
            "ok": not issues,
            **fields,
            "issues": [{"kind": i.kind, "detail": i.detail} for i in issues],
        }, indent=2), file=file)
    elif issues:
        for i in issues:
            print(f"{i.kind}: {i.detail}", file=file)
    else:
        print(ok_line, file=file)
    return 2 if issues else 0


def _cmd_verify(args) -> int:
    graph = multigraph.load(args.input)
    ids, issues = _load_matching(graph, args.matching)
    size = len(set(ids))
    return _print_issues(issues, args.json,
                         f"ok: valid rainbow matching of size {size}", size=size)


def _cmd_oracle(args) -> int:
    if args.latin:
        square = load_square(args.input)
    else:
        graph = multigraph.load(args.input)
        square = square_of(graph)
    res = None if square is None else certify_cyclic(square)
    exact, proof = True, None
    if res is not None:
        n = square.order
        proof = f"isotope of Z_{n}"
        if not args.latin:
            res = OracleResult(res.size, tuple(i * n + j for i, j in res.witness), 0)
    else:
        try:
            if args.latin:
                res = max_partial_transversal(square, args.max_nodes, args.time_limit)
            else:
                res = max_rainbow_matching(graph, args.max_nodes, args.time_limit)
        except CapExceeded as exc:
            res, exact = exc.best, False
    if args.json:
        # json writes the witness's tuples, of ids or of cells, as arrays
        doc = {"size": res.size, "witness": res.witness, "nodes": res.nodes,
               "exact": exact}
        print(json.dumps(doc if proof is None else {**doc, "proof": proof}, indent=2))
    elif proof is not None:
        print(f"optimum: {res.size}  proof: {proof}")
    else:
        tag = "optimum" if exact else "best found (cap exceeded)"
        print(f"{tag}: {res.size}  nodes: {res.nodes}")
    return 0 if exact else 2


def _cmd_stats(args) -> int:
    graph = multigraph.load(args.input)
    # every count in the document assumes a proper colouring; loops are left
    # to the counting
    clash = next((i for i in multigraph.validate(graph) if i.kind == "colour_clash"),
                 None)
    if clash is not None:
        raise ValueError(f"not properly coloured: {clash.detail}")
    params = _params_for(graph.num_colours, args)
    if args.matching:
        ids, issues = _load_matching(graph, args.matching)
        if issues:
            return _print_issues(issues, file=sys.stderr)
        m = RainbowMatching(graph, ids)
    else:
        m = greedy(graph, args.seed)
    ctx = SwitchContext.build(m, params)
    doc = {
        "levels": [{"i": lv.index, "size": len(lv.edges),
                    "colours": sorted(lv.colours)}
                   for lv in ctx.hierarchy.levels],
        "m": ctx.hierarchy.m,
        "F_size": len(ctx.flex.partners),
        "R_size": len(ctx.hierarchy.by_colour),
        "counting": counting_diagnostics(m, ctx.hierarchy, params),
    }
    print(json.dumps(doc, indent=2))
    return 0


def _random_shape(args) -> tuple[int, int, int, int]:
    """``(colours, count, vertices, cap)`` from the flags of
    :func:`_add_shape_flags`, with the defaults their help states."""
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
    colours, count, vertices, cap = shape = _random_shape(args)
    # before the header, so that a bad argument leaves stdout empty
    check_random_shape(*shape)
    seeds = _parse_seed_range(args.seeds)
    params = _params_for(colours, args)
    print("seed,n,found,optimum,iterations,switches,ms")
    for seed in seeds:
        try:
            graph = generate_random(colours, count, vertices, cap, seed)
        except PlacementError as exc:
            # a seed that cannot be placed should not abort the sweep
            print(f"seed {seed} skipped: {exc}", file=sys.stderr)
            continue
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
    params = _params_for(graph.num_colours, args)
    return _print_issues(hypothesis_check(graph, params), args.json,
                         "ok: instance satisfies the hypotheses")


def _add_density_flags(p) -> None:
    p.add_argument("--epsilon", default="1/2",
                   help="density margin, a fraction like 1/2 (default 1/2)")
    p.add_argument("--alpha", default=None,
                   help="structure threshold ratio (default epsilon/12)")


def _add_shape_flags(p) -> None:
    p.add_argument("--colours", type=int, required=True)
    p.add_argument("--count", type=int, default=None,
                   help="edges per colour (default ceil(1.5 * colours))")
    p.add_argument("--vertices", type=int, default=None,
                   help="default 2 * count")
    p.add_argument("--cap", type=int, default=None,
                   help="parallel edge cap (default max(1, colours // 16))")


def _add_solve_flags(p) -> None:
    _add_density_flags(p)
    p.add_argument("--target-deficit", type=int, default=0,
                   help="stop at size n minus this (default 0)")
    p.add_argument("--max-budget", type=_non_negative, default=DEFAULT_MAX_BUDGET,
                   help="cap on distance to the iteration base (default %(default)s)")
    p.add_argument("--max-iterations", type=_non_negative, default=1000)


def _non_negative(text: str) -> int:
    """A ``--max-budget``, ``--max-iterations`` or ``--max-nodes`` value: an
    int of at least 0.  A negative cap would stop every solve before its
    first round, refuse every switch or stop every oracle search after one
    node, so it is a usage error instead."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _seconds(text: str) -> float:
    """A ``--time-limit`` value: a float of at least 0.  NaN would switch the
    oracles' clock off, and a negative limit would stop every search at its
    first clock reading and still look like a result, so both are usage
    errors; 0 and inf stay."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if isnan(value):
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


def _add_oracle_caps(p, time_limit: float) -> None:
    p.add_argument("--max-nodes", type=_non_negative, default=DEFAULT_MAX_NODES)
    p.add_argument("--time-limit", type=_seconds, default=time_limit)


def _fill_solve(p) -> None:
    p.add_argument("--input", required=True, help="instance file")
    _add_solve_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shuffle", action="store_true",
                   help="seeded shuffle of switch configurations")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true",
                   help="include wall_ms in JSON output")
    p.add_argument("--save-matching", default=None,
                   help="also write the matching JSON to this file")
    p.set_defaults(handler=_cmd_solve)


def _fill_verify(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--matching", required=True, help="matching JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)


def _fill_oracle(p) -> None:
    p.description = (
        "Print the maximum rainbow matching of a graph, or partial transversal "
        "of a Latin square, with a witness.  An isotope of Z_n, given as a "
        "square or as the K_{n,n} that 'generate latin' writes, is certified "
        "from its group structure in O(n^2): optimum n for odd n, n - 1 for "
        "even n, and 'proof' names the certificate.  Anything else is proved "
        "by branch and bound, which --max-nodes and --time-limit cap.")
    p.add_argument("--input", required=True)
    p.add_argument("--latin", action="store_true",
                   help="input is a Latin square, search cells instead of edges")
    _add_oracle_caps(p, DEFAULT_TIME_LIMIT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_oracle)


def _fill_stats(p) -> None:
    p.add_argument("--input", required=True)
    _add_density_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="greedy seed when no --matching is given")
    p.add_argument("--matching", default=None, help="matching JSON file")
    p.set_defaults(handler=_cmd_stats)


def _fill_check(p) -> None:
    p.add_argument("--input", required=True)
    _add_density_flags(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_check)


def _fill_generate(p) -> None:
    gsub = p.add_subparsers(dest="what", required=True)
    pr = gsub.add_parser("random", help="random dense proper instance")
    _add_shape_flags(pr)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--output", default=None)
    pr.set_defaults(handler=_cmd_generate)
    pl = gsub.add_parser("latin", help="cyclic Latin square instance")
    pl.add_argument("--cyclic", type=int, required=True, help="order of the square")
    pl.add_argument("--format", choices=("graph", "square"), default="graph")
    pl.add_argument("--output", default=None)
    pl.set_defaults(handler=_cmd_generate)


def _fill_bench(p) -> None:
    p.add_argument("--seeds", required=True, help="a range like 0..99 or one seed")
    _add_shape_flags(p)
    _add_solve_flags(p)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the exact optimum column")
    _add_oracle_caps(p, 10.0)
    p.set_defaults(handler=_cmd_bench)


# the subcommands in help order: name -> (help, the function adding its arguments)
_COMMANDS = {
    "solve": ("greedy plus switching augmentation", _fill_solve),
    "verify": ("check a matching document against an instance", _fill_verify),
    "oracle": ("exact optimum: cyclic certificate, else branch and bound", _fill_oracle),
    "stats": ("levels and counting diagnostics as JSON", _fill_stats),
    "check": ("validate an instance against the hypotheses", _fill_check),
    "generate": ("write an instance", _fill_generate),
    "bench": ("solve random instances, CSV to stdout", _fill_bench),
}


@functools.cache
def _parser() -> _Parser:
    """The parser for every subcommand, built on the first :func:`main` call
    in the process and reused by every later one.  Sharing it is safe because
    parsing changes no parser state, no argument has a mutable default, and
    each handler reads the module's names when it runs."""
    parser = _Parser(prog="rainbowmatch",
                     description="Rainbow matchings in properly edge-coloured multigraphs")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, fill) in _COMMANDS.items():
        fill(sub.add_parser(name, help=text))
    return parser


def main(argv=None) -> int:
    """Run ``rainbowmatch`` on ``argv`` (default ``sys.argv[1:]``) and return
    its exit code.  Every call parses with the one :func:`_parser`, so a
    caller that runs many commands in one process pays for argparse once."""
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
