"""Per-layer tracing for the benchmark, installed from outside the package.

The package binds most functions with from-imports, so each name is patched
where it is looked up: ``cli.solve`` and the oracle names in ``cli``, the
reachability and matching names in ``switching``, ``switching.robust_switch``
(which also catches its own recursive calls), and methods on their classes.

Layer boundaries record spans (name, start, end, parent id, job id), kept in
memory and written out once at the end.  Hot leaves (``with_swap``,
``RainbowMatching`` construction, ``closeness`` and the hierarchy lookups)
only keep counters and, where timed, accumulated time, because a span per
call would cost more than the call.  A span's self time is its duration minus
its child spans and the timed leaves called directly under it.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from rainbowmatch import cli, instances, matching, multigraph, reachability, switching

# Per-layer metrics: name -> unit.  Times and counts are per timed job unless
# the unit says otherwise.
PER_LAYER = {
    "instances.generate_s": "s/instance",
    "instances.placement_failures": "count",
    "multigraph.loads_s": "s/job",
    "multigraph.edges_parsed": "count/job",
    "matching.with_swap_s": "s/job",
    "matching.with_swap_calls": "count/job",
    "matching.builds": "count/job",
    "matching.closeness_calls": "count/job",
    "matching.greedy_s": "s/job",
    "matching.extend_s": "s/job",
    "matching.verify_s": "s/job",
    "reachability.flexible_s": "s/job",
    "reachability.good_bad_s": "s/job",
    "reachability.hierarchy_s": "s/job",
    "reachability.violations_s": "s/job",
    "reachability.lookup_s": "s/job",
    "reachability.lookup_calls": "count/job",
    "reachability.levels_mean": "levels",
    "reachability.violations_found": "count/job",
    "switching.contexts": "count/job",
    "switching.augment_s": "s/job",
    "switching.augment_attempts": "count/job",
    "switching.augment_land_ratio": "ratio",
    "switching.switch_calls": "count/job",
    "switching.switch_found_ratio": "ratio",
    "switching.switch_self_s": "s/job",
    "switching.exchanges": "count/job",
    "switching.call_records": "count/job",
    "oracle.graph_s": "s/job",
    "oracle.graph_nodes": "count/job",
    "oracle.square_s": "s/job",
    "oracle.square_nodes": "count/job",
    "cli.self_s": "s/job",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans and counters of one benchmark run; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.job = -1
        self.calls: Counter = Counter()     # span and leaf calls by name
        self.total_s: Counter = Counter()   # span and timed-leaf time by name
        self.self_s: Counter = Counter()    # span self time by name
        self.counts: Counter = Counter()    # work counts read off results
        self._stack: list[list] = []        # open spans: [id, child seconds]
        self._next_id = 0
        self._in_leaf = False

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            took = end - start
            if parent is not None:
                parent[1] += took
            self.calls[name] += 1
            self.total_s[name] += took
            self.self_s[name] += took - frame[1]
            self.spans.append((sid, -1 if parent is None else parent[0],
                               self.job, name, start, end))

    def wrap_span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- hot leaves ----------------------------------------------------------

    def wrap_count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def wrap_timed(self, name: str, fn):
        """Count and time a leaf; the outermost timed leaf also charges its
        time to the enclosing span so that span self times exclude it."""
        calls, total = self.calls, self.total_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self._in_leaf = False
                total[name] += took
                if self._stack:
                    self._stack[-1][1] += took
        return wrapper

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the package for the duration of the block."""
        counts = self.counts

        def on_solve(report):
            counts["exchanges"] += report.total_exchanges
            counts["call_records"] += len(report.switch_calls)

        def on_loads(graph):
            counts["edges_parsed"] += graph.num_edges

        def on_build(ctx):
            counts["levels"] += ctx.hierarchy.m

        def on_violations(found):
            counts["violations_found"] += len(found)

        def on_augment(out):
            counts["augment_landed"] += isinstance(out, switching.AugmentOutcome)

        def on_switch(out):
            counts["switch_found"] += isinstance(out, switching.SwitchOutcome)

        def on_graph_oracle(res):
            counts["graph_nodes"] += res.nodes

        def on_square_oracle(res):
            counts["square_nodes"] += res.nodes

        build = switching.SwitchContext.__dict__["build"].__func__
        patches = [
            (cli, "main", self.wrap_span("cli.main", cli.main)),
            (cli, "solve", self.wrap_span("solve", cli.solve, on_solve)),
            (cli, "max_rainbow_matching", self.wrap_span(
                "oracle.graph", cli.max_rainbow_matching, on_graph_oracle)),
            (cli, "max_partial_transversal", self.wrap_span(
                "oracle.square", cli.max_partial_transversal, on_square_oracle)),
            (multigraph, "loads", self.wrap_span("multigraph.loads", multigraph.loads,
                                                 on_loads)),
            (instances, "loads_square", self.wrap_span("instances.loads_square",
                                                       instances.loads_square)),
            (switching, "greedy", self.wrap_span("matching.greedy", switching.greedy)),
            (switching, "extend_to_maximal", self.wrap_span(
                "matching.extend", switching.extend_to_maximal)),
            (switching.SwitchContext, "build", classmethod(self.wrap_span(
                "switching.build", build, on_build))),
            (switching, "compute_flexible", self.wrap_span(
                "reachability.flexible", switching.compute_flexible)),
            (switching, "classify_good_bad", self.wrap_span(
                "reachability.good_bad", switching.classify_good_bad)),
            (switching, "build_hierarchy", self.wrap_span(
                "reachability.hierarchy", switching.build_hierarchy)),
            (switching, "find_violations", self.wrap_span(
                "reachability.violations", switching.find_violations, on_violations)),
            (switching, "augment", self.wrap_span("switching.augment", switching.augment,
                                                  on_augment)),
            (switching, "robust_switch", self.wrap_span(
                "switching.robust_switch", switching.robust_switch, on_switch)),
            (switching, "closeness", self.wrap_count("matching.closeness",
                                                     switching.closeness)),
            (matching.RainbowMatching, "__init__", self.wrap_count(
                "matching.build", matching.RainbowMatching.__init__)),
            (matching.RainbowMatching, "with_swap", self.wrap_timed(
                "matching.with_swap", matching.RainbowMatching.with_swap)),
            (reachability.Hierarchy, "entry", self.wrap_timed(
                "reachability.lookup", reachability.Hierarchy.entry)),
            (reachability.Hierarchy, "head_entry", self.wrap_timed(
                "reachability.lookup", reachability.Hierarchy.head_entry)),
            (reachability.FlexibleStructure, "by_colour", self.wrap_timed(
                "reachability.lookup", reachability.FlexibleStructure.by_colour)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def work_counts(self) -> dict[str, int]:
        """Every integer count so far, for the determinism check."""
        out = {f"calls.{k}": v for k, v in self.calls.items()
               if not k.startswith("instances.")}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def per_layer(self, jobs: int, placement_failures: int,
                  overhead_frac: float) -> dict[str, float]:
        """The per-layer metrics over ``jobs`` traced jobs."""
        c, t, s, n = self.calls, self.total_s, self.self_s, self.counts
        per = 1.0 / max(1, jobs)
        generated = c["instances.generate"]
        m = {
            "instances.generate_s": t["instances.generate"] / max(1, generated),
            "instances.placement_failures": placement_failures,
            "multigraph.loads_s": t["multigraph.loads"] * per,
            "multigraph.edges_parsed": n["edges_parsed"] * per,
            "matching.with_swap_s": t["matching.with_swap"] * per,
            "matching.with_swap_calls": c["matching.with_swap"] * per,
            "matching.builds": c["matching.build"] * per,
            "matching.closeness_calls": c["matching.closeness"] * per,
            "matching.greedy_s": t["matching.greedy"] * per,
            "matching.extend_s": t["matching.extend"] * per,
            "matching.verify_s": t["matching.verify"] * per,
            "reachability.flexible_s": t["reachability.flexible"] * per,
            "reachability.good_bad_s": t["reachability.good_bad"] * per,
            "reachability.hierarchy_s": t["reachability.hierarchy"] * per,
            "reachability.violations_s": t["reachability.violations"] * per,
            "reachability.lookup_s": t["reachability.lookup"] * per,
            "reachability.lookup_calls": c["reachability.lookup"] * per,
            "reachability.levels_mean": n["levels"] / max(1, c["switching.build"]),
            "reachability.violations_found": n["violations_found"] * per,
            "switching.contexts": c["switching.build"] * per,
            "switching.augment_s": t["switching.augment"] * per,
            "switching.augment_attempts": c["switching.augment"] * per,
            "switching.augment_land_ratio":
                n["augment_landed"] / max(1, c["switching.augment"]),
            "switching.switch_calls": c["switching.robust_switch"] * per,
            "switching.switch_found_ratio":
                n["switch_found"] / max(1, c["switching.robust_switch"]),
            "switching.switch_self_s": s["switching.robust_switch"] * per,
            "switching.exchanges": n["exchanges"] * per,
            "switching.call_records": n["call_records"] * per,
            "oracle.graph_s": t["oracle.graph"] * per,
            "oracle.graph_nodes": n["graph_nodes"] * per,
            "oracle.square_s": t["oracle.square"] * per,
            "oracle.square_nodes": n["square_nodes"] * per,
            "cli.self_s": s["cli.main"] * per,
            "trace.overhead_frac": overhead_frac,
        }
        assert m.keys() == PER_LAYER.keys()
        return m

    def write_spans(self, path: str) -> None:
        """Write every span as CSV (id, parent, job, name, start, end)."""
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,start_s,end_s\n")
            for sid, parent, job, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{job},{name},{start:.9f},{end:.9f}\n")
        os.replace(tmp, path)
