"""Benchmark of ``rainbowmatch solve`` and ``oracle`` jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload switch_random --seed 1 --seconds 10 --trace 0

Set-up generates the workload's seeded set of ``INSTANCES`` instances and
writes the files; it is done three times and ``setup_s`` is the import time
plus the median round.  The timed phase is a closed loop with one client in
this one process: each job calls ``rainbowmatch.cli.main`` in-process with
stdout captured, exactly what a ``rainbowmatch solve --json`` /
``oracle --json`` user gets, including parsing the instance file.  The calls
are made from module level, as the ``rainbowmatch`` console script makes
them: CPython 3.11 grows its frame stack in 16 KiB chunks, and the recursive
oracle's run time swings several-fold with the caller's stack depth.  Every
run finishes the set-up set; if ``--seconds`` have not passed by then,
further instances are drawn from the same seed stream, so no job repeats an
instance.  Every output is checked; a failed job counts as +inf in the
percentiles.

Every timing is normalised to a reference CPU speed.  Just before each job
(and each generated instance) a fixed pure-Python loop is timed.  A job's
wall time is scaled by ``CALIBRATION_REF_S`` over the mean of the reading
before it and the reading after it (the next job's, or one more at the end);
a generated instance's by the reading before it.  On a shared 2-vCPU host the
CPU speed swings by a factor of two within seconds; the scaled times stay
within a few percent.  The unscaled wall times are printed too.

With ``--trace 1`` every instance runs untraced and then traced, the
per-layer metrics come from the traced jobs, and the spans are written to
``.perfbench_work/spans-<workload>.csv``.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics traced).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

DEFAULT_SEED = 1
# Size of the set-up instance set.  Every run finishes it: p90 needs at least
# 100 timed jobs, and the determinism record covers exactly this set.
INSTANCES = 100
SETUP_ROUNDS = 3
# Typical seconds of calibration_s() on the host the baseline was recorded
# on (2 vCPUs, CPython 3.11); it only sets the scale of normalised timings.
CALIBRATION_REF_S = 0.0065
# stop starting jobs once the process could run past this many seconds
WALL_CAP_S = 160.0

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# printed with the end-to-end metrics; they can be 0, so they are not gated
QUALITY = {
    "failed_frac": "ratio",
    "deficit_mean": "edges",
    "gap_mean": "edges",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instances", type=int, default=INSTANCES,
                   help="set-up instance-set size (smaller sizes are for smoke runs)")
    return p.parse_args(argv)


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 1023


def calibration_s() -> float:
    """Wall seconds of a fixed mix of the interpreter work the solver does:
    method calls with dict and set updates, then building, sorting and
    indexing a few thousand tuples.  It reads the CPU speed right now; the
    mix tracks the solver's slow-downs better than either part alone."""
    start = time.perf_counter()
    probe, seen, counts, hits = _Probe(3, 7), set(), {}, 0
    for i in range(15000):
        k = probe.step(i)
        counts[k] = counts.get(k, 0) + 1
        if k in seen:
            hits += 1
        else:
            seen.add(k & 511)
    pairs = sorted(((i * 2654435761) % 10007, i) for i in range(4000))
    hits += len(frozenset(x for x, _ in pairs)) + len(dict(pairs))
    return time.perf_counter() - start


def speed() -> float:
    """Factor that scales a wall time measured now to the reference speed."""
    return CALIBRATION_REF_S / calibration_s()


def source_hash() -> str:
    """Digest of the package and benchmark sources, which keys the
    determinism records so that only runs of one commit are compared."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "rainbowmatch"), BENCH_DIR):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                with open(os.path.join(top, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()[:16]


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; +inf propagates."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    if frac == 0 or xs[lo] == xs[hi]:
        return xs[lo]
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * frac


class Bench:
    """One run of one workload."""

    def __init__(self, args, workload, workdir):
        from rainbowmatch import cli, matching
        from tracing import Tracer

        self.args = args
        self.wl = workload
        self.workdir = workdir
        self.cli = cli
        self.tracer = Tracer() if args.trace else None
        self.verify = matching.verify
        self.instances = []
        self.more_seeds = iter(())
        self.placement_failures = 0
        # (wall seconds, index of the calibration reading before it,
        # succeeded) of every job, untraced and traced
        self.jobs: dict[bool, list[tuple[float, int, bool]]] = {False: [], True: []}
        self.readings: list[float] = []  # calibration_s() before each job, and after the last
        self.first_out: dict[int, list[str]] = {}
        self.sizes: dict[int, int | None] = {}
        self.reasons: Counter = Counter()
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.seen_exceptions: set[str] = set()
        self.out: dict = {}

    # -- set-up ----------------------------------------------------------------

    def make_instance(self, index: int, seed: int):
        """Generate and write one instance; None after a ``PlacementError``,
        which is counted."""
        from rainbowmatch import multigraph
        from rainbowmatch.instances import PlacementError, dumps_square
        from workloads import Instance

        tracer = self.tracer
        try:
            with tracer.span("instances.generate") if tracer else nullcontext():
                graph, square, optimum = self.wl.generate(index, seed)
        except PlacementError:
            self.placement_failures += 1
            return None
        base = os.path.join(self.workdir, f"i{index:04d}")
        with open(base + ".txt", "w", encoding="utf-8") as fh:
            fh.write(multigraph.dumps(graph))
        square_path = None
        if square is not None:
            square_path = base + ".sq"
            with open(square_path, "w", encoding="utf-8") as fh:
                fh.write(dumps_square(square))
        return Instance(index, seed, graph.num_colours, optimum, base + ".txt", square_path)

    def set_up(self) -> tuple[float, float]:
        """Generate and write the set-up instance set; returns (wall,
        normalised) seconds."""
        from workloads import instance_seeds

        seeds = instance_seeds(self.wl.name, self.args.seed)
        self.instances = []
        self.placement_failures = 0
        wall = normalised = 0.0
        for index, seed in enumerate(itertools.islice(seeds, self.args.instances)):
            factor = speed()
            start = time.perf_counter()
            inst = self.make_instance(index, seed)
            if inst is not None:
                self.instances.append(inst)
            took = time.perf_counter() - start
            wall += took
            normalised += took * factor
        self.more_seeds = enumerate(seeds, start=self.args.instances)
        return wall, normalised

    def all_instances(self):
        """The set-up set, then further instances drawn from the same seed
        stream, so that no two jobs of a run share an instance."""
        yield from self.instances
        if not self.instances:
            return  # every draw failed; drawing more would not end
        for index, seed in self.more_seeds:
            inst = self.make_instance(index, seed)
            if inst is not None:
                yield inst

    # -- jobs ------------------------------------------------------------------

    def call_raised(self, exc: Exception) -> None:
        """Tally an exception out of ``cli.main``; print its first traceback."""
        name = type(exc).__name__
        if name not in self.seen_exceptions:
            self.seen_exceptions.add(name)
            traceback.print_exc(file=sys.stderr)
        self.reasons[f"exception_{name}"] += 1

    def check(self, inst, outputs, traced: bool) -> bool:
        """Check one job's outputs and tally failure reasons; True if it
        succeeded.  Every matching is rebuilt and verified; a traced job must
        also repeat its untraced outputs byte for byte."""
        from rainbowmatch.multigraph import load

        if any(code is None for code, _ in outputs):
            return False  # the exception is already tallied
        texts = [out for _, out in outputs]
        reasons = []
        if texts != self.first_out.setdefault(inst.index, texts):
            reasons.append("nondeterministic_output")
        verify = self.verify
        if traced:
            verify = self.tracer.wrap_span("matching.verify", verify)
        try:
            found, size = self.wl.check(inst, load(inst.graph_path), outputs, verify)
        except Exception:  # malformed output must not end the run
            traceback.print_exc(file=sys.stderr)
            found, size = ["check_error"], None
        reasons.extend(found)
        self.sizes.setdefault(inst.index, size)
        for r in reasons:
            self.reasons[r] += 1
        return not reasons

    def run_job(self, inst, traced: bool):
        """One job, yielding each CLI call's argv and receiving (exit code or
        None, stdout, seconds).  Appends to ``self.jobs[traced]``."""
        tracer = self.tracer if traced else None
        gc.collect()
        self.readings.append(calibration_s())
        outputs = []
        took = 0.0
        if tracer:
            tracer.job += 1
        with tracer.installed() if tracer else nullcontext(), \
                tracer.span("job") if tracer else nullcontext():
            for argv in self.wl.calls(inst):
                code, out, seconds = yield argv
                outputs.append((code, out))
                took += seconds
                if code is None:
                    break
        ok = self.check(inst, outputs, traced)
        self.jobs[traced].append((took, len(self.readings) - 1, ok))

    def timed(self, traced: bool) -> list[tuple[float, float, bool]]:
        """(normalised ms, wall ms, succeeded) of every job of one kind."""
        r = self.readings
        return [(took * 2000.0 * CALIBRATION_REF_S / (r[k] + r[k + 1]), took * 1000.0, ok)
                for took, k, ok in self.jobs[traced]]

    def steps(self):
        """The whole run as a generator of CLI calls; see :meth:`run_job`.
        Leaves the results in ``self.out``."""
        imported = time.perf_counter() - T0
        imported_norm = imported * speed()
        rounds = [self.set_up() for _ in range(SETUP_ROUNDS)]
        set_up_indices = {inst.index for inst in self.instances}
        last_set_up = max(set_up_indices, default=-1)

        counts = None
        finished_set_up = False
        loop_start = time.perf_counter()
        for inst in self.all_instances():
            job_start = time.perf_counter()
            yield from self.run_job(inst, False)
            if self.tracer:
                yield from self.run_job(inst, True)
            if inst.index == last_set_up:
                finished_set_up = True
                if self.tracer:
                    counts = self.tracer.work_counts()
            now = time.perf_counter()
            if finished_set_up and now - loop_start >= self.args.seconds:
                break
            if now - T0 + (now - job_start) > WALL_CAP_S:
                self.notes.append(f"stopped at the {WALL_CAP_S:.0f} s wall-clock cap "
                                  f"after {len(self.jobs[False])} timed jobs")
                break
        self.readings.append(calibration_s())  # the reading after the last job

        jobs = self.timed(False)
        failed_jobs = sum(1 for _, _, ok in jobs if not ok)
        attempted = len(jobs) + self.placement_failures
        failed = failed_jobs + self.placement_failures
        self.reasons["placement_error"] += self.placement_failures
        pad = [math.inf] * self.placement_failures

        # the record covers the set-up set only, which every full run finishes
        digest = hashlib.sha256()
        for index in sorted(set_up_indices & self.first_out.keys()):
            for text in self.first_out[index]:
                digest.update(text.encode() + b"\0")
        by_index = {inst.index: inst for inst in self.instances}
        solved = [(by_index[i], s) for i, s in sorted(self.sizes.items())
                  if i in by_index and s is not None]
        deficit = statistics.fmean(inst.n - s for inst, s in solved) if solved else math.nan
        gap = (statistics.fmean(inst.optimum - s for inst, s in solved)
               if solved and self.wl.has_gap else None)

        record = {"output_digest": digest.hexdigest(), "deficit_mean": deficit,
                  "gap_mean": gap, "set_up_instances": len(self.instances)}
        if counts is not None:
            record["counts"] = counts
        if finished_set_up:
            self.check_determinism(record)
        else:
            self.notes.append("the set-up set was not finished, so the determinism "
                              "record was not checked")

        def timings(col: int, setup: float) -> dict:
            samples = [ms[col] if ms[2] else math.inf for ms in jobs] + pad
            done = sum(1 for ms in jobs if ms[2])
            spent = sum(ms[col] for ms in jobs)
            return {
                "op_ms_p50": percentile(samples, 0.5) if samples else math.inf,
                "op_ms_p90": percentile(samples, 0.9) if samples else math.inf,
                "ops_per_s": 1000.0 * done / spent if spent else 0.0,
                "setup_s": setup,
            }

        metrics = timings(0, imported_norm + statistics.median(n for _, n in rounds))
        metrics.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_frac": failed / max(1, attempted),
            "deficit_mean": deficit,
            "gap_mean": gap,
        })
        self.out = {
            "jobs": len(jobs),
            "attempted": max(1, attempted),
            "failed": failed,
            "correct": failed == 0 and not self.errors,
            "record": record,
            "metrics": metrics,
            "wall": timings(1, imported + statistics.median(w for w, _ in rounds)),
        }
        if self.tracer:
            self.out["per_layer"] = self.per_layer(rounds)

    def per_layer(self, rounds) -> dict:
        """Per-layer metrics, with times scaled to the reference speed by the
        traced jobs' (or set-up rounds') mean calibration factor."""
        from tracing import PER_LAYER

        traced, untraced = self.timed(True), self.timed(False)
        traced_ms = sum(ms for ms, _, _ in traced)
        untraced_ms = sum(ms for ms, _, _ in untraced)
        traced_wall_ms = sum(wall for _, wall, _ in traced)
        overhead = traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0
        layers = self.tracer.per_layer(len(traced), self.placement_failures, overhead)
        job_scale = traced_ms / traced_wall_ms if traced_wall_ms else 1.0
        setup_scale = sum(n for _, n in rounds) / sum(w for w, _ in rounds)
        for name, unit in PER_LAYER.items():
            if unit == "s/job":
                layers[name] *= job_scale
            elif unit == "s/instance":
                layers[name] *= setup_scale
        self.tracer.write_spans(os.path.join(WORK, f"spans-{self.wl.name}.csv"))
        return layers

    def check_determinism(self, record: dict) -> None:
        """Compare with earlier runs of the same sources, workload, seed and
        instance count, then merge this run's record in."""
        folder = os.path.join(WORK, "determinism", source_hash())
        os.makedirs(folder, exist_ok=True)
        path = os.path.join(folder, f"{self.wl.name}-seed{self.args.seed}"
                                    f"-k{self.args.instances}.json")
        earlier = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                earlier = json.load(fh)
        for key, value in json.loads(json.dumps(record)).items():
            before = earlier.get(key, value)
            if isinstance(value, dict):
                before = {k: before.get(k) for k in value if before.get(k) != value[k]}
                value = {k: value[k] for k in before}
            if before != value:
                self.errors.append(f"determinism: {key} differs from an earlier run "
                                   f"of these sources: {before!r} then {value!r}")
        merged = {**record, **earlier}  # keep the first record, so a drift keeps showing
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)


def fmt(value) -> str:
    if value is None:
        return "n/a"
    return repr(value) if isinstance(value, float) else str(value)


def json_value(value):
    return value if value is None or math.isfinite(value) else None


def report(bench) -> None:
    args, wl, out = bench.args, bench.wl, bench.out
    m, wall = out["metrics"], out["wall"]
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"set-up instances {out['record']['set_up_instances']}  "
          f"timed jobs {out['jobs']}")
    print(f"why: {wl.why}")
    for name, unit in {**END_TO_END, **QUALITY}.items():
        if name == "gap_mean" and not wl.has_gap:
            continue
        print(f"{name} {fmt(m[name])} {unit}")
    print("unnormalised wall: " + "  ".join(
        f"{name} {fmt(value)} {END_TO_END[name]}" for name, value in wall.items()))
    tally = ", ".join(f"{k}={v}" for k, v in sorted(bench.reasons.items()) if v)
    print(f"failure reasons: {tally or 'none'}")
    print(f"output_digest {out['record']['output_digest']}")
    if "per_layer" in out:
        from tracing import PER_LAYER
        for name, unit in PER_LAYER.items():
            print(f"{name} {fmt(out['per_layer'][name])} {unit}")
        print(f"spans written to .perfbench_work/spans-{wl.name}.csv")
        metrics = {k: {"value": json_value(out["per_layer"][k]), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": json_value(m[k]), "unit": u} for k, u in END_TO_END.items()}
    for note in bench.notes:
        print(f"note: {note}")
    for err in bench.errors:
        print(f"error: {err}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


def open_bench(argv):
    """Parse arguments and import the package from this checkout; returns
    None after printing why when that is impossible."""
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rainbowmatch", "__init__.py")):
        print("perfbench: src/rainbowmatch not found; run from the root of a "
              "full checkout", file=sys.stderr)
        return None
    sys.path[:0] = [SRC, BENCH_DIR]
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return None
    os.makedirs(WORK, exist_ok=True)
    return Bench(args, wl, tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))


if __name__ == "__main__":
    bench = open_bench(sys.argv[1:])
    if bench is None:
        sys.exit(2)
    try:
        steps = bench.steps()
        reply = None
        while True:
            try:
                argv = steps.send(reply)
            except StopIteration:
                break
            buf = io.StringIO()
            with redirect_stdout(buf):
                start = time.perf_counter()
                try:
                    code = bench.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a job that raises must not end the run
                    code = None
                    bench.call_raised(exc)
                seconds = time.perf_counter() - start
            reply = (code, buf.getvalue(), seconds)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    report(bench)
