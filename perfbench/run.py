"""Benchmark of the dbic package, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread.  The run first sets up several times (a fresh
import of dbic from src/, the workload's graphs and its seeded inputs) and
reports the median as ``setup_s``.  It then runs passes over the
workload's task list (see workloads.py) until the next pass would end after
S seconds, timing each task, and checks every answer afterwards against
reference.json or the oracle in oracle.py.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the share of wrong or raising tasks, and the
lines before it repeat every figure for people.

Every time is scaled to a reference host speed by the calibration loop
that runs between tasks (calibration.py); the unscaled figures are printed
on a comment line.

--trace 0 reports the end-to-end metrics:

  setup_s       median set-up time
  wall_s        one pass over the task list: the sum of each task's median
  peak_rss_mb   peak resident set of the process (getrusage)
  query_p50_ms  median over query tasks of each task's median latency
  query_p90_ms  90th percentile of the same (inclusive interpolation)

A query task is one grid cell (identify, eccentricity, codesearch) or one
single-vertex ball query, computed both ways (local).

--trace 1 spends the first half of the time in untraced passes and the
second half in passes traced through tracer.py, and reports the per-layer
metrics (PER_LAYER below).  Counts come from the first traced pass and must
repeat exactly in every later one; ``trace.count_drift`` counts those that
did not.  The spans go to perfbench/out/trace-WORKLOAD-seedN.json.gz.

reference.json is written by record.py; see there.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracer as tracing
import workloads
from calibration import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}

PER_LAYER = {
    "graph.neighbor_ids.calls": "count",
    "graph.self_s": "s",
    "balls.ball_bfs.calls": "count",
    "balls.ball_closed_form.calls": "count",
    "balls.expand.calls": "count",
    "balls.all_balls.calls": "count",
    # all_balls calls per distinct (d, n, t) they were made for.
    "balls.all_balls.per_instance": "count",
    # Largest ball table of the pass, computed as N * ceil(N / 8) bytes
    # from the vertex count N, not measured.
    "balls.table_mb": "MiB",
    "balls.self_s": "s",
    "metrics.bfs_distances.calls": "count",
    "metrics.distance.calls": "count",
    # Median latency of one distance query, from the untraced passes.
    "metrics.distance.p50_ms": "ms",
    "metrics.self_s": "s",
    "codes.find_twins.calls": "count",
    "codes.build_constraints.calls": "count",
    "codes.constraints": "count",
    "codes.greedy_code.s": "s",
    "codes.verify_code.s": "s",
    "codes.min_code.nodes": "count",
    # Search nodes over min_code's self time (branch and bound alone).
    "codes.min_code.nodes_per_s": "1/s",
    "codes.min_code.proved_frac": "ratio",
    # Total size of the codes min_code and greedy_code returned to the
    # benchmark (not those found inside other calls).
    "codes.code_size_sum": "count",
    "codes.self_s": "s",
    "strings.decode.calls": "count",
    "strings.encode.calls": "count",
    "strings.self_s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    # Traced over untraced wall time of a pass, minus 1.
    "trace.overhead_frac": "ratio",
    # Exact counts that differed between traced passes; 0 unless dbic is
    # nondeterministic.
    "trace.count_drift": "count",
}


def load_dbic():
    """Import dbic afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules
                 if m == "dbic" or m.startswith("dbic.")]:
        del sys.modules[name]
    dbic = importlib.import_module("dbic")
    importlib.import_module("dbic.cli")
    return dbic


def set_up(workload: str, seed: int, ref: dict, cal: Calibrator):
    """Set-up intervals of SETUP_REPS set-ups, and the last set-up's tasks."""
    intervals = []
    cal.measure()
    for _ in range(SETUP_REPS):
        gc.collect()
        cal.maybe_measure()
        start = time.perf_counter()
        dbic = load_dbic()
        tasks = workloads.build(workload, dbic, seed, ref)
        intervals.append((start, time.perf_counter()))
    cal.measure()
    return intervals, tasks


def seconds_of(cal: Calibrator, intervals, scaled: bool = True) -> list[float]:
    """Lengths of (start, end) intervals, scaled to the reference speed."""
    return [(end - start) * (cal.scale(start, end) if scaled else 1.0)
            for start, end in intervals]


class Runner:
    """Runs passes over a task list and keeps every answer for checking."""

    def __init__(self, tasks, cal: Calibrator):
        self.tasks = tasks
        self.cal = cal
        self.answers = [{} for _ in tasks]   # answer -> times given
        self.errors = [0] * len(tasks)
        self.attempted = 0

    def passes(self, seconds: float, min_passes: int = 1,
               before_pass=None, after_pass=None) -> list[list[tuple]]:
        """Run passes until the next would overrun `seconds`; return each
        task's (start, end) intervals."""
        clock = time.perf_counter
        intervals = [[] for _ in self.tasks]
        start = clock()
        done = 0
        while True:
            pass_start = clock()
            if before_pass:
                before_pass()
            for i, task in enumerate(self.tasks):
                self.cal.maybe_measure()
                self.attempted += 1
                t0 = clock()
                try:
                    result = task.run()
                except Exception:
                    self.errors[i] += 1
                    if self.errors[i] == 1:
                        print(f"# task {task.name!r} raised:", file=sys.stderr)
                        traceback.print_exc(file=sys.stderr)
                    continue
                intervals[i].append((t0, clock()))
                answer = task.reduce(result)
                self.answers[i][answer] = self.answers[i].get(answer, 0) + 1
            self.cal.maybe_measure()
            if after_pass:
                after_pass()
            done += 1
            now = clock()
            if done >= min_passes and now - start + (now - pass_start) > seconds:
                self.cal.measure()
                return intervals

    def failed(self) -> int:
        """Tasks that raised or whose answer failed its check."""
        failed = sum(self.errors)
        for task, answers in zip(self.tasks, self.answers):
            for answer, times in answers.items():
                try:
                    ok = task.check(answer)
                except Exception:
                    print(f"# check of {task.name!r} raised:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                if not ok:
                    failed += times
                    print(f"# wrong answer from {task.name!r}: {answer!r}",
                          file=sys.stderr)
        return failed


def medians(tasks, samples, kind=None) -> list[float]:
    return [statistics.median(s) for task, s in zip(tasks, samples)
            if s and (kind is None or task.kind == kind)]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated within the values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def task_seconds(cal: Calibrator, intervals, scaled: bool = True):
    return [seconds_of(cal, task_intervals, scaled)
            for task_intervals in intervals]


def end_to_end(tasks, samples, setup_s: float) -> dict:
    queries = medians(tasks, samples, "query")
    return {
        "setup_s": setup_s,
        "wall_s": sum(medians(tasks, samples)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_p50_ms": statistics.median(queries) * 1e3,
        "query_p90_ms": quantile(queries, 90) * 1e3,
    }


class PassCounters:
    """Counts taken from the results of traced calls within one pass."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.ball_tables = set()      # distinct (d, n, t) given to all_balls
        self.table_bytes = 0          # largest N * ceil(N / 8) seen
        self.constraints = 0
        self.nodes = 0
        self.proved = 0
        self.code_size_sum = 0

    def observers(self) -> dict:
        def all_balls(args, kwargs, result, top):
            g, t = args
            self.ball_tables.add((g.d, g.n, t))
            count = g.vertex_count
            self.table_bytes = max(self.table_bytes, count * -(-count // 8))

        def build_constraints(args, kwargs, result, top):
            self.constraints += len(result)

        def min_code(args, kwargs, result, top):
            self.nodes += result.nodes
            self.proved += result.optimal
            if top:
                self.code_size_sum += result.size

        def greedy_code(args, kwargs, result, top):
            if top:
                self.code_size_sum += result.bit_count()

        return {"balls.all_balls": all_balls,
                "codes.build_constraints": build_constraints,
                "codes.min_code": min_code, "codes.greedy_code": greedy_code}


def traced_run(workload: str, seed: int, seconds: float, runner: Runner):
    """Untraced then traced passes; per-layer metrics and the span dump.

    Times from the tracer are per pass, scaled by the host speed measured
    over that pass."""
    tasks, cal = runner.tasks, runner.cal
    plain = task_seconds(cal, runner.passes(seconds / 2))
    tracer = tracing.Tracer()
    counters = PassCounters()
    tracer.install("dbic", counters.observers())
    snapshots = []
    pass_starts = []

    def before():
        tracer.reset()
        counters.reset()
        pass_starts.append(time.perf_counter())

    def after():
        stats = tracer.stats
        counts = tracer.exact_counts()
        counts.update({
            "codes.constraints": counters.constraints,
            "codes.min_code.nodes": counters.nodes,
            "codes.min_code.proved": counters.proved,
            "codes.code_size_sum": counters.code_size_sum,
            "balls.all_balls.instances": len(counters.ball_tables),
            "balls.table_bytes": counters.table_bytes,
        })
        snapshots.append({
            "interval": (pass_starts[-1], time.perf_counter()),
            "counts": counts,
            "module_self_s": tracer.module_self_seconds(),
            "inclusive_s": {n: s.total for n, s in stats.items()},
            "self_s": {n: s.self_time for n, s in stats.items()},
            "spans": tracer.span_records(),
        })

    traced = task_seconds(cal, runner.passes(seconds / 2, min_passes=2,
                                             before_pass=before,
                                             after_pass=after))
    for snap in snapshots:
        snap["scale"] = cal.scale(*snap.pop("interval"))
    first = snapshots[0]["counts"]
    drift = sorted(k for k in first
                   if any(s["counts"][k] != first[k] for s in snapshots[1:]))

    def med(key, name):
        return statistics.median(s[key].get(name, 0.0) * s["scale"]
                                 for s in snapshots)

    calls = first.get
    instances = first["balls.all_balls.instances"]
    min_code_self = med("self_s", "codes.min_code")
    min_code_calls = calls("codes.min_code.calls", 0)
    distances = medians(tasks, plain, "distance")
    metrics = {
        "graph.neighbor_ids.calls": calls("graph.neighbor_ids.calls"),
        "balls.ball_bfs.calls": calls("balls.ball_bfs.calls"),
        "balls.ball_closed_form.calls": calls("balls.ball_closed_form.calls"),
        "balls.expand.calls": calls("balls.expand.calls"),
        "balls.all_balls.calls": calls("balls.all_balls.calls"),
        "balls.all_balls.per_instance":
            calls("balls.all_balls.calls") / instances if instances else 0.0,
        "balls.table_mb": first["balls.table_bytes"] / 2 ** 20,
        "metrics.bfs_distances.calls": calls("metrics.bfs_distances.calls"),
        "metrics.distance.calls": calls("metrics.distance.calls"),
        "metrics.distance.p50_ms":
            statistics.median(distances) * 1e3 if distances else 0.0,
        "codes.find_twins.calls": calls("codes.find_twins.calls"),
        "codes.build_constraints.calls": calls("codes.build_constraints.calls"),
        "codes.constraints": first["codes.constraints"],
        "codes.greedy_code.s": med("inclusive_s", "codes.greedy_code"),
        "codes.verify_code.s": med("inclusive_s", "codes.verify_code"),
        "codes.min_code.nodes": first["codes.min_code.nodes"],
        "codes.min_code.nodes_per_s":
            first["codes.min_code.nodes"] / min_code_self if min_code_self else 0.0,
        "codes.min_code.proved_frac":
            first["codes.min_code.proved"] / min_code_calls if min_code_calls else 0.0,
        "codes.code_size_sum": first["codes.code_size_sum"],
        "strings.decode.calls": calls("strings.decode.calls"),
        "strings.encode.calls": calls("strings.encode.calls"),
        "cli.main.s": med("inclusive_s", "cli.main"),
        "trace.overhead_frac":
            sum(medians(tasks, traced)) / sum(medians(tasks, plain)) - 1,
        "trace.count_drift": len(drift),
    }
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = med("module_self_s", module)

    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload}-seed{seed}.json.gz"
    with gzip.open(dump, "wt", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": snapshots}, fh)
    counts_json = json.dumps(first, sort_keys=True)
    print(f"# exact counts (first traced pass): {counts_json}")
    print(f"# exact counts digest: "
          f"{hashlib.sha256(counts_json.encode()).hexdigest()[:16]}")
    if drift:
        print(f"# NONDETERMINISM: counts changed between traced passes: {drift}")
    print(f"# traced passes: {len(snapshots)}; spans written to "
          f"{dump.relative_to(ROOT)}")
    return metrics


def report(metrics: dict, units: dict) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dbic" / "__init__.py").is_file():
        print(f"error: dbic sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    cal = Calibrator()
    setup, tasks = set_up(args.workload, args.seed, ref, cal)
    runner = Runner(tasks, cal)
    gc.collect()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks/pass={len(tasks)} setup reps={SETUP_REPS}")
    if args.trace:
        metrics = report(traced_run(args.workload, args.seed, args.seconds,
                                    runner), PER_LAYER)
    else:
        intervals = runner.passes(args.seconds)
        samples = task_seconds(cal, intervals)
        setup_s = statistics.median(seconds_of(cal, setup))
        metrics = report(end_to_end(tasks, samples, setup_s), END_TO_END)
        raw = end_to_end(tasks, task_seconds(cal, intervals, scaled=False),
                         statistics.median(seconds_of(cal, setup, scaled=False)))
        passes = max(len(s) for s in samples)
        queries = len(medians(tasks, samples, "query"))
        print(f"# passes={passes}; wall_s sums {len(tasks)} per-task medians; "
              f"query quantiles over {queries} query tasks")
        print(f"# calibration: {len(cal.times)} samples, median "
              f"{statistics.median(cal.times):.6g} s (reference "
              f"{calibration.REF_CAL_S} s); unscaled: "
              + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    failed = runner.failed()
    print(f"# attempted={runner.attempted} failed={failed} "
          f"failed_frac={failed / runner.attempted:.6g}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
