"""The four workloads: their inputs, their tasks and how each answer is checked.

A workload is a fixed list of tasks.  Each task calls into dbic (``run``),
turns the result into a small answer outside the timed call (``reduce``)
and, once the timed passes are over, checks every distinct answer it gave
(``check``) against ``reference.json`` or against ``oracle``.

Why these workloads:

- identify: ``is_identifiable`` on a grid of (d, n, t) cells.  Balls cover
  most of the graph at high t, and the whole-graph ball table is quadratic
  in the vertex count at t=1, so twin detection and ball tables dominate.
- eccentricity: all-pairs BFS through ``radius_diameter`` on graphs of 125
  to 256 vertices: pure graph and metrics traversal, with no balls or codes.
- codesearch: exact and fixed-budget ``min_code``, ``greedy_code`` and
  ``verify_code`` on graphs of at most 256 vertices, so the constraint
  builder, greedy and branch and bound do nearly all the work.
- local: seeded single-vertex queries (balls both ways, distances,
  eccentricity) on graphs of 59,049 and 65,536 vertices, where each query
  touches a tiny part of the graph and whole-graph precomputation does not
  pay off.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle

# Host speed on a shared machine drifts within a second (see calibration.py),
# so apart from B(2,16) t=1, the one cell whose ball table reaches 512 MiB,
# every task is kept well under a second and the calibration brackets it.

# is_identifiable cells (d, n, t); B(3,6) t=4 runs through the CLI instead.
# B(2,8) t=7 is not identifiable (twin pair 00000001, 00000011).
IDENTIFY_CELLS = [(2, 16, 1), (4, 5, 3), (2, 8, 7)]
IDENTIFY_CLI = ["check", "3", "6", "4"]

# radius_diameter graphs (d, n); B(3,5) runs through the CLI instead.
ECC_GRAPHS = [(2, 8), (4, 4), (6, 3), (2, 7), (5, 3)]
ECC_CLI = ["ecc", "3", "5", "--all"]

# min_code instances (d, n, t, node budget or None for a proven optimum).
CODE_INSTANCES = [(2, 5, 1, None), (3, 3, 1, None), (3, 3, 2, None),
                  (4, 2, 1, None), (2, 8, 1, 2000), (3, 4, 2, 2000),
                  (4, 3, 1, 3000)]
# This one is solved through the CLI; its random candidates are still
# verified directly.
CODE_CLI_INSTANCE = (3, 3, 1, None)
CODE_CLI = ["code", "3", "3", "1", "--exact"]
GREEDY_INSTANCES = [(3, 5, 1)]

# local: per graph (d, n), ball queries at radius LOCAL_T, distance pairs
# whose endpoints are `shift` single shifts apart, and eccentricity calls.
# A distance query's cost grows steeply with the distance, so pairs a fixed
# shift apart keep the work of a pass nearly the same for every seed.
LOCAL_T = 3
LOCAL_GRAPHS = [
    {"d": 2, "n": 16, "balls": 500, "pairs": 40, "shift": 8, "ecc": 1},
    {"d": 3, "n": 10, "balls": 500, "pairs": 40, "shift": 6, "ecc": 1},
]
# The CLI ball query picks its centre from this pool of B(2,16) vertices,
# whose outputs were recorded on the reference commit.
BALL_POOL_SIZE = 64
BALL_POOL_SEED = 2016

WORKLOADS = ["identify", "eccentricity", "codesearch", "local"]


def cell_key(*parts) -> str:
    return ",".join("exact" if p is None else str(p) for p in parts)


def cli_argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def ball_cli_argv(vertex: str) -> list[str]:
    return ["ball", "2", "16", str(LOCAL_T), vertex, "--method", "both"]


def ball_pool() -> list[str]:
    """Centres for the CLI ball query, as vertex strings of B(2,16)."""
    rng = random.Random(BALL_POOL_SEED)
    return [format(rng.randrange(2 ** 16), "016b")
            for _ in range(BALL_POOL_SIZE)]


def run_cli(main: Callable, argv: list[str]) -> tuple[int, str]:
    """Run dbic's CLI in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def cli_digest(result: tuple[int, str]) -> tuple[int, str, int]:
    code, text = result
    data = text.encode("utf-8")
    return code, hashlib.sha256(data).hexdigest(), len(data)


def ids_of(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    reduce: Callable[[Any], Any] = lambda result: result
    # "query" tasks are the samples of the latency quantiles; "distance"
    # tasks give the distance latency of the traced run.
    kind: str = "query"


def _cli_task(dbic, argv, expected) -> Task:
    return Task(
        name="cli " + cli_argv_key(argv),
        run=lambda: run_cli(dbic.cli.main, argv),
        reduce=cli_digest,
        check=lambda got: list(got) == [expected["exit"], expected["sha256"],
                                        expected["bytes"]],
    )


def identify(dbic, rng, ref) -> list[Task]:
    tasks = []
    for d, n, t in IDENTIFY_CELLS:
        g = dbic.graph.DeBruijnGraph(d, n)
        want = ref["identify"][cell_key(d, n, t)]
        tasks.append(Task(
            name=f"is_identifiable B({d},{n}) t={t}",
            run=lambda g=g, t=t: dbic.codes.is_identifiable(g, t),
            reduce=lambda r: (r[0], None if r[1] is None else (r[1].x, r[1].y)),
            check=lambda got, want=want:
                got == (want[0], want[1] and tuple(want[1])),
        ))
    tasks.insert(1, _cli_task(dbic, IDENTIFY_CLI,
                              ref["cli"][cli_argv_key(IDENTIFY_CLI)]))
    return tasks


def eccentricity(dbic, rng, ref) -> list[Task]:
    tasks = []
    for d, n in ECC_GRAPHS:
        g = dbic.graph.DeBruijnGraph(d, n)
        want = ref["eccentricity"][cell_key(d, n)]
        tasks.append(Task(
            name=f"radius_diameter B({d},{n})",
            run=lambda g=g: dbic.metrics.radius_diameter(g),
            check=lambda got, want=want: list(got) == want,
        ))
    tasks.append(_cli_task(dbic, ECC_CLI, ref["cli"][cli_argv_key(ECC_CLI)]))
    return tasks


def _candidates(rng, code_ids: list[int], vertex_count: int) -> list[list[int]]:
    """A superset of a valid code (valid), the code minus one vertex and a
    random set of the same size (each valid or not, as the oracle finds)."""
    chosen = set(code_ids)
    others = [v for v in range(vertex_count) if v not in chosen]
    superset = sorted(code_ids + rng.sample(others, len(others) // 4))
    dropped = sorted(chosen - {rng.choice(code_ids)})
    scattered = sorted(rng.sample(range(vertex_count), len(code_ids)))
    return [superset, dropped, scattered]


def codesearch(dbic, rng, ref) -> list[Task]:
    codes, vertexset = dbic.codes, dbic.vertexset
    checkers: dict = {}

    def checker(d, n, t) -> oracle.CodeChecker:
        if (d, n, t) not in checkers:
            checkers[d, n, t] = oracle.CodeChecker(d, n, t)
        return checkers[d, n, t]

    tasks = []
    candidate_tasks = []
    for d, n, t, budget in CODE_INSTANCES:
        g = dbic.graph.DeBruijnGraph(d, n)
        want = ref["codesearch"][cell_key(d, n, t, budget)]

        def run(g=g, t=t, budget=budget):
            result = codes.min_code(g, t, node_budget=budget)
            return result, codes.verify_code(g, result.code, t)

        def check(got, d=d, n=n, t=t, budget=budget, want=want):
            size, optimal, valid, code = got
            if not (valid and checker(d, n, t).is_valid(ids_of(code))):
                return False
            if budget is None:
                return optimal and size == want["size"]
            return size <= want["size"]

        if (d, n, t, budget) != CODE_CLI_INSTANCE:
            tasks.append(Task(
                name=f"min_code B({d},{n}) t={t} budget={budget}",
                run=run,
                reduce=lambda r: (r[0].size, r[0].optimal, r[1].valid, r[0].code),
                check=check,
            ))
        for i, ids in enumerate(_candidates(rng, want["code"], g.vertex_count)):
            mask = vertexset.mask_of(ids)
            candidate_tasks.append(Task(
                name=f"verify_code B({d},{n}) t={t} candidate {i}",
                run=lambda g=g, t=t, mask=mask: codes.verify_code(g, mask, t),
                reduce=lambda report: report.valid,
                check=lambda got, d=d, n=n, t=t, ids=ids:
                    got == checker(d, n, t).is_valid(ids),
                kind="verify",
            ))
    for d, n, t in GREEDY_INSTANCES:
        g = dbic.graph.DeBruijnGraph(d, n)
        want = ref["codesearch"][cell_key("greedy", d, n, t)]
        tasks.append(Task(
            name=f"greedy_code B({d},{n}) t={t}",
            run=lambda g=g, t=t: codes.greedy_code(g, t),
            check=lambda code, d=d, n=n, t=t, want=want:
                code.bit_count() <= want["size"]
                and checker(d, n, t).is_valid(ids_of(code)),
        ))
    tasks.insert(1, _cli_task(dbic, CODE_CLI, ref["cli"][cli_argv_key(CODE_CLI)]))
    return tasks + candidate_tasks


def _shifted(x: int, k: int, fresh: int, d: int, n: int, left: bool) -> int:
    """x moved by k single shifts in one direction, the new symbols `fresh`."""
    if left:
        return x // d ** k + fresh * d ** (n - k)
    return x * d ** k % d ** n + fresh


def local(dbic, rng, ref) -> list[Task]:
    balls, metrics, strings = dbic.balls, dbic.metrics, dbic.strings
    t = LOCAL_T
    queries, pairs, eccs = [], [], []
    for spec in LOCAL_GRAPHS:
        d, n, k = spec["d"], spec["n"], spec["shift"]
        g = dbic.graph.DeBruijnGraph(d, n)
        count = g.vertex_count
        for v in (rng.randrange(count) for _ in range(spec["balls"])):
            queries.append(Task(
                name=f"ball B({d},{n}) {v}",
                run=lambda g=g, v=v, d=d, n=n: (
                    balls.ball_bfs(g, v, t),
                    balls.ball_closed_form(strings.decode(v, d, n), t)),
                reduce=lambda r: (r[0] == r[1], oracle.mask_digest(r[0])),
                check=lambda got, v=v, d=d, n=n: got[0] and got[1]
                    == oracle.ids_digest(oracle.ball(v, d, n, t)),
            ))
        for i in range(spec["pairs"]):
            x = rng.randrange(count)
            y = _shifted(x, k, rng.randrange(d ** k), d, n, left=i % 2 == 0)
            pairs.append(Task(
                name=f"distance B({d},{n}) {x} {y}",
                run=lambda g=g, x=x, y=y: metrics.distance(g, x, y),
                check=lambda got, x=x, y=y, d=d, n=n:
                    got == oracle.distance(x, y, d, n),
                kind="distance",
            ))
        for v in (rng.randrange(count) for _ in range(spec["ecc"])):
            eccs.append(Task(
                name=f"eccentricity B({d},{n}) {v}",
                run=lambda g=g, v=v: metrics.eccentricity(g, v),
                reduce=lambda r: (r.eccentricity, r.witness),
                check=lambda got, v=v, d=d, n=n:
                    got == oracle.eccentricity(v, d, n),
                kind="other",
            ))
    pool = ref["cli_ball_pool"]
    centre, expected = pool[rng.randrange(len(pool))]
    cli = _cli_task(dbic, ball_cli_argv(centre), expected)
    cli.kind = "other"
    return queries + pairs + eccs + [cli]


BUILDERS = {"identify": identify, "eccentricity": eccentricity,
            "codesearch": codesearch, "local": local}


def build(name: str, dbic, seed: int, ref: dict) -> list[Task]:
    """The task list of workload `name`; only `local` and the candidate
    codes of `codesearch` depend on the seed."""
    return BUILDERS[name](dbic, random.Random(seed), ref)
