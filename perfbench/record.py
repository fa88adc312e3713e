"""Write reference.json: the answers the benchmark checks against.

Run from the repository root on the commit whose answers are the
reference:

    python3 perfbench/record.py

It imports dbic from src/ and records, for every grid task of
workloads.py, the answer and the code found, and for every CLI command
(including each centre of the CLI ball pool) the exit code and the SHA-256
and length of its stdout.  The seeded ball, distance and eccentricity
queries of the local workload are checked against oracle.py instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dbic  # noqa: E402
import dbic.cli  # noqa: E402

import workloads as w  # noqa: E402


def _cli(argv: list[str], with_stdout: bool) -> dict:
    exit_code, text = w.run_cli(dbic.cli.main, argv)
    _, sha, length = w.cli_digest((exit_code, text))
    out = {"exit": exit_code, "sha256": sha, "bytes": length}
    if with_stdout:
        out["stdout"] = text
    return out


def _code(code: int, **extra) -> dict:
    return {"size": code.bit_count(), "code": w.ids_of(code), **extra}


def record() -> dict:
    ref = {"identify": {}, "eccentricity": {}, "codesearch": {}, "cli": {},
           "cli_ball_pool": []}
    for d, n, t in w.IDENTIFY_CELLS:
        ok, twin = dbic.is_identifiable(dbic.DeBruijnGraph(d, n), t)
        ref["identify"][w.cell_key(d, n, t)] = [
            ok, None if twin is None else [twin.x, twin.y]]
    for d, n in w.ECC_GRAPHS:
        ref["eccentricity"][w.cell_key(d, n)] = list(
            dbic.radius_diameter(dbic.DeBruijnGraph(d, n)))
    for d, n, t, budget in w.CODE_INSTANCES:
        result = dbic.min_code(dbic.DeBruijnGraph(d, n), t, node_budget=budget)
        ref["codesearch"][w.cell_key(d, n, t, budget)] = _code(
            result.code, optimal=result.optimal, nodes=result.nodes)
    for d, n, t in w.GREEDY_INSTANCES:
        ref["codesearch"][w.cell_key("greedy", d, n, t)] = _code(
            dbic.greedy_code(dbic.DeBruijnGraph(d, n), t))
    for argv in (w.IDENTIFY_CLI, w.ECC_CLI, w.CODE_CLI):
        ref["cli"][w.cli_argv_key(argv)] = _cli(argv, with_stdout=True)
    for centre in w.ball_pool():
        ref["cli_ball_pool"].append(
            [centre, _cli(w.ball_cli_argv(centre), with_stdout=False)])
    return ref


def main() -> None:
    path = HERE / "reference.json"
    path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
