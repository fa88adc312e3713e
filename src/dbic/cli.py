"""Command-line front end.

Outputs are JSON on stdout (CSV for sweeps); --pretty switches to indented
JSON for humans.  Every command is deterministic given its flags; elapsed
times appear only in the sweep's designated column.

Exit codes: 0 success / identifiable / valid; 1 not identifiable, invalid
code, or no code exists; 2 invalid parameters, a file that cannot be opened,
written or closed, or an instance too big for memory; 3 closed form not
applicable; 4 search budget exhausted (incumbent still printed).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
import time

from . import codes, metrics
from .balls import ball_bfs, ball_closed_form
from .errors import (CodeVertexOutOfRange, InfeasibleNoCode, InvalidParameters,
                     NotApplicable, VertexParseError)
from .graph import DEFAULT_MAX_VERTICES, DeBruijnGraph, export_dot
from .schemas import SWEEP_CSV_HEADER
from .strings import DBString, encode
from .vertexset import mask_of, to_ids

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_PARAMS = 2
EXIT_NOT_APPLICABLE = 3
EXIT_BUDGET = 4

ENV_MAX_VERTICES = "DBIC_MAX_VERTICES"


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None, sort_keys=True))


def _max_vertices(args) -> int:
    if args.max_vertices is not None:
        cap, source = args.max_vertices, "--max-vertices"
    else:
        env = os.environ.get(ENV_MAX_VERTICES)
        if env is None:
            return DEFAULT_MAX_VERTICES
        try:
            cap, source = int(env), ENV_MAX_VERTICES
        except ValueError:
            raise InvalidParameters(
                f"{ENV_MAX_VERTICES} must be an integer", value=env
            )
    if cap < 1:
        raise InvalidParameters(f"{source} must be >= 1", value=cap)
    return cap


def _check_budget(args) -> None:
    if args.budget is not None and args.budget < 0:
        raise InvalidParameters("--budget must be >= 0", value=args.budget)


def _read_code_file(path: str) -> dict:
    """The JSON object in a --verify file, checked to carry a "code" list
    of vertex strings."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InvalidParameters(f"code file {path!r} is not JSON: {exc}")
    if not isinstance(payload, dict):
        raise InvalidParameters(f"code file {path!r} must hold a JSON object")
    code = payload.get("code")
    if not isinstance(code, list) or not all(isinstance(s, str) for s in code):
        raise InvalidParameters(
            f"code file {path!r} needs a \"code\" list of vertex strings"
        )
    return payload


@contextlib.contextmanager
def _output_file(path: str, newline: str | None = None):
    """`path` opened for writing; a failed write or close names it, as a
    failed open does."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        exc.filename = path
        raise


def _graph(args) -> DeBruijnGraph:
    return DeBruijnGraph(args.d, args.n, max_vertices=_max_vertices(args))


def _parse_word(text: str, g: DeBruijnGraph) -> DBString:
    x = DBString.parse(text, g.d)
    if x.n != g.n:
        raise InvalidParameters(
            f"vertex {text!r} has length {x.n}, expected n={g.n}", d=g.d, n=g.n
        )
    return x


def _int_list(spec: str) -> list[int]:
    """Parse "3", "2..5", or comma-separated combinations thereof."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        try:
            if ".." in part:
                lo_text, hi_text = part.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
            else:
                lo = hi = int(part)
        except ValueError:
            raise InvalidParameters(f"cannot parse range entry {part!r}")
        if hi < lo:
            raise InvalidParameters(f"empty range {part!r}")
        out.extend(range(lo, hi + 1))
    return out


# -- commands --

def cmd_graph(args) -> int:
    g = _graph(args)
    highlight = 0
    if args.highlight:
        highlight = mask_of(encode(_parse_word(s, g))
                            for s in args.highlight.split(","))
    stats = {
        "d": g.d,
        "n": g.n,
        "vertices": g.vertex_count,
        "edges": g.edge_count(),
        "loops": len(g.loop_vertices()),
    }
    if args.dot:
        with _output_file(args.dot) as fh:
            fh.write(export_dot(g, highlight))
        stats["dot"] = args.dot
    _emit(stats, args.pretty)
    return EXIT_OK


def cmd_ball(args) -> int:
    g = _graph(args)
    x = _parse_word(args.x, g)
    v = encode(x)
    bfs_mask = ball_bfs(g, v, args.t) if args.method != "closed" else None
    closed_mask = ball_closed_form(x, args.t) if args.method != "bfs" else None
    if args.method == "both" and bfs_mask != closed_mask:
        _emit({
            "error": "method_mismatch",
            "only_bfs": [g.vertex_string(u) for u in to_ids(bfs_mask & ~closed_mask)],
            "only_closed": [g.vertex_string(u) for u in to_ids(closed_mask & ~bfs_mask)],
        }, args.pretty)
        return EXIT_FAIL
    mask = closed_mask if args.method == "closed" else bfs_mask
    _emit({
        "d": g.d, "n": g.n, "t": args.t, "x": args.x, "method": args.method,
        "size": mask.bit_count(),
        "ball": [g.vertex_string(u) for u in to_ids(mask)],
    }, args.pretty)
    return EXIT_OK


def cmd_check(args) -> int:
    g = _graph(args)
    ok, twin = codes.is_identifiable(g, args.t)
    _emit({
        "d": g.d, "n": g.n, "t": args.t, "identifiable": ok,
        "twin": None if ok else {"x": g.vertex_string(twin.x),
                                 "y": g.vertex_string(twin.y)},
    }, args.pretty)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_code(args) -> int:
    g = _graph(args)
    _check_budget(args)
    if args.budget is not None and (args.greedy or args.verify):
        raise InvalidParameters("--budget applies only to the exact search",
                                mode="greedy" if args.greedy else "verify")
    if args.verify:
        payload = _read_code_file(args.verify)
        for key, expected in (("d", g.d), ("n", g.n), ("t", args.t)):
            if key in payload and payload[key] != expected:
                raise InvalidParameters(
                    f"code file {key}={payload[key]} does not match "
                    f"requested {key}={expected}"
                )
        code = mask_of(encode(_parse_word(s, g)) for s in payload["code"])
        report = codes.verify_code(g, code, args.t)
        out = report.to_json(g)
        out.update({"d": g.d, "n": g.n, "t": args.t,
                    "code": codes.code_strings(g, code)})
        _emit(out, args.pretty)
        return EXIT_OK if report.valid else EXIT_FAIL

    try:
        if args.greedy:
            code = codes.greedy_code(g, args.t)
            _emit({
                "d": g.d, "n": g.n, "t": args.t, "method": "greedy",
                "code": codes.code_strings(g, code), "size": code.bit_count(),
            }, args.pretty)
            return EXIT_OK
        result = codes.min_code(g, args.t, node_budget=args.budget)
        _emit({
            "d": g.d, "n": g.n, "t": args.t, "method": "exact",
            "code": codes.code_strings(g, result.code), "size": result.size,
            "optimal": result.optimal, "nodes": result.nodes,
        }, args.pretty)
        return EXIT_OK if result.optimal else EXIT_BUDGET
    except InfeasibleNoCode as exc:
        _emit({
            "error": "infeasible_no_code",
            "d": g.d, "n": g.n, "t": args.t,
            "twins": [[g.vertex_string(p.x), g.vertex_string(p.y)]
                      for p in exc.twins[:10]],
            "twin_count": exc.total,
        }, args.pretty)
        return EXIT_FAIL


def cmd_ecc(args) -> int:
    g = _graph(args)
    if args.csv:
        table = metrics.eccentricity_table(g)
        with _output_file(args.csv, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d", "n", "vertex", "eccentricity", "witness"])
            for rep in table:
                writer.writerow([g.d, g.n, g.vertex_string(rep.vertex),
                                 rep.eccentricity, g.vertex_string(rep.witness)])
    if args.vertex is not None:
        rep = metrics.eccentricity(g, encode(_parse_word(args.vertex, g)))
        _emit({
            "d": g.d, "n": g.n, "vertex": args.vertex,
            "eccentricity": rep.eccentricity,
            "witness": g.vertex_string(rep.witness),
        }, args.pretty)
    else:
        # A table written above already holds every eccentricity.
        eccs = ([rep.eccentricity for rep in table] if args.csv
                else metrics.radius_diameter(g))
        _emit({"d": g.d, "n": g.n, "radius": min(eccs),
               "diameter": max(eccs)}, args.pretty)
    return EXIT_OK


def _sweep_row(d: int, n: int, t: int, max_vertices: int,
               exact_below: int, budget: int | None) -> list[str]:
    started = time.perf_counter()
    row = {key: "" for key in SWEEP_CSV_HEADER}
    row.update({"d": d, "n": n, "t": t})
    try:
        g = DeBruijnGraph(d, n, max_vertices=max_vertices)
        ok, twin = codes.is_identifiable(g, t)
        row["identifiable"] = "true" if ok else "false"
        if not ok:
            row["twin_x"] = g.vertex_string(twin.x)
            row["twin_y"] = g.vertex_string(twin.y)
        elif g.vertex_count <= exact_below:
            result = codes.min_code(g, t, node_budget=budget)
            row["min_code_size"] = result.size
            row["optimal"] = "true" if result.optimal else "false"
    except Exception as exc:  # record per-cell errors, never abort the sweep
        row["identifiable"] = f"error:{type(exc).__name__}"
    row["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    return [str(row[key]) for key in SWEEP_CSV_HEADER]


def cmd_sweep(args) -> int:
    ds = _int_list(args.d)
    ns = _int_list(args.n)
    fixed_ts = None if args.t == "auto" else _int_list(args.t)
    max_vertices = _max_vertices(args)
    _check_budget(args)
    with (_output_file(args.out, newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as out_fh:
        writer = csv.writer(out_fh)
        writer.writerow(SWEEP_CSV_HEADER)
        cells = 0
        for d in ds:
            for n in ns:
                ts = list(range(1, n)) if fixed_ts is None else fixed_ts
                for t in ts:
                    writer.writerow(_sweep_row(d, n, t, max_vertices,
                                               args.exact_below, args.budget))
                    out_fh.flush()
                    cells += 1
    if args.out:
        _emit({"cells": cells, "out": args.out}, args.pretty)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: parsing leaves no state in it, and the
    vertex cap's environment default is read when a command runs.  A new
    parser per `main` call would leave its objects to the cycle collector."""
    parser = argparse.ArgumentParser(
        prog="dbic",
        description="Identifying codes, balls, and eccentricity on "
                    "undirected de Bruijn graphs B(d, n).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--pretty", action="store_true",
                       help="indented human-readable JSON")
        p.add_argument("--max-vertices", type=int, default=None,
                       help=f"vertex cap (default {DEFAULT_MAX_VERTICES}, "
                            f"env {ENV_MAX_VERTICES})")

    p = sub.add_parser("graph", help="graph stats and DOT export")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--dot", metavar="FILE", help="write DOT text here")
    p.add_argument("--highlight", metavar="VERTICES",
                   help="comma-separated vertices to fill in the DOT output")
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("ball", help="distance-t ball of a vertex")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("x", help="center vertex")
    p.add_argument("--method", choices=["bfs", "closed", "both"],
                   default="bfs")
    common(p)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("check", help="decide t-identifiability")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("code", help="find or verify an identifying code")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="branch-and-bound minimum code (default)")
    mode.add_argument("--greedy", action="store_true",
                      help="greedy upper-bound code")
    mode.add_argument("--verify", metavar="FILE",
                      help="verify the code in this JSON file")
    p.add_argument("--budget", type=int, default=None,
                   help="node budget for the exact search")
    common(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("ecc", help="eccentricity / radius / diameter")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--vertex", metavar="X",
                       help="report this vertex only")
    which.add_argument("--all", action="store_true",
                       help="radius/diameter summary (default)")
    p.add_argument("--csv", metavar="FILE",
                   help="write per-vertex rows (d,n,vertex,eccentricity,witness)")
    common(p)
    p.set_defaults(func=cmd_ecc)

    p = sub.add_parser("sweep", help="identifiability sweep over a grid")
    p.add_argument("--d", required=True, help='e.g. "3" or "2..4"')
    p.add_argument("--n", required=True, help='e.g. "2..5"')
    p.add_argument("--t", required=True,
                   help='range list, or "auto" for 1..n-1')
    p.add_argument("--exact-below", type=int, default=codes.DEFAULT_EXACT_CAP,
                   help="compute exact minimum codes for cells with at most "
                        "this many vertices")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", metavar="FILE", help="CSV destination")
    common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameters, VertexParseError, CodeVertexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except (OSError, MemoryError) as exc:
        # A file that cannot be opened, written or closed, or an instance
        # too big for memory; str(MemoryError()) is empty.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except NotApplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE


if __name__ == "__main__":
    raise SystemExit(main())
