"""Spans and counters around dbic's public functions, installed from outside.

Each traced function is replaced, at every module or class attribute that
refers to it, by a wrapper that times the call.  Coarse entry points
(``SPANS``) also record a span: name, start, end and the index of the
enclosing span.  Hot leaves (``LEAVES``) record only a call count and time,
because a span per call would cost more than the call.  Every wrapper keeps
the time its wrapped children took, so a function's self time is its
duration minus its children's, and a module's self time is the sum over its
functions.  Time spent outside every wrapped function (the benchmark's own
loop) belongs to no module.
"""

from __future__ import annotations

import functools
import sys
import time

SPANS = {
    "balls": ["ball_bfs", "ball_closed_form", "all_balls"],
    "metrics": ["bfs_distances", "distance", "eccentricity", "radius_diameter"],
    "codes": ["find_twins", "is_identifiable", "build_constraints",
              "greedy_code", "min_code", "verify_code"],
    "cli": ["main"],
}
LEAVES = {
    "graph": ["DeBruijnGraph.neighbor_ids"],
    "balls": ["Pattern.expand"],
    "strings": ["decode", "encode", "DBString.__post_init__"],
}
MODULES = ["strings", "graph", "balls", "metrics", "codes", "cli"]


class Stat:
    """Calls, inclusive seconds and self seconds of one traced function."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # Each frame is [seconds spent in wrapped children, span index].
        self.stack = [[0.0, -1]]
        self.spans: list = []
        self.stats: dict[str, Stat] = {}
        self.module_of: dict[str, str] = {}

    def reset(self):
        """Start a new pass: zero every counter and drop recorded spans."""
        for stat in self.stats.values():
            stat.reset()
        self.spans.clear()

    def _stat(self, module: str, name: str) -> Stat:
        self.module_of[name] = module
        return self.stats.setdefault(name, Stat())

    def _span(self, module, name, fn, observe):
        stack, spans, clock = self.stack, self.spans, self.clock
        stat = self._stat(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                spans[index] = (name, start, end, parent[1])
            if observe is not None:
                observe(args, kwargs, result, parent[1] == -1)
            return result
        return wrapper

    def _leaf(self, module, name, fn):
        stack, clock = self.stack, self.clock
        stat = self._stat(module, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
        return wrapper

    def install(self, package: str, observers: dict | None = None) -> None:
        """Wrap every function in SPANS and LEAVES of the loaded package.

        A function is replaced wherever a loaded module of the package
        holds it under any name, so calls made through ``from .x import
        f`` bindings are traced too.  ``observers`` maps a span name to a
        callback ``(args, kwargs, result, top)`` run after each successful
        call; ``top`` is true when no traced span encloses the call.
        """
        observers = observers or {}
        loaded = [m for key, m in sys.modules.items()
                  if key == package or key.startswith(package + ".")]
        for kind, table in (("span", SPANS), ("leaf", LEAVES)):
            for module_name, attrs in table.items():
                module = sys.modules[f"{package}.{module_name}"]
                for attr in attrs:
                    name = f"{module_name}.{attr.split('.')[-1]}"
                    owner_name, _, leaf_name = attr.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    original = getattr(owner, leaf_name)
                    if kind == "span":
                        wrapped = self._span(module_name, name, original,
                                             observers.get(name))
                    else:
                        wrapped = self._leaf(module_name, name, original)
                    if owner_name:
                        setattr(owner, leaf_name, wrapped)
                        continue
                    for m in loaded:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, key, wrapped)

    def module_self_seconds(self) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, stat in self.stats.items():
            out[self.module_of[name]] += stat.self_time
        return out

    def exact_counts(self) -> dict[str, int]:
        return {f"{name}.calls": stat.calls
                for name, stat in sorted(self.stats.items())}

    def span_records(self) -> list:
        """Spans of the current pass as [name, start_us, end_us, parent]."""
        return [[name, round((start - self.origin) * 1e6),
                 round((end - self.origin) * 1e6), parent]
                for name, start, end, parent in self.spans]
