"""Exception types shared across the package."""

from __future__ import annotations


class DbicError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameters(DbicError, ValueError):
    """A graph, string, or query parameter violates its constraints."""

    def __init__(self, reason: str, **params):
        self.params = params
        detail = ", ".join(f"{k}={v}" for k, v in params.items())
        super().__init__(f"{reason}" + (f" ({detail})" if detail else ""))


class VertexParseError(DbicError, ValueError):
    """A vertex literal could not be parsed; `position` is 1-based."""

    def __init__(self, text: str, position: int, reason: str):
        self.text = text
        self.position = position
        super().__init__(f"cannot parse {text!r} at position {position}: {reason}")


class NotApplicable(DbicError):
    """The closed-form ball characterization is outside its validity domain."""


class CodeVertexOutOfRange(DbicError, ValueError):
    """A candidate code refers to a vertex id outside [0, d^n)."""

    def __init__(self, vertex: int, vertex_count: int):
        self.vertex = vertex
        self.vertex_count = vertex_count
        super().__init__(
            f"code contains vertex id {vertex}, valid ids are 0..{vertex_count - 1}"
        )


class InfeasibleNoCode(DbicError):
    """No identifying code exists: the graph contains twin vertices.

    `twins` holds the first pairs in sorted order, perhaps not all of them;
    `total` counts every pair."""

    def __init__(self, twins, total: int):
        self.twins = list(twins)
        self.total = total
        first = self.twins[0] if self.twins else None
        super().__init__(
            f"graph is not identifiable: {self.total} twin pair(s), first {first}"
        )
