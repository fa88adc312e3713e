"""The undirected de Bruijn graph B(d, n).

Vertices are the d^n words of length n over [d]; u and v are adjacent iff
one is a single shift of the other (they overlap in n-1 symbols).  Adjacency
is computed on demand from the shift algebra by `neighbor_ids`, which the
edge list and the DOT export also read; nothing is stored per vertex.
Self-loops (at the constant words a^n) are stripped from the neighbor
relation, since they never affect distances, balls, or identification, but
they are reported via has_loop() and drawn by the DOT export.

The package has two traversal kernels, the second in two forms.
`DeBruijnGraph.bfs_layers` is a layered breadth-first frontier from one
source, which single balls, distance arrays and the exact confirmation of
hashed twin labels run on.  It stops at depth n, the diameter; short of
that it holds the set of ids it reached, so a radius-t query costs
O(|B_t(x)|), not O(d^n).  `DeBruijnGraph.grow_rows` grows the
balls of all sources at once, one radius per round, as one int per vertex:
the OR of per-vertex start rows over each ball.  Started from each vertex's
own column it gives the whole-graph ball table (`balls.all_balls`), which
the constraint builder grows t more rounds for its pairs within 2t; exact
twin labels and the code search's cover index start it a stripe of columns
at a time, each column at a source vertex (`codes._column_stripes`).
`DeBruijnGraph.grow_words` is its other form: the same recurrence on rows
of one 64-bit word each, every row a lane of one `array('Q')`, so that a
round is a few bulk int and slice operations with no Python operation per
vertex.  Hashed twin labels run on it, a stripe of words at a time.
"""

from __future__ import annotations

from array import array
from functools import reduce
from operator import or_
from typing import Iterator

from .errors import InvalidParameters
from .strings import decode, max_length
from .vertexset import VertexSet, bits

DEFAULT_MAX_VERTICES = 1_000_000
# A round of `grow_rows` replaces the rows this many at a time, so the new
# ORs and the rows they replace overlap in one slice, not in N/d rows.
_ROUND_SLICE = 4096


class DeBruijnGraph:
    """Immutable handle on B(d, n); all queries are pure."""

    def __init__(self, d: int, n: int, max_vertices: int = DEFAULT_MAX_VERTICES):
        if d < 2:
            raise InvalidParameters("alphabet size must satisfy d >= 2", d=d, n=n)
        if n < 1:
            raise InvalidParameters("string length must satisfy n >= 1", d=d, n=n)
        if n > max_length(d):
            raise InvalidParameters(
                f"n exceeds the packed-word cap (max n={max_length(d)})", d=d, n=n
            )
        count = d ** n
        if count > max_vertices:
            raise InvalidParameters(
                f"d^n = {count} exceeds the vertex cap {max_vertices}", d=d, n=n
            )
        self.d = d
        self.n = n
        self.vertex_count = count
        self._suffix_base = d ** (n - 1)  # weight of the leading symbol

    def __repr__(self) -> str:
        return f"DeBruijnGraph(d={self.d}, n={self.n})"

    def params(self) -> dict:
        return {"d": self.d, "n": self.n}

    def vertex_string(self, v: int) -> str:
        return str(decode(v, self.d, self.n))

    # -- undirected adjacency --

    def neighbor_ids(self, v: int) -> list[int]:
        """Sorted distinct shifts x2..xn a and a x1..x(n-1) of v, except v."""
        self._check_vertex(v)
        right = v % self._suffix_base * self.d
        out = set(range(right, right + self.d))
        out.update(range(v // self.d, self.vertex_count, self._suffix_base))
        out.discard(v)
        return sorted(out)

    def bfs_layers(self, source: int,
                   radius: int | None = None) -> Iterator[list[int]]:
        """Breadth-first layers around source: [source], then the ids at
        distance 1, 2, ..., up to `radius` (all of them when None).

        Each layer lists its ids once, in discovery order.  Neighbours come
        straight from the shift algebra, (v mod d^(n-1))*d + a and
        v // d + a*d^(n-1); a record of reached ids drops repeats, the
        source's own loop included.  The diameter is n, so a radius of None
        or above n is n, and depth n is yielded but not expanded.  A
        traversal to depth n reaches every id, and one byte per id is smaller
        than a set of them; a shorter one keeps a set, costing O(|B_radius|).
        """
        if radius is not None and radius < 0:
            raise InvalidParameters("radius must be >= 0", t=radius)
        self._check_vertex(source)
        d, high, count = self.d, self._suffix_base, self.vertex_count
        radius = self.n if radius is None else min(radius, self.n)
        whole = radius == self.n
        if whole:
            marks = bytearray(count)
            marks[source] = 1
        else:
            seen = {source}
        layer = [source]
        depth = 0
        while layer:
            yield layer
            if depth == radius:
                return
            depth += 1
            nxt = []
            # One copy of the expansion per record type: a branch per
            # neighbour cost 10-40% of the traversal time.
            if whole:
                for v in layer:
                    right = v % high * d
                    for w in range(right, right + d):
                        if not marks[w]:
                            marks[w] = 1
                            nxt.append(w)
                    for w in range(v // d, count, high):
                        if not marks[w]:
                            marks[w] = 1
                            nxt.append(w)
            else:
                for v in layer:
                    right = v % high * d
                    for w in range(right, right + d):
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                    for w in range(v // d, count, high):
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
            layer = nxt

    def grow_rows(self, rows: list[int], radius: int) -> list[int]:
        """The radius recurrence on caller-given start rows, one int per
        vertex: `rows` with entry v the OR of the start rows of
        B_radius(v).

        One round is B_r(v) = B_{r-1}(v) | the B_{r-1} of v's neighbours,
        for every v at once in 4N big-int ORs whatever d is: the out-
        neighbours of v form the block of the d ids that start at
        (v mod d^(n-1))*d, and its in-neighbours the ids v // d + a*d^(n-1),
        so one OR over each block and one over each stride serve every
        vertex.  The diameter is n, so no round after the n-th changes a
        row and none is run.  The list is updated in place and returned.
        A round holds the rows, 2N/d ORs of them and one slice of
        `_ROUND_SLICE` entries, since the rows are replaced slice by slice.
        """
        if radius < 0:
            raise InvalidParameters("radius must be >= 0", t=radius)
        d, high, count = self.d, self._suffix_base, self.vertex_count
        if len(rows) != count:
            raise InvalidParameters("one start row per vertex is needed",
                                    rows=len(rows), d=d, n=self.n)
        for _ in range(min(radius, self.n)):
            right = rows[0::d]          # right[s]: OR of the block s*d + a
            left = rows[0:high]         # left[p]: OR of the stride p + a*high
            for a in range(1, d):
                right = list(map(or_, right, rows[a::d]))
                left = list(map(or_, left, rows[a * high:(a + 1) * high]))
            for s in range(0, high, _ROUND_SLICE):
                e = min(high, s + _ROUND_SLICE)
                for a in range(d):
                    block = slice(a * high + s, a * high + e)  # v mod high
                    stride = slice(a + s * d, a + e * d, d)    # v // d
                    rows[block] = map(or_, rows[block], right[s:e])
                    rows[stride] = map(or_, rows[stride], left[s:e])
        return rows

    def grow_words(self, rows: array, radius: int) -> array:
        """`grow_rows` on rows of one 64-bit word, the lanes of an
        `array('Q')`, updated in place and returned.  A round reads the
        buffer as one int x (lane v is bits 64v..64v+63), ORs the d strided
        slices rows[a::d] for the blocks and the d slices of d^(n-1) lanes
        for the strides, spreads the latter by d slice assignments and
        writes x back: no Python operation per vertex.  All of it is
        bitwise, so the byte order within a lane does not matter."""
        if radius < 0:
            raise InvalidParameters("radius must be >= 0", t=radius)
        d, high, count = self.d, self._suffix_base, self.vertex_count
        if len(rows) != count or rows.typecode != "Q":
            raise InvalidParameters("one 64-bit row per vertex is needed",
                                    rows=len(rows), d=d, n=self.n)
        block = 64 * high  # bits in d^(n-1) lanes
        spread = array("Q", bytes(8 * count))
        x = int.from_bytes(rows, "little")
        for _ in range(min(radius, self.n)):
            right = reduce(or_, (int.from_bytes(rows[a::d], "little")
                                 for a in range(d)))
            left = reduce(or_, (int.from_bytes(rows[a * high:(a + 1) * high],
                                               "little") for a in range(d)))
            left = array("Q", left.to_bytes(8 * high, "little"))
            for a in range(d):
                spread[a::d] = left
            x |= int.from_bytes(spread, "little")
            for a in range(d):
                x |= right << a * block
            memoryview(rows).cast("B")[:] = x.to_bytes(8 * count, "little")
        return rows

    def has_loop(self, v: int) -> bool:
        """True iff the directed construction yields a loop at v (v = a^n)."""
        self._check_vertex(v)
        # a^n encodes to a * (d^n - 1) / (d - 1)
        return v == (v % self.d) * (self.vertex_count - 1) // (self.d - 1)

    def loop_vertices(self) -> list[int]:
        repunit = (self.vertex_count - 1) // (self.d - 1)
        return [a * repunit for a in range(self.d)]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each undirected non-loop edge once, as (u, v) with u < v, in
        sorted order: the ids v > u of `neighbor_ids(u)`, for u ascending."""
        for u in range(self.vertex_count):
            for v in self.neighbor_ids(u):
                if v > u:
                    yield u, v

    def edge_count(self) -> int:
        """Number of undirected non-loop edges, in closed form.

        The d^(n+1) directed edges lose d loops; the only direction pairs
        that collapse are between the two-symbol alternating words (ababab..
        and babab..), one per unordered symbol pair, so
        count = d^(n+1) - d - d(d-1)/2.  Cross-checked against edges() in
        the tests.
        """
        return self.vertex_count * self.d - self.d - self.d * (self.d - 1) // 2

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise InvalidParameters(
                "vertex id outside [0, d^n)", id=v, d=self.d, n=self.n
            )


def export_dot(g: DeBruijnGraph, highlight: VertexSet = 0) -> str:
    """DOT text for B(d, n); highlighted vertices are drawn filled.

    Vertex stanzas appear in ascending id order, non-loop edges in the
    sorted order of `edges()`, then the self-loops, so output is
    deterministic.  Each vertex label is formatted once.
    """
    if highlight >> g.vertex_count:
        raise InvalidParameters(
            "highlight set contains ids outside the graph",
            d=g.d, n=g.n,
        )
    marked = set(bits(highlight))
    labels = [f'"{g.vertex_string(v)}"' for v in range(g.vertex_count)]
    lines = [f"graph debruijn_{g.d}_{g.n} {{", "  node [shape=circle];"]
    for v, label in enumerate(labels):
        if v in marked:
            lines.append(
                f"  {label} [style=filled, fillcolor=black, fontcolor=white];"
            )
        else:
            lines.append(f"  {label};")
    lines.extend(f"  {labels[u]} -- {labels[v]};" for u, v in g.edges())
    lines.extend(f"  {labels[v]} -- {labels[v]};" for v in g.loop_vertices())
    lines.append("}")
    return "\n".join(lines) + "\n"
