"""Distance-t balls, two ways, plus the t-prefix counting machinery.

`ball_bfs` is the ground truth: the first t+1 layers of the graph's
breadth-first kernel (`DeBruijnGraph.bfs_layers`), packed into a bitset.
`ball_closed_form` rebuilds the same set from wildcard patterns, using the
structure of shortest paths in B(d, n): every shortest path can be arranged
as at most three runs of same-direction shifts, forward-backward-forward
(FBF) or backward-forward-backward (BFB), where "forward" prepends a free
symbol (toward directed in-neighbors) and "backward" appends one.  A run
triple with middle run b and outer runs f, g reaches exactly the pattern

    FBF (f, b, g):  [d]^g + x_{b-f+1} ... x_{n-f} + [d]^{b-g}
    BFB (b, f, c):  [d]^{f-c} + x_{b+1} ... x_{n-f+b} + [d]^c

provided the middle run is at least as long as each outer run.  Note the
dominance is non-strict: run triples with equal middle and outer lengths
(e.g. one backward then one forward shift, which rewrites the first symbol)
reach vertices that no strictly-dominant triple covers, so they must be
enumerated too or the union comes up short of the true ball.

The triples come from one generator, `_run_triples`.  A triple's shape
(prefix wildcards, middle slice of x, suffix wildcards) depends only on
(n, t), so one cache, `_shapes`, holds per (d, n, t) the positions of each
shape that no other contains and the integer steps derived from them: a
pattern is d^a runs of d^b consecutive ids, placed from encode(x) by
integer arithmetic.  The runs still overlap, and `ball_closed_form` builds
one mask from all of them at the end.  `_ball_contains` tests one id
against the same shapes, for the radius certificates in metrics, and
`_outside` walks their positions to the least word outside B_t(x), with no
graph: one vertex's eccentricity and its witness, past any vertex cap.

`all_balls` holds one d^n-bit ball per vertex, so it grows quadratically
in the vertex count; only the hitting-set constraint builder, which needs
every ball as a bitset anyway, uses it.  It runs the graph's all-sources
kernel (`DeBruijnGraph.grow_rows`) from each vertex's own column.  Twin
detection, code verification and the cover index run it a stripe of
columns at a time from source vertices, and twin detection also runs its
one-word form on hashed columns (see codes).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain
from operator import or_
from typing import Iterator, Sequence

from .errors import InvalidParameters, NotApplicable
from .graph import DeBruijnGraph
from .strings import DBString, decode, encode
from .vertexset import VertexSet, bits, mask_of

FBF = "FBF"
BFB = "BFB"


# No package code builds a Pattern; it stays for the tracer's `Pattern.expand`.
@dataclass(frozen=True)
class Pattern:
    """The vertex set [d]^a + mid + [d]^b, with a + |mid| + b = n."""

    d: int
    prefix_wildcards: int
    mid: DBString
    suffix_wildcards: int

    def __post_init__(self):
        if self.mid.d != self.d:
            raise InvalidParameters("pattern middle uses a different alphabet",
                                    d=self.d, mid_d=self.mid.d)
        if self.prefix_wildcards < 0 or self.suffix_wildcards < 0:
            raise InvalidParameters("wildcard counts must be >= 0")

    @property
    def n(self) -> int:
        return self.prefix_wildcards + self.mid.n + self.suffix_wildcards

    @property
    def count(self) -> int:
        """Number of strings denoted: d^(a+b)."""
        return self.d ** (self.prefix_wildcards + self.suffix_wildcards)

    def expand(self) -> VertexSet:
        """Bitmask of all vertex ids matching the pattern."""
        d = self.d
        mid_val = encode(self.mid)
        suffix_count = d ** self.suffix_wildcards
        prefix_count = d ** self.prefix_wildcards
        block_base = mid_val * suffix_count
        stride = d ** (self.mid.n + self.suffix_wildcards)
        # One contiguous run of suffix_count bits per prefix choice.
        run = (1 << suffix_count) - 1
        mask = 0
        for hi in range(prefix_count):
            mask |= run << (hi * stride + block_base)
        return mask

    def __str__(self) -> str:
        if self.d <= 10:
            return ("*" * self.prefix_wildcards + str(self.mid)
                    + "*" * self.suffix_wildcards)
        parts = (["*"] * self.prefix_wildcards
                 + [str(x) for x in self.mid.digits]
                 + ["*"] * self.suffix_wildcards)
        return "[" + ",".join(parts) + "]"


def _run_triples(t: int) -> Iterator[tuple[str, tuple[int, int, int]]]:
    """Each three-run walk of at most t shifts as (kind, (first, middle,
    last)): all FBF triples, then all BFB, each block lexicographic, with
    the middle run >= 1 and at least as long as each outer run."""
    for kind in (FBF, BFB):
        for first in range(t + 1):
            for middle in range(max(first, 1), t - first + 1):
                for last in range(min(middle, t - first - middle) + 1):
                    yield kind, (first, middle, last)


def _shape(kind: str, runs: tuple[int, int, int],
           n: int) -> tuple[int, int, int, int]:
    """The run-triple algebra: the walk's pattern over a length-n word x as
    (prefix wildcards, start, end, suffix wildcards), its middle being
    x.digits[start:end]."""
    first, middle, last = runs
    if middle > n:
        raise NotApplicable(
            f"{kind} runs {runs} leave no middle segment for n={n}")
    if kind == FBF:
        return last, middle - first, n - first, middle - last
    return middle - last, first, n - middle + first, last


@cache
def _shapes(d: int, n: int, t: int) -> tuple[tuple[tuple, tuple], ...]:
    """Each pattern of radius t on B(d, n) that no other contains, as its
    positions (a, start, end, b), the word's positions [a, n-b) fixed to
    x[start:end], and the integer steps derived from them, (divisor,
    modulus, run, stride): around a centre id v its ids are d^a runs of
    `run` consecutive ids, `stride` apart, the first starting at
    v // divisor % modulus * run.  Of two shapes at one offset start - a,
    the one with no fewer leading wildcards and no later end fixes fewer
    symbols of x, so it contains the other; taken widest first, a shape is
    kept iff it ends before every one kept at its offset."""
    shapes = {_shape(kind, runs, n) for kind, runs in _run_triples(t)}
    least_end: dict[int, int] = {}  # offset -> least end kept there
    out = []
    for a, start, end, b in sorted(shapes, key=lambda s: (-s[0], s[2])):
        if end < least_end.get(start - a, n + 1):
            least_end[start - a] = end
            out.append(((a, start, end, b), (d ** (n - end),
                        d ** (end - start), d ** b, d ** (n - a))))
    return tuple(out)


def _ball_contains(d: int, n: int, t: int, v: int, w: int) -> bool:
    """Whether id w lies in B_t(v) on B(d, n), with no graph: w = v, or for
    some cached shape the symbols w has where the pattern is fixed,
    w // run % modulus, are the pattern's middle, v // divisor % modulus.
    This is the placement of `ball_closed_form`, read backwards."""
    return w == v or any(w // run % modulus == v // divisor % modulus
                         for _, (divisor, modulus, run, _) in _shapes(d, n, t))


def _outside(d: int, n: int, t: int, x: Sequence[int]) -> int | None:
    """The least id w outside B_t(x) on B(d, n), x given as digits, or None,
    with no graph: a walk that sets w's symbols most significant first, each
    in ascending order.  Its state is a bitmask of the cached shapes that
    the symbols so far still match; a symbol at position i keeps the shapes
    that leave i free or fix it to that symbol.  A symbol that leaves some
    shape of the state with no fixed position after it is skipped, since
    every word below it lies in that pattern, so the first leaf reached is
    the answer.  A failed (position, state) fails wherever it recurs, so it
    is recorded, except along x's own prefix, where x is no answer."""
    if t >= n:
        return None  # the diameter is n
    shapes = _shapes(d, n, t)
    fixes = [[0] * d for _ in range(n)]  # [i][s]: shapes fixing i to s
    done = [0] * (n + 1)  # [i]: shapes that fix no position from i on
    for j, ((a, start, end, b), _) in enumerate(shapes):
        done[n - b] |= 1 << j
        for i in range(a, n - b):
            fixes[i][x[start + i - a]] |= 1 << j
    for i in range(n):
        done[i + 1] |= done[i]
    full = (1 << len(shapes)) - 1
    steps = []  # [i][s]: shapes that leave position i free or fix it to s
    for row in fixes:
        free = full ^ reduce(or_, row)
        steps.append([free | mask for mask in row])
    failed = [set() for _ in range(n)]

    def walk(i: int, live: int, value: int, own: bool) -> int | None:
        if i == n:
            return None if own else value
        if live in failed[i]:
            return None
        for s, step in enumerate(steps[i]):
            kept = live & step
            if not kept & done[i + 1]:
                w = walk(i + 1, kept, value * d + s, own and s == x[i])
                if w is not None:
                    return w
        if not own:
            failed[i].add(live)
        return None

    try:
        return walk(0, full, 0, True)
    finally:
        del walk  # it refers to itself: a reference cycle per call


def ball_bfs(g: DeBruijnGraph, x: int, t: int) -> VertexSet:
    """B_t(x) as a bitset, from the first t+1 layers of the traversal
    kernel; includes x itself."""
    return mask_of(chain.from_iterable(g.bfs_layers(x, t)))


def ball_closed_form(x: DBString, t: int) -> VertexSet:
    """B_t(x) as {x} union all pattern expansions; must equal ball_bfs.

    Every id run of every cached shape goes into one little-endian byte
    buffer, partial bytes by OR and whole bytes by slice assignment."""
    if t < 0:
        raise InvalidParameters("radius must be >= 0", t=t)
    v, top = encode(x), x.d ** x.n
    buf = bytearray((top + 7) >> 3)
    buf[v >> 3] |= 1 << (v & 7)
    for _, (divisor, modulus, run, stride) in _shapes(x.d, x.n, t):
        start = v // divisor % modulus * run
        for first in range(start, top, stride):
            end = first + run
            lo, hi = first >> 3, end >> 3
            if lo == hi:
                buf[lo] |= (1 << (end & 7)) - (1 << (first & 7))
                continue
            buf[lo] |= 0x100 - (1 << (first & 7))
            buf[lo + 1:hi] = b"\xff" * (hi - lo - 1)
            if end & 7:
                buf[hi] |= (1 << (end & 7)) - 1
    return int.from_bytes(buf, "little")


def all_balls(g: DeBruijnGraph, t: int) -> list[VertexSet]:
    """B_t(v) for every vertex v, indexed by id, on the all-sources kernel."""
    return g.grow_rows([1 << v for v in range(g.vertex_count)], t)


@dataclass(frozen=True)
class PrefixBoundBreakdown:
    """The paper's case-by-case count of t-prefixes outside the forward set.

    `center` counts the string's own prefix (always 1); `right_shifted`
    counts prefix shapes produced by backward-dominant (FBF) walks, whose
    last fixed letter sits at positions t+1..2t of x; `left_shifted` counts
    shapes from forward-dominant (BFB) walks, anchored at positions < t.

    This reproduces the paper's algebra and is NOT an upper bound on
    |prefix_set(x, t)|: it credits the centre shape with one prefix and
    misses the balanced BFB walk (a, a, 0), a = floor(t/2), which reaches
    [d]^a + x_(a+1) ... x_n.  For t >= 2 real vertices exceed it (x = 0122
    in B(3, 4) has 8 prefixes against 6); see `prefix_bound_corrected`.
    """

    d: int
    t: int
    center: int
    right_shifted: int
    left_shifted: int
    total: int

    def __post_init__(self):
        if self.center + self.right_shifted + self.left_shifted != self.total:
            raise InvalidParameters("breakdown does not sum to total")


def prefix_bound(d: int, t: int) -> PrefixBoundBreakdown:
    """The paper's case-by-case prefix count and its closed-form total.

    total = 1 - d^floor(t/2) + 2 * sum_{j=0}^{t-1} d^j, split by the last
    anchored letter of the prefix shape, with separate odd/even subformulas.
    All arithmetic is exact integer.  The count misses the balanced
    offset-0 shape, so it falls d^floor(t/2) - 1 short of the true bound
    and is exceeded at every t >= 2 checked; use `prefix_bound_corrected`
    for a bound that holds.
    """
    if d < 2:
        raise InvalidParameters("alphabet size must satisfy d >= 2", d=d)
    if t < 1:
        raise InvalidParameters("radius must be >= 1", t=t)
    if t % 2:
        right = d ** ((t - 1) // 2) + 2 * sum(d ** j for j in range((t - 1) // 2))
        left = 2 * sum(d ** j for j in range((t + 1) // 2, t))
    else:
        right = 2 * sum(d ** j for j in range(t // 2))
        left = d ** (t // 2) + 2 * sum(d ** j for j in range(t // 2 + 1, t))
    total = 1 - d ** (t // 2) + 2 * sum(d ** j for j in range(t))
    return PrefixBoundBreakdown(d=d, t=t, center=1, right_shifted=right,
                                left_shifted=left, total=total)


def prefix_margin(d: int, t: int) -> int:
    """d^t + d^floor(t/2) - 2 * sum_{j=0}^{t-1} d^j, exactly.

    This is d^t minus (prefix_bound total - 1), the paper's count of the d^t
    possible t-prefixes that do not occur in B_t(x) outside the forward
    set, once the center prefix is discounted; it goes negative for d = 2
    at t = 4.  Because `prefix_bound` undercounts, the margin is not a
    guarantee; the figure that holds is d^t - (prefix_bound_corrected(d, t)
    - 1), which is d^floor(t/2) - 1 smaller.
    """
    if d < 2:
        raise InvalidParameters("alphabet size must satisfy d >= 2", d=d)
    if t < 1:
        raise InvalidParameters("radius must be >= 1", t=t)
    return d ** t + d ** (t // 2) - 2 * sum(d ** j for j in range(t))


def prefix_bound_corrected(d: int, t: int) -> int:
    """Upper bound on |prefix_set(x, t)|: 2 * sum_{j=0}^{t-1} d^j, exactly.

    For n >= 2t, as prefix_set requires, every vertex of B_t(x) outside the
    forward set is x itself or lies in a run-triple pattern, whose t-prefix shape is [d]^a + x_(k+a+1) ...
    x_(k+t) for an offset k = (start of the fixed letters in x) - a.  Of two
    shapes at one offset the wider contains the narrower, so each offset
    contributes d^a for its widest a.  Offsets run from -(t-1) (forward run
    of t-1 shifts; the full forward run of t shifts is the subtracted set)
    to t (backward run of t shifts), and the widest shape at offset k has
    a = floor((t-k)/2) leading wildcards, so

        sum_{k=-(t-1)}^{t} d^floor((t-k)/2) = 2 * sum_{j=0}^{t-1} d^j
                                            = prefix_bound(d, t).total
                                              + d^floor(t/2) - 1.

    The paper credits offset 0 with the centre x_1 ... x_t alone; the
    balanced BFB walk (a, a, 0) with a = floor(t/2) widens it to
    [d]^a + x_(a+1) ... x_n.  For d >= 3 the bound is 2(d^t - 1)/(d - 1)
    <= d^t - 1, so a free t-prefix still exists.
    """
    if d < 2:
        raise InvalidParameters("alphabet size must satisfy d >= 2", d=d)
    if t < 1:
        raise InvalidParameters("radius must be >= 1", t=t)
    return 2 * sum(d ** j for j in range(t))


def prefix_set(x: DBString, t: int) -> set[DBString]:
    """Distinct t-prefixes of B_t(x) minus the set [d]^t + x1 ... x_(n-t).

    The subtracted set is everything reachable by t forward shifts; within
    it all d^t prefixes occur trivially, so only the remainder is
    informative.  Requires n >= 2t >= 2.
    """
    n = x.n
    if t < 1 or n < 2 * t:
        raise InvalidParameters("prefix_set requires n >= 2t >= 2", n=n, t=t)
    g = DeBruijnGraph(x.d, n)
    ball = ball_bfs(g, encode(x), t)
    suffix_base = x.d ** (n - t)
    kept_suffix = encode(x) // (x.d ** t)  # x1 ... x_(n-t) as an integer
    return {decode(v // suffix_base, x.d, t) for v in bits(ball)
            if v % suffix_base != kept_suffix}
