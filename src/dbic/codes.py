"""Twin detection, identifiability, code verification, and code search.

A code S works iff (1) every ball B_t(x) meets S and (2) no two identifying
sets B_t(x) & S coincide.  Twins (vertices with identical balls) are the
sole obstruction to existence.

Twin detection and code verification work one vertex at a time on the
graph's traversal kernel (`DeBruijnGraph.bfs_layers`): each vertex is keyed
by the sorted ids of B_t(v), or of B_t(v) & S, packed into bytes, and equal
keys are grouped by hashing.  Memory is the sum of those keys, never the
quadratic table of every ball as a d^n-bit set.

Both search routines run on the hitting-set reformulation: S is valid iff
it intersects every ball and every symmetric difference of balls of
non-twin pairs within distance 2t; pairs farther apart are separated for
free by their own centers.  `min_code` builds these constraints once, sorts
their targets once by size and seeds its incumbent with greedy over them.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from itertools import chain

from .balls import all_balls
from .errors import CodeVertexOutOfRange, InfeasibleNoCode, InvalidParameters
from .graph import DeBruijnGraph
from .vertexset import VertexSet, bits, popcount

DEFAULT_EXACT_CAP = 64
DEFAULT_NODE_BUDGET = 200_000
# Code search refuses an instance whose target list could outgrow this many
# bytes; greedy's cover index takes about as much again.
MAX_TARGET_BYTES = 2 ** 30


@dataclass(frozen=True)
class TwinPair:
    """Distinct vertices x < y with B_t(x) = B_t(y)."""

    x: int
    y: int
    t: int


@dataclass(frozen=True)
class CodeReport:
    """Outcome of verifying one candidate code."""

    valid: bool
    domination_failures: list[int]          # vertices with empty identifying set
    collisions: list[tuple[int, int]]       # pairs with equal identifying sets
    code_size: int

    def to_json(self, g: DeBruijnGraph) -> dict:
        return {
            "valid": self.valid,
            "code_size": self.code_size,
            "domination_failures": [g.vertex_string(v)
                                    for v in self.domination_failures],
            "collisions": [[g.vertex_string(x), g.vertex_string(y)]
                           for x, y in self.collisions],
        }


@dataclass(frozen=True)
class MinCodeResult:
    code: VertexSet
    size: int
    optimal: bool
    nodes: int


def _check_t(t: int) -> None:
    if t < 1:
        raise InvalidParameters("radius must satisfy t >= 1", t=t)


def _ball_ids(g: DeBruijnGraph, v: int, t: int) -> list[int]:
    """Ids of B_t(v), unordered, straight from the traversal kernel."""
    return [w for layer in g.bfs_layers(v, t) for w in layer]


def _key(ids: list[int]) -> bytes:
    """Exact hashable key of an id set: its sorted ids packed as int64s."""
    return array("q", sorted(ids)).tobytes()


def _grouped_pairs(groups: dict[bytes, list[int]]) -> list[tuple[int, int]]:
    """Every pair x < y of vertices that share a group, in sorted order."""
    pairs = [(x, y) for members in groups.values()
             for i, x in enumerate(members) for y in members[i + 1:]]
    pairs.sort()
    return pairs


def find_twins(g: DeBruijnGraph, t: int) -> list[TwinPair]:
    """All unordered twin pairs; empty iff the graph is t-identifiable.

    Vertices are grouped by the exact key of their ball's id list, so
    memory is O(sum of |B_t(v)|), not one d^n-bit ball per vertex, and each
    comparison is an expected O(1) hash lookup.
    """
    _check_t(t)
    groups: dict[bytes, list[int]] = {}
    for v in range(g.vertex_count):
        groups.setdefault(_key(_ball_ids(g, v, t)), []).append(v)
    return [TwinPair(x=x, y=y, t=t) for x, y in _grouped_pairs(groups)]


def is_identifiable(g: DeBruijnGraph, t: int) -> tuple[bool, TwinPair | None]:
    """True iff no twins; on False the lexicographically first pair."""
    twins = find_twins(g, t)
    if twins:
        return False, twins[0]
    return True, None


def verify_code(g: DeBruijnGraph, code: VertexSet, t: int) -> CodeReport:
    """Check both code conditions exhaustively and report all witnesses.

    Each vertex is keyed by the ids of its identifying set B_t(v) & code,
    one vertex at a time; vertices with equal keys collide, and those with
    empty keys also fail domination.
    """
    _check_t(t)
    if code >> g.vertex_count:
        bad = next(bits(code >> g.vertex_count)) + g.vertex_count
        raise CodeVertexOutOfRange(bad, g.vertex_count)
    member = code.to_bytes(-(-g.vertex_count // 8), "little")
    failures = []
    groups: dict[bytes, list[int]] = {}
    for v in range(g.vertex_count):
        ident = [w for w in _ball_ids(g, v, t) if member[w >> 3] >> (w & 7) & 1]
        if not ident:
            failures.append(v)
        groups.setdefault(_key(ident), []).append(v)
    collisions = _grouped_pairs(groups)
    return CodeReport(
        valid=not failures and not collisions,
        domination_failures=failures,
        collisions=collisions,
        code_size=popcount(code),
    )


def build_constraints(g: DeBruijnGraph, t: int) -> list[VertexSet]:
    """Hitting-set targets whose hitting sets are exactly the valid codes.

    The ball of every vertex (domination) comes first, then B_t(x) ^ B_t(y)
    for each pair x < y at distance <= 2t (separation; farther pairs have
    disjoint balls, so any dominating set separates them already), x
    ascending, then y.  A target equal to an earlier one is dropped.
    """
    _check_t(t)
    twins = find_twins(g, t)
    if twins:
        raise InfeasibleNoCode(twins)
    # |B_r| <= sum_{k<=r} (2d)^k and no distance exceeds n, so there are at
    # most N + N(m-1)/2 targets of N bits each.
    count = g.vertex_count
    m = min(count, sum((2 * g.d) ** k for k in range(min(2 * t, g.n) + 1)))
    size = count * (count + count * (m - 1) // 2) // 8
    if size > MAX_TARGET_BYTES:
        raise InvalidParameters(
            f"code search could need {size / 2 ** 30:.1f} GiB for its"
            f" targets, over the {MAX_TARGET_BYTES // 2 ** 30} GiB cap",
            d=g.d, n=g.n, t=t)
    balls = all_balls(g, t)
    separations = (balls[x] ^ balls[y] for x in range(count)
                   for y in sorted(w for w in _ball_ids(g, x, 2 * t) if w > x))
    return list(dict.fromkeys(chain(balls, separations)))


def _greedy(targets: list[VertexSet], vertex_count: int) -> VertexSet:
    """Repeatedly take the vertex hitting the most unhit targets, the
    smallest id among ties.  `cover[v]` is the bitset of indices of the
    targets v hits; heap keys (-score, v) start below every score, and as
    scores only fall, the top is rescored until its key is fresh and wins."""
    cover = [bytearray(len(targets) // 8 + 1) for _ in range(vertex_count)]
    for i, target in enumerate(targets):
        byte, bit = i >> 3, 1 << (i & 7)
        for v in bits(target):
            cover[v][byte] |= bit
    for v, row in enumerate(cover):  # in place: one row in both forms at once
        cover[v] = int.from_bytes(row, "little")
    heap = [(-len(targets), v) for v in range(vertex_count)]
    unsatisfied = (1 << len(targets)) - 1
    chosen = 0
    while unsatisfied:
        key, v = heap[0]
        fresh = -(cover[v] & unsatisfied).bit_count()
        if fresh != key:
            heapq.heapreplace(heap, (fresh, v))
        else:
            chosen |= 1 << v
            unsatisfied &= ~cover[v]
    return chosen


def greedy_code(g: DeBruijnGraph, t: int) -> VertexSet:
    """Greedy valid code: most unhit constraints first, smallest id on ties."""
    return _greedy(build_constraints(g, t), g.vertex_count)


def _packing_bound(targets: list[VertexSet]) -> int:
    """Lower bound: disjoint targets taken in list order, smallest first."""
    used = 0
    count = 0
    for m in targets:
        if not m & used:
            used |= m
            count += 1
    return count


def min_code(g: DeBruijnGraph, t: int,
             node_budget: int | None = None) -> MinCodeResult:
    """Smallest code by branch and bound over the hitting-set constraints.

    Targets are sorted by size once, stably; each node's unsatisfied list
    is filtered from its parent's, so it stays in that order.  Greedy seeds
    the incumbent; the lower bound is a maximal family of pairwise-disjoint
    unsatisfied targets, smallest first; the branch tries each vertex of
    the first (smallest) unsatisfied target in ascending order.  With no
    budget, graphs above `DEFAULT_EXACT_CAP` vertices get
    `DEFAULT_NODE_BUDGET`; `optimal` reports whether the search completed.
    """
    targets = build_constraints(g, t)
    if node_budget is None and g.vertex_count > DEFAULT_EXACT_CAP:
        node_budget = DEFAULT_NODE_BUDGET

    best = _greedy(targets, g.vertex_count)
    best_size = popcount(best)
    nodes = 0
    aborted = False

    def dfs(chosen: int, size: int, unsatisfied: list[VertexSet]) -> None:
        nonlocal best, best_size, nodes, aborted
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            aborted = True
            return
        if not unsatisfied:
            if size < best_size:
                best, best_size = chosen, size
            return
        if size + _packing_bound(unsatisfied) >= best_size:
            return
        for v in bits(unsatisfied[0]):
            if size + 1 >= best_size:
                break
            dfs(chosen | 1 << v, size + 1,
                [m for m in unsatisfied if not (m >> v) & 1])
            if aborted:
                return

    dfs(0, 0, sorted(targets, key=popcount))
    return MinCodeResult(code=best, size=best_size,
                         optimal=not aborted, nodes=nodes)


def code_strings(g: DeBruijnGraph, code: VertexSet) -> list[str]:
    """Serialize a code as sorted vertex strings."""
    return [g.vertex_string(v) for v in bits(code)]
