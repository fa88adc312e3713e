"""Twin detection, identifiability, code verification, and code search.

A code S works iff (1) every ball B_t(x) meets S and (2) no two identifying
sets B_t(x) & S coincide.  Twins (vertices with identical balls) are the
sole obstruction to existence.

Twin detection and code verification label every vertex exactly by
B_t(v), or B_t(v) & S, from the all-sources kernel: each vertex sets some
columns in its start row (none outside S), and t rounds of the radius
recurrence leave in row v the OR of the start rows of B_t(v), a function of
that set.  A ball holds at most m = min(N, sum over k <= t of (2d)^k) ids,
and the rows take one of two layouts:
- 4m >= N: a column per vertex, so equal rows are equal sets, on
  `DeBruijnGraph.grow_rows` in `_column_stripes` of `ROW_STRIPE_BYTES`,
  which take the columns in a fixed-seed random order so that each samples
  all of V.
- 4m < N: one 64-bit word per vertex on `DeBruijnGraph.grow_words`, each
  vertex setting a random column of the low 32 and one of the high 32, in
  up to ceil(m / 64) stripes.  Stripe 0 keeps every member, so a zero row
  is an empty set; a later one keeps about 64 members of a ball.  No vertex
  shared a stripe-0 word at m <= 85 on B(2,16), B(3,10), B(4,8) and B(32,2);
  0.55-83% did at m = 97-157, and 6 vertices of B(2,19) at t = 1.  Labels
  that collide are confirmed by the sorted ids of the breadth-first balls
  of the vertices that share them.
Each stripe after the first splits the classes by the pair (label so far,
row).  Column stripes stop once every vertex has a nonzero label of its
own, word stripes once every nonzero label is unique or after one that
splits no class.  For t >= n every ball is V (the diameter is n).

At t = 1 < n twin detection builds no rows.  B_1(x) = B_1(y) puts y in
B_1(x), so twins are adjacent; name them so that y = x[1:]a.  The d
out-neighbours x[2:]ab of y then lie in B_1(x) = {x, x[1:]c, c x[:-1]},
and share the prefix p = x[2:]a.  B_1(x) holds d words with prefix p only
if x[1:] = p, so x = c a^(n-1) and y = a^n, one orbit under the renaming of
symbols.  Else it holds at most x (if x[:-1] = p) and one in-neighbour (if
x[:-2] = p[1:]), which takes d = 2 and both: x[i] = x[i+2] and x[n-3] =
x[n-2] = a, so x = a^n = y past n = 2, and {x, y} = {01, 10} at n = 2.  So
the exact balls of at most two edges decide (`_twin_edges`), and only
B(2,2), whose 01 and 10 are twins, goes on to the labels.

Both search routines run on the hitting-set reformulation: S is valid iff
it intersects every ball and every symmetric difference of balls of
non-twin pairs within distance 2t; pairs farther apart are separated for
free by their own centers.  The pairs come from the ball rows grown t more
rounds, row x of which is B_2t(x), each row dropped once its y > x are read.
Both searches read one per-vertex cover index, grown by `_column_stripes`
from the pair (x, y) that first gave each target, as v lies in B_t(x) iff x
lies in B_t(v); targets that fit one stripe take the XOR of its two grown
row lists.  Greedy keys its heap on ints (C - score) << w | v.  `min_code`
works on bitsets over the targets sorted by the sizes read off the
deduplication's keys, the smallest at the top bit, each formed from its
pair's balls only for its clash mask or branch list: a child is one AND, and
the packing bound jumps by clash masks up to the incumbent's gap, its first
step one test per child.  The frame being walked lives in the loop's
variables: to expand a child it goes on the stack, and the child's frame is
walked in its place.  A frame with room 0, whose children beat the incumbent
only by meeting every target, is never walked: each of its children hits or is
pruned, so its parent settles it in one pass over its branch list, to the first
hit.  A frame's subtree is a function of its unsatisfied targets and its room
to the gap while it holds no hit, as the same set chosen in another order
leaves the same targets; so the node count of each such subtree is kept, and a
child that would repeat one adds the count instead of being expanded.
"""

from __future__ import annotations

import heapq
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice, repeat
from operator import and_, itemgetter, xor
from typing import Iterator, Sequence

from .balls import all_balls
from .errors import CodeVertexOutOfRange, InfeasibleNoCode, InvalidParameters
from .graph import DeBruijnGraph
from .vertexset import VertexSet, bits, popcount

DEFAULT_EXACT_CAP = 64
DEFAULT_NODE_BUDGET = 200_000
# Code search refuses an instance whose target list could outgrow this many
# bytes; the cover index takes about as much again (neither search holds both
# at once).  Of C targets, the exact search masks (C bits) those its packing
# reaches short of the gap: 9% on B(2,8..11) t=1 @2000, 53% on B(2,5) t=1.
MAX_TARGET_BYTES = 2 ** 30
# Twin detection and verification take the columns in stripes whose rows,
# one int per vertex, hold about this many bytes of bits in all.  A round
# also holds 2N/d ORs of the rows: `check 2 16 15` peaks at 182 MiB RSS.
ROW_STRIPE_BYTES = 2 ** 26
# The cover index is grown this many targets (a multiple of 8) at a time.
COVER_STRIPE_BITS = 2 ** 13
# Rows take a column per vertex if HASH_COLUMNS_PER_ID * m >= N, else words.
HASH_COLUMNS_PER_ID = 4
# Byte k of a start word is bit b & 7 where (b >> 3) & 3 is k & 3: a random
# byte b sets column b & 31 of the low 32 columns (k < 4) or the high 32.
_WORD_BYTES = [(bytes(8 * k) + bytes(1 << i for i in range(8))
                + bytes(24 - 8 * k)) * 8 for k in range(4)]


@dataclass(frozen=True, slots=True)
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
    collisions: list[tuple[int, int]]       # first 10 pairs with equal sets
    collision_count: int                    # all pairs with equal sets
    code_size: int

    def to_json(self, g: DeBruijnGraph) -> dict:
        return {
            "valid": self.valid,
            "code_size": self.code_size,
            "domination_failures": [g.vertex_string(v)
                                    for v in self.domination_failures],
            "collisions": [[g.vertex_string(x), g.vertex_string(y)]
                           for x, y in self.collisions],
            "collision_count": self.collision_count,
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


def _ball_bound(g: DeBruijnGraph, r: int) -> int:
    """m = min(N, sum over k <= r of (2d)^k), at least |B_r(v)| for all v."""
    return min(g.vertex_count, sum((2 * g.d) ** k for k in range(r + 1)))


def _classes(g: DeBruijnGraph, t: int,
             code: VertexSet | None = None) -> list[int]:
    """A label per vertex for B_t(v), or for B_t(v) & code: equal labels
    iff equal sets, label 0 iff the set is empty, and the other labels
    numbered from 1 in order of first appearance."""
    count = g.vertex_count
    if t >= g.n:  # the diameter is n, so every ball is V
        return [0 if code == 0 else 1] * count
    m = _ball_bound(g, t)
    flags = None if code is None else format(code, f"0{count}b")[::-1] \
        .encode().translate(bytes.maketrans(b"01", b"\0\xff"))
    if HASH_COLUMNS_PER_ID * m < count:  # word stripes, confirmed below
        labels = _row_labels(g.grow_words(_start_words(count, flags), t))
        for stripe in range(1, -(-m // 64)):
            if labels[-1] == count:
                break  # labels 1..N, so every vertex has a set of its own
            classes = max(labels)
            if classes == count - labels.count(0):
                break  # every nonempty set has a label of its own
            labels = _row_labels(g.grow_words(
                _start_words(count, flags, stripe, m), t), labels)
            if max(labels) == classes:
                break  # this stripe split no class
        return _confirm(g, t, labels, flags)
    sources = range(count)  # column c starts at vertex sources[c]
    step = max(1, ROW_STRIPE_BYTES * 8 // count)
    if step < count:  # several stripes, so each samples V
        column = list(sources)
        random.Random(0).shuffle(column)
        sources = array("I", bytes(4 * count))  # the inverse of column
        for v, c in enumerate(column):
            sources[c] = v
        del column
    if flags is not None:  # a vertex outside the code sets no column
        sources = array("I", (v if flags[v] else count for v in sources))
    labels = None  # each stripe splits the classes by (label, row)
    for rows in _column_stripes(g, t, sources, step):
        labels = _row_labels(rows, labels)
        del rows  # the next stripe's rounds need none of these rows
        if labels[-1] == count:  # N labels besides 0, so one per vertex
            break
    return labels


def _start_words(count: int, flags: bytes | None, stripe: int = 0,
                 m: int = 64) -> array:
    """One-word start rows of a stripe: each vertex sets a fixed-seed random
    column of the low 32 and one of the high 32, from two random bytes put
    through `_WORD_BYTES`, and one whose code flag byte is 0 sets none.
    Stripe s > 0 draws from seed s, and keeps a word only if a third random
    byte is below 256 * 64 / m, so about 64 members of a ball of m set bits.
    Lane v is bytes 8v..8v+7, so no Python operation runs per vertex."""
    lanes = bytearray(8 * count)  # first: a graph too big fails here
    rng = random.Random(stripe)
    picks = [_draw(rng, count), _draw(rng, count)]
    for k in range(8):
        lanes[k::8] = picks[k >> 2].translate(_WORD_BYTES[k & 3])
    masks = [] if flags is None else [flags]  # 0xff: the word is kept
    if stripe:
        cut = -(-256 * 64 // m)
        masks.append(_draw(rng, count).translate(b"\xff" * cut
                                                 + bytes(256 - cut)))
    for mask in masks:
        keep = bytearray(8 * count)
        for k in range(8):
            keep[k::8] = mask
        lanes = (int.from_bytes(lanes, "little")
                 & int.from_bytes(keep, "little")).to_bytes(8 * count,
                                                           "little")
    return array("Q", lanes)


def _draw(rng: random.Random, size: int, chunk: int = 1 << 24) -> bytes:
    """`rng.randbytes(size)` in chunks, as one draw of 2^31 bits overflows;
    chunks of whole 32-bit words give the stream of one draw."""
    return b"".join(rng.randbytes(min(chunk, size - lo))
                    for lo in range(0, size, chunk))


def _row_labels(rows, labels: list[int] | None = None) -> list[int]:
    """Label 0 for a zero row, the others from 1 in order of first
    appearance; given `labels`, split their classes by the pair (label,
    row) instead, so label 0 stays 0 while its row is 0."""
    if labels is not None:
        ids = {(0, 0): 0}
        return [ids.setdefault((a, row), len(ids))
                for a, row in zip(labels, rows)]
    distinct = set(rows)
    unique = len(distinct) == len(rows) and 0 not in distinct
    del distinct  # before the N labels are built
    if unique:
        return list(range(1, len(rows) + 1))  # and no dict of labels
    ids = {0: 0}
    return [ids.setdefault(row, len(ids)) for row in rows]


def _column_stripes(g: DeBruijnGraph, t: int, sources: Sequence[int],
                    step: int) -> Iterator[list[int]]:
    """`grow_rows` of `step` columns at a time: column k starts at vertex
    `sources[k]`, repeated sources OR together and source N, the empty
    ball, sets no bit.  Each stripe's rows are released (by the caller
    too) before the next stripe's start rows are built."""
    count = g.vertex_count
    for lo in range(0, len(sources), step):
        rows = [0] * (count + 1)
        for k, v in enumerate(sources[lo:lo + step]):
            rows[v] |= 1 << k
        rows.pop()  # row N, the empty ball's
        yield g.grow_rows(rows, t)
        del rows


def _confirm(g: DeBruijnGraph, t: int, labels: list[int],
             flags: bytes | None) -> list[int]:
    """Hashed labels made exact: a nonzero label shared by several
    vertices is split by the sorted ids of each one's set, and the labels
    renumbered in order of first appearance."""
    if (labels[-1] == len(labels)
            or max(labels) == len(labels) - labels.count(0)):
        return labels  # every nonempty set has a label of its own
    sizes = Counter(labels)
    ids: dict = {0: 0}
    out = []
    for v, a in enumerate(labels):
        if a and sizes[a] > 1:
            ball = chain.from_iterable(g.bfs_layers(v, t))
            if flags is not None:
                ball = filter(flags.__getitem__, ball)
            a = (a, array("q", sorted(ball)).tobytes())  # exact key
        out.append(ids.setdefault(a, len(ids)))
    return out


def _pairs(labels: list[int]) -> Iterator[tuple[int, int]]:
    """Every pair x < y of vertices with equal labels, in sorted order."""
    if labels[-1] == len(labels):
        return  # the labels are 1..N, so no two match
    sizes = Counter(labels)
    classes: dict[int, list[int]] = {}
    for v, a in enumerate(labels):
        if sizes[a] > 1:
            classes.setdefault(a, []).append(v)
    for x, a in enumerate(labels):
        members = classes.get(a)
        if members:
            del members[0]  # x itself; it has len(members) pairs to emit
            yield from zip(repeat(x), members)


def _first_pairs(labels: list[int]) -> tuple[list[tuple[int, int]], int]:
    """The first 10 pairs of `_pairs(labels)`, and a count of them all."""
    total = sum(k * (k - 1) // 2 for k in Counter(labels).values())
    return list(islice(_pairs(labels), 10)), total


def _twin_edges(g: DeBruijnGraph) -> list[tuple[int, int]]:
    """One edge of each orbit that can join twins at t = 1 < n (module
    docstring)."""
    edges = [(g.vertex_count // g.d, 0)]  # 1 0^(n-1) and 0^n
    if (g.d, g.n) == (2, 2):
        edges.append((1, 2))  # 01 and 10
    return edges


def _twin_labels(g: DeBruijnGraph, t: int) -> list[int] | None:
    """None if no two balls are equal, which at t = 1 < n takes only the
    exact closed neighbourhoods of `_twin_edges`; else `_classes`."""
    def closed(v):
        return {v, *g.neighbor_ids(v)}

    if t == 1 < g.n and all(closed(x) != closed(y)
                            for x, y in _twin_edges(g)):
        return None
    return _classes(g, t)


def find_twins(g: DeBruijnGraph, t: int) -> list[TwinPair]:
    """All unordered twin pairs; empty iff the graph is t-identifiable."""
    _check_t(t)
    labels = _twin_labels(g, t)
    if labels is None:
        return []
    return [TwinPair(x=x, y=y, t=t) for x, y in _pairs(labels)]


def is_identifiable(g: DeBruijnGraph, t: int) -> tuple[bool, TwinPair | None]:
    """True iff no twins; on False the lexicographically first pair, the
    first two members of the class whose first member is smallest."""
    _check_t(t)
    labels = _twin_labels(g, t)
    first = None if labels is None else next(_pairs(labels), None)
    if first:
        return False, TwinPair(x=first[0], y=first[1], t=t)
    return True, None


def verify_code(g: DeBruijnGraph, code: VertexSet, t: int) -> CodeReport:
    """Check both code conditions exhaustively.  Vertices whose identifying
    sets B_t(v) & code are equal collide, and those with empty sets also
    fail domination; the report lists every failure, and the first 10
    colliding pairs with a count of them all."""
    _check_t(t)
    if code >> g.vertex_count:
        bad = next(bits(code >> g.vertex_count)) + g.vertex_count
        raise CodeVertexOutOfRange(bad, g.vertex_count)
    labels = _classes(g, t, code)
    failures = [v for v, a in enumerate(labels) if a == 0]
    collisions, count = _first_pairs(labels)
    return CodeReport(valid=not failures and not collisions,
                      domination_failures=failures, collisions=collisions,
                      collision_count=count, code_size=popcount(code))


def build_constraints(g: DeBruijnGraph, t: int) -> list[VertexSet]:
    """Hitting-set targets whose hitting sets are exactly the valid codes.

    The ball of every vertex (domination) comes first, then B_t(x) ^ B_t(y)
    for each pair x < y at distance <= 2t (separation; farther pairs have
    disjoint balls, so any dominating set separates them already), x
    ascending, then y.  A target equal to an earlier one is dropped.
    """
    balls, first, second, _ = _constraints(g, t)
    return [balls[x] ^ balls[y] for x, y in zip(first, second)]


def _constraints(g: DeBruijnGraph, t: int
                 ) -> tuple[list, array, array, list[int]]:
    """The balls, with an empty one at N, the pair that first gave each
    target, and the sizes, read off the deduplication's keys in target order:
    target i is balls[first[i]] ^ balls[second[i]].  The pairs within 2t are
    read off a copy of the ball rows grown t more rounds."""
    _check_t(t)
    labels = _twin_labels(g, t)
    twins, total = ([], 0) if labels is None else _first_pairs(labels)
    del labels
    if twins:
        raise InfeasibleNoCode([TwinPair(x=x, y=y, t=t) for x, y in twins],
                               total)
    # |B_r| <= sum_{k<=r} (2d)^k and no distance exceeds n, so there are at
    # most N + N(m-1)/2 targets of N bits each.
    count = g.vertex_count
    m = _ball_bound(g, min(2 * t, g.n))
    size = count * (count + count * (m - 1) // 2) // 8
    if size > MAX_TARGET_BYTES:
        raise InvalidParameters(
            f"code search could need {size / 2 ** 30:.1f} GiB for its"
            f" targets, over the {MAX_TARGET_BYTES // 2 ** 30} GiB cap",
            d=g.d, n=g.n, t=t)
    balls = all_balls(g, t) + [0]
    far = g.grow_rows(balls[:count], t)  # B_2t(x): the ids within 2t of x
    for x, row in enumerate(far):  # only the ids y > x: row x has N-x-1 bits
        far[x] = row >> x + 1
    far.reverse()  # popped x ascending, so each row goes once it is read
    pairs = chain(zip(range(count), repeat(count)), (
        (x, y) for x in range(count)
        for y in map((x + 1).__add__, bits(far.pop()))))
    targets: dict = {}
    first, second = array("I"), array("I")
    for x, y in pairs:
        targets.setdefault(balls[x] ^ balls[y])
        if len(targets) > len(first):  # a new target
            first.append(x)
            second.append(y)
    return balls, first, second, list(map(int.bit_count, targets))


def _cover(g: DeBruijnGraph, t: int, first: array, second: array
           ) -> list[int]:
    """Per-vertex index: bit i of `cover[v]` is set iff target i holds v.
    As v lies in B_t(x) iff x lies in B_t(v), and target i is B_t(first[i])
    ^ B_t(second[i]), it is the XOR of the column stripes started from
    `first` and from `second`: with one stripe, the XOR of its rows."""
    count, step = g.vertex_count, COVER_STRIPE_BITS
    seconds = _column_stripes(g, t, second, step)
    if len(first) <= step:
        return list(map(xor, next(_column_stripes(g, t, first, step)),
                        next(seconds)))
    cover = [bytearray() for _ in range(count)]
    for grown in _column_stripes(g, t, first, step):
        for row, a, b in zip(cover, grown, next(seconds)):
            row += (a ^ b).to_bytes(step // 8, "little")
        del grown  # the next stripe's rounds need none of these rows
    for v, row in enumerate(cover):  # in place: one row in both forms at once
        cover[v] = int.from_bytes(row, "little")
    return cover


def _greedy(cover: list[int], target_count: int) -> VertexSet:
    """Repeatedly take the vertex hitting the most unhit targets, the
    smallest id among ties.  Heap keys (C - score) << w | v, w the bit length
    of N, start below every score; as scores only fall, the top is rescored
    until a fresh key wins."""
    w = len(cover).bit_length()
    low = (1 << w) - 1
    heap = list(range(len(cover)))  # score C each: keys 0 << w | v, a heap
    unsatisfied = (1 << target_count) - 1
    chosen = 0
    while unsatisfied:
        key = heap[0]
        v = key & low
        fresh = (target_count - (cover[v] & unsatisfied).bit_count()) << w | v
        if fresh != key:
            heapq.heapreplace(heap, fresh)
        else:
            chosen |= 1 << v
            unsatisfied ^= unsatisfied & cover[v]
    return chosen


def greedy_code(g: DeBruijnGraph, t: int) -> VertexSet:
    """Greedy valid code: most unhit constraints first, smallest id on ties."""
    first, second = _constraints(g, t)[1:3]  # the N^2-bit balls go now
    return _greedy(_cover(g, t, first, second), len(first))


def min_code(g: DeBruijnGraph, t: int,
             node_budget: int | None = None) -> MinCodeResult:
    """Smallest code by branch and bound over the hitting-set constraints.

    Targets are sorted once by `_constraints`' sizes, descending, ties by
    descending index, through one `itemgetter`, the first at the top bit of a
    node's int of unsatisfied targets; greedy seeds the incumbent.  The bound
    packs disjoint targets, first first, dropping those that meet each one
    through its clash mask, and stops at the gap to the incumbent.  Nodes
    branch on each vertex of their first target, depth first on an explicit
    stack, each child's frame walked where its parent's was.  A room-0
    frame is settled by its parent in one pass over its branch list.  A
    subtree searched to the end with no hit is counted, not searched, when
    the same targets and room come again: `nodes` counts it in full, and a
    budget that runs out inside it, or inside a settled frame, stops one node
    past the budget as the search would.  It is kept only if it cost more
    nodes than its key has 64-bit words.  With no budget, graphs above
    `DEFAULT_EXACT_CAP` vertices get `DEFAULT_NODE_BUDGET`; `optimal`
    reports whether the search completed.
    """
    if node_budget is not None and node_budget < 0:
        raise InvalidParameters("node budget must be >= 0", budget=node_budget)
    balls, *pairs, sizes = _constraints(g, t)
    # descending size, ties by descending index; C >= N >= 2, so a tuple
    pick = itemgetter(*sorted(range(len(sizes) - 1, -1, -1),
                              key=sizes.__getitem__, reverse=True))
    first, second = [array("I", pick(side)) for side in pairs]
    del sizes, pick, pairs
    if node_budget is None and g.vertex_count > DEFAULT_EXACT_CAP:
        node_budget = DEFAULT_NODE_BUDGET
    keep = _cover(g, t, first, second)

    def members(i):  # target i's ids, for its clash mask and branch list
        return bits(balls[first[i]] ^ balls[second[i]])

    best = _greedy(keep, len(first))
    best_size = popcount(best)
    everything = (1 << len(first)) - 1
    for v, row in enumerate(keep):  # complemented in place: `a & ~b` is slow
        keep[v] = everything ^ row  # the targets that miss v
    # Entry i is target i - 1's, so that a bit_length indexes it: spare[i]
    # complements its clash mask, with bit C (above every target) set so that
    # a mask once made is never 0, and branch[i] holds (1 << v, keep[v]) for
    # its vertices v.
    spare = [0] * (len(first) + 1)
    branch: list = [None] * (len(first) + 1)

    def clash(i):
        spare[i] = reduce(and_, map(keep.__getitem__, members(i - 1))) \
            | everything + 1
        return spare[i]

    def branch_of(i):
        branch[i] = [(1 << v, keep[v]) for v in members(i - 1)]
        return branch[i]

    # seen[room - 1][targets]: the nodes below a frame that ran out of
    # children with no hit below it, so with best_size, and its room, as
    # made (never 0: such a frame is settled by its parent or had a hit)
    seen: list = [{} for _ in range(best_size - 1)]
    limit = sys.maxsize if node_budget is None else node_budget
    nodes = hit = 0  # hit: the node count at the last hit
    stack = [(iter([(0, everything)]), 0, 0, everything, 0)]
    while stack:  # children, parent's chosen, their size, parent's targets,
        # and the node count when the frame was made
        children, chosen, size, unsatisfied, start = stack.pop()
        while size < best_size:  # a child left could beat the incumbent
            # targets a child's packing may take past its first
            room = best_size - size - 1
            for bit, keeps in children:
                nodes += 1
                if nodes > limit:
                    return MinCodeResult(best, best_size, optimal=False,
                                         nodes=nodes)
                left = unsatisfied & keeps
                if not left:
                    best, best_size, hit = chosen | bit, size, nodes
                    break
                if not room:
                    continue  # pruned: it misses a target
                top = left.bit_length()  # its first target is top - 1
                rest = left & (spare[top] or clash(top))
                packed = room - 1
                while packed and rest:  # expand iff the packing ends first
                    packed -= 1
                    i = rest.bit_length()
                    rest &= spare[i] or clash(i)
                if rest:
                    continue  # the packing reached the gap: pruned
                if room == 1:  # a room-0 child, settled here: each of its
                    # children hits or is pruned
                    pairs = branch[top] or branch_of(top)
                    below = len(pairs)
                    for vertex, row in pairs:
                        if not left & row:  # the first child to hit
                            below = pairs.index((vertex, row)) + 1
                            if nodes + below <= limit:
                                # a hit: the frame goes on at room 0
                                best, best_size, hit, room = \
                                    chosen | bit | vertex, size + 1, \
                                    nodes + below, 0
                            break
                else:
                    below = seen[room - 2].get(left)
                    if below is None:  # expanded in this frame's place
                        stack.append((children, chosen, size, unsatisfied,
                                      start))
                        children, chosen, size, unsatisfied, start = \
                            iter(branch[top] or branch_of(top)), \
                            chosen | bit, size + 1, left, nodes
                        break
                nodes += below
                if nodes > limit:
                    return MinCodeResult(best, best_size, optimal=False,
                                         nodes=limit + 1)
            else:  # out of children: kept if no hit came since it was pushed
                # and it cost more nodes than its key has 64-bit words
                if hit < start and \
                        (nodes - start) * 64 > unsatisfied.bit_length():
                    seen[room - 1][unsatisfied] = nodes - start
                break
    return MinCodeResult(best, best_size, optimal=True, nodes=nodes)


def code_strings(g: DeBruijnGraph, code: VertexSet) -> list[str]:
    """Serialize a code as sorted vertex strings."""
    return [g.vertex_string(v) for v in bits(code)]
