"""Shortest-path distances, eccentricity, radius/diameter, and antipodal
vertex construction on B(d, n).

Distance arrays run on the graph's breadth-first kernel
(`DeBruijnGraph.bfs_layers`).  An eccentricity runs no traversal and holds
nothing of the graph's size: ecc(v) is one more than the largest radius
whose ball leaves a word out, and the least word left out is its witness,
both from the closed-form pattern walk `balls._outside`.  So the
per-vertex table, which names a witness for each vertex, costs a walk per
vertex, and one vertex of a graph past any memory can be asked.  The
diameter is n.  The radius takes one vertex per orbit of the automorphisms:
renaming the symbols and reading words backwards both keep two words
overlapping in n-1 symbols, so they map B(d, n) onto itself and keep every
eccentricity.
For d >= 3 the paper's antipodal vertex (`construct_antipodal`), checked
against the closed-form ball (`balls._ball_contains`), certifies that a
vertex cannot lower the radius; a vertex whose certificate fails, and every
vertex of B(2, n), where the farthest vertices follow no known rule, is
walked just below the running radius.  Both read the representative's
digits from the list the orbit generator grows; nothing is decoded or
validated per representative.  So the radius, like one eccentricity, runs
no traversal and holds nothing of the graph's size.
`distance` still runs its own frontier loop, stopping at the first sight
of its target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .balls import _ball_contains, _outside
from .errors import InvalidParameters
from .graph import DeBruijnGraph
from .strings import DBString, decode


@dataclass(frozen=True)
class EccentricityReport:
    vertex: int
    eccentricity: int
    witness: int  # smallest id among the farthest vertices


def bfs_distances(g: DeBruijnGraph, source: int) -> list[int]:
    """Distance from source to every vertex (B(d, n) is connected)."""
    dist = [-1] * g.vertex_count
    for depth, layer in enumerate(g.bfs_layers(source)):
        for v in layer:
            dist[v] = depth
    return dist


def distance(g: DeBruijnGraph, x: int, y: int) -> int:
    """Length of the shortest undirected path; 0 iff x = y."""
    g._check_vertex(x)
    g._check_vertex(y)
    if x == y:
        return 0
    seen = 1 << x
    frontier = [x]
    steps = 0
    while frontier:
        steps += 1
        nxt = []
        for v in frontier:
            for w in g.neighbor_ids(v):
                if w == y:
                    return steps
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    nxt.append(w)
        frontier = nxt
    raise InvalidParameters("graph unexpectedly disconnected", x=x, y=y)


def eccentricity(g: DeBruijnGraph, y: int) -> EccentricityReport:
    """The greatest distance from y, witnessed by the smallest id that far,
    with no traversal: the first radius t, from n-1 down, whose ball
    B_t(y) leaves a word out (`balls._outside`) gives ecc(y) = t+1, and
    the least word outside is the witness.  The graph only checks y."""
    g._check_vertex(y)
    x = decode(y, g.d, g.n).digits
    for t in range(g.n - 1, -1, -1):
        far = _outside(g.d, g.n, t, x)
        if far is not None:
            return EccentricityReport(vertex=y, eccentricity=t + 1,
                                      witness=far)


def eccentricity_table(g: DeBruijnGraph) -> list[EccentricityReport]:
    return [eccentricity(g, v) for v in range(g.vertex_count)]


def orbit_representatives(d: int, n: int) -> Iterator[int]:
    """One vertex id per orbit of B(d, n) under symbol permutations and
    reversal, ascending: the words in first-appearance form (symbols
    numbered 0, 1, 2, ... as they first appear; one word per permutation
    orbit) that are no greater than the first-appearance form of their
    reversal.  Words grow one symbol at a time, so only one is held."""
    return (value for value, _ in _representatives_from([], d, n, 0, 0))


def _representatives_from(word: list[int], d: int, n: int, value: int,
                          fresh: int) -> Iterator[tuple[int, list[int]]]:
    # `word` (id `value`, symbols 0 .. fresh-1) grows in place and is
    # yielded live, valid until the next step; a nested generator calling
    # itself would leave a reference cycle per call.
    if len(word) == n:
        names: dict[int, int] = {}
        if word <= [names.setdefault(a, len(names)) for a in reversed(word)]:
            yield value, word
        return
    for a in range(min(fresh + 1, d)):
        word.append(a)
        yield from _representatives_from(word, d, n, value * d + a,
                                         max(fresh, a + 1))
        word.pop()


def radius_diameter(g: DeBruijnGraph) -> tuple[int, int]:
    """(min, max) eccentricity over all vertices.

    The diameter is n, with no traversal: a shift keeps n-1 symbols of a
    word, so after k < n shifts a word still holds n-k of 0^n's zeros and
    (d-1)^n lies exactly n from 0^n; and n shifts reach any word.

    The radius r starts at n, and each orbit representative v
    (`orbit_representatives`; an automorphism keeps distances) either
    shows ecc(v) >= r by a certificate or is walked: while no word lies
    outside B_{r-1}(v) (`balls._outside`), ecc(v) <= r-1 and r drops by
    one.  For d >= 3 the certificate is w = `construct_antipodal(v)`, its
    id built straight from v's digits (`_antipodal_id`): if the closed
    form puts w outside B_{r-1}(v), then dist(v, w) >= r and v cannot
    lower r; it is cheaper than a walk.  Both take v's digits as the
    orbit generator yields them.  For d = 2 no vertex need lie n away
    (B(2, n) has had radius n-1 at every n checked), and no rule for a far
    vertex is known yet, so every representative is walked."""
    d, n = g.d, g.n
    radius = n
    for v, word in _representatives_from([], d, n, 0, 0):
        if d >= 3 and not _ball_contains(d, n, radius - 1, v,
                                         _antipodal_id(d, word)):
            continue
        while _outside(d, n, radius - 1, word) is None:
            radius -= 1
    return radius, n


def construct_antipodal(y: DBString) -> DBString:
    """A vertex at distance exactly n from y, for alphabets with d >= 3.

    Built by induction on n, descending two symbols at a time: strip the
    first and last symbol, recurse, then re-extend with a leading symbol
    avoiding y's last two symbols and a trailing symbol avoiding y's first
    two.  Base cases: n = 1 picks any other symbol; n = 2 returns zz for z
    unused by y; n = 3 returns aaa for an unused a when one exists, else
    (y2)^3.  Free choices always resolve to the smallest valid symbol, so
    the output is deterministic.

    For d = 2 no such vertex need exist (in B(2, 3) nothing is at distance
    3 from 011), so d < 3 is rejected.
    """
    if y.d < 3:
        raise InvalidParameters(
            "antipodal construction requires d >= 3", d=y.d, n=y.n
        )
    if y.n == 0:
        raise InvalidParameters("vertex must be nonempty", d=y.d, n=0)
    return decode(_antipodal_id(y.d, y.digits), y.d, y.n)


def _antipodal_id(d: int, word: Sequence[int]) -> int:
    """The id of `construct_antipodal` of the digits `word`, d >= 3, in one
    pass from both ends: each level of the recursion sets one symbol at
    each end, and the ids of the head and of the tail are folded as they
    grow, around the 1-, 2- or 3-symbol core of a repeated symbol."""
    n = len(word)
    levels = max(0, n // 2 - 1)
    head, tail, unit = 0, 0, 1  # unit is d ** k at level k
    for k in range(levels):
        # The least symbol other than x and y; with d >= 3 there is one.
        x, y = word[n - k - 2], word[n - k - 1]
        head = head * d + (0 if x and y else 2 if x + y == 1 else 1)
        x, y = word[k], word[k + 1]
        tail += (0 if x and y else 2 if x + y == 1 else 1) * unit
        unit *= d
    core = word[levels:n - levels]
    m = len(core)
    # Some symbol is unused unless the core is a 3-word using all of d = 3,
    # whose middle symbol then repeats.
    a = next((a for a in range(d) if a not in core), core[m // 2])
    return (head * d ** m + a * (d ** m - 1) // (d - 1)) * unit + tail
