"""Reference answers computed without dbic.

Vertices of B(d, n) are base-d integers, and adjacency is the shift rule
written out here again, so a defect in dbic's graph, ball, metric or code
modules cannot confirm itself.  Everything works on sets of ids; nothing
here touches a dbic object.
"""

from __future__ import annotations

from collections import deque

# Ball digests are (size, sum of 2^v mod P): for a bitmask m this is
# (m.bit_count(), m % P), so dbic's bitmask answers can be checked cheaply
# against the id sets computed here.
DIGEST_PRIME = (1 << 61) - 1


def neighbors(v: int, d: int, n: int) -> set[int]:
    """Undirected shift neighbours of v in B(d, n), without v itself."""
    top = d ** (n - 1)
    tail = (v % top) * d       # x2 ... xn a
    head = v // d              # a x1 ... x(n-1)
    out = {tail + a for a in range(d)} | {head + a * top for a in range(d)}
    out.discard(v)
    return out


def ball(v: int, d: int, n: int, t: int) -> set[int]:
    """All ids within distance t of v, v included."""
    seen = {v}
    frontier = [v]
    for _ in range(t):
        nxt = []
        for u in frontier:
            for w in neighbors(u, d, n) - seen:
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return seen


def ids_digest(ids) -> tuple[int, int]:
    ids = set(ids)
    return len(ids), sum(pow(2, v, DIGEST_PRIME) for v in ids) % DIGEST_PRIME


def mask_digest(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask % DIGEST_PRIME


def distance(x: int, y: int, d: int, n: int) -> int:
    """Shortest-path length by bidirectional BFS, one full layer at a time.

    Once a whole new layer of one side meets the other side, every meeting
    vertex lies on a shortest path, so the first meet gives the distance.
    """
    if x == y:
        return 0
    dist = [{x: 0}, {y: 0}]
    frontier = [[x], [y]]
    while True:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other = dist[side], dist[1 - side]
        nxt = []
        for u in frontier[side]:
            for w in neighbors(u, d, n):
                if w in other:
                    return mine[u] + 1 + other[w]
                if w not in mine:
                    mine[w] = mine[u] + 1
                    nxt.append(w)
        frontier[side] = nxt


def eccentricity(v: int, d: int, n: int) -> tuple[int, int]:
    """(eccentricity of v, smallest id among the farthest vertices)."""
    dist = {v: 0}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in neighbors(u, d, n):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    far = max(dist.values())
    return far, min(w for w, k in dist.items() if k == far)


class CodeChecker:
    """Decides whether a vertex set is a t-identifying code of B(d, n)."""

    def __init__(self, d: int, n: int, t: int):
        self.vertex_count = d ** n
        self.balls = [frozenset(ball(v, d, n, t))
                      for v in range(self.vertex_count)]

    def is_valid(self, code_ids) -> bool:
        code = frozenset(code_ids)
        if any(not 0 <= v < self.vertex_count for v in code):
            return False
        seen = set()
        for b in self.balls:
            ident = b & code
            if not ident or ident in seen:
                return False
            seen.add(ident)
        return True
