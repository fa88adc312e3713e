"""Independent string-based reference implementations.

These work on plain Python strings and dict adjacency and deliberately share
no code with the package (which works on packed integers and bitmasks), so
the two can check each other.  Only d <= 10 is supported here; that covers
every reference case.
"""

from collections import deque
from itertools import combinations, product


def all_strings(d, n):
    return ["".join(str(c) for c in p) for p in product(range(d), repeat=n)]


def neighbor_strings(s, d):
    out = set()
    for a in map(str, range(d)):
        out.add(s[1:] + a)
        out.add(a + s[:-1])
    out.discard(s)
    return out


def distances_from(s, d):
    dist = {s: 0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in neighbor_strings(u, d):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def ball_strings(s, d, t):
    return {w for w, dd in distances_from(s, d).items() if dd <= t}


def undirected_edge_set(d, n):
    """Non-loop undirected edges from collapsing all length-(n+1) words."""
    edges = set()
    for w in all_strings(d, n + 1):
        u, v = w[:-1], w[1:]
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return edges


def twin_pairs(d, n, t):
    vs = all_strings(d, n)
    balls = {v: frozenset(ball_strings(v, d, t)) for v in vs}
    return [(x, y) for x, y in combinations(vs, 2) if balls[x] == balls[y]]


def code_is_valid(balls, vertices, code):
    """Check domination and separation for `code` given precomputed balls."""
    code = set(code)
    idsets = {}
    for v in vertices:
        ident = frozenset(balls[v] & code)
        if not ident:
            return False
        idsets[v] = ident
    return len(set(idsets.values())) == len(vertices)


def code_report(balls, vertices, code):
    """Domination failures and colliding pairs of `code`, in vertex order.

    A vertex fails domination when its identifying set is empty; two
    vertices collide when their identifying sets are equal (empty ones
    included), listed as (x, y) with x before y in `vertices`.
    """
    code = set(code)
    idsets = [frozenset(balls[v] & code) for v in vertices]
    failures = [v for v, ident in zip(vertices, idsets) if not ident]
    collisions = [(vertices[i], vertices[j])
                  for i, j in combinations(range(len(vertices)), 2)
                  if idsets[i] == idsets[j]]
    return failures, collisions


def exhaustive_min_code_size(d, n, t):
    """Smallest valid code size by size-ordered subset enumeration.

    Returns None when twins make every code invalid.
    """
    vs = all_strings(d, n)
    balls = {v: ball_strings(v, d, t) for v in vs}
    if twin_pairs(d, n, t):
        return None
    for k in range(len(vs) + 1):
        for combo in combinations(vs, k):
            if code_is_valid(balls, vs, combo):
                return k
    return None
