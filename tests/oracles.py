"""Independent string-based reference implementations.

These work on plain Python strings and dict adjacency and deliberately share
no code with the package (which works on packed integers and bitmasks), so
the two can check each other.  Only d <= 10 is supported here; that covers
every reference case.  Two exceptions: `reference_search`, which takes the
package's target bitsets, so that a search can be checked node for node,
but still shares no code with it; and the run-triple lemma (`run_triples`,
`triple_pattern`), which names no alphabet and reads any sequence, so a
word of 2t distinct letters can show where each fixed letter came from.
"""

from collections import deque
from itertools import combinations, product


def all_strings(d, n):
    return ["".join(str(c) for c in p) for p in product(range(d), repeat=n)]


def right_shifts(s, d):
    """All words x2 ... xn a for a in [d]: the directed out-neighbours."""
    return {s[1:] + a for a in map(str, range(d))}


def left_shifts(s, d):
    """All words a x1 ... x(n-1) for a in [d]: the directed in-neighbours."""
    return {a + s[:-1] for a in map(str, range(d))}


def substring(s, i, j):
    """The segment xi ... xj, 1-based inclusive; empty when i = j + 1."""
    if not 1 <= i <= j + 1 <= len(s) + 1:
        raise IndexError(f"substring indices i={i}, j={j} invalid for"
                         f" length n={len(s)} (need 1 <= i <= j+1 <= n+1)")
    return s[i - 1:j]


def run_triples(t):
    """The three-run shift walks of at most t shifts, as (kind, (first,
    middle, last)) for the kinds FBF and BFB, with a middle run of at least
    1 that no outer run exceeds.  All FBF triples come first, then all
    BFB, each block in lexicographic order."""
    return [(kind, runs) for kind in ("FBF", "BFB")
            for runs in product(range(t + 1), repeat=3)
            if runs[1] >= max(1, runs[0], runs[2]) and sum(runs) <= t]


def triple_pattern(x, kind, runs):
    """The pattern the walk reaches from the word x, by the run-triple
    lemma, as (prefix wildcards, middle, suffix wildcards):

        FBF (f, b, g):  [d]^g + x_(b-f+1) ... x_(n-f) + [d]^(b-g)
        BFB (b, f, c):  [d]^(f-c) + x_(b+1) ... x_(n-f+b) + [d]^c

    None when the middle run exceeds n, which leaves no middle."""
    n = len(x)
    if kind == "FBF":
        f, b, g = runs
        return None if b > n else (g, substring(x, b - f + 1, n - f), b - g)
    b, f, c = runs
    return None if f > n else (f - c, substring(x, b + 1, n - f + b), c)


def neighbor_strings(s, d):
    return (right_shifts(s, d) | left_shifts(s, d)) - {s}


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


def reference_search(targets, vertex_count, node_budgets=(None,)):
    """Branch and bound as `min_code` ran before its packing bound learned to
    stop at the incumbent's gap, on the targets of `build_constraints`, once
    per node budget (None for none).

    The targets are sorted by size, stably, and a node's unsatisfied ones
    are a bitset over those indices.  Greedy (most unhit targets first,
    smallest vertex on ties) seeds the incumbent.  Every node computes the
    full packing bound, caching each target's clash mask on first use, and
    expands iff its size plus the bound is below the incumbent's; it
    branches on each vertex of its lowest target through one generator per
    node, depth first.  Returns, per budget, (code, size, optimal, nodes,
    clash masks built).
    """
    targets = sorted(targets, key=lambda target: bin(target).count("1"))
    members = []
    for target in targets:
        members.append([])
        while target:
            members[-1].append((target & -target).bit_length() - 1)
            target &= target - 1
    everything = (1 << len(targets)) - 1
    rows = [bytearray(len(targets) // 8 + 1) for _ in range(vertex_count)]
    for i, vs in enumerate(members):
        for v in vs:
            rows[v][i >> 3] |= 1 << (i & 7)
    cover = [int.from_bytes(row, "little") for row in rows]
    greedy, unhit = 0, everything
    while unhit:
        v = max(range(vertex_count),
                key=lambda v: (bin(cover[v] & unhit).count("1"), -v))
        greedy, unhit = greedy | 1 << v, unhit & ~cover[v]
    keep = [everything ^ row for row in cover]
    return [_reference_branch_and_bound(members, keep, greedy, budget)
            for budget in node_budgets]


def _reference_branch_and_bound(members, keep, best, node_budget):
    everything = (1 << len(members)) - 1
    best_size = bin(best).count("1")
    masks = {}

    def lowest(unsatisfied):
        return (unsatisfied & -unsatisfied).bit_length() - 1

    def spare(i):
        if i not in masks:
            mask = everything
            for v in members[i]:
                mask &= keep[v]
            masks[i] = mask
        return masks[i]

    def bound(unsatisfied):
        count = 0
        while unsatisfied:
            unsatisfied &= spare(lowest(unsatisfied))
            count += 1
        return count

    def children(chosen, size, unsatisfied):
        for v in members[lowest(unsatisfied)]:
            yield chosen | 1 << v, size + 1, unsatisfied & keep[v]

    nodes, stack = 0, [iter([(0, 0, everything)])]
    while stack:
        chosen, size, unsatisfied = next(stack[-1], (0, best_size, 0))
        if size >= best_size:
            stack.pop()
            continue
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            break
        if not unsatisfied:
            best, best_size = chosen, size
        elif size + bound(unsatisfied) < best_size:
            stack.append(children(chosen, size, unsatisfied))
    return best, best_size, not stack, nodes, len(masks)
