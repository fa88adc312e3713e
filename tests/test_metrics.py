import itertools
import random
import tracemalloc

import pytest

from dbic import metrics
from dbic.balls import ball_bfs
from dbic.errors import InvalidParameters
from dbic.graph import DeBruijnGraph
from dbic.metrics import (bfs_distances, construct_antipodal, distance,
                          eccentricity, eccentricity_table,
                          orbit_representatives, radius_diameter)
from dbic.strings import DBString, decode, encode

from oracles import distances_from


def vid(text, d):
    return encode(DBString.parse(text, d))


class TestDistance:
    def test_opposite_corners(self):
        g = DeBruijnGraph(2, 3)
        assert distance(g, vid("000", 2), vid("111", 2)) == 3

    def test_everything_within_two_of_011(self):
        g = DeBruijnGraph(2, 3)
        assert all(distance(g, vid("011", 2), v) <= 2 for v in range(8))

    def test_self_distance_zero(self):
        g = DeBruijnGraph(3, 2)
        assert distance(g, 5, 5) == 0

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (2, 8)])
    def test_matches_string_oracle(self, d, n):
        g = DeBruijnGraph(d, n)
        # distance() stops early, so it is checked separately, from at
        # most 16 sources to keep B(2,8) quick
        step = max(1, g.vertex_count // 16)
        for v in range(g.vertex_count):
            dist = bfs_distances(g, v)
            oracle = distances_from(g.vertex_string(v), d)
            for w in range(g.vertex_count):
                assert dist[w] == oracle[g.vertex_string(w)]
            if v % step == 0:
                for w in range(g.vertex_count):
                    assert distance(g, v, w) == oracle[g.vertex_string(w)]

    def test_metric_axioms_on_samples(self):
        g = DeBruijnGraph(3, 3)
        rng = random.Random(7)
        for _ in range(50):
            x, y, z = (rng.randrange(g.vertex_count) for _ in range(3))
            assert distance(g, x, y) == distance(g, y, x)
            assert distance(g, x, z) <= distance(g, x, y) + distance(g, y, z)

    def test_ball_consistency(self):
        g = DeBruijnGraph(2, 4)
        for x in range(g.vertex_count):
            dist = bfs_distances(g, x)
            for t in (0, 1, 2):
                ball = ball_bfs(g, x, t)
                for y in range(g.vertex_count):
                    assert bool((ball >> y) & 1) == (dist[y] <= t)


class TestEccentricity:
    def test_all_ternary_pairs_have_eccentricity_two(self):
        g = DeBruijnGraph(3, 2)
        for v in range(9):
            assert eccentricity(g, v).eccentricity == 2

    def test_figure_vertex(self):
        g = DeBruijnGraph(2, 3)
        rep = eccentricity(g, vid("011", 2))
        assert rep.eccentricity == 2

    def test_ternary_length_four_instance(self):
        g = DeBruijnGraph(3, 4)
        assert eccentricity(g, vid("0121", 3)).eccentricity == 4

    def test_witness_is_smallest_maximizer(self):
        g = DeBruijnGraph(2, 3)
        # vertices at distance 3 from 000 are 101 and 111
        rep = eccentricity(g, vid("000", 2))
        assert rep.eccentricity == 3
        assert g.vertex_string(rep.witness) == "101"

    def test_full_table_for_figure_graph(self):
        g = DeBruijnGraph(2, 3)
        table = {(g.vertex_string(r.vertex)):
                 (r.eccentricity, g.vertex_string(r.witness))
                 for r in eccentricity_table(g)}
        assert table == {
            "000": (3, "101"), "001": (2, "101"), "010": (3, "111"),
            "011": (2, "000"), "100": (2, "011"), "101": (3, "000"),
            "110": (2, "000"), "111": (3, "000"),
        }


def bfs_eccentricity(g, v):
    """(eccentricity, smallest id that far) from a whole BFS."""
    dist = bfs_distances(g, v)
    far = max(dist)
    return far, dist.index(far)


class TestEccentricityWalk:
    @pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 33)
                                     for n in range(1, 11)
                                     if d ** n <= 1024])
    def test_every_vertex_matches_bfs(self, d, n):
        g = DeBruijnGraph(d, n)
        got = [(r.eccentricity, r.witness) for r in eccentricity_table(g)]
        assert got == [bfs_eccentricity(g, v)
                       for v in range(g.vertex_count)]

    @pytest.mark.parametrize("d,n", [(2, 12), (3, 7)])
    def test_seeded_vertices_match_bfs(self, d, n):
        g = DeBruijnGraph(d, n)
        for v in random.Random(d * 100 + n).sample(range(g.vertex_count),
                                                   200):
            rep = eccentricity(g, v)
            assert (rep.eccentricity, rep.witness) == bfs_eccentricity(g, v)

    def test_runs_no_traversal(self, monkeypatch):
        calls = []
        layers = DeBruijnGraph.bfs_layers
        monkeypatch.setattr(
            DeBruijnGraph, "bfs_layers", lambda g, v, radius=None:
            calls.append(v) or layers(g, v, radius))
        g = DeBruijnGraph(2, 10)
        eccentricity_table(g)
        eccentricity(DeBruijnGraph(3, 6), 100)
        assert calls == []

    def test_memory_is_not_of_the_graph(self):
        """B(2,19) has 524,288 vertices, so a byte per vertex alone would
        be half a MiB."""
        g = DeBruijnGraph(2, 19)
        for v in (0, 66172, 2 ** 19 - 1):
            tracemalloc.start()
            try:
                eccentricity(g, v)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20, v

    def test_complete_graphs(self):
        """B(d,1) for d up to 1,024, past the BFS check above, is the
        complete graph: every other id lies at distance 1."""
        for d in range(33, 1025):
            g = DeBruijnGraph(d, 1)
            for v in (0, d - 1):
                assert eccentricity(g, v) == metrics.EccentricityReport(
                    vertex=v, eccentricity=1, witness=1 if v == 0 else 0)

    def test_checks_the_vertex(self):
        with pytest.raises(InvalidParameters):
            eccentricity(DeBruijnGraph(2, 3), 8)


class TestRadiusDiameter:
    def test_ternary_cube(self):
        assert radius_diameter(DeBruijnGraph(3, 3)) == (3, 3)

    def test_binary_figure_graph(self):
        assert radius_diameter(DeBruijnGraph(2, 3)) == (2, 3)

    def test_single_edge(self):
        assert radius_diameter(DeBruijnGraph(2, 1)) == (1, 1)


def graphs_up_to(limit, max_d=None):
    """Every (d, n) with d^n <= limit, d capped at max_d when given."""
    top = limit if max_d is None else max_d
    return [(d, n) for d in range(2, top + 1)
            for n in range(1, limit.bit_length()) if d ** n <= limit]


def orbits(d, n):
    """Orbit index of every word of B(d, n), closed by brute force under
    a transposition and a cycle of the symbols, which generate all d!
    permutations, and reversal."""
    maps = [lambda w: w[::-1],
            lambda w: tuple((a + 1) % d for a in w)]
    if d > 2:
        maps.append(lambda w: tuple({0: 1, 1: 0}.get(a, a) for a in w))
    orbit_of, count = {}, 0
    for start in itertools.product(range(d), repeat=n):
        if start in orbit_of:
            continue
        orbit_of[start], stack = count, [start]
        while stack:
            word = stack.pop()
            for image in (f(word) for f in maps):
                if image not in orbit_of:
                    orbit_of[image] = count
                    stack.append(image)
        count += 1
    return orbit_of, count


class TestOrbitRepresentatives:
    @pytest.mark.parametrize("d,n", graphs_up_to(1024, max_d=32))
    def test_one_word_per_orbit(self, d, n):
        orbit_of, count = orbits(d, n)
        reps = list(orbit_representatives(d, n))
        assert reps == sorted(reps)
        hit = [orbit_of[decode(v, d, n).digits] for v in reps]
        assert sorted(hit) == list(range(count))

    @pytest.mark.parametrize("d,n", graphs_up_to(1024, max_d=32))
    def test_yields_each_word_live(self, d, n):
        """The radius reads each representative's digits from the list the
        generator grows, so the list must be that word when yielded."""
        for value, word in metrics._representatives_from([], d, n, 0, 0):
            assert tuple(word) == decode(value, d, n).digits

    def test_one_word_per_orbit_of_complete_graphs(self):
        """n = 1: every symbol permutation is one orbit of d words."""
        for d in range(2, 1025):
            assert list(orbit_representatives(d, 1)) == [0]

    @pytest.mark.parametrize("d,n,count", [(2, 8, 72), (4, 4, 11),
                                           (6, 3, 4), (3, 5, 25)])
    def test_counts(self, d, n, count):
        assert sum(1 for _ in orbit_representatives(d, n)) == count


class TestRadiusDiameterByOrbit:
    @pytest.mark.parametrize("d,n", graphs_up_to(1024, max_d=16))
    def test_matches_every_vertex(self, d, n):
        """Against each vertex's BFS, not the walk that the radius runs."""
        g = DeBruijnGraph(d, n)
        eccs = [max(bfs_distances(g, v)) for v in range(g.vertex_count)]
        assert radius_diameter(g) == (min(eccs), max(eccs))

    @pytest.mark.parametrize("d,n", [(d, n) for d, n in
                                     graphs_up_to(1024, max_d=16) if d >= 3]
                             + [(3, 7)])
    def test_every_vertex_has_eccentricity_n(self, d, n):
        """The paper's result for d >= 3, with `construct_antipodal`
        naming a vertex at distance n from each representative."""
        g = DeBruijnGraph(d, n)
        assert radius_diameter(g) == (n, n)
        for v in orbit_representatives(d, n):
            far = encode(construct_antipodal(decode(v, d, n)))
            assert distance(g, v, far) == n

    def spy_traversals(self, monkeypatch):
        calls = []
        layers = DeBruijnGraph.bfs_layers
        monkeypatch.setattr(
            DeBruijnGraph, "bfs_layers", lambda g, v, radius=None:
            calls.append((v, radius)) or layers(g, v, radius))
        return calls

    def spy_walks(self, monkeypatch):
        calls = []
        walk = metrics._outside
        monkeypatch.setattr(metrics, "_outside", lambda d, n, t, x:
                            calls.append((encode(DBString(d, tuple(x))), t))
                            or walk(d, n, t, x))
        return calls

    def test_binary_walks_every_orbit_with_no_traversal(self, monkeypatch):
        """d = 2 has no far-vertex certificate: each representative, in
        order, is walked short of the diameter, and nothing traverses."""
        calls = self.spy_traversals(monkeypatch)
        walks = self.spy_walks(monkeypatch)
        assert radius_diameter(DeBruijnGraph(2, 8)) == (7, 8)
        assert calls == []
        assert list(dict.fromkeys(v for v, _ in walks)) == \
            list(orbit_representatives(2, 8))
        assert all(t < 8 for _, t in walks)

    @pytest.mark.parametrize("d,n", [(3, 4), (3, 5), (3, 6), (3, 7), (4, 4)])
    def test_antipodal_certificate_skips_every_traversal(self, d, n,
                                                         monkeypatch):
        calls = self.spy_traversals(monkeypatch)
        assert radius_diameter(DeBruijnGraph(d, n)) == (n, n)
        assert calls == []

    @pytest.mark.parametrize("d,n", [(d, n) for d, n in
                                     graphs_up_to(4096, max_d=64) if d >= 3])
    def test_failed_certificate_falls_back_to_traversal(self, d, n,
                                                        monkeypatch):
        """A witness inside the ball certifies nothing, so the answer
        comes from the walks alone."""
        monkeypatch.setattr(metrics, "_antipodal_id", lambda d, word:
                            encode(DBString(d, tuple(word))))
        assert radius_diameter(DeBruijnGraph(d, n)) == (n, n)

    def test_failed_certificate_walks_each_orbit_with_no_traversal(
            self, monkeypatch):
        monkeypatch.setattr(metrics, "_antipodal_id", lambda d, word:
                            encode(DBString(d, tuple(word))))
        calls = self.spy_traversals(monkeypatch)
        walks = self.spy_walks(monkeypatch)
        assert radius_diameter(DeBruijnGraph(3, 4)) == (4, 4)
        assert calls == []
        assert walks == [(v, 3) for v in orbit_representatives(3, 4)]


def reference_antipodal(y):
    """The recursion of `construct_antipodal` on one validated DBString
    per level, kept as the reference for its digit-tuple form."""
    d, digs = y.d, y.digits
    n = len(digs)
    if n == 1:
        return DBString(d, (min(a for a in range(d) if a != digs[0]),))
    if n == 2:
        z = min(a for a in range(d) if a not in digs)
        return DBString(d, (z, z))
    if n == 3:
        unused = [a for a in range(d) if a not in digs]
        a = min(unused) if unused else digs[1]
        return DBString(d, (a, a, a))
    core = reference_antipodal(DBString(d, digs[1:-1]))
    head_choices = [a for a in range(d) if a not in (digs[-2], digs[-1])]
    tail_choices = [a for a in range(d) if a not in (digs[0], digs[1])]
    return DBString(d, (head_choices[0],) + core.digits + (tail_choices[0],))


class TestConstructAntipodal:
    @pytest.mark.parametrize("d,n", [(d, n) for d, n in
                                     graphs_up_to(4096, max_d=64) if d >= 3])
    def test_matches_reference_recursion(self, d, n):
        for v in range(d ** n):
            y = decode(v, d, n)
            assert construct_antipodal(y) == reference_antipodal(y), str(y)

    def test_rejects_empty_word(self):
        with pytest.raises(InvalidParameters):
            construct_antipodal(DBString(3, ()))

    def test_pair_base_case(self):
        assert str(construct_antipodal(DBString.parse("01", 3))) == "22"

    def test_triple_base_case_all_symbols_used(self):
        assert str(construct_antipodal(DBString.parse("012", 3))) == "111"

    def test_triple_base_case_with_unused_symbol(self):
        assert str(construct_antipodal(DBString.parse("010", 3))) == "222"
        assert str(construct_antipodal(DBString.parse("012", 4))) == "333"

    def test_recursive_case(self):
        y = DBString.parse("0120", 3)
        x = construct_antipodal(y)
        assert str(x) == "1002"
        g = DeBruijnGraph(3, 4)
        assert distance(g, encode(y), encode(x)) == 4

    def test_rejects_binary_alphabet(self):
        # B(2,3) has no vertex at distance 3 from 011
        with pytest.raises(InvalidParameters):
            construct_antipodal(DBString.parse("011", 2))

    @pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                     (4, 1), (4, 2), (4, 3), (5, 2)])
    def test_distance_is_exactly_n(self, d, n):
        g = DeBruijnGraph(d, n)
        from dbic.strings import decode
        for v in range(g.vertex_count):
            x = construct_antipodal(decode(v, d, n))
            assert bfs_distances(g, v)[encode(x)] == n
