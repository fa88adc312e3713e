import itertools
import random
import tracemalloc
from array import array

import pytest

from dbic import graph
from dbic.balls import ball_bfs
from dbic.errors import InvalidParameters
from dbic.graph import DeBruijnGraph, export_dot
from dbic.strings import DBString, encode
from dbic.vertexset import mask_of, to_ids

from oracles import (all_strings, distances_from, neighbor_strings,
                     undirected_edge_set)


def vid(text, d):
    return encode(DBString.parse(text, d))


class TestBuild:
    def test_figure_graph_shape(self):
        g = DeBruijnGraph(2, 3)
        assert g.vertex_count == 8
        assert g.edge_count() == 13
        assert len(g.loop_vertices()) == 2

    def test_ternary_pairs(self):
        assert DeBruijnGraph(3, 2).vertex_count == 9

    def test_smallest_case(self):
        assert DeBruijnGraph(2, 1).vertex_count == 2

    @pytest.mark.parametrize("d,n", [(1, 3), (0, 1), (2, 0), (2, -1)])
    def test_rejects_bad_parameters(self, d, n):
        with pytest.raises(InvalidParameters):
            DeBruijnGraph(d, n)

    def test_rejects_oversized_graph(self):
        with pytest.raises(InvalidParameters):
            DeBruijnGraph(10, 7)  # 10^7 > default cap
        DeBruijnGraph(10, 6)

    def test_cap_is_configurable(self):
        with pytest.raises(InvalidParameters):
            DeBruijnGraph(2, 5, max_vertices=16)

    def test_params_json(self):
        assert DeBruijnGraph(3, 2).params() == {"d": 3, "n": 2}


class TestNeighbors:
    def test_neighbors_of_011(self):
        g = DeBruijnGraph(2, 3)
        nbrs = mask_of(g.neighbor_ids(vid("011", 2)))
        ids = to_ids(nbrs)
        assert [g.vertex_string(v) for v in ids] == ["001", "101", "110", "111"]

    def test_loop_stripped_at_000(self):
        g = DeBruijnGraph(2, 3)
        nbrs = mask_of(g.neighbor_ids(vid("000", 2)))
        ids = to_ids(nbrs)
        assert [g.vertex_string(v) for v in ids] == ["001", "100"]

    def test_neighbors_ternary(self):
        g = DeBruijnGraph(3, 2)
        got = {g.vertex_string(v) for v in g.neighbor_ids(vid("12", 3))}
        assert got == {"01", "11", "21", "20", "22"}

    def test_has_loop_only_on_constant_words(self):
        g = DeBruijnGraph(3, 2)
        loops = [v for v in range(9) if g.has_loop(v)]
        assert [g.vertex_string(v) for v in loops] == ["00", "11", "22"]

    def test_rejects_out_of_range_vertex(self):
        g = DeBruijnGraph(2, 2)
        with pytest.raises(InvalidParameters):
            g.neighbor_ids(4)

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 6), (3, 4), (4, 3), (2, 12)])
    def test_symmetry_exhaustive(self, d, n):
        g = DeBruijnGraph(d, n)
        nbrs = [mask_of(g.neighbor_ids(v)) for v in range(g.vertex_count)]
        for v in range(g.vertex_count):
            for w in to_ids(nbrs[v]):
                assert (nbrs[w] >> v) & 1

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 3), (4, 2)])
    def test_degree_bound_and_oracle_agreement(self, d, n):
        g = DeBruijnGraph(d, n)
        for v, word in enumerate(all_strings(d, n)):
            got = {g.vertex_string(u) for u in g.neighbor_ids(v)}
            assert got == neighbor_strings(word, d)
            assert len(got) <= 2 * d


class TestBfsLayers:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (3, 3), (4, 2)])
    def test_layers_are_exact_distance_classes(self, d, n):
        g = DeBruijnGraph(d, n)
        for v in range(g.vertex_count):
            oracle = distances_from(g.vertex_string(v), d)
            layers = list(g.bfs_layers(v))
            assert layers[0] == [v]
            for depth, layer in enumerate(layers):
                assert len(layer) == len(set(layer))
                assert {g.vertex_string(w) for w in layer} == \
                    {w for w, k in oracle.items() if k == depth}

    def test_radius_stops_the_traversal(self):
        g = DeBruijnGraph(2, 6)
        full = list(g.bfs_layers(5))
        for radius in range(len(full) + 2):
            assert list(g.bfs_layers(5, radius)) == full[:radius + 1]

    @pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 9)]
                             + [(3, n) for n in range(1, 6)]
                             + [(4, n) for n in range(1, 5)])
    def test_diameter_stops_the_traversal(self, d, n):
        """The diameter is n: no radius, radius n and radius n + 3 give the
        same layers, at most n + 1 of them, covering every vertex."""
        g = DeBruijnGraph(d, n)
        for v in range(g.vertex_count):
            layers = list(g.bfs_layers(v))
            assert list(g.bfs_layers(v, n)) == layers
            assert list(g.bfs_layers(v, n + 3)) == layers
            assert len(layers) <= n + 1
            assert sum(map(len, layers)) == g.vertex_count

    def test_rejects_bad_radius_and_vertex(self):
        g = DeBruijnGraph(2, 3)
        with pytest.raises(InvalidParameters):
            next(g.bfs_layers(0, -1))
        with pytest.raises(InvalidParameters):
            next(g.bfs_layers(8))


def column_rows(count, lo, hi):
    """Start rows with bit w - lo at each vertex w in [lo, hi), 0 elsewhere."""
    rows = [0] * count
    rows[lo:hi] = [1 << k for k in range(hi - lo)]
    return rows


class TestBallRows:
    # the graphs of the codes oracle grid
    GRAPHS = [(2, 4), (2, 5), (3, 3), (4, 2), (2, 8)]

    @pytest.mark.parametrize("d,n", GRAPHS)
    def test_rows_equal_bfs_balls_at_every_radius(self, d, n):
        g = DeBruijnGraph(d, n)
        count = g.vertex_count
        for lo, hi in [(0, count), (1, count // 2 + 1), (count - 1, count)]:
            window = (1 << hi) - (1 << lo)
            for r in range(n + 1):  # B_n is the whole graph
                rows = g.grow_rows(column_rows(count, lo, hi), r)
                assert rows == [(ball_bfs(g, v, r) & window) >> lo
                                for v in range(count)], (lo, hi, r)

    @pytest.mark.parametrize("d,n", GRAPHS)
    def test_rounds_in_short_slices(self, d, n, monkeypatch):
        # slices of 3 entries, so a round takes several and the last is short
        monkeypatch.setattr(graph, "_ROUND_SLICE", 3)
        g = DeBruijnGraph(d, n)
        count = g.vertex_count
        for r in range(n + 1):
            rows = g.grow_rows(column_rows(count, 0, count), r)
            assert rows == [ball_bfs(g, v, r) for v in range(count)]

    @pytest.mark.parametrize("d,n", GRAPHS)
    def test_grow_rows_ors_start_rows_over_each_ball(self, d, n):
        """Both kernels, `grow_rows` on 5-bit and 64-bit start rows and
        `grow_words` on the 64-bit ones, against an OR over each ball."""
        g = DeBruijnGraph(d, n)
        rng = random.Random(g.vertex_count)
        for bits in (5, 64):
            start = [rng.getrandbits(bits) for _ in range(g.vertex_count)]
            for r in range(4):
                want = []
                for v in range(g.vertex_count):
                    row = 0
                    for w in to_ids(ball_bfs(g, v, r)):
                        row |= start[w]
                    want.append(row)
                assert g.grow_rows(list(start), r) == want, (bits, r)
                if bits == 64:
                    words = g.grow_words(array("Q", start), r)
                    assert words.tolist() == want, r

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 10)])
    def test_grow_words_equals_grow_rows(self, d, n):
        """On the graphs twin labelling takes one-word rows on, at every
        radius it uses them for, and one past."""
        g = DeBruijnGraph(d, n)
        rng = random.Random(g.vertex_count)
        start = [rng.getrandbits(64) for _ in range(g.vertex_count)]
        for r in (1, 2, 3):
            words = g.grow_words(array("Q", start), r)
            assert words.tolist() == g.grow_rows(list(start), r), r

    def test_grow_rows_needs_a_row_per_vertex(self):
        with pytest.raises(InvalidParameters):
            DeBruijnGraph(2, 3).grow_rows([0] * 7, 1)

    def test_grow_words_needs_a_word_per_vertex(self):
        g = DeBruijnGraph(2, 3)
        for rows in (array("Q", [0] * 7), array("Q", [0] * 9),
                     array("I", [0] * 8)):
            with pytest.raises(InvalidParameters):
                g.grow_words(rows, 1)

    def test_grow_words_rejects_negative_radius(self):
        with pytest.raises(InvalidParameters):
            DeBruijnGraph(2, 3).grow_words(array("Q", [0] * 8), -1)

    @pytest.mark.parametrize("d,n", [(2, 4), (3, 2), (5, 1)])
    def test_grow_words_past_the_diameter(self, d, n):
        """Radius n leaves every word the OR of all start words, and no
        radius past it changes that; the array is updated in place."""
        g = DeBruijnGraph(d, n)
        rng = random.Random(7)
        start = [rng.getrandbits(64) for _ in range(g.vertex_count)]
        everything = 0
        for row in start:
            everything |= row
        for r in (n, n + 1, n + 5):
            rows = array("Q", start)
            assert g.grow_words(rows, r) is rows
            assert rows.tolist() == [everything] * g.vertex_count, r
        assert g.grow_words(array("Q", start), 0).tolist() == start

    def test_radius_caps_the_rounds_at_n(self, monkeypatch):
        g = DeBruijnGraph(2, 4)
        calls = []

        def or_(a, b):  # counted: no round past the n-th may run
            calls.append(1)
            return a | b

        monkeypatch.setattr(graph, "or_", or_)

        def ors(radius):
            calls.clear()
            rows = g.grow_rows(column_rows(16, 0, 16), radius)
            return len(calls), rows

        assert ors(0) == (0, column_rows(16, 0, 16))
        per_round = ors(1)[0]
        assert ors(3)[0] == 3 * per_round
        assert ors(9) == ors(4) == (4 * per_round, [(1 << 16) - 1] * 16)
        rows = column_rows(16, 0, 16)
        assert g.grow_rows(rows, 2) is rows  # updated in place

    def test_empty_stripe(self):
        g = DeBruijnGraph(3, 2)
        assert all(g.grow_rows([0] * 9, r) == [0] * 9 for r in range(4))

    def test_rejects_negative_radius(self):
        with pytest.raises(InvalidParameters):
            DeBruijnGraph(2, 3).grow_rows([0] * 8, -1)


class TestAutomorphisms:
    """Renaming the symbols and reversing the words map B(d, n) onto
    itself, the symmetry that `metrics.radius_diameter` reduces by."""

    SMALL = [(d, n) for d in (2, 3, 4) for n in range(1, 9) if d ** n <= 256]

    @pytest.mark.parametrize("d,n", SMALL)
    def test_preserve_oracle_edge_set(self, d, n):
        edges = undirected_edge_set(d, n)

        def image(word_map):
            return {tuple(sorted((word_map(u), word_map(v))))
                    for u, v in edges}

        for perm in itertools.permutations("0123"[:d]):
            rename = str.maketrans("0123"[:d], "".join(perm))
            assert image(lambda w: w.translate(rename)) == edges, perm
        assert image(lambda w: w[::-1]) == edges


class TestEdges:
    @pytest.mark.parametrize("d,n,count", [(2, 3, 13), (2, 1, 1), (3, 1, 3)])
    def test_edge_counts(self, d, n, count):
        assert DeBruijnGraph(d, n).edge_count() == count

    def test_smallest_case_edge(self):
        g = DeBruijnGraph(2, 1)
        assert list(g.edges()) == [(0, 1)]

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 5), (3, 3), (4, 2)])
    def test_edges_match_oracle_and_degrees(self, d, n):
        g = DeBruijnGraph(d, n)
        edges = list(g.edges())
        assert edges == sorted(edges)
        assert len(edges) == len(set(edges))
        assert all(u < v for u, v in edges)
        named = {(g.vertex_string(u), g.vertex_string(v)) for u, v in edges}
        assert named == undirected_edge_set(d, n)
        degree_sum = sum(len(g.neighbor_ids(v)) for v in range(g.vertex_count))
        assert degree_sum == 2 * len(edges)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_form_count_matches_enumeration(self, d, n):
        g = DeBruijnGraph(d, n)
        assert g.edge_count() == sum(1 for _ in g.edges())

    def test_edges_hold_no_edge_set(self):
        """A full pass over B(2,14)'s 32,765 edges keeps no record of the
        edges already emitted: its traced peak stays under 1 MiB."""
        g = DeBruijnGraph(2, 14)
        tracemalloc.start()
        try:
            assert sum(1 for _ in g.edges()) == g.edge_count()
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
        finally:
            tracemalloc.stop()


class TestDotExport:
    def test_figure_highlight(self):
        g = DeBruijnGraph(2, 3)
        dot = export_dot(g, mask_of([vid("011", 2)]))
        assert dot.count('"011"') >= 2  # node stanza plus incident edges
        assert '"011" [style=filled' in dot
        # one stanza per vertex
        assert sum(line.strip().startswith('"') and line.strip().endswith(";")
                   and "--" not in line for line in dot.splitlines()) == 8
        # loops drawn even though adjacency strips them
        assert '"000" -- "000";' in dot
        assert '"111" -- "111";' in dot

    def test_smallest_case(self):
        dot = export_dot(DeBruijnGraph(2, 1), 0)
        assert '"0" -- "1";' in dot

    def test_nine_nodes_no_highlight(self):
        dot = export_dot(DeBruijnGraph(3, 2), 0)
        assert "[style=filled" not in dot
        assert dot.count(";") >= 9

    def test_deterministic(self):
        g = DeBruijnGraph(3, 2)
        assert export_dot(g, 0) == export_dot(g, 0)

    def test_rejects_foreign_highlight(self):
        with pytest.raises(InvalidParameters):
            export_dot(DeBruijnGraph(2, 2), mask_of([9]))
