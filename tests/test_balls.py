import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbic.balls import (BFB, FBF, Pattern, _ball_contains, _outside,
                        _run_triples, _shape, _shapes, all_balls, ball_bfs,
                        ball_closed_form, prefix_bound,
                        prefix_bound_corrected, prefix_margin, prefix_set)
from dbic.errors import InvalidParameters, NotApplicable
from dbic.graph import DeBruijnGraph
from dbic.metrics import bfs_distances
from dbic.strings import DBString, decode, encode
from dbic import vertexset
from dbic.codes import code_strings
from dbic.vertexset import bits, mask_of, popcount, to_ids

from oracles import (all_strings, ball_strings, run_triples,
                     triple_pattern)


def names(g, mask):
    return {g.vertex_string(v) for v in to_ids(mask)}


class TestBallBfs:
    def test_radius_one_at_011(self):
        g = DeBruijnGraph(2, 3)
        got = names(g, ball_bfs(g, encode(DBString.parse("011", 2)), 1))
        assert got == {"011", "001", "101", "110", "111"}

    def test_radius_zero(self):
        g = DeBruijnGraph(3, 4)
        assert to_ids(ball_bfs(g, 17, 0)) == [17]

    def test_radius_two_at_011_reaches_everything(self):
        # hand BFS: 000 and 100 are both two steps away via 001
        g = DeBruijnGraph(2, 3)
        got = names(g, ball_bfs(g, encode(DBString.parse("011", 2)), 2))
        assert got == set(all_strings(2, 3))

    def test_frozen_two_ball_in_ternary(self):
        g = DeBruijnGraph(3, 3)
        got = names(g, ball_bfs(g, encode(DBString.parse("012", 3)), 2))
        assert got == {
            "000", "001", "010", "011", "012", "020", "100", "101", "110",
            "112", "120", "121", "122", "200", "201", "202", "210", "211",
            "212", "220", "221", "222",
        }

    def test_rejects_negative_radius(self):
        with pytest.raises(InvalidParameters):
            ball_bfs(DeBruijnGraph(2, 2), 0, -1)

    @pytest.mark.parametrize("d,n,t", [(2, 4, 1), (2, 5, 2), (3, 3, 1),
                                       (3, 3, 2), (4, 2, 1), (2, 8, 7)])
    def test_matches_string_oracle(self, d, n, t):
        g = DeBruijnGraph(d, n)
        for v in range(g.vertex_count):
            assert names(g, ball_bfs(g, v, t)) == \
                ball_strings(g.vertex_string(v), d, t)

    def test_all_balls_indexed_by_vertex(self):
        g = DeBruijnGraph(2, 3)
        balls = all_balls(g, 1)
        assert len(balls) == 8
        for v in range(8):
            assert balls[v] == ball_bfs(g, v, 1)


class TestPathParams:
    """The package's run triples against the oracle's brute-force filter."""

    def test_radius_zero_is_empty(self):
        assert list(_run_triples(0)) == [] == run_triples(0)

    def test_radius_one(self):
        assert list(_run_triples(1)) == [(FBF, (0, 1, 0)), (BFB, (0, 1, 0))]

    def test_radius_two_includes_balanced_runs(self):
        # the equal-length run shapes rewrite the first/last symbol and are
        # not reachable through any strictly-dominant triple
        got = list(_run_triples(2))
        assert [runs for kind, runs in got if kind == FBF] == [
            (0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 1, 0)]
        assert [runs for kind, runs in got if kind == BFB] == [
            (0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 1, 0)]

    def test_dominance_and_budget_hold(self):
        for kind, (first, middle, last) in _run_triples(4):
            assert kind in (FBF, BFB)
            assert middle >= 1 and middle >= first and middle >= last
            assert first + middle + last <= 4

    @pytest.mark.parametrize("t", range(13))
    def test_matches_brute_force_filter(self, t):
        assert list(_run_triples(t)) == run_triples(t)


def shape_over(x, kind, runs):
    """The package's shape of a walk, read over the word x."""
    a, start, end, b = _shape(kind, runs, len(x))
    return a, x[start:end], b


def render(pattern):
    a, mid, b = pattern
    return "*" * a + mid + "*" * b


class TestPatternFor:
    """The package's shapes against the oracle's patterns, and the
    oracle's patterns against the oracle's balls."""

    def test_single_backward_step(self):
        assert render(shape_over("0112", FBF, (0, 1, 0))) == "112*"
        assert render(triple_pattern("0112", FBF, (0, 1, 0))) == "112*"

    def test_single_forward_step(self):
        assert render(shape_over("0112", BFB, (0, 1, 0))) == "*011"
        assert render(triple_pattern("0112", BFB, (0, 1, 0))) == "*011"

    def test_empty_middle(self):
        assert shape_over("01", FBF, (0, 2, 0)) == (0, "", 2) == \
            triple_pattern("01", FBF, (0, 2, 0))
        assert render(triple_pattern("01", FBF, (0, 2, 0))) == "**"

    def test_balanced_runs_rewrite_first_symbol(self):
        assert render(shape_over("0112", FBF, (0, 1, 1))) == "*112"
        assert render(triple_pattern("0112", FBF, (0, 1, 1))) == "*112"

    def test_not_applicable_when_run_exceeds_length(self):
        for kind in (FBF, BFB):
            with pytest.raises(NotApplicable):
                _shape(kind, (0, 3, 0), 2)
            assert triple_pattern("01", kind, (0, 3, 0)) is None

    GRID = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]

    @pytest.mark.parametrize("d,n", GRID)
    def test_shapes_equal_oracle_patterns(self, d, n):
        """Every walk of at most n shifts, so of every radius t <= n."""
        for x in all_strings(d, n):
            for kind, runs in run_triples(n):
                assert shape_over(x, kind, runs) == \
                    triple_pattern(x, kind, runs), (x, kind, runs)

    @pytest.mark.parametrize("d,n", GRID)
    def test_patterns_and_centre_make_the_ball(self, d, n):
        """The run-triple lemma on strings alone: B_t(x) is x and every
        word that some walk's pattern matches."""
        for x in all_strings(d, n):
            for t in range(n + 1):
                reached = {x}
                for kind, runs in run_triples(t):
                    a, mid, b = triple_pattern(x, kind, runs)
                    reached |= {p + mid + s for p in all_strings(d, a)
                                for s in all_strings(d, b)}
                assert reached == ball_strings(x, d, t), (x, t)

    def test_expansion_cardinality(self):
        p = Pattern(3, 1, DBString.parse("01", 3), 1)
        assert p.count == 9
        assert popcount(p.expand()) == 9

    def test_expansion_matches_brute_force(self):
        p = Pattern(3, 2, DBString.parse("2", 3), 1)
        got = {str(decode(v, 3, 4)) for v in to_ids(p.expand())}
        want = {a + b + "2" + c
                for a in "012" for b in "012" for c in "012"}
        assert got == want

    def test_bracketed_form_for_wide_alphabets(self):
        p = Pattern(12, 1, DBString(12, (10, 3)), 0)
        assert str(p) == "[*,10,3]"


class TestClosedForm:
    def test_matches_theorem_ball_shape(self):
        x = DBString.parse("011", 2)
        g = DeBruijnGraph(2, 3)
        assert ball_closed_form(x, 1) == ball_bfs(g, encode(x), 1)

    def test_radius_zero_is_center(self):
        x = DBString.parse("120", 3)
        assert to_ids(ball_closed_form(x, 0)) == [encode(x)]

    def test_covers_first_symbol_rewrites(self):
        # 1100 is two steps from 0100 (0100 -> 1000 -> 1100); only the
        # balanced backward-forward shape produces it
        x = DBString.parse("0100", 2)
        g = DeBruijnGraph(2, 4)
        mask = ball_closed_form(x, 2)
        assert (mask >> encode(DBString.parse("1100", 2))) & 1
        assert mask == ball_bfs(g, encode(x), 2)

    def test_raises_outside_validity(self):
        with pytest.raises(NotApplicable):
            ball_closed_form(DBString.parse("01", 3), 3)

    def test_names_the_first_walk_past_the_word(self):
        with pytest.raises(NotApplicable) as info:
            ball_closed_form(DBString.parse("011", 2), 5)
        assert str(info.value) == \
            "FBF runs (0, 4, 0) leave no middle segment for n=3"

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 10)])
    def test_equals_bfs_on_seeded_vertices(self, d, n):
        g = DeBruijnGraph(d, n)
        rng = random.Random(d * 100 + n)
        for v in (rng.randrange(g.vertex_count) for _ in range(200)):
            x = decode(v, d, n)
            for t in range(1, 5):
                assert ball_closed_form(x, t) == ball_bfs(g, v, t), (str(x), t)

    @pytest.mark.parametrize("d,n,t", [
        (2, 2, 1), (2, 4, 2), (2, 5, 3), (2, 6, 2),
        (3, 2, 2), (3, 3, 2), (3, 4, 3), (3, 5, 2),
        (4, 2, 1), (4, 3, 2), (4, 4, 4),
    ])
    def test_equals_bfs_exhaustively(self, d, n, t):
        g = DeBruijnGraph(d, n)
        for v in range(g.vertex_count):
            x = decode(v, d, n)
            assert ball_closed_form(x, t) == ball_bfs(g, v, t), str(x)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4), (2, 8)])
    def test_equals_bfs_at_every_radius(self, d, n):
        g = DeBruijnGraph(d, n)
        for t in range(n + 1):
            for v in range(g.vertex_count):
                assert ball_closed_form(decode(v, d, n), t) == \
                    ball_bfs(g, v, t), (v, t)

    @pytest.mark.parametrize("n,t,distinct,kept", [
        (12, 12, 251, 91), (12, 6, 49, 28), (12, 3, 12, 10), (12, 1, 2, 2),
    ])
    def test_drops_contained_shapes(self, n, t, distinct, kept):
        """Of the distinct walk shapes, only those that no wider shape at
        the same offset contains are placed."""
        shapes = {_shape(kind, runs, n) for kind, runs in _run_triples(t)}
        assert len(shapes) == distinct
        assert len(_shapes(2, n, t)) == kept

    @pytest.mark.parametrize("d,n", [(2, n) for n in range(1, 8)]
                             + [(3, n) for n in range(1, 6)]
                             + [(4, 1), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
    def test_contains_equals_bfs(self, d, n):
        """The membership test agrees with BFS distances on every ordered
        pair at every radius 1..n."""
        g = DeBruijnGraph(d, n)
        wrong = [(v, w, t) for v in range(g.vertex_count)
                 for dist in [bfs_distances(g, v)]
                 for t in range(1, n + 1)
                 for w in range(g.vertex_count)
                 if _ball_contains(d, n, t, v, w) != (dist[w] <= t)]
        assert wrong == []

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_monotone_and_symmetric(self, d, data):
        n = data.draw(st.integers(1, 5))
        g = DeBruijnGraph(d, n)
        v = data.draw(st.integers(0, g.vertex_count - 1))
        t = data.draw(st.integers(0, n))
        ball = ball_bfs(g, v, t)
        assert ball & ball_bfs(g, v, t + 1) == ball  # monotone in t
        w = data.draw(st.integers(0, g.vertex_count - 1))
        assert bool((ball >> w) & 1) == bool((ball_bfs(g, w, t) >> v) & 1)


def walk_against_bfs(d, n, vertices):
    """Each (v, t), t = 0..n, where the walk is not the least id farther
    than t by BFS, or None when there is none."""
    g = DeBruijnGraph(d, n)
    wrong = []
    for v in vertices:
        dist = bfs_distances(g, v)
        x = decode(v, d, n).digits
        for t in range(n + 1):
            far = next((w for w, k in enumerate(dist) if k > t), None)
            if _outside(d, n, t, x) != far:
                wrong.append((v, t))
    return wrong


class TestOutside:
    @pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 33)
                                     for n in range(1, 11) if d ** n <= 1024])
    def test_equals_bfs(self, d, n):
        """On every vertex at every radius 0..n, the walk gives the least
        id farther than t by BFS, or None when there is none."""
        assert walk_against_bfs(d, n, range(d ** n)) == []

    @pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 17)
                                     for n in range(1, 13)
                                     if 1024 < d ** n <= 4096])
    def test_equals_bfs_on_seeded_vertices(self, d, n):
        """The same on 32 seeded vertices of each graph past 1,024 vertices,
        up to 4,096."""
        rng = random.Random(d * 100 + n)
        assert walk_against_bfs(d, n, rng.sample(range(d ** n), 32)) == []

    @pytest.mark.parametrize("d,n", [(2, 10), (2, 13), (3, 7), (4, 5)])
    def test_least_outside_and_none_past_eccentricity(self, d, n):
        """The answer lies outside the ball and every smaller id other than
        v inside it, and it is None exactly when t >= ecc(v)."""
        g = DeBruijnGraph(d, n)
        rng = random.Random(d * 100 + n)
        for v in rng.sample(range(g.vertex_count), 12):
            dist = bfs_distances(g, v)
            ecc = max(dist)
            for t in range(n + 1):
                w = _outside(d, n, t, decode(v, d, n).digits)
                assert (w is None) == (t >= ecc), (v, t)
                if w is not None:
                    assert w != v and dist[w] > t, (v, t)
                    assert max(dist[:w], default=0) <= t, (v, t)

    def test_complete_graphs(self):
        """B(d,1) for d up to 256, past the BFS check above, is the complete
        graph: every other id lies at distance 1."""
        for d in range(2, 257):
            for v in (0, 1, d - 1):
                assert _outside(d, 1, 0, (v,)) == (1 if v == 0 else 0)
                assert _outside(d, 1, 1, (v,)) is None


def or_loop(ids):
    """Reference for mask_of: one OR per id."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


class TestMaskOf:
    @pytest.mark.parametrize("ids", [
        [], [0], [7], [8], [5, 5, 5], [70000, 3, 9, 3, 64, 0, 15, 16],
        list(range(40, 0, -3)),
    ])
    def test_matches_or_loop(self, ids):
        assert mask_of(ids) == or_loop(ids)

    def test_consumes_a_generator_once(self):
        assert mask_of(v * v for v in range(30)) == \
            or_loop(v * v for v in range(30))
        assert mask_of(iter([])) == 0

    def test_random_ids(self):
        rng = random.Random(7)
        for _ in range(50):
            ids = [rng.randrange(3000) for _ in range(rng.randrange(40))]
            assert mask_of(ids) == or_loop(ids)

    def test_rejects_a_negative_id(self):
        with pytest.raises(ValueError):
            mask_of([3, -1, 5])


def plain_ids(mask):
    """The ids of a nonnegative mask, from its binary digits."""
    return [v for v, digit in enumerate(reversed(format(mask, "b")))
            if digit == "1"]


class TestBits:
    """`bits` against a plain loop on both sides of the width at which it
    switches from taking the lowest bit to scanning the bytes."""

    WIDTHS = [1, 8, 256, vertexset._SCAN_BITS, vertexset._SCAN_BITS + 1,
              65536, 2 ** 20 + 3]

    @pytest.mark.parametrize("width", WIDTHS)
    def test_single_and_edge_bits(self, width):
        top = width - 1
        for mask in [1 << top, 1 | 1 << top, (1 << width) - 1 ^ 1 << top // 2,
                     0xff << max(0, top - 7)]:
            assert to_ids(mask) == plain_ids(mask), (width, mask.bit_count())

    @pytest.mark.parametrize("width", WIDTHS)
    def test_random_masks(self, width):
        rng = random.Random(width)
        for k in [1, 3, 40, width // 3]:
            mask = mask_of(rng.sample(range(width), min(k, width)))
            mask |= 1 << width - 1
            assert list(bits(mask)) == plain_ids(mask), (width, k)
        dense = rng.getrandbits(width) | 1 << width - 1
        assert to_ids(dense) == plain_ids(dense)

    def test_empty(self):
        assert to_ids(0) == [] and list(bits(0)) == []

    def test_runs_across_zero_and_full_bytes(self):
        mask = (0xffff << 9000) | (1 << 40000) | (0xff << 60000) | 1
        assert to_ids(mask) == plain_ids(mask)

    @pytest.mark.parametrize("mask", [-1, -5, -(1 << 70000)],
                             ids=["-1", "-5", "wide"])
    def test_rejects_a_negative_mask(self, mask):
        with pytest.raises(ValueError):
            bits(mask)
        with pytest.raises(ValueError):
            to_ids(mask)
        with pytest.raises(ValueError):
            code_strings(DeBruijnGraph(2, 3), mask)


class TestPrefixSet:
    def test_distinct_prefixes_bounded_pair(self):
        got = {str(p) for p in prefix_set(DBString.parse("0123", 4), 1)}
        assert got <= {"0", "1"}
        assert len(got) <= 2

    def test_constant_word_collapses(self):
        got = prefix_set(DBString.parse("0000", 2), 1)
        assert {str(p) for p in got} == {"0"}

    def test_frozen_ternary_example(self):
        got = {str(p) for p in prefix_set(DBString.parse("001122", 3), 2)}
        assert got == {"00", "01", "10", "11", "20"}
        assert len(got) <= prefix_bound(3, 2).total

    def test_requires_long_strings(self):
        with pytest.raises(InvalidParameters):
            prefix_set(DBString.parse("012", 3), 2)
        with pytest.raises(InvalidParameters):
            prefix_set(DBString.parse("012", 3), 0)

    def test_prefixes_against_string_oracle(self):
        d, n, t = 3, 4, 2
        for v in range(d ** n):
            x = decode(v, d, n)
            word = str(x)
            ball = ball_strings(word, d, t)
            kept = {y[:t] for y in ball if y[t:] != word[:n - t]}
            assert {str(p) for p in prefix_set(x, t)} == kept


class TestPrefixBound:
    def test_radius_one(self):
        b = prefix_bound(3, 1)
        assert (b.center, b.right_shifted, b.left_shifted, b.total) == (1, 1, 0, 2)

    def test_radius_two(self):
        assert prefix_bound(3, 2).total == 6

    def test_radius_three_cases(self):
        b = prefix_bound(4, 3)
        assert b.total == 39
        assert (b.center, b.right_shifted, b.left_shifted) == (1, 6, 32)

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("t", range(1, 9))
    def test_cases_recombine_to_closed_form(self, d, t):
        b = prefix_bound(d, t)
        closed = 1 - d ** (t // 2) + 2 * sum(d ** j for j in range(t))
        assert b.center + b.right_shifted + b.left_shifted == closed
        assert b.total == closed

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            prefix_bound(1, 2)
        with pytest.raises(InvalidParameters):
            prefix_bound(3, 0)


class TestPrefixMargin:
    @pytest.mark.parametrize("d,t,value", [(3, 1, 2), (3, 2, 4), (2, 4, -10)])
    def test_frozen_values(self, d, t, value):
        assert prefix_margin(d, t) == value

    def test_relation_to_bound(self):
        for d in range(2, 7):
            for t in range(1, 9):
                assert prefix_margin(d, t) == d ** t - (prefix_bound(d, t).total - 1)


def widest_prefix_shapes(t):
    """Offset -> widest leading-wildcard count over the t-prefix shapes.

    Built from the run-triple patterns of a word with distinct letters
    0..2t-1, so each pattern's first fixed letter names its start in x.
    The centre x is a shape at offset 0; the pure forward run of t shifts
    is the subtracted forward set and is left out.
    """
    x = range(2 * t)
    widest = {0: 0}
    for kind, runs in run_triples(t):
        a, mid, _ = triple_pattern(x, kind, runs)
        if a >= t:
            continue
        k = mid[0] - a
        widest[k] = max(widest.get(k, 0), a)
    return widest


class TestPrefixBoundCorrected:
    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("t", range(1, 9))
    def test_equals_shape_count(self, d, t):
        widest = widest_prefix_shapes(t)
        assert sorted(widest) == list(range(-(t - 1), t + 1))
        assert prefix_bound_corrected(d, t) == sum(d ** a for a in widest.values())

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("t", range(1, 9))
    def test_exceeds_paper_count_by_balanced_shape(self, d, t):
        assert (prefix_bound_corrected(d, t)
                == prefix_bound(d, t).total + d ** (t // 2) - 1)

    def test_leaves_a_free_prefix_for_d_at_least_three(self):
        for d in range(3, 7):
            for t in range(1, 13):
                assert prefix_bound_corrected(d, t) < d ** t

    @pytest.mark.parametrize("d,t,value", [(3, 2, 8), (4, 3, 42)])
    def test_frozen_values(self, d, t, value):
        assert prefix_bound_corrected(d, t) == value

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            prefix_bound_corrected(1, 2)
        with pytest.raises(InvalidParameters):
            prefix_bound_corrected(3, 0)
