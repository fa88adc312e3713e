import functools
import hashlib
import heapq
import json
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from functools import reduce
from operator import and_, or_
from pathlib import Path

import pytest

import dbic
from dbic import codes
from dbic.balls import all_balls, ball_bfs
from dbic.codes import (DEFAULT_EXACT_CAP, CodeReport, TwinPair,
                        build_constraints, code_strings, find_twins,
                        greedy_code, is_identifiable, min_code, verify_code)
from dbic.errors import (CodeVertexOutOfRange, InfeasibleNoCode,
                         InvalidParameters)
from dbic.graph import DeBruijnGraph
from dbic.strings import DBString, encode
from dbic.vertexset import mask_of, popcount, to_ids

from oracles import (all_strings, ball_strings, code_report, distances_from,
                     reference_search, twin_pairs)

PAPER_CODE_B23 = ["001", "010", "011", "101"]

# (d, n, t) cells checked against the string oracles; B(2,8) at t=7 has
# 12,094 twin pairs, so grouping and pair order are exercised at scale.
ORACLE_GRID = [(2, 4, 1), (2, 5, 2), (3, 3, 1), (3, 3, 2), (4, 2, 1),
               (2, 8, 7)]
TWIN_HEAVY = (2, 8, 7)
# The oracle grid without its twin cell; two dense cells with 2 and 3
# rounds per run; and cells with 2t >= n, where balls of far-apart vertices
# still meet.
PAIR_CELLS = [cell for cell in ORACLE_GRID if cell != TWIN_HEAVY] + [
    (3, 4, 2), (2, 8, 3), (2, 5, 3), (4, 3, 2)]


def peak_bytes(fn, *args):
    """Peak traced Python allocation while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def code_mask(strings, g):
    return mask_of(encode(DBString.parse(s, g.d)) for s in strings)


def flag_bytes(code, count):
    """The code as one byte per vertex, 0xff for a member, else 0."""
    return bytes(0xff if code >> v & 1 else 0 for v in range(count))


def code_digest(code):
    """Short exact fingerprint of a code bitmask."""
    raw = code.to_bytes(-(-code.bit_length() // 8), "little")
    return hashlib.sha256(raw).hexdigest()[:16]


class TestFindTwins:
    def test_no_twins_in_large_ternary(self):
        assert find_twins(DeBruijnGraph(3, 4), 2) == []

    def test_no_twins_in_binary_radius_one(self):
        assert find_twins(DeBruijnGraph(2, 3), 1) == []

    def test_binary_pair_graph_has_twins(self):
        g = DeBruijnGraph(2, 2)
        twins = find_twins(g, 1)
        assert twins == [TwinPair(x=1, y=2, t=1)]  # 01 and 10

    def test_rejects_radius_zero(self):
        with pytest.raises(InvalidParameters):
            find_twins(DeBruijnGraph(2, 2), 0)

    @pytest.mark.parametrize("d,nmax", [(2, 9), (3, 5), (4, 4), (5, 3)])
    def test_agrees_with_all_pairs_oracle(self, d, nmax):
        # direct ball comparison over all pairs, string-based, d^n <= 512
        for n in range(1, nmax + 1):
            g = DeBruijnGraph(d, n)
            for t in (1, 2):
                got = [(g.vertex_string(p.x), g.vertex_string(p.y))
                       for p in find_twins(g, t)]
                assert got == twin_pairs(d, n, t), (d, n, t)

    @pytest.mark.parametrize("d,n,t", ORACLE_GRID)
    def test_grid_matches_oracle_in_order(self, d, n, t):
        g = DeBruijnGraph(d, n)
        got = [(g.vertex_string(p.x), g.vertex_string(p.y))
               for p in find_twins(g, t)]
        assert got == twin_pairs(d, n, t)
        if (d, n, t) == TWIN_HEAVY:
            assert len(got) == 12094


def reference_labels(g, t, code=None):
    """`codes._classes` from one breadth-first ball per vertex, keyed by
    its sorted ids: 0 for the empty set, the others numbered from 1 in
    order of first appearance."""
    return _reference_labels(g.d, g.n, t, code)


@functools.lru_cache(maxsize=None)
def _reference_labels(d, n, t, code):
    g = DeBruijnGraph(d, n)
    ids = {(): 0}
    labels = []
    for v in range(g.vertex_count):
        ball = sorted(w for layer in g.bfs_layers(v, t) for w in layer
                      if code is None or code >> w & 1)
        labels.append(ids.setdefault(tuple(ball), len(ids)))
    return labels


def some_codes(g, t):
    """No code, then four codes: empty, full and two random ones."""
    rng = random.Random(g.vertex_count * 10 + t)
    return [None, 0, (1 << g.vertex_count) - 1,
            rng.getrandbits(g.vertex_count),
            rng.getrandbits(g.vertex_count)
            & rng.getrandbits(g.vertex_count)]


def assert_report(g, t, code, report, failures, collisions):
    """`report` agrees with the oracle's domination failures and its whole
    list of collisions, both as vertex strings: the pairs of equal labels
    are that list, and the report keeps its first 10 and its length."""
    def named(pairs):
        return [(g.vertex_string(x), g.vertex_string(y)) for x, y in pairs]

    assert [g.vertex_string(v)
            for v in report.domination_failures] == failures
    assert named(codes._pairs(codes._classes(g, t, code))) == collisions
    assert named(report.collisions) == collisions[:10]
    assert report.collision_count == len(collisions)


def first_discrete(stripes):
    """How many of the stripes of grown rows it took until every vertex's
    rows so far were not all 0 and unlike every other vertex's, or None if
    they never were."""
    keys = [()] * len(stripes[0])
    for k, grown in enumerate(stripes, 1):
        keys = [key + (row,) for key, row in zip(keys, grown)]
        if all(map(any, keys)) and len(set(keys)) == len(keys):
            return k
    return None


def stripe_stop(stripes):
    """How many of the word stripes `TestClassKernels.words_of` saw the
    rule takes: it stops once every vertex whose grown words so far are
    not all 0 is unlike every other vertex, or once a stripe leaves as
    many such classes as before, or after the last stripe."""
    keys, classes = [()] * len(stripes[0]), 0
    for k, grown in enumerate(stripes, 1):
        keys = [key + (row,) for key, row in zip(keys, grown)]
        nonzero = [key for key in keys if any(key)]
        if len(set(nonzero)) in (len(nonzero), classes):
            return k
        classes = len(set(nonzero))
    return len(stripes)


class TestClassKernels:
    """Rows with a column per vertex, and one 64-bit word of hashed columns
    per vertex in one or more stripes, confirmed exactly, must give every
    vertex the label of a per-vertex key, for balls and for their
    intersections with a code."""

    # cells with 4m < N, the only ones here that take words unforced: one
    # stripe for m <= 64, else ceil(m / 64) at most
    UNFORCED_WORDS = [(2, 10, 2), (3, 6, 2)]
    UNFORCED_STRIPES = [(2, 10, 3)]
    CELLS = ORACLE_GRID + [(2, 10, 8), (3, 6, 5)] + UNFORCED_WORDS \
        + UNFORCED_STRIPES
    PATHS = ["exact", "hashed", "words"]

    @staticmethod
    def confirms(monkeypatch):
        """Spy on `codes._confirm`, which only the word paths call; the list
        gets one entry per call."""
        confirmed = []
        confirm = codes._confirm

        def spy(g, t, labels, member):
            confirmed.append(t)
            return confirm(g, t, labels, member)

        monkeypatch.setattr(codes, "_confirm", spy)
        return confirmed

    @staticmethod
    def kernels(monkeypatch):
        """Spy on both all-sources kernels; the list gets the name of each
        one called, once per call."""
        called = []
        for name in ("grow_rows", "grow_words"):
            def spy(self, rows, radius, name=name,
                    kernel=getattr(DeBruijnGraph, name)):
                called.append(name)
                return kernel(self, rows, radius)

            monkeypatch.setattr(DeBruijnGraph, name, spy)
        return called

    @classmethod
    def force(cls, monkeypatch, path, g, bound=300):
        """Take exact columns, hashed words in several stripes or in one on
        g whatever the cell, through the ball bound m that the rule reads:
        m = N; m = `bound` (up to 5 stripes by default) with words whatever
        N is; or m = 1.  Return the `_confirm` spy's list."""
        if path == "exact":
            bound = g.vertex_count
        elif path == "words":
            bound = 1
        else:
            monkeypatch.setattr(codes, "HASH_COLUMNS_PER_ID", 0)
        monkeypatch.setattr(codes, "_ball_bound", lambda g, r: bound)
        return cls.confirms(monkeypatch)

    @staticmethod
    def words_of(monkeypatch):
        """Spy on `grow_words`; the list gets the grown words of each call,
        one stripe each."""
        stripes = []
        grow_words = DeBruijnGraph.grow_words

        def spy(self, rows, radius):
            rows = grow_words(self, rows, radius)
            stripes.append(list(rows))
            return rows

        monkeypatch.setattr(DeBruijnGraph, "grow_words", spy)
        return stripes

    @staticmethod
    def narrow_words(monkeypatch, columns=2):
        """Every vertex sets one of the first `columns` columns of each
        half of its word, so that rows collide in every stripe."""
        monkeypatch.setattr(codes, "_WORD_BYTES", [
            bytes(1 << b % columns for b in range(256)) if k == 0
            else bytes(256) for k in range(4)])

    @staticmethod
    def stripes_of(monkeypatch):
        """Spy on `grow_rows`; the list gets one entry per call, the ids of
        the vertices whose start row is not 0 and the grown rows."""
        stripes = []
        grow_rows = DeBruijnGraph.grow_rows

        def spy(self, rows, radius):
            starts = [v for v, row in enumerate(rows) if row]
            stripes.append((starts, list(grow_rows(self, rows, radius))))
            return stripes[-1][1]

        monkeypatch.setattr(DeBruijnGraph, "grow_rows", spy)
        return stripes

    @pytest.mark.parametrize("d,n,t", CELLS)
    def test_rows_match_keys(self, d, n, t, monkeypatch):
        g = DeBruijnGraph(d, n)
        for path in self.PATHS:
            with monkeypatch.context() as patch:
                confirmed = self.force(patch, path, g)
                called = self.kernels(patch)
                for code in some_codes(g, t):
                    assert codes._classes(g, t, code) \
                        == reference_labels(g, t, code), (path, code)
                assert len(confirmed) == (0 if path == "exact" else 5)
                assert set(called) == {
                    "grow_rows" if path == "exact" else "grow_words"}
        labels = codes._classes(g, t)
        assert list(codes._pairs(labels)) == [(p.x, p.y)
                                              for p in find_twins(g, t)]

    @pytest.mark.parametrize("d,n,t", CELLS)
    def test_rule_picks_the_path(self, d, n, t, monkeypatch):
        """Unforced, 4m >= N takes a column per vertex and 4m < N one-word
        rows, confirmed, in one stripe for m <= 64 and up to ceil(m / 64)
        for larger m."""
        g = DeBruijnGraph(d, n)
        confirmed = self.confirms(monkeypatch)
        called = self.kernels(monkeypatch)
        for code in some_codes(g, t):
            assert codes._classes(g, t, code) \
                == reference_labels(g, t, code), code
        words = (d, n, t) in self.UNFORCED_WORDS + self.UNFORCED_STRIPES
        assert len(confirmed) == (5 if words else 0)
        assert set(called) == {"grow_words" if words else "grow_rows"}

    @pytest.mark.parametrize("count", [16, 729, 1024])
    def test_word_start_rows(self, count):
        """Each member's start word sets one column of the low 32 and one
        of the high 32, the same ones with or without a code, and a vertex
        outside the code sets none; the vertices use all 64 columns."""
        rng = random.Random(count)
        code = rng.getrandbits(count)
        free = codes._start_words(count, None)
        coded = codes._start_words(count, flag_bytes(code, count))
        assert free.typecode == coded.typecode == "Q"
        assert len(free) == len(coded) == count
        for v, word in enumerate(free):
            assert (word & 0xffffffff).bit_count() == 1
            assert (word >> 32).bit_count() == 1
            assert coded[v] == (word if code >> v & 1 else 0)
        if count >= 729:
            assert reduce(or_, free) == 2 ** 64 - 1
        assert codes._start_words(count, None) == free  # fixed seed

    @pytest.mark.parametrize("m", [65, 256, 1000])
    def test_later_stripes_keep_about_64_of_m(self, m):
        """Stripe s > 0 draws its own fixed-seed words, and keeps a
        member's word with probability about 64 / m (3.9 binomial standard
        deviations allowed here), and no word of a vertex outside the
        code."""
        count = 4096
        code = random.Random(m).getrandbits(count)
        flags = flag_bytes(code, count)
        assert codes._start_words(count, flags, 0, m) \
            == codes._start_words(count, flags)  # stripe 0 keeps them all
        for stripe in (1, 2):
            free = codes._start_words(count, None, stripe, m)
            coded = codes._start_words(count, flags, stripe, m)
            assert codes._start_words(count, None, stripe, m) == free
            assert free != codes._start_words(count, None, 3 - stripe, m)
            for v, word in enumerate(free):
                assert word == 0 or ((word & 0xffffffff).bit_count()
                                     == (word >> 32).bit_count() == 1)
                assert coded[v] == (word if code >> v & 1 else 0)
            kept = sum(map(bool, free))
            p = -(-256 * 64 // m) / 256
            assert abs(kept - p * count) < 3.9 * (count * p * (1 - p)) ** .5

    @pytest.mark.parametrize("chunk", [4, 8, 12, 1 << 24])
    @pytest.mark.parametrize("count", [1, 13, 729])
    def test_chunked_draws_match_one_draw(self, count, chunk):
        """Two chunked draws in a row give the stream of two one-shot
        draws, whether or not the last chunk is a whole word."""
        drawn, want = random.Random(count), random.Random(count)
        assert codes._draw(drawn, count, chunk) == want.randbytes(count)
        assert codes._draw(drawn, 8 * count, chunk) \
            == want.randbytes(8 * count)

    @classmethod
    def small_stripes(cls, monkeypatch, path, g):
        """Force `path`, with stripes of about N/3 columns.  Return the
        `grow_rows` spy's list and how many stripes the empty code took:
        all of them, as it leaves every vertex label 0."""
        count = g.vertex_count
        cls.force(monkeypatch, path, g)
        monkeypatch.setattr(codes, "ROW_STRIPE_BYTES", count * count // 24)
        stripes = cls.stripes_of(monkeypatch)
        codes._classes(g, 1, 0)
        total = len(stripes)
        stripes.clear()
        return stripes, total

    @pytest.mark.parametrize("d,n,t", CELLS)
    def test_rows_match_keys_in_three_or_more_stripes(self, d, n, t,
                                                      monkeypatch):
        g = DeBruijnGraph(d, n)
        count = g.vertex_count
        stripes, total = self.small_stripes(monkeypatch, "exact", g)
        assert total >= 3
        for code in some_codes(g, t):
            stripes.clear()
            want = reference_labels(g, t, code)
            assert codes._classes(g, t, code) == want, code
            if want != list(range(1, count + 1)):  # never discrete
                # each stripe starts the rows of its own members, and
                # they tile the code
                assert len(stripes) == total
                assert sorted(v for starts, _ in stripes for v in starts) \
                    == [v for v in range(count)
                        if code is None or code >> v & 1]

    @pytest.mark.parametrize("d,n,t", CELLS)
    def test_hashed_path_in_three_or_more_stripes(self, d, n, t,
                                                  monkeypatch):
        """Words of 4 columns collide in every stripe: with m = 300 (5
        stripes) and 5000 (79), labels still match with and without codes,
        after as many stripes as the rule takes."""
        g = DeBruijnGraph(d, n)
        self.narrow_words(monkeypatch)
        stripes = self.words_of(monkeypatch)
        for bound in (300, 5000):
            with monkeypatch.context() as patch:
                confirmed = self.force(patch, "hashed", g, bound)
                runs = []
                for code in some_codes(g, t):
                    stripes.clear()
                    assert codes._classes(g, t, code) \
                        == reference_labels(g, t, code), (bound, code)
                    runs.append(len(stripes))
                    assert len(stripes) == stripe_stop(stripes) \
                        <= -(-bound // 64)
                assert runs[1] == 1  # the empty code leaves every row 0
                assert len(confirmed) == 5
                if t < n - 1:  # balls short of V collide on 4 columns
                    assert max(runs) > 1, runs

    # exact stripes of N/3 columns, or 5 stripes of words of 16 columns
    @pytest.mark.parametrize("d,n,t,path", [
        (2, 4, 1, "exact"), (4, 2, 1, "exact"),
        (3, 6, 5, "exact"), (2, 10, 2, "exact"), (2, 10, 2, "hashed"),
        (3, 6, 2, "hashed")])
    def test_identifiable_cell_stops_at_first_discrete_stripe(
            self, d, n, t, path, monkeypatch):
        g = DeBruijnGraph(d, n)
        if path == "exact":
            stripes, total = self.small_stripes(monkeypatch, path, g)
        else:
            self.force(monkeypatch, path, g)
            self.narrow_words(monkeypatch, 8)
            stripes, total = self.words_of(monkeypatch), 5
        assert codes._classes(g, t) == list(range(1, g.vertex_count + 1))
        grown = stripes if path == "hashed" else [s for _, s in stripes]
        assert len(stripes) == first_discrete(grown) < total
        assert len(stripes) > 1 or path == "exact"

    @pytest.mark.parametrize("path", ["exact", "hashed"])
    @pytest.mark.parametrize("d,n,t", [(2, 8, 7), (2, 10, 8)])
    def test_twin_cell_runs_every_stripe(self, d, n, t, path, monkeypatch):
        """Twins keep exact columns going to the last stripe; word stripes,
        of which there are 79 here, stop at the first that splits no
        class."""
        g = DeBruijnGraph(d, n)
        if path == "exact":
            stripes, total = self.small_stripes(monkeypatch, path, g)
        else:
            self.force(monkeypatch, path, g, 5000)
            stripes = self.words_of(monkeypatch)
        assert codes._classes(g, t) == reference_labels(g, t)
        grown = stripes if path == "hashed" else [s for _, s in stripes]
        assert first_discrete(grown) is None
        if path == "hashed":
            assert len(stripes) == stripe_stop(stripes) < 79
        else:
            assert len(stripes) == total >= 2
            starts = stripes[0][0]  # the first stripe samples V, not a prefix
            assert starts[-1] - starts[0] > 2 * len(starts)

    @pytest.mark.parametrize("d,n,t", [(2, 10, 3), (3, 6, 2)])
    def test_collisions_stop_at_first_stripe_that_splits_none(
            self, d, n, t, monkeypatch):
        """A sparse code whose identifying sets collide on an identifiable
        cell stops at the first word stripe that splits no class, before
        the last of 79, and `_confirm` makes its labels exact."""
        g = DeBruijnGraph(d, n)
        rng = random.Random(g.vertex_count)
        code = reduce(and_, (rng.getrandbits(g.vertex_count)
                             for _ in range(4)))  # about N/16 vertices
        self.force(monkeypatch, "hashed", g, 5000)
        stripes = self.words_of(monkeypatch)
        want = reference_labels(g, t, code)
        assert codes._classes(g, t, code) == want
        assert max(want) < g.vertex_count - want.count(0)  # collisions
        assert len(stripes) == stripe_stop(stripes) < 79

    def test_verify_stops_early_only_on_a_valid_code(self, monkeypatch):
        """The full code of an identifiable cell leaves every vertex a
        label of its own before the last stripe; a greedy code less a
        vertex whose loss makes two identifying sets equal takes every
        stripe."""
        g, t = DeBruijnGraph(2, 9), 2
        code = greedy_code(g, t)
        worse = next(code & ~(1 << v) for v in to_ids(code)
                     if verify_code(g, code & ~(1 << v), t).collisions)
        stripes, total = self.small_stripes(monkeypatch, "exact", g)
        assert verify_code(g, (1 << g.vertex_count) - 1, t).valid
        assert len(stripes) == first_discrete([s for _, s in stripes]) \
            < total
        stripes.clear()
        assert not verify_code(g, worse, t).valid
        assert len(stripes) == total

    def test_single_stripe_keeps_id_order(self, monkeypatch):
        """Exact columns that fit one stripe give vertex v column v."""
        g = DeBruijnGraph(3, 6)
        self.force(monkeypatch, "exact", g)
        starts = []
        grow_rows = DeBruijnGraph.grow_rows

        def spy(self, rows, radius):
            starts.append(list(rows))
            return grow_rows(self, rows, radius)

        monkeypatch.setattr(DeBruijnGraph, "grow_rows", spy)
        codes._classes(g, 2)
        assert starts == [[1 << v for v in range(g.vertex_count)]]

    def test_column_stripes_start_at_their_sources(self):
        """Column k of a stripe starts at vertex sources[k]: repeated
        sources OR their bits, source N sets none, and the stripes tile
        the sources in order, the last one short.  Bit k of row v is then
        set iff sources[k] lies in B_t(v)."""
        g, t = DeBruijnGraph(2, 5), 2
        count = g.vertex_count
        sources = [3, 7, 3, count, 0, 31, count, 7, 12]

        def start(bits):  # hand-built start rows, {vertex: row}
            return [bits.get(v, 0) for v in range(count)]

        want = [g.grow_rows(start({3: 0b0101, 7: 0b0010}), t),
                g.grow_rows(start({0: 0b0001, 31: 0b0010, 7: 0b1000}), t),
                g.grow_rows(start({12: 0b0001}), t)]
        assert list(codes._column_stripes(g, t, sources, 4)) == want
        words = all_strings(2, 5)
        for lo, stripe in zip(range(0, len(sources), 4), want):
            for v, row in enumerate(stripe):
                ball = ball_strings(words[v], 2, t)
                assert row == sum(1 << k for k, x in enumerate(
                    sources[lo:lo + 4]) if x < count and words[x] in ball)

    @pytest.mark.parametrize("d,n,t", ORACLE_GRID)
    def test_one_hashed_column_matches_oracles(self, d, n, t, monkeypatch):
        """With every member setting the same columns every nonempty set
        gets the same row, so the exact confirmation alone tells the
        classes apart."""
        g = DeBruijnGraph(d, n)
        self.force(monkeypatch, "words", g)
        monkeypatch.setattr(codes, "_WORD_BYTES", [
            bytes([1]) * 256 if k == 0 else bytes(256) for k in range(4)])
        got = [(g.vertex_string(p.x), g.vertex_string(p.y))
               for p in find_twins(g, t)]
        assert got == twin_pairs(d, n, t)
        words = all_strings(d, n)
        balls = {w: ball_strings(w, d, t) for w in words}
        rng = random.Random(g.vertex_count + t)
        for chosen in [[], words, rng.sample(words, len(words) // 2),
                       rng.sample(words, len(words) // 4)]:
            code = code_mask(chosen, g)
            report = verify_code(g, code, t)
            failures, collisions = code_report(balls, words, sorted(chosen))
            assert_report(g, t, code, report, failures, collisions)

    def test_radius_at_least_n_is_one_class(self):
        for d, n in [(2, 3), (3, 2), (2, 1)]:
            g = DeBruijnGraph(d, n)
            for t in (n, n + 2):
                assert codes._classes(g, t) == [1] * g.vertex_count
                got = [(g.vertex_string(p.x), g.vertex_string(p.y))
                       for p in find_twins(g, t)]
                assert got == twin_pairs(d, n, t)

    @pytest.mark.parametrize("d,n,t", [(2, 3, 3), (3, 2, 4)])
    def test_verify_at_radius_n_matches_oracle(self, d, n, t):
        g = DeBruijnGraph(d, n)
        words = all_strings(d, n)
        balls = {w: ball_strings(w, d, t) for w in words}
        for chosen in [[], words[:1], words]:
            code = code_mask(chosen, g)
            report = verify_code(g, code, t)
            failures, collisions = code_report(balls, words, chosen)
            assert_report(g, t, code, report, failures, collisions)

    def test_large_radius_check_in_bounded_memory(self):
        """check 2 15 13, whose per-vertex keys would take gigabytes, runs
        on ball rows in stripes inside a 1 GiB address space."""
        child = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                 "from dbic.cli import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(dbic.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", child, "check", "2", "15", "13"],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["identifiable"] is True


class TestIsIdentifiable:
    def test_theorem_region_cells(self):
        assert is_identifiable(DeBruijnGraph(3, 3), 2) == (True, None)
        assert is_identifiable(DeBruijnGraph(3, 2), 1) == (True, None)

    def test_witness_is_first_pair(self):
        ok, twin = is_identifiable(DeBruijnGraph(2, 4), 2)
        assert not ok
        g = DeBruijnGraph(2, 4)
        assert (g.vertex_string(twin.x), g.vertex_string(twin.y)) == ("0011", "1100")

    @pytest.mark.parametrize("d,n,t", ORACLE_GRID)
    def test_witness_is_first_twin_pair(self, d, n, t):
        g = DeBruijnGraph(d, n)
        twins = find_twins(g, t)
        assert is_identifiable(g, t) == (not twins, twins[0] if twins
                                         else None)

    def test_hashed_rows_need_no_traversal_per_vertex(self, monkeypatch):
        """B(2,12) t=1 takes the hashed path, and no two of its balls
        share a row, so nothing needs a breadth-first confirmation."""
        calls = []
        bfs_layers = DeBruijnGraph.bfs_layers

        def spy(self, source, radius=None):
            calls.append(source)
            return bfs_layers(self, source, radius)

        monkeypatch.setattr(DeBruijnGraph, "bfs_layers", spy)
        assert is_identifiable(DeBruijnGraph(2, 12), 1) == (True, None)
        assert calls == []

    def test_matches_full_vertex_code(self):
        # S = V is a code iff there are no twins
        for d, n, t in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 2)]:
            g = DeBruijnGraph(d, n)
            everything = (1 << g.vertex_count) - 1
            report = verify_code(g, everything, t)
            assert report.valid == is_identifiable(g, t)[0]


# Every B(d, n) with 2 <= d <= 5 and d^n <= 4,096.
SMALL_GRAPHS = [(d, n) for d in range(2, 6) for n in range(1, 13)
                if d ** n <= 4096]


# Every B(d, n) with n >= 2 and d^n <= 4,096: d up to 64 at n = 2.
EDGE_GRAPHS = [(d, n) for n in range(2, 13) for d in range(2, 65)
               if d ** n <= 4096]


class TestTwinFree:
    """At t = 1 < n only the edges of `codes._twin_edges` can join twins, so
    their exact balls decide, and no row, word, label or traversal is
    built; B(2,2), whose 01 and 10 are twins, goes on to the labels."""

    @staticmethod
    def assert_twins(g):
        """`find_twins` and `is_identifiable` at t = 1 give the pairs of
        `reference_labels`, which are returned."""
        pairs = list(codes._pairs(reference_labels(g, 1)))
        assert [(p.x, p.y) for p in find_twins(g, 1)] == pairs
        assert is_identifiable(g, 1) == (
            (False, TwinPair(*pairs[0], t=1)) if pairs else (True, None))
        return pairs

    @pytest.mark.parametrize("d,n", EDGE_GRAPHS)
    def test_candidate_edges_are_complete(self, d, n):
        """Twins x, y at t = 1 are adjacent, say y = x[1:]a, and then the
        out-neighbours of y lie in B_1(x).  Every edge where they do, found
        by brute force, is in the orbit (c a^(n-1), a^n) under renaming,
        which one listed edge decides, or is itself listed; besides that
        orbit only 01 and 10 of B(2,2) pass."""
        g = DeBruijnGraph(d, n)
        high = g.vertex_count // d
        loops = set(g.loop_vertices())

        def orbit(x, y):  # y = a^n and x = c a^(n-1) with c != a
            return y in loops and x != y and x % high == y % high

        listed = codes._twin_edges(g)
        assert [orbit(x, y) for x, y in listed].count(True) == 1
        passed = []
        for x in range(g.vertex_count):
            # y's out-neighbours are the d ids w with w // d == y % high
            inside = Counter(w // d for w in [x, *g.neighbor_ids(x)])
            for y in range(x % high * d, x % high * d + d):
                if y != x and inside[y % high] == d:
                    passed.append((x, y))
        assert all(orbit(x, y) or (x, y) in listed or (y, x) in listed
                   for x, y in passed)
        assert len(passed) == d * (d - 1) + 2 * ((d, n) == (2, 2))

    @pytest.mark.parametrize("d,n", SMALL_GRAPHS)
    @pytest.mark.parametrize("path", ["unforced", "words"])
    def test_matches_reference(self, d, n, path, monkeypatch):
        """B(d,1) (every ball is V) and B(2,2) (01 and 10) are the only
        cells with twins, and keep their first pair forced onto words; the
        edge check proves every other cell twin-free."""
        g = DeBruijnGraph(d, n)
        if path == "words":
            TestClassKernels.force(monkeypatch, path, g)
        pairs = self.assert_twins(g)
        assert (codes._twin_labels(g, 1) is None) == (n > 1 and not pairs)
        if n == 1 or (d, n) == (2, 2):
            assert pairs[0] == ((0, 1) if n == 1 else (1, 2))
        else:
            assert pairs == []

    @pytest.mark.parametrize("d,n,t", [(2, 4, 2), (2, 5, 4), (2, 8, 7)])
    def test_radius_one_only(self, d, n, t, monkeypatch):
        """Twins farther apart than an edge, such as 0011 and 1100 of
        B(2,4) at t=2, are still found on words."""
        g = DeBruijnGraph(d, n)
        TestClassKernels.force(monkeypatch, "words", g)
        called = TestClassKernels.kernels(monkeypatch)
        pairs = list(codes._pairs(reference_labels(g, t)))
        assert pairs
        assert [(p.x, p.y) for p in find_twins(g, t)] == pairs
        assert "grow_words" in called

    @pytest.mark.parametrize("d,n", [(2, 3), (2, 8), (3, 5), (4, 4),
                                     (5, 3), (5, 1)])
    def test_shared_words_fall_through(self, d, n, monkeypatch):
        """Narrow words, which adjacent vertices share, change no answer
        at t = 1: the check grows no words, and B(5,1), where t >= n,
        needs none."""
        g = DeBruijnGraph(d, n)
        TestClassKernels.force(monkeypatch, "words", g)
        TestClassKernels.narrow_words(monkeypatch)
        called = TestClassKernels.kernels(monkeypatch)
        self.assert_twins(g)
        assert called == []

    @pytest.mark.parametrize("call", [is_identifiable, find_twins,
                                      build_constraints])
    def test_twin_free_cell_builds_no_labels(self, call, monkeypatch):
        """B(2,12) t=1 (B(2,8) for the constraints) is decided with no
        words, rows, labels, confirmation or traversal; the constraints
        build their own balls only once the check has returned."""
        called = []
        for owner, name in [(DeBruijnGraph, "grow_words"),
                            (DeBruijnGraph, "grow_rows"),
                            (DeBruijnGraph, "bfs_layers"),
                            (codes, "_row_labels"), (codes, "_confirm"),
                            (codes, "_twin_labels")]:
            def spy(*args, name=name, real=getattr(owner, name)):
                out = real(*args)
                called.append(name)
                return out

            monkeypatch.setattr(owner, name, spy)
        n = 8 if call is build_constraints else 12
        call(DeBruijnGraph(2, n), 1)
        assert called[0] == "_twin_labels"
        if call is not build_constraints:
            assert called == ["_twin_labels"]


class TestVerifyCode:
    def test_accepts_reference_code(self):
        g = DeBruijnGraph(2, 3)
        report = verify_code(g, code_mask(PAPER_CODE_B23, g), 1)
        assert report.valid
        assert report.code_size == 4
        assert report.domination_failures == []
        assert report.collisions == []
        assert report.collision_count == 0

    def test_empty_code_fails_domination_everywhere(self):
        g = DeBruijnGraph(2, 3)
        report = verify_code(g, 0, 1)
        assert not report.valid
        assert report.domination_failures == list(range(8))

    def test_collisions_reported_with_witnesses(self):
        g = DeBruijnGraph(2, 3)
        report = verify_code(g, code_mask(["111"], g), 1)
        assert not report.valid
        assert report.collisions  # several vertices share the ball through 111
        x, y = report.collisions[0]
        assert x < y

    def test_out_of_range_vertex_rejected(self):
        g = DeBruijnGraph(2, 3)
        with pytest.raises(CodeVertexOutOfRange) as err:
            verify_code(g, 1 << 8, 1)
        assert err.value.vertex == 8

    def test_superset_closure_on_random_codes(self):
        g = DeBruijnGraph(2, 4)
        rng = random.Random(11)
        base = min_code(g, 1).code
        for _ in range(20):
            extra = mask_of(rng.sample(range(16), rng.randint(0, 4)))
            assert verify_code(g, base | extra, 1).valid

    @pytest.mark.parametrize("d,n,t", ORACLE_GRID)
    def test_random_codes_match_oracle(self, d, n, t):
        g = DeBruijnGraph(d, n)
        words = all_strings(d, n)
        balls = {w: ball_strings(w, d, t) for w in words}
        rng = random.Random(d * 100 + n * 10 + t)
        sizes = [0, 1, g.vertex_count // 8, g.vertex_count // 2,
                 g.vertex_count]
        for size in sizes + [rng.randint(0, g.vertex_count) for _ in range(3)]:
            chosen = sorted(rng.sample(words, size))
            code = code_mask(chosen, g)
            report = verify_code(g, code, t)
            failures, collisions = code_report(balls, words, chosen)
            assert_report(g, t, code, report, failures, collisions)
            assert report.valid == (not failures and not collisions)
            assert report.code_size == size

    def test_report_serialization(self):
        g = DeBruijnGraph(2, 3)
        report = verify_code(g, code_mask(PAPER_CODE_B23, g), 1)
        payload = report.to_json(g)
        assert payload["valid"] is True
        assert payload["code_size"] == 4


class TestBuildConstraints:
    def test_counts_for_figure_graph(self):
        g = DeBruijnGraph(2, 3)
        targets = build_constraints(g, 1)
        # the 8 balls come first; exactly the 25 vertex pairs within
        # distance 2 need explicit separation
        assert targets[:8] == all_balls(g, 1)
        assert len(targets) == 8 + 25

    def test_infeasible_when_twins_exist(self):
        with pytest.raises(InfeasibleNoCode) as err:
            build_constraints(DeBruijnGraph(2, 2), 1)
        assert err.value.twins == [TwinPair(x=1, y=2, t=1)]

    def test_infeasible_carries_first_ten_pairs_and_total(self):
        g = DeBruijnGraph(*TWIN_HEAVY[:2])
        with pytest.raises(InfeasibleNoCode) as err:
            build_constraints(g, TWIN_HEAVY[2])
        assert err.value.twins == find_twins(g, TWIN_HEAVY[2])[:10]
        assert err.value.total == 12094
        assert "12094 twin pair(s)" in str(err.value)

    def test_targets_nonempty_and_deduplicated(self):
        targets = build_constraints(DeBruijnGraph(3, 2), 1)
        assert all(targets)
        assert len(targets) == len(set(targets))

    @pytest.mark.parametrize("d,n,t", PAIR_CELLS)
    def test_pairs_match_distance_oracle(self, d, n, t):
        """The pair behind each target is the first to give it: each vertex
        with the empty ball N, then every x < y within distance 2t by the
        string BFS, x ascending, then y."""
        words = all_strings(d, n)
        count = len(words)
        dist = [distances_from(word, d) for word in words]
        balls = [frozenset(w for w, k in row.items() if k <= t)
                 for row in dist] + [frozenset()]
        pairs = [(x, count) for x in range(count)] + [
            (x, y) for x in range(count) for y in range(x + 1, count)
            if dist[x][words[y]] <= 2 * t]
        seen, want = set(), []
        for x, y in pairs:
            target = balls[x] ^ balls[y]
            if target not in seen:
                seen.add(target)
                want.append((x, y))
        first, second = codes._constraints(DeBruijnGraph(d, n), t)[1:3]
        assert list(zip(first, second)) == want

    @pytest.mark.parametrize("d,n,t", PAIR_CELLS)
    def test_sizes_are_target_popcounts(self, d, n, t):
        """The sizes are read off the deduplication's keys, in target order:
        B(4,2) t=1 drops 36 of the targets of its 136 pairs."""
        g = DeBruijnGraph(d, n)
        assert codes._constraints(g, t)[3] \
            == list(map(popcount, build_constraints(g, t)))

    @pytest.mark.parametrize("d,n,t", [(3, 4, 2), (2, 8, 1)])
    def test_pairs_need_no_traversal_per_vertex(self, d, n, t, monkeypatch):
        """The pairs within 2t come from one table grown t rounds past the
        balls, not from a breadth-first search per vertex."""
        calls = []
        bfs_layers = DeBruijnGraph.bfs_layers

        def spy(self, source, radius=None):
            calls.append(source)
            return bfs_layers(self, source, radius)

        monkeypatch.setattr(DeBruijnGraph, "bfs_layers", spy)
        assert len(codes._constraints(DeBruijnGraph(d, n), t)[1]) > 0
        assert calls == []


class TestPinnedTargets:
    """The constraint list pinned to values recorded while each target was
    still wrapped in a record: equal digests of `repr` mean the same
    targets, the same deduplication and the same order."""

    # (d, n, t): (number of targets, sha256 of repr(targets))
    PINNED = {
        (2, 3, 1): (33, "c6c4e02528e6e8b5542132e14d51c56f"
                        "a85d9a08af41e57815e27ef550aedfec"),
        (3, 3, 2): (378, "fab95f40fd466b87abf71c1223e617dc"
                         "6ac07aa57c9b8ab76ab77fa62c395860"),
        (4, 3, 1): (1186, "c251d47cda8c519e7412ff18dbfbb0cd"
                          "6b9268a00c77a387f05fe6e05b9691a4"),
        (2, 8, 1): (2015, "c247a4710042cbbbde910bdd70d9bc7d"
                          "5dccd3193edaa3a6536a1446ba0d4e09"),
        (3, 4, 2): (3321, "32317086e56b2bc427c0b060b0796e64"
                          "75435f9fc55b62e1ab974495060cb7bf"),
    }

    @pytest.mark.parametrize("cell", sorted(PINNED))
    def test_targets(self, cell):
        d, n, t = cell
        targets = build_constraints(DeBruijnGraph(d, n), t)
        digest = hashlib.sha256(repr(targets).encode()).hexdigest()
        assert (len(targets), digest) == self.PINNED[cell]


def reference_cover(targets, vertex_count):
    """The cover index read off the target bitsets one (target, vertex)
    incidence at a time: bit i of entry v is set iff v lies in targets[i]."""
    rows = [bytearray(len(targets) // 8 + 1) for _ in range(vertex_count)]
    for i, target in enumerate(targets):
        for v in to_ids(target):
            rows[v][i >> 3] |= 1 << (i & 7)
    return [int.from_bytes(row, "little") for row in rows]


def assert_cover(cover, targets, vertex_count):
    """`cover` is the index of `targets`; a failure names the vertices, not
    the wide ints, whose repr would take pytest minutes."""
    want = reference_cover(targets, vertex_count)
    wrong = [v for v in range(vertex_count) if cover[v] != want[v]]
    assert len(cover) == vertex_count and not wrong, wrong[:10]


def search_order(targets):
    """The targets as `min_code` numbers them: sorted by size, stably, with
    the first at the top index."""
    return sorted(targets, key=popcount)[::-1]


class TestCoverIndex:
    """The cover index grown from the target pairs by the radius recurrence
    equals the one read off the target bitsets, in build order (greedy) and
    in size order from the top bit down (`min_code`)."""

    @staticmethod
    def built_covers(monkeypatch, g, t):
        """The index built inside `greedy_code`, then inside `min_code`."""
        built, grow = [], codes._cover

        def spy(*args):
            cover = grow(*args)
            built.append(list(cover))  # min_code complements it in place
            return cover

        monkeypatch.setattr(codes, "_cover", spy)
        greedy_code(g, t)
        min_code(g, t, node_budget=0)
        return built

    @pytest.mark.parametrize("d,n,t", PAIR_CELLS)
    def test_matches_target_bitsets(self, monkeypatch, d, n, t):
        g = DeBruijnGraph(d, n)
        targets = build_constraints(g, t)
        # checked before any search runs: greedy need not stop on a bad index
        assert_cover(codes._cover(g, t, *codes._constraints(g, t)[1:3]),
                     targets, g.vertex_count)
        by_build, by_size = self.built_covers(monkeypatch, g, t)
        assert_cover(by_build, targets, g.vertex_count)
        assert_cover(by_size, search_order(targets), g.vertex_count)

    def test_stripes(self, monkeypatch):
        """Stripes of 128 of the 378 targets of B(3,3) t=2: two full ones
        and a short last one of 122, each grown from its first and then its
        second vertices; the top start bit of a first run is its width."""
        g, t = DeBruijnGraph(3, 3), 2
        targets = build_constraints(g, t)
        monkeypatch.setattr(codes, "COVER_STRIPE_BITS", 128)
        widths, grow = [], DeBruijnGraph.grow_rows

        def spy(self, rows, radius):
            widths.append(max(rows).bit_length())
            return grow(self, rows, radius)

        first, second = codes._constraints(g, t)[1:3]
        monkeypatch.setattr(DeBruijnGraph, "grow_rows", spy)
        assert_cover(codes._cover(g, t, first, second), targets,
                     g.vertex_count)
        assert len(widths) == 6 and widths[0::2] == [128, 128, 122]
        by_build, by_size = self.built_covers(monkeypatch, g, t)
        assert_cover(by_build, targets, g.vertex_count)
        assert_cover(by_size, search_order(targets), g.vertex_count)

    def test_one_stripe_equals_stripes(self, monkeypatch):
        """The 378 targets of B(3,3) t=2 fit one stripe by default and at
        384 bits, where the index is the XOR of the grown rows, and take
        several at 128 and 376 bits, where it is built from bytes."""
        g, t = DeBruijnGraph(3, 3), 2
        first, second = codes._constraints(g, t)[1:3]
        covers = [codes._cover(g, t, first, second)]
        for step in (384, 128, 376):
            monkeypatch.setattr(codes, "COVER_STRIPE_BITS", step)
            covers.append(codes._cover(g, t, first, second))
        assert covers[1:] == covers[:1] * 3


def tuple_heap_greedy(cover, target_count):
    """Greedy on a lazy heap of (-score, v) tuples, the smallest id among
    ties: the reference for `_greedy`'s packed-int keys."""
    heap = [(-target_count, v) for v in range(len(cover))]
    unsatisfied = (1 << target_count) - 1
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


class TestGreedyHeap:
    """`_greedy`'s heap of ints (C - score) << w | v picks as the tuple
    heap does, on indices in build and in size order; B(2,8) and B(2,10)
    have N = 2^k vertices, so the id field takes k + 1 bits."""

    @pytest.mark.parametrize("d,n,t", PAIR_CELLS + [(2, 8, 1), (2, 10, 1)])
    def test_matches_tuple_heap(self, d, n, t):
        g = DeBruijnGraph(d, n)
        targets = build_constraints(g, t)
        for order in (targets, search_order(targets)):
            cover = reference_cover(order, g.vertex_count)
            assert codes._greedy(cover, len(order)) \
                == tuple_heap_greedy(cover, len(order))


class TestGreedyCode:
    def test_valid_on_figure_graph(self):
        g = DeBruijnGraph(2, 3)
        code = greedy_code(g, 1)
        assert verify_code(g, code, 1).valid
        assert popcount(code) >= 4  # 4 is the proven minimum

    def test_regression_size_ternary_pairs(self):
        g = DeBruijnGraph(3, 2)
        code = greedy_code(g, 1)
        assert verify_code(g, code, 1).valid
        assert popcount(code) == 5  # first-run regression value; minimum is 4

    def test_smallest_graph_is_infeasible(self):
        with pytest.raises(InfeasibleNoCode):
            greedy_code(DeBruijnGraph(2, 1), 1)


class TestMinCode:
    def test_figure_graph_minimum_is_four(self):
        g = DeBruijnGraph(2, 3)
        result = min_code(g, 1)
        assert result.size == 4
        assert result.optimal
        assert verify_code(g, result.code, 1).valid

    def test_ternary_pairs_minimum_is_four(self):
        g = DeBruijnGraph(3, 2)
        result = min_code(g, 1)
        assert result.size == 4
        assert result.optimal
        assert verify_code(g, result.code, 1).valid

    def test_never_worse_than_greedy(self):
        for d, n, t in [(2, 3, 1), (3, 2, 1), (2, 4, 1), (2, 5, 2)]:
            g = DeBruijnGraph(d, n)
            assert min_code(g, t).size <= popcount(greedy_code(g, t))

    @pytest.mark.parametrize("budget", [-1, -5])
    def test_negative_budget_rejected(self, budget):
        """A negative budget is refused, not read as the greedy code."""
        with pytest.raises(InvalidParameters, match="budget"):
            min_code(DeBruijnGraph(2, 3), 1, node_budget=budget)

    def test_budget_exhaustion_returns_incumbent(self):
        g = DeBruijnGraph(2, 3)
        result = min_code(g, 1, node_budget=1)
        assert not result.optimal
        assert verify_code(g, result.code, 1).valid

    def test_infeasible_graphs_raise(self):
        for d, n in [(2, 1), (2, 2), (3, 1), (4, 1)]:
            with pytest.raises(InfeasibleNoCode):
                min_code(DeBruijnGraph(d, n), 1)

    def test_exact_cap_triggers_default_budget(self):
        g = DeBruijnGraph(3, 4)  # 81 vertices > default exact cap of 64
        assert g.vertex_count > DEFAULT_EXACT_CAP
        result = min_code(g, 1)
        assert verify_code(g, result.code, 1).valid

    def test_code_strings_sorted(self):
        g = DeBruijnGraph(2, 3)
        strings = code_strings(g, code_mask(PAPER_CODE_B23, g))
        assert strings == sorted(strings)


class TestPinnedSearch:
    """Solver outputs pinned to recorded values: equal codes, sizes,
    optimality flags and node counts mean the lower bound, the branching
    order and greedy's tie-break are unchanged."""

    # (d, n, t): (code, size, optimal, nodes), solved to optimality
    EXACT = {
        (2, 3, 1): (["001", "010", "011", "101"], 4, True, 7),
        (2, 4, 1): (["0001", "0010", "0101", "0111", "1011", "1100"],
                    6, True, 144),
        (2, 5, 1): (["00010", "00011", "00101", "00111", "01011", "01101",
                     "01111", "10000", "10100", "11000", "11010", "11100"],
                    12, True, 119846),
        (2, 5, 2): (["00101", "00110", "00111", "01000", "01011", "01100",
                     "10100", "11010"], 8, True, 39663),
        (3, 2, 1): (["01", "02", "10", "20"], 4, True, 32),
        (3, 3, 1): (["001", "002", "011", "012", "022", "112", "120", "210",
                     "221"], 9, True, 40430),
        (3, 3, 2): (["001", "002", "010", "011", "020", "022", "100", "101",
                     "102", "112", "120", "212"], 12, True, 521),
        (4, 2, 1): (["01", "02", "03", "10", "20"], 5, True, 767),
    }
    # (d, n, t, node budget): (code digest, size, optimal, nodes)
    BUDGETED = {
        (2, 8, 1, 2000): ("e032c063904e38d0", 101, False, 2001),
        (3, 4, 2, 2000): ("6aaf7acdb48316b4", 11, False, 2001),
        (4, 3, 1, 3000): ("a18d28f20337eb30", 16, False, 3001),
        # wide index bitsets, a full clash cache, and budgets 0 and 1
        (2, 10, 1, 2000): ("0d3bc479e5febfd0", 407, False, 2001),
        (3, 5, 1, 2000): ("25c0a5f9316c4c38", 74, False, 2001),
        (2, 6, 1, 50): ("31aee03fb2729c1a", 28, False, 51),
        (2, 8, 1, 0): ("e032c063904e38d0", 101, False, 1),
        (2, 8, 1, 1): ("e032c063904e38d0", 101, False, 2),
        # a dense cell whose cover index takes three rounds of the radius
        # recurrence
        (2, 8, 3, 200): ("c54dc6acb18bcdde", 26, False, 201),
    }
    # (d, n, t): (code digest, size)
    GREEDY = {
        (3, 5, 1): ("25c0a5f9316c4c38", 74),
        (2, 10, 1): ("0d3bc479e5febfd0", 407),
        (2, 8, 3): ("c54dc6acb18bcdde", 26),
        (3, 5, 2): ("4ea76c3d5bf773fd", 26),
    }

    @pytest.mark.parametrize("cell", sorted(EXACT))
    def test_exact(self, cell):
        d, n, t = cell
        g = DeBruijnGraph(d, n)
        r = min_code(g, t)
        assert (code_strings(g, r.code), r.size, r.optimal, r.nodes) \
            == self.EXACT[cell]

    @pytest.mark.parametrize("cell", sorted(BUDGETED))
    def test_budgeted(self, cell):
        d, n, t, budget = cell
        r = min_code(DeBruijnGraph(d, n), t, node_budget=budget)
        assert (code_digest(r.code), r.size, r.optimal, r.nodes) \
            == self.BUDGETED[cell]

    @pytest.mark.parametrize("cell", sorted(GREEDY))
    def test_greedy(self, cell):
        d, n, t = cell
        code = greedy_code(DeBruijnGraph(d, n), t)
        assert (code_digest(code), popcount(code)) == self.GREEDY[cell]

    def test_search_depth_is_not_bounded_by_recursion(self):
        """The search keeps its own stack: greedy's 101 vertices on
        B(2,8) t=1 leave room for a dive deeper than 60 chosen vertices,
        which a limit of 60 frames above the caller's would stop."""
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            r = min_code(DeBruijnGraph(2, 8), 1, node_budget=200)
        finally:
            sys.setrecursionlimit(limit)
        assert (code_digest(r.code), r.size, r.optimal, r.nodes) \
            == ("e032c063904e38d0", 101, False, 201)


# The comparison grid of earlier solver changes: B(2,1..9), B(3,1..5),
# B(4,1..4), B(5,1..3) and B(6,1..2) at t = 1..3, plus B(2,10) t=1,2,
# B(3,6) t=1 and B(2,8) t=7.
SEARCH_GRID = [(d, n, t) for d, top in [(2, 9), (3, 5), (4, 4), (5, 3), (6, 2)]
               for n in range(1, top + 1) for t in (1, 2, 3)] + [
    (2, 10, 1), (2, 10, 2), (3, 6, 1), (2, 8, 7)]


def small_cells(max_vertices):
    return [(d, n, t) for d, n, t in SEARCH_GRID if d ** n <= max_vertices]


class TestSearchAgainstReference:
    """`min_code` against `oracles.reference_search`, the search before its
    packing bound stopped at the gap: the same code, size, optimality flag
    and node count mean the same nodes in the same order."""

    @staticmethod
    def targets_or_none(g, t):
        try:
            return build_constraints(g, t)
        except InfeasibleNoCode:
            with pytest.raises(InfeasibleNoCode):
                min_code(g, t)
            return None

    @pytest.mark.parametrize("d,n,t", small_cells(32))
    def test_exact(self, d, n, t):
        g = DeBruijnGraph(d, n)
        targets = self.targets_or_none(g, t)
        if targets is not None:
            r = min_code(g, t)
            assert r.optimal
            assert (r.code, r.size, r.optimal, r.nodes) \
                == reference_search(targets, g.vertex_count)[0][:4]

    @pytest.mark.parametrize("d,n,t", small_cells(256))
    def test_budgeted(self, d, n, t):
        g = DeBruijnGraph(d, n)
        targets = self.targets_or_none(g, t)
        if targets is not None:
            budgets = [0, 1, 50, 500]
            if g.vertex_count <= 32:  # stop on the last node, and just after
                nodes = reference_search(targets, g.vertex_count)[0][3]
                budgets += [nodes - 1, nodes]
            want = reference_search(targets, g.vertex_count, budgets)
            for budget, result in zip(budgets, want):
                r = min_code(g, t, node_budget=budget)
                assert (r.code, r.size, r.optimal, r.nodes) == result[:4]

    @pytest.mark.parametrize("d,n,t,spread", [
        (2, 5, 1, 40), (3, 3, 1, 40), (2, 5, 2, 40), (4, 2, 1, None),
        (3, 3, 2, None), (2, 4, 1, None), (5, 2, 1, range(1180, 1221))])
    def test_budget_sweep(self, d, n, t, spread):
        """The search counts a subtree it has finished before rather than
        searching it again, and settles a room-0 frame in one pass over its
        branch list, so a budget can run out inside a counted subtree or a
        settled frame: about 40 budgets spread over the whole search, every
        budget on B(4,2) t=1, B(3,3) t=2 and B(2,4) t=1, or a range of
        budgets, stop on the reference's node.  B(5,2) t=1 finds a smaller
        code at node 1,199, the first child to hit of a room-0 frame settled
        inside a room-1 frame, whose next child, node 1,200, then runs at
        room 0; B(2,4) t=1 does the same at nodes 24 and 106."""
        g = DeBruijnGraph(d, n)
        targets = build_constraints(g, t)
        nodes = reference_search(targets, g.vertex_count)[0][3]
        budgets = (range(nodes + 1) if spread is None else
                   spread if isinstance(spread, range) else
                   [nodes * k // spread + k for k in range(spread)]
                   + [nodes - 1, nodes])
        want = reference_search(targets, g.vertex_count, budgets)
        for budget, result in zip(budgets, want):
            r = min_code(g, t, node_budget=budget)
            assert (r.code, r.size, r.optimal, r.nodes) == result[:4], budget

    # (d, n, t): (nodes, masks built by the reference, masks built now)
    MASKS = {(2, 5, 1): (119846, 149, 119), (3, 3, 1): (40430, 159, 122)}

    @pytest.mark.parametrize("cell", sorted(MASKS))
    def test_gap_stop_builds_fewer_clash_masks(self, monkeypatch, cell):
        """Each clash mask is one `reduce` over its target's vertices; the
        gap stop skips the masks of targets packed last, nodes unchanged."""
        d, n, t = cell
        g = DeBruijnGraph(d, n)
        built = []

        def spy(*args):
            built.append(args)
            return functools.reduce(*args)

        monkeypatch.setattr(codes, "reduce", spy)
        r = min_code(g, t)
        nodes, reference_masks, masks = self.MASKS[cell]
        want = reference_search(build_constraints(g, t), g.vertex_count)[0]
        assert want[3:] == (nodes, reference_masks)
        assert (r.nodes, len(built)) == (nodes, masks)
        assert masks < reference_masks


class TestMemoryBound:
    """Twin detection and verification hold per-vertex keys, never the
    table of all balls (16,384 balls of 2 KiB each in B(2,14))."""

    LIMIT = 8 * 2 ** 20

    def test_find_twins_peak(self):
        g = DeBruijnGraph(2, 14)
        assert peak_bytes(find_twins, g, 1) < self.LIMIT

    def test_mid_radius_twins_peak(self):
        """B(2,14) t=5 (m = 1,365) labels on word stripes, one 64-bit word
        per vertex at a time; 4m = 5,460 hashed columns per row peaked at
        27.0 MiB here."""
        assert peak_bytes(is_identifiable, DeBruijnGraph(2, 14), 5) \
            < self.LIMIT

    def test_twin_free_peak(self):
        """B(2,19) t=1 (524,288 vertices) is decided from the closed
        neighbourhoods of two vertices, and peaks at 2,064 bytes here; the
        words of adjacent vertices peaked at 26,800,596.  The bound, 16 KiB,
        is below one bit per vertex (64 KiB)."""
        assert peak_bytes(is_identifiable, DeBruijnGraph(2, 19), 1) \
            < 16 * 2 ** 10

    def test_verify_code_peak(self):
        g = DeBruijnGraph(2, 14)
        everything = (1 << g.vertex_count) - 1
        assert peak_bytes(verify_code, g, everything, 1) < self.LIMIT

    @pytest.mark.parametrize("path", ["words", "exact"])
    def test_verify_code_stripes_peak(self, monkeypatch, path):
        """B(3,8) t=4 with a half code that leaves 00000001 and 10000001
        colliding, so that the labels never become unique: on word stripes
        (4m = 6,220 < N), and forced onto exact columns in six stripes of
        about N/5, all of which run.  Each stripe's rows go before the next
        one's start rows are built.  The peaks were as given with the exact
        start rows gathered through a column map; the bound allows 10%
        above them."""
        g, t = DeBruijnGraph(3, 8), 4
        count = g.vertex_count
        code = random.Random(count).getrandbits(count) \
            & ~(ball_bfs(g, 1, t) ^ ball_bfs(g, 2188, t))
        if path == "exact":
            monkeypatch.setattr(codes, "_ball_bound", lambda g, r: count)
        monkeypatch.setattr(codes, "ROW_STRIPE_BYTES", count * count // 40)
        peak = {"words": 1_305_698, "exact": 3_093_286}[path]
        assert peak_bytes(verify_code, g, code, t) < peak * 11 // 10
        assert verify_code(g, code, t).collisions == [(1, 2188)]

    def test_min_code_peak(self):
        """The search holds one index bitset per open node and one clash
        mask per target that heads a residual set; a search that copies
        its target list at each level peaked at 12.3 MiB here."""
        assert peak_bytes(min_code, DeBruijnGraph(2, 10), 1, 2000) \
            < self.LIMIT

    def test_min_code_exact_peak(self):
        """The search keeps the node count of each finished subtree that
        cost more nodes than its key of unsatisfied targets has 64-bit
        words; on B(2,5) t=1 (119,846 nodes) that peaked at 1.36 MiB
        here, against 0.04 MiB with no subtree kept."""
        assert peak_bytes(min_code, DeBruijnGraph(2, 5), 1) < 2 * 2 ** 20

    def test_min_code_default_budget_peak(self):
        """Each branch list holds its vertices' index rows once, in the
        (vertex bit, row) pairs that settled frames read too.  The
        default-budget search of B(2,8) t=1 peaked at 1,111,220 bytes here
        before room-0 frames were settled; the bound allows 10% above it."""
        assert peak_bytes(min_code, DeBruijnGraph(2, 8), 1) \
            < 1_111_220 * 11 // 10

    def test_min_code_forms_targets_on_demand(self):
        """The search keeps the ball table and the pair of each target, and
        forms a target only for its first clash mask or branch list, so its
        peak is the deduplication of its targets, as greedy's.  Holding
        every target as a bitset beside the index peaked at 5,270,953 bytes
        here, against 4,079,881; the bound allows 10% above the latter."""
        assert peak_bytes(min_code, DeBruijnGraph(2, 9), 2, 200) \
            < 4_079_881 * 11 // 10

    def test_greedy_code_peak(self):
        """Greedy's peak is the deduplication of its targets: it grows its
        index from the target pairs after dropping the bitsets.  Reading the
        index off the kept bitsets peaked at 3,155,169 bytes here; the bound
        allows 10% above that, for the pair arrays."""
        assert peak_bytes(greedy_code, DeBruijnGraph(3, 5), 2) \
            < 3_155_169 * 11 // 10
