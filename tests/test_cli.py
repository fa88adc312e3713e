import contextlib
import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dbic
from dbic import metrics
from dbic.cli import main
from dbic.graph import DeBruijnGraph
from dbic.schemas import (BALL_OUTPUT_SCHEMA, CHECK_OUTPUT_SCHEMA,
                          CODE_FILE_SCHEMA, CODE_REPORT_SCHEMA,
                          ECC_OUTPUT_SCHEMA, GRAPH_STATS_SCHEMA,
                          INFEASIBLE_OUTPUT_SCHEMA, SWEEP_CSV_HEADER)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_capped(*argv):
    """`dbic argv` in a child process limited to a 1 GiB address space."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
             "from dbic.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dbic.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", child, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=600)


class TestGraphCommand:
    def test_stats(self, capsys):
        code, payload = run_json(capsys, "graph", "2", "3")
        assert code == 0
        assert payload == {"d": 2, "n": 3, "vertices": 8, "edges": 13,
                           "loops": 2}
        jsonschema.validate(payload, GRAPH_STATS_SCHEMA)

    def test_ternary_stats(self, capsys):
        code, payload = run_json(capsys, "graph", "3", "2")
        assert code == 0
        assert payload["vertices"] == 9

    def test_invalid_alphabet_exits_2(self, capsys):
        assert main(["graph", "1", "3"]) == 2

    def test_dot_export_with_highlight(self, capsys, tmp_path):
        target = tmp_path / "out.dot"
        code, payload = run_json(capsys, "graph", "2", "3",
                                 "--dot", str(target), "--highlight", "011")
        assert code == 0
        text = target.read_text()
        assert '"011" [style=filled' in text
        assert payload["dot"] == str(target)

    def test_max_vertices_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DBIC_MAX_VERTICES", "4")
        assert main(["graph", "2", "3"]) == 2
        capsys.readouterr()
        # flag wins over the environment
        assert main(["graph", "2", "3", "--max-vertices", "8"]) == 0


class TestBallCommand:
    def test_methods_agree(self, capsys):
        code, payload = run_json(capsys, "ball", "2", "3", "1", "011",
                                 "--method", "both")
        assert code == 0
        assert payload["ball"] == ["001", "011", "101", "110", "111"]
        jsonschema.validate(payload, BALL_OUTPUT_SCHEMA)

    def test_radius_zero(self, capsys):
        code, payload = run_json(capsys, "ball", "3", "4", "0", "0000")
        assert code == 0
        assert payload["ball"] == ["0000"]

    def test_two_ball_agreement_ternary(self, capsys):
        code, payload = run_json(capsys, "ball", "3", "6", "2", "001122",
                                 "--method", "both")
        assert code == 0
        assert payload["size"] == len(payload["ball"])

    def test_closed_form_outside_validity_exits_3(self, capsys):
        assert main(["ball", "3", "2", "4", "01", "--method", "closed"]) == 3

    def test_bad_vertex_exits_2(self, capsys):
        assert main(["ball", "2", "3", "1", "021"]) == 2
        assert main(["ball", "2", "3", "1", "01"]) == 2


class TestCheckCommand:
    def test_identifiable_cell(self, capsys):
        code, payload = run_json(capsys, "check", "3", "4", "2")
        assert code == 0
        assert payload["identifiable"] is True
        jsonschema.validate(payload, CHECK_OUTPUT_SCHEMA)

    def test_binary_theorem_cell(self, capsys):
        assert run_json(capsys, "check", "2", "3", "1")[0] == 0

    def test_twins_reported_with_exit_1(self, capsys):
        code, payload = run_json(capsys, "check", "2", "2", "1")
        assert code == 1
        assert payload["twin"] == {"x": "01", "y": "10"}
        jsonschema.validate(payload, CHECK_OUTPUT_SCHEMA)

    def test_largest_binary_cell_under_default_cap(self):
        """check 2 19 1 (524,288 vertices, whose table of all balls would
        take 32 GiB) in a child process that reports its own peak RSS."""
        child = ("import resource, sys\n"
                 "from dbic.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
                 " file=sys.stderr)\n"
                 "sys.exit(code)\n")
        env = dict(os.environ, PYTHONPATH=str(Path(dbic.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", child, "check", "2", "19", "1"],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["identifiable"] is True
        peak_kib = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB
        assert peak_kib < 2 ** 20

    def test_out_of_memory_exits_2(self):
        """check 2 30 2 under a raised vertex cap, whose words take 8 GiB,
        cannot fit in a 1 GiB address space: it exits 2 with one error
        line, not a traceback."""
        proc = run_capped("check", "2", "30", "2",
                          "--max-vertices", "2000000000")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    def test_hashed_draw_out_of_memory_exits_2(self):
        """check 2 25 3 takes word stripes on 2^25 vertices, more than a
        1 GiB address space holds: it exits 2 with one error line.  The
        wide hashed rows it took before drew 2^31 random bits at once,
        which overflowed (a traceback, exit 1)."""
        proc = run_capped("check", "2", "25", "3",
                          "--max-vertices", "40000000")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""


class TestCodeCommand:
    @pytest.mark.parametrize("mode", ["--greedy", "--exact"])
    def test_target_list_cap(self, mode):
        """code 2 16 1 is under the vertex cap, but its target list alone
        would take gigabytes: it must exit 2 inside a 1 GiB address space
        rather than try."""
        proc = run_capped("code", "2", "16", "1", mode)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert proc.stdout == ""

    def test_exact_minimum(self, capsys):
        code, payload = run_json(capsys, "code", "2", "3", "1", "--exact")
        assert code == 0
        assert payload["size"] == 4
        assert payload["optimal"] is True

    def test_greedy(self, capsys):
        code, payload = run_json(capsys, "code", "3", "2", "1", "--greedy")
        assert code == 0
        assert payload["size"] >= 4

    def test_verify_reference_code(self, capsys, tmp_path):
        payload = {"d": 2, "n": 3, "t": 1,
                   "code": ["001", "010", "011", "101"]}
        jsonschema.validate(payload, CODE_FILE_SCHEMA)
        code_file = tmp_path / "code.json"
        code_file.write_text(json.dumps(payload))
        code, report = run_json(capsys, "code", "2", "3", "1",
                                "--verify", str(code_file))
        assert code == 0
        assert report["valid"] is True
        jsonschema.validate(report, CODE_REPORT_SCHEMA)

    def test_verify_invalid_code_exits_1(self, capsys, tmp_path):
        code_file = tmp_path / "code.json"
        code_file.write_text(json.dumps({"d": 2, "n": 3, "t": 1,
                                         "code": ["111"]}))
        code, report = run_json(capsys, "code", "2", "3", "1",
                                "--verify", str(code_file))
        assert code == 1
        assert report["valid"] is False
        assert report["collisions"]

    def test_verify_counts_collisions_in_bounded_memory(self, tmp_path):
        """A one-vertex code of B(2,12) t=1 leaves 4,091 empty identifying
        sets and 5 equal ones: 8,366,105 colliding pairs, counted, not
        listed, inside a 1 GiB address space."""
        code_file = tmp_path / "code.json"
        code_file.write_text(json.dumps({"code": ["000000000001"]}))
        proc = run_capped("code", "2", "12", "1", "--verify", str(code_file))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        jsonschema.validate(report, CODE_REPORT_SCHEMA)
        assert report["collision_count"] == 8_366_105
        assert report["collisions"][0] == ["000000000000", "000000000001"]
        assert len(report["collisions"]) == 10

    def test_verify_mismatched_parameters_exits_2(self, capsys, tmp_path):
        code_file = tmp_path / "code.json"
        code_file.write_text(json.dumps({"d": 2, "n": 4, "t": 1,
                                         "code": ["0001"]}))
        assert main(["code", "2", "3", "1", "--verify", str(code_file)]) == 2

    def test_infeasible_exits_1(self, capsys):
        code, payload = run_json(capsys, "code", "2", "2", "1")
        assert code == 1
        assert payload["error"] == "infeasible_no_code"
        jsonschema.validate(payload, INFEASIBLE_OUTPUT_SCHEMA)
        assert payload["twins"] == [["01", "10"]]
        assert payload["twin_count"] == 1

    def test_infeasible_counts_every_twin_pair(self, capsys):
        code, payload = run_json(capsys, "code", "2", "8", "7", "--greedy")
        assert code == 1
        jsonschema.validate(payload, INFEASIBLE_OUTPUT_SCHEMA)
        assert payload["twin_count"] == 12_094
        assert len(payload["twins"]) == 10
        assert payload["twins"][0] == ["00000001", "00000011"]

    def test_budget_exhaustion_exits_4(self, capsys):
        code, payload = run_json(capsys, "code", "2", "4", "1",
                                 "--budget", "1")
        assert code == 4
        assert payload["optimal"] is False
        assert payload["code"]  # incumbent still reported


class TestEccCommand:
    def test_single_vertex(self, capsys):
        code, payload = run_json(capsys, "ecc", "2", "3", "--vertex", "011")
        assert code == 0
        assert payload["eccentricity"] == 2
        jsonschema.validate(payload, ECC_OUTPUT_SCHEMA)

    def test_summary(self, capsys):
        code, payload = run_json(capsys, "ecc", "3", "3", "--all")
        assert code == 0
        assert (payload["radius"], payload["diameter"]) == (3, 3)

    def test_binary_summary(self, capsys):
        code, payload = run_json(capsys, "ecc", "2", "3")
        assert (payload["radius"], payload["diameter"]) == (2, 3)

    def test_csv_rows(self, capsys, tmp_path):
        target = tmp_path / "ecc.csv"
        code, _ = run_json(capsys, "ecc", "2", "3", "--csv", str(target))
        rows = list(csv.reader(target.open()))
        assert rows[0] == ["d", "n", "vertex", "eccentricity", "witness"]
        assert rows[1] == ["2", "3", "000", "3", "101"]
        assert len(rows) == 9

    def test_csv_and_summary_share_one_pass(self, capsys, tmp_path,
                                            monkeypatch):
        calls = []
        single = metrics.eccentricity
        monkeypatch.setattr(metrics, "eccentricity",
                            lambda g, v: calls.append(v) or single(g, v))
        target = tmp_path / "ecc.csv"
        code, payload = run_json(capsys, "ecc", "3", "4", "--all",
                                 "--csv", str(target))
        assert code == 0
        assert (payload["radius"], payload["diameter"]) == (4, 4)
        assert len(calls) == 81
        assert len(list(csv.reader(target.open()))) == 82

    def test_vertex_past_the_cap_under_1_gib(self):
        """1^n lies n from 0^n, and the walk holds nothing of size 2^40."""
        proc = run_capped("ecc", "2", "40", "--vertex", "0" * 40,
                          "--max-vertices", str(2 ** 40))
        assert (proc.returncode, proc.stderr) == (0, "")
        payload = json.loads(proc.stdout)
        assert (payload["vertex"], payload["eccentricity"]) == ("0" * 40, 40)

    def spy_traversals(self, monkeypatch):
        calls = []
        layers = DeBruijnGraph.bfs_layers
        monkeypatch.setattr(
            DeBruijnGraph, "bfs_layers", lambda g, v, radius=None:
            calls.append((v, radius)) or layers(g, v, radius))
        return calls

    def test_summary_runs_no_traversal(self, capsys, monkeypatch):
        """d = 2 has no far-vertex certificate, so each representative is
        settled by its walks, with no traversal."""
        calls = self.spy_traversals(monkeypatch)
        code, payload = run_json(capsys, "ecc", "2", "6")
        assert code == 0
        assert (payload["radius"], payload["diameter"]) == (5, 6)
        assert calls == []

    def test_ternary_summary_runs_no_traversal(self, capsys, monkeypatch):
        """d >= 3: the antipodal vertex certifies every representative."""
        calls = self.spy_traversals(monkeypatch)
        code, payload = run_json(capsys, "ecc", "3", "4")
        assert code == 0
        assert (payload["radius"], payload["diameter"]) == (4, 4)
        assert calls == []


class TestParserReuse:
    def test_repeated_calls_leave_no_cyclic_garbage(self):
        """`main` reuses one parser, and a walk drops its own closure, so
        twelve calls on three commands leave nothing for the cycle
        collector, and print what the first did."""
        argvs = [["check", "3", "4", "2"], ["ecc", "2", "3"],
                 ["ecc", "2", "8", "--vertex", "00000001"]]

        def call(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(list(argv))
            return code, out.getvalue()

        first = [call(argv) for argv in argvs]
        gc.disable()
        try:
            gc.collect()
            again = [call(argvs[i % 3]) for i in range(12)]
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert again == first * 4


class TestSweepCommand:
    def test_grid_and_auto_radius(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, summary = run_json(capsys, "sweep", "--d", "3", "--n", "2..3",
                                 "--t", "auto", "--out", str(target))
        assert code == 0
        rows = list(csv.DictReader(target.open()))
        assert [(r["d"], r["n"], r["t"]) for r in rows] == [
            ("3", "2", "1"), ("3", "3", "1"), ("3", "3", "2")]
        assert all(r["identifiable"] == "true" for r in rows)
        assert rows[0]["min_code_size"] == "4"
        assert summary["cells"] == 3

    def test_header_is_fixed(self, capsys):
        code, out = run(capsys, "sweep", "--d", "2", "--n", "2", "--t", "1")
        assert code == 0
        header = out.splitlines()[0]
        assert header == ",".join(SWEEP_CSV_HEADER)

    def test_non_identifiable_cell_records_witness(self, capsys):
        code, out = run(capsys, "sweep", "--d", "2", "--n", "2", "--t", "1")
        row = next(csv.DictReader(out.splitlines()))
        assert row["identifiable"] == "false"
        assert (row["twin_x"], row["twin_y"]) == ("01", "10")
        assert row["min_code_size"] == ""

    def test_cell_errors_recorded_in_row(self, capsys):
        code, out = run(capsys, "sweep", "--d", "2", "--n", "40", "--t", "1")
        assert code == 0  # the sweep itself never aborts
        row = next(csv.DictReader(out.splitlines()))
        assert row["identifiable"].startswith("error:")

    def test_bad_range_exits_2(self, capsys):
        assert main(["sweep", "--d", "3", "--n", "x..2", "--t", "1"]) == 2
        assert main(["sweep", "--d", "3", "--n", "5..2", "--t", "1"]) == 2

    def test_deterministic_apart_from_elapsed(self, capsys):
        def strip_elapsed(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        _, first = run(capsys, "sweep", "--d", "2,3", "--n", "2..3",
                       "--t", "1")
        _, second = run(capsys, "sweep", "--d", "2,3", "--n", "2..3",
                        "--t", "1")
        assert strip_elapsed(first) == strip_elapsed(second)


class TestOutputDeterminism:
    @pytest.mark.parametrize("argv", [
        ["graph", "2", "3"],
        ["ball", "2", "3", "1", "011", "--method", "both"],
        ["check", "3", "2", "1"],
        ["code", "2", "3", "1", "--exact"],
        ["ecc", "2", "3", "--vertex", "011"],
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second


class TestInputBoundary:
    """Malformed input exits 2 with a one-line message, never a traceback."""

    @staticmethod
    def rejected(capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        return code == 2 and err.startswith("error: ") \
            and "Traceback" not in err

    def test_non_ascii_digit_in_vertex(self, capsys):
        assert self.rejected(capsys, "ball", "2", "3", "1", "0²1")
        assert self.rejected(capsys, "ball", "11", "2", "1", "1,²")
        assert self.rejected(capsys, "ball", "11", "2", "1", "1,--1")

    def test_verify_missing_or_unreadable_file(self, capsys, tmp_path):
        assert self.rejected(capsys, "code", "2", "3", "1",
                             "--verify", str(tmp_path / "absent.json"))
        assert self.rejected(capsys, "code", "2", "3", "1",
                             "--verify", str(tmp_path))

    def test_verify_non_json(self, capsys, tmp_path):
        code_file = tmp_path / "code.json"
        code_file.write_text("{not json")
        assert self.rejected(capsys, "code", "2", "3", "1",
                             "--verify", str(code_file))
        code_file.write_bytes(b"\xff\xfe\x00")
        assert self.rejected(capsys, "code", "2", "3", "1",
                             "--verify", str(code_file))

    @pytest.mark.parametrize("n,payload", [
        ("3", {"d": 2, "n": 3, "t": 1}),
        ("3", {"d": 2, "n": 3, "t": 1, "code": "011"}),
        # a string of one-symbol vertices must not pass as a list of them
        ("1", {"d": 2, "n": 1, "t": 1, "code": "01"}),
        ("3", {"d": 2, "n": 3, "t": 1, "code": [1, 2]}),
        ("3", ["011"]),
    ])
    def test_verify_malformed_code(self, capsys, tmp_path, n, payload):
        code_file = tmp_path / "code.json"
        code_file.write_text(json.dumps(payload))
        assert self.rejected(capsys, "code", "2", n, "1",
                             "--verify", str(code_file))

    def test_dot_to_unwritable_path(self, capsys, tmp_path):
        """A file that cannot be opened, or (/dev/full) that fails on write
        or close, exits 2 with one error line, naming the file, and no
        stdout."""
        paths = [str(tmp_path / "missing" / "out")]
        if os.path.exists("/dev/full"):
            paths.append("/dev/full")
        for path in paths:
            for argv in (["graph", "2", "3", "--dot", path],
                         ["ecc", "2", "3", "--csv", path],
                         ["sweep", "--d", "2", "--n", "2", "--t", "1",
                          "--out", path]):
                assert main(argv) == 2, argv
                out, err = capsys.readouterr()
                assert out == "", argv
                assert err.startswith("error: ") and err.count("\n") == 1
                assert path in err, argv

    def test_negative_budget(self, capsys):
        assert self.rejected(capsys, "code", "2", "3", "1", "--budget", "-5")
        assert self.rejected(capsys, "sweep", "--d", "2", "--n", "3",
                             "--t", "1", "--budget", "-1")

    def test_budget_outside_the_exact_search(self, capsys, tmp_path):
        """Greedy and verification run no search, so a budget given to
        them is refused rather than ignored, before the code file is
        read."""
        code_file = tmp_path / "code.json"
        code_file.write_text(json.dumps({"code": ["001", "010", "011"]}))
        for argv in (["--greedy", "--budget", "5"],
                     ["--verify", str(code_file), "--budget", "0"],
                     ["--verify", str(tmp_path / "missing.json"),
                      "--budget", "5"]):
            assert main(["code", "2", "3", "1", *argv]) == 2, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert err == "error: --budget applies only to the exact search" \
                f" (mode={argv[0][2:]})\n", argv

    def test_vertex_cap_below_one(self, capsys, monkeypatch):
        assert self.rejected(capsys, "graph", "2", "3", "--max-vertices", "0")
        assert self.rejected(capsys, "sweep", "--d", "2", "--n", "3",
                             "--t", "1", "--max-vertices", "-1")
        monkeypatch.setenv("DBIC_MAX_VERTICES", "0")
        assert self.rejected(capsys, "graph", "2", "3")


# Argument atoms for the fuzz test: integers around every parameter's lower
# bound, weighted towards the graphs under the fuzz vertex cap, and vertex
# literals over ASCII and non-ASCII digits, commas, signs and spaces.
INTS = st.one_of(st.integers(-2, 12), st.integers(1, 4)).map(str)
VERTEX = st.one_of(st.text(alphabet="0123", min_size=1, max_size=5),
                   st.text(alphabet="01²٣１,-+ ", max_size=5),
                   st.text(alphabet="0123456789,-+ ²٣１", max_size=8))
RANGE = st.one_of(
    INTS,
    st.tuples(st.integers(-2, 12), st.integers(-1, 3)).map(
        lambda p: f"{p[0]}..{p[0] + p[1]}"),
    st.tuples(INTS, INTS).map(",".join),
)
BUDGET = st.integers(-2, 500).map(lambda b: ["--budget", str(b)])
MODE = st.lists(st.sampled_from(["--exact", "--greedy"]), max_size=2,
                unique=True)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


ARGV = st.one_of(
    st.tuples(st.just(["graph"]), INTS, INTS, _flag("--highlight", VERTEX)),
    st.tuples(st.just(["ball"]), INTS, INTS, INTS, VERTEX,
              _flag("--method", st.sampled_from(["bfs", "closed", "both"]))),
    st.tuples(st.just(["check"]), INTS, INTS, INTS),
    st.tuples(st.just(["code"]), INTS, INTS, INTS, MODE, BUDGET),
    st.tuples(st.just(["ecc"]), INTS, INTS,
              st.one_of(st.just([]), st.just(["--all"]),
                        VERTEX.map(lambda v: ["--vertex", v]))),
    st.tuples(st.just(["sweep"]), RANGE.map(lambda r: ["--d", r]),
              RANGE.map(lambda r: ["--n", r]),
              st.one_of(st.just("auto"), RANGE).map(lambda r: ["--t", r]),
              _flag("--exact-below", INTS), BUDGET),
).map(lambda parts: [a for part in parts
                     for a in (part if isinstance(part, list) else [part])])


class TestCliFuzz:
    """Any argv built from these atoms ends in a contract exit code, never
    an exception; argparse's own rejections count as exit 2."""

    @settings(max_examples=1000, deadline=None)
    @given(argv=ARGV, pretty=st.booleans())
    def test_exit_code_contract(self, argv, pretty):
        argv = argv + ["--max-vertices", "32"] + (["--pretty"] if pretty else [])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 1, 2, 3, 4}, (argv, sink.getvalue())
