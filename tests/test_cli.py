import json
import os
import subprocess
import sys
from pathlib import Path

import maxdepth
from maxdepth import invariants
from maxdepth.cli import main
from maxdepth.invariants import HochsterTable

C8 = "--edges=n=8; edges=1-2,2-3,3-4,4-5,5-6,6-7,7-8,1-8"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format=json", *argv)
    assert code == 0, err
    return json.loads(out)


class TestAnalyze:
    def test_c8_table(self, capsys):
        code, out, err = run_cli(capsys, "analyze", C8)
        assert code == 0
        assert "depth: 3" in out and "dim: 4" in out
        assert "maximal_depth: true" in out

    def test_c8_json(self, capsys):
        doc = run_json(capsys, "analyze", C8)
        assert doc["dim"] == 4 and doc["depth"] == 3 and doc["mdepth"] == 3
        assert doc["maximal_depth"] is True
        assert doc["field"] == "QQ"
        assert len(doc["ass"]) == 10
        assert [row["i"] for row in doc["h_table"]] == [0, 1, 2, 3, 4]

    def test_gens_input(self, capsys):
        doc = run_json(capsys, "analyze", "--gens=x1*x3,x1*x4,x2*x3,x2*x4")
        assert doc["depth"] == 1 and doc["generalized_cm"] is True
        assert doc["h_table"][1]["k_dim"] == 1

    def test_field_flag(self, capsys, tmp_path):
        facets = [
            [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 2, 6], [1, 5, 6],
            [2, 3, 5], [2, 4, 5], [2, 4, 6], [3, 4, 6], [3, 5, 6],
        ]
        path = tmp_path / "rp2.json"
        path.write_text(json.dumps({"vertices": 6, "facets": facets}))
        rp2 = f"--facets-json={path}"
        q = run_json(capsys, "analyze", rp2)
        f2 = run_json(capsys, "--field=f2", "analyze", rp2)
        assert q["depth"] == 3 and f2["depth"] == 2
        assert f2["field"] == "GF(2)"

    def test_facets_json_input(self, capsys, tmp_path):
        path = tmp_path / "cx.json"
        path.write_text(json.dumps({"vertices": 3, "facets": [[1, 2], [2, 3], [1, 3]]}))
        doc = run_json(capsys, "analyze", f"--facets-json={path}")
        assert doc["dim"] == 2 and doc["depth"] == 2

    def test_two_sources_rejected(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--gens=x1", "--edges=n=2; edges=1-2")
        assert code == 2 and "error kind=" in err


class TestOtherCommands:
    def test_filtration(self, capsys):
        doc = run_json(capsys, "filtration", C8)
        assert doc["t"] == 3
        assert doc["levels"][3]["depth_interval"] == [2, 2]
        assert doc["levels"][4]["ideal_gens"] == ["1"]

    def test_seqcm_false_with_witness(self, capsys):
        doc = run_json(capsys, "seqcm", C8)
        assert doc["sequentially_cm"] == "false"
        assert "witness" in doc

    def test_seqcm_true(self, capsys):
        doc = run_json(capsys, "seqcm", "--edges=n=5; edges=1-2,2-3,3-4,4-5,1-5")
        assert doc == {"sequentially_cm": "true"}

    def test_att(self, capsys):
        doc = run_json(capsys, "att", C8)
        assert doc["claims"][4]["kind"] == "full"
        assert sorted(doc["claims"][4]["primes"]) == [
            ["x1", "x3", "x5", "x7"],
            ["x2", "x4", "x6", "x8"],
        ]
        assert doc["notes"]

    def test_psupp(self, capsys):
        doc = run_json(capsys, "psupp", C8, "--degree=3")
        assert doc["degree"] == 3 and [] in doc["faces"]

    def test_polarize(self, capsys):
        doc = run_json(capsys, "polarize", "--gens=x1^2,x1*x2")
        assert doc["added_vars"] == 1
        assert doc["vars"] == ["x1_1", "x1_2", "x2"]

    def test_localize(self, capsys):
        doc = run_json(capsys, "localize", C8, "--face=2,4,6,8")
        assert doc["face"] == [2, 4, 6, 8]
        assert doc["profile"]["maximal_depth"] is True

    def test_tensor(self, capsys):
        doc = run_json(capsys, "tensor", "--gens=x1*x2", "--gens2=x1*x2")
        assert doc["vars"] == ["x1", "x2", "x3", "x4"]
        assert doc["profile"]["depth"] == 2

    def test_directsum(self, capsys):
        doc = run_json(
            capsys,
            "directsum",
            "--gens=x1*x3,x1*x4,x2*x3,x2*x4",
            "--gens=",
            "--nvars=4",
        )
        assert doc["depth"] == 1 and doc["dim"] == 4
        assert doc["maximal_depth"] is False

    def test_probe(self, capsys):
        doc = run_json(
            capsys, "--samples=25", "--seed=7", "--max-vertices=6", "probe"
        )
        assert doc["samples"] == 25 and doc["hits"] == []

    def test_regress(self, capsys):
        code, out, err = run_cli(capsys, "regress")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out


class TestExitCodes:
    def test_malformed_input_is_2(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--gens=y1+y2")
        assert code == 2 and 'error kind="malformed-input"'.split("=")[0] in err

    def test_cap_exceeded_is_3(self, capsys):
        code, out, err = run_cli(
            capsys, "--search-cap=50", "analyze", "--gens=x1^9,x2^9,x3^9"
        )
        assert code == 3

    def test_search_cap_exceeded_is_3(self, capsys):
        # C12 has 12 vertices, under the vertex cap; its cover search visits
        # 85 nodes
        c12 = "--edges=n=12; edges=" + ",".join(f"{i}-{i % 12 + 1}" for i in range(1, 13))
        code, out, err = run_cli(capsys, "--search-cap=50", "analyze", c12)
        assert code == 3 and "transversal search visited more than 50 nodes" in err, err

    def test_precondition_is_4(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--gens=x1,x2", "--nvars=2")
        assert code == 0
        code, out, err = run_cli(capsys, "seqcm", "--gens=1")
        assert code in (2, 4)

    def test_unit_ideal_is_4(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--gens=x1^0")
        assert code == 4 and "error kind=" in err

    def test_internal_check_is_reported(self, capsys, monkeypatch):
        # a table whose dimension disagrees with Ass must fail as an engine error
        table = invariants.complex_table
        monkeypatch.setattr(
            invariants, "complex_table",
            lambda cx, field: HochsterTable(table(cx, field).degrees[:-1]),
        )
        code, out, err = run_cli(capsys, "analyze", C8)
        assert code == 1 and "error kind=internal-check" in err

    def test_bad_probe_bounds_are_2(self, capsys):
        for argv in (
            ("probe", "--min-vertices=8"),
            ("probe", "--min-vertices=0"),
            ("--max-vertices=0", "probe"),
            ("--samples=-3", "probe"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and "error kind=malformed-input" in err, argv

    def test_non_integer_face_is_2(self, capsys):
        code, out, err = run_cli(capsys, "localize", "--gens=x1*x2", "--face=a")
        assert code == 2 and "error kind=malformed-input" in err
        # integer vertices that are not a face stay precondition violations
        for face in ("--face=0", "--face=99"):
            assert run_cli(capsys, "localize", "--gens=x1*x2", face)[0] == 4, face

    def test_non_face_named_in_typed_vertices(self, capsys):
        # the message names the face 1-based, as --face takes it
        for face, named in (("1,2", "(1, 2)"), ("2,1", "(1, 2)"), ("0", "(0,)"), ("99", "(99,)")):
            code, out, err = run_cli(capsys, "localize", "--gens=x1*x2", f"--face={face}")
            assert code == 4, face
            assert f'msg="{named} is not a face;' in err, err

    def test_vertex_cap_is_3(self, capsys):
        c9 = "--edges=n=9; edges=1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,1-9"
        code, out, err = run_cli(capsys, "--max-vertices=4", "analyze", c9)
        assert code == 3

    def test_vertex_cap_checked_before_search_cap(self, capsys):
        # with both caps exceeded the vertex cap speaks first, on squarefree
        # and on polarized input
        for gens in ("--gens=x1*x2,x3*x4", "--gens=x1^2*x2,x3*x4"):
            code, out, err = run_cli(capsys, "--search-cap=2", "--max-vertices=3", "analyze", gens)
            assert code == 3 and "vertices exceeds cap 3" in err, gens


class TestDeterminism:
    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # the caps set by one call must not reach the next, and a warm call
        # must not let a capped repeat on the same ideal through
        c10 = "--edges=n=10; edges=1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,9-10,1-10"
        sequence = (
            ("--search-cap=4", "analyze", "--gens=x1*x3,x2*x4"),
            ("analyze", "--gens=x1*x2,x2*x3,x3*x4,x1*x4"),
            ("--max-vertices=3", "analyze", "--gens=x1*x2"),
            ("analyze", "--gens=x1*x2,x3*x4"),
            ("analyze", c10),
            ("--search-cap=5", "analyze", c10),
            ("--max-vertices=4", "analyze", c10),
        )
        in_process = [run_cli(capsys, *argv)[:2] for argv in sequence]
        env = dict(os.environ, PYTHONPATH=str(Path(maxdepth.__file__).parents[1]))
        fresh = []
        for argv in sequence:
            done = subprocess.run(
                [sys.executable, "-m", "maxdepth.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            fresh.append((done.returncode, done.stdout))
        assert [code for code, _ in in_process] == [3, 0, 0, 0, 0, 3, 3]
        assert in_process == fresh

    def test_byte_identical_rerun(self, capsys):
        first = run_cli(capsys, "--format=json", "analyze", C8)
        second = run_cli(capsys, "--format=json", "analyze", C8)
        assert first == second

    def test_probe_byte_identical(self, capsys):
        args = ("--format=json", "--samples=20", "--seed=3", "probe")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


class TestColdStart:
    def test_cli_import_skips_dataclasses_inspect_and_random(self):
        # every CLI call pays its imports; -S keeps the host's .pth files out
        env = dict(os.environ, PYTHONPATH=str(Path(maxdepth.__file__).parents[1]))
        code = ("import sys, maxdepth.cli; "
                "print([m for m in ('dataclasses', 'inspect', 'random') if m in sys.modules])")
        done = subprocess.run(
            [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
