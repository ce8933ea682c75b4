import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxdepth
from maxdepth import filtration, invariants
from maxdepth.cli import main
from maxdepth.invariants import HochsterTable

from conftest import MOBIUS, RP2

C8 = "--edges=n=8; edges=1-2,2-3,3-4,4-5,5-6,6-7,7-8,1-8"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format=json", *argv)
    assert code == 0, err
    return json.loads(out)


def rp2_flag(tmp_path):
    path = tmp_path / "rp2.json"
    path.write_text(json.dumps({"vertices": 6, "facets": [[v + 1 for v in f] for f in RP2.facets]}))
    return f"--facets-json={path}"


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

    def test_bare_two_digit_variables(self, capsys):
        doc = run_json(capsys, "analyze", "--gens=x10,x11")
        assert doc["ass"] == [["x10", "x11"]] and doc["depth"] == 9

    def test_field_flag(self, capsys, tmp_path):
        rp2 = rp2_flag(tmp_path)
        q = run_json(capsys, "analyze", rp2)
        f2 = run_json(capsys, "--field=f2", "analyze", rp2)
        assert q["depth"] == 3 and f2["depth"] == 2
        assert f2["field"] == "GF(2)"
        # fp=P names a prime field; RP2 has torsion only at 2, so GF(3)
        # answers as QQ does
        for p, depth in ((3, 3), (2, 2)):
            code, out, err = run_cli(capsys, f"--field=fp={p}", "analyze", rp2)
            assert code == 0, err
            lines = out.splitlines()
            assert f"depth: {depth}" in lines and f"field: GF({p})" in lines, out

    @pytest.mark.parametrize("spec, msg", [
        ("fp=4", "field characteristic must be 0 or prime, got 4"),
        ("fp=1", "field characteristic must be 0 or prime, got 1"),
        ("fp=-3", "field characteristic must be 0 or prime, got -3"),
        ("fp=x", "bad field spec 'fp=x'"),
        ("gf3", "unknown field spec 'gf3'"),
    ])
    def test_bad_field_spec_is_2(self, capsys, tmp_path, spec, msg):
        code, out, err = run_cli(capsys, f"--field={spec}", "analyze", rp2_flag(tmp_path))
        assert (code, out) == (2, "") and "error kind=malformed-input" in err and msg in err, err

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
        assert [row["i"] for row in doc["levels"]] == [0, 1, 2, 3, 4]
        lines = run_cli(capsys, "filtration", C8)[1].splitlines()
        assert [line.split()[0] for line in lines[2:]] == [f"i={i}" for i in range(5)]
        assert lines[-1] == ("  i=4  ideal_gens=(1)  nonzero=true  ass_i=(x1, x3, x5, x7) (x2, x4, x6, x8)"
                             "  depth_interval=(3, 3)  quotient_depth_interval=(1, 1)")
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
        assert [c["degree"] for c in doc["claims"]] == [0, 1, 2, 3, 4]
        lines = run_cli(capsys, "att", C8)[1].splitlines()
        assert [line.split()[0] for line in lines[1:]] == [f"degree={i}" for i in range(5)]
        assert lines[-1] == "  degree=4  kind=full  tag=top-assh  primes=(x1, x3, x5, x7) (x2, x4, x6, x8)"
        assert doc["claims"][4]["kind"] == "full"
        assert sorted(doc["claims"][4]["primes"]) == [
            ["x1", "x3", "x5", "x7"],
            ["x2", "x4", "x6", "x8"],
        ]
        assert "notes" not in doc

    def test_psupp(self, capsys):
        doc = run_json(capsys, "psupp", C8, "--degree=3")
        assert doc["degree"] == 3 and [] in doc["faces"]

    def test_polarize(self, capsys):
        doc = run_json(capsys, "polarize", "--gens=x1^2,x1*x2")
        assert doc["added_vars"] == 1
        assert doc["vars"] == ["x1_1", "x1_2", "x2"]
        assert doc["gens"] == ["x1_1*x2", "x1_1*x1_2"]

    def test_localize(self, capsys):
        doc = run_json(capsys, "localize", C8, "--face=2,4,6,8")
        assert doc["face"] == [2, 4, 6, 8] and doc["prime_codim_complement"] == 4
        assert doc["profile"]["maximal_depth"] is True

    def test_table_tells_empty_lists_from_the_zero_prime_and_empty_face(self, capsys):
        # a list of primes or faces prints {} when empty and () for the
        # zero prime or the empty face alone; a face or generator list
        # prints () when empty
        two_planes = "--gens=x1*x3,x1*x4,x2*x3,x2*x4"
        assert run_cli(capsys, "psupp", two_planes, "--degree=0")[1] == "degree: 0\nfaces: {}\n"
        assert run_cli(capsys, "psupp", two_planes, "--degree=1")[1] == "degree: 1\nfaces: ()\n"
        assert run_json(capsys, "psupp", two_planes, "--degree=0")["faces"] == []
        assert run_json(capsys, "psupp", two_planes, "--degree=1")["faces"] == [[]]
        zero = ("--gens=0", "--nvars=2")
        out = run_cli(capsys, "att", *zero)[1]
        assert [line.rsplit("primes=", 1)[1] for line in out.splitlines()[1:]] == ["{}", "{}", "()"]
        out = run_cli(capsys, "filtration", *zero)[1]
        assert "  i=0  ideal_gens=()  nonzero=false  ass_i={}  " in out
        out = run_cli(capsys, "analyze", "--gens=x1*x2,x2*x3")[1]
        assert "\nass: (x1, x3) (x2)\nassd: (x1, x3)\n" in out
        assert "\nassd: {}\n" in run_cli(capsys, "analyze", two_planes)[1]
        assert run_cli(capsys, "localize", "--gens=x1*x2", "--face=")[1].startswith("face: ()\n")
        assert "\ngens: ()\n" in run_cli(capsys, "polarize", *zero)[1]

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

    def test_probe_honours_field(self, capsys, monkeypatch):
        # every sample is RP2: depth 3 = mdepth over QQ, but depth 2 over GF(2)
        monkeypatch.setattr(filtration, "random_complex", lambda rng, n: RP2)
        q = run_json(capsys, "--field=q", "--samples=5", "probe")
        f2 = run_json(capsys, "--field=f2", "--samples=5", "probe")
        assert (q["samples"], q["eligible"]) == (5, 5)
        assert (f2["samples"], f2["eligible"]) == (5, 0)

    def test_probe_hit_rendering(self, capsys, monkeypatch):
        # the Moebius band 123, 124, 135, 245, 345 with the isolated vertex
        # 6 hits at degree 2 (tests/test_filtration.py::TestProbe)
        monkeypatch.setattr(filtration, "random_complex", lambda rng, n: MOBIUS)
        gens = ["x5*x6", "x4*x6", "x3*x6", "x2*x6", "x1*x6",
                "x2*x3*x5", "x2*x3*x4", "x1*x4*x5", "x1*x3*x4", "x1*x2*x5"]
        hit = {"gens": gens, "vars": ["x1", "x2", "x3", "x4", "x5", "x6"],
               "degree": 2, "depth": 1, "dim": 3}
        assert run_json(capsys, "--samples=2", "probe") == {
            "samples": 2, "eligible": 2, "hits": [hit, hit]}
        code, out, err = run_cli(capsys, "--samples=2", "probe")
        row = (f"  gens=({', '.join(gens)})  vars=(x1, x2, x3, x4, x5, x6)"
               "  degree=2  depth=1  dim=3")
        assert (code, err) == (0, "")
        assert out == "\n".join(["samples: 2", "eligible: 2", "hits:", row, row]) + "\n"

    def test_regress(self, capsys):
        code, out, err = run_cli(capsys, "regress")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out


class TestJsonInput:
    def write(self, tmp_path, doc):
        path = tmp_path / "in.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    def test_ideal_json_names_reach_ass(self, capsys, tmp_path):
        path = self.write(tmp_path, {"vars": ["a", "b", "c"], "gens": [[1, 1, 0], [0, 1, 1]]})
        doc = run_json(capsys, "analyze", f"--ideal-json={path}")
        assert doc["ass"] == [["a", "c"], ["b"]] and doc["depth"] == 1

    @pytest.mark.parametrize("doc", [
        "{not json",
        {"vars": ["a", "b"]},
        {"gens": [[1, 0]]},
        {"vars": ["a", "b"], "gens": [[1, 2, 3]]},
        {"vars": ["a", "b"], "gens": [[2.7, 0], [1, 1]]},
        {"vars": ["a", "b"], "gens": [[2, 0], [True, 1]]},
        {"vars": ["a", "b"], "gens": [["2", 0]]},
    ])
    def test_bad_ideal_json_is_2(self, capsys, tmp_path, doc):
        code, out, err = run_cli(capsys, "analyze", f"--ideal-json={self.write(tmp_path, doc)}")
        assert (code, out) == (2, "") and "error kind=malformed-input" in err, err

    @pytest.mark.parametrize("names", [[1, True], ["x 1", "a*b"], [""], ["(y)"], "ab"])
    def test_bad_variable_names_are_2(self, capsys, tmp_path, names):
        # names are a list of JSON strings [A-Za-z][A-Za-z0-9_]*, so every
        # generator prints as it reads
        doc = {"vars": names, "gens": [[1] * len(names)]}
        code, out, err = run_cli(capsys, "analyze", f"--ideal-json={self.write(tmp_path, doc)}")
        assert (code, out) == (2, "") and "bad ideal JSON: expected variable names" in err, err

    @pytest.mark.parametrize("doc", [
        {"vertices": 3, "facets": [[1.9, 2], [3]]},
        {"vertices": "3", "facets": [["1", "2"]]},
        {"vertices": 3.0, "facets": [[1, 2]]},
        {"vertices": 3, "facets": [[True, 2]]},
    ])
    def test_non_integer_facet_json_is_2(self, capsys, tmp_path, doc):
        code, out, err = run_cli(capsys, "analyze", f"--facets-json={self.write(tmp_path, doc)}")
        assert (code, out) == (2, "") and "expected an integer" in err, err


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

    def test_negative_search_cap_is_2(self, capsys):
        code, out, err = run_cli(capsys, "--search-cap=-1", "analyze", "--gens=x1")
        assert code == 2 and "error kind=malformed-input" in err, err

    def test_negative_vertex_cap_is_2(self, capsys):
        code, out, err = run_cli(capsys, "--max-vertices=-1", "analyze", "--gens=x1")
        assert code == 2 and "error kind=malformed-input" in err, err

    def test_non_squarefree_att_checks_the_vertex_cap(self, capsys):
        # the report asks the seqCM verdict, which profiles I and its level
        # ideals, so the polarized complex (14 vertices here) meets the cap
        gens = "--gens=x1^3*x4^3,x2^3*x4^3*x5^2,x2^3*x3^2*x4^2*x5,x1^2*x2*x3^3*x4*x5^2"
        for cmd in ("att", "seqcm", "analyze"):
            code, out, err = run_cli(capsys, "--max-vertices=5", cmd, gens)
            assert (code, out) == (3, "") and "14 vertices exceeds cap 5" in err, (cmd, err)

    def test_cover_search_deeper_than_the_stack_is_3(self, capsys):
        # the cover search recurses once per chosen pair: 150 disjoint
        # generators x_{2i+1}^2*x_{2i+2} need 150 frames, which a lowered
        # recursion limit refuses, and that is a cap error with no traceback;
        # att profiles I first, so the vertex cap is raised to its 450
        # polarized vertices
        gens = ",".join(f"x{2 * i + 1}^2*x{2 * i + 2}" for i in range(150))
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            code, out, err = run_cli(capsys, "--max-vertices=450", "att", f"--gens={gens}")
        finally:
            sys.setrecursionlimit(old)
        assert (code, out) == (3, ""), err
        assert err == 'error kind=cap-exceeded msg="transversal search deeper than the interpreter allows"\n'

    def test_precondition_is_4(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--gens=x1,x2", "--nvars=2")
        assert code == 0
        # seqcm and att reach profile's unit-ideal check before either cap
        for argv in (("seqcm", "--gens=1"), ("att", "--gens=1"),
                     ("--max-vertices=0", "seqcm", "--gens=1", "--nvars=3"),
                     ("--search-cap=0", "att", "--gens=1", "--nvars=5")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (4, "") and "the unit ideal defines the zero module" in err, argv

    def test_unit_ideal_is_4(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "--gens=x1^0")
        assert code == 4 and "error kind=" in err

    def test_internal_check_is_reported(self, capsys, monkeypatch):
        # a table whose dimension disagrees with Ass must fail as an engine
        # error; C8 is profiled again, not read off the profile memo
        invariants.profile.cache_clear()
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

    def test_polarize_keeps_the_vertex_cap(self, capsys):
        # x1^n polarizes to n vertices; the default cap is 24
        code, out, err = run_cli(capsys, "polarize", "--gens=x1^30")
        assert code == 3 and "30 vertices exceeds cap 24" in err and out == "", err
        code, out, err = run_cli(capsys, "polarize", "--gens=x1^24")
        assert code == 0 and out.startswith("vars: (x1_1, ") and "x1_24)" in out, err

    def test_vertex_cap_checked_before_search_cap(self, capsys):
        # with both caps exceeded the vertex cap speaks first, on squarefree
        # and on polarized input
        for gens in ("--gens=x1*x2,x3*x4", "--gens=x1^2*x2,x3*x4"):
            code, out, err = run_cli(capsys, "--search-cap=2", "--max-vertices=3", "analyze", gens)
            assert code == 3 and "vertices exceeds cap 3" in err, gens

    def test_seqcm_and_att_check_the_vertex_cap_before_the_search_cap(self, capsys):
        # the verdict profiles I before the filtration's cover search runs
        c5 = "--edges=n=5; edges=1-2,2-3,3-4,4-5,1-5"
        for cmd in ("seqcm", "att"):
            code, out, err = run_cli(capsys, "--max-vertices=3", "--search-cap=0", cmd, c5)
            assert code == 3 and "5 vertices exceeds cap 3" in err, (cmd, err)

    def test_filtration_checks_the_vertex_cap_before_the_search(self, capsys):
        # the filtration profiles I before its cover search, as the verdict
        # does; on disjoint edges over the cap the search would run for
        # minutes (20 edges) or recurse too deep (1100 edges)
        c5 = "--edges=n=5; edges=1-2,2-3,3-4,4-5,1-5"
        code, out, err = run_cli(capsys, "--max-vertices=3", "--search-cap=0", "filtration", c5)
        assert code == 3 and "5 vertices exceeds cap 3" in err, err
        for k in (20, 1100):
            edges = f"--edges=n={2 * k}; edges=" + ",".join(f"{2 * i + 1}-{2 * i + 2}" for i in range(k))
            code, out, err = run_cli(capsys, "filtration", edges)
            assert (code, out) == (3, "") and f"{2 * k} vertices exceeds cap 24" in err, err


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


class TestClosedPipe:
    C22 = "--edges=n=22; edges=" + ",".join(f"{i}-{i % 22 + 1}" for i in range(1, 23))

    @pytest.mark.parametrize("argv", [("analyze", "--gens=x1*x2"), ("--format", "json", "analyze", C22)],
                             ids=["small", "c22-json"])
    def test_closed_reader_is_not_an_error(self, argv):
        # the reader closes before the output is written, as `| head` may
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(maxdepth.__file__).parents[1]))
        try:
            done = subprocess.run([sys.executable, "-m", "maxdepth.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, "")


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


class TestScripts:
    def test_depth_survey_runs(self):
        src = Path(maxdepth.__file__).parents[1]
        script = Path(__file__).resolve().parents[1] / "scripts" / "depth_survey.py"
        done = subprocess.run(
            [sys.executable, str(script), "--samples", "50"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("samples: 50\nmaximal_depth: ") and "histogram:" in done.stdout
