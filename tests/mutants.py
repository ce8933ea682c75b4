"""Mutation harness: planted faults that the tier-1 tests must catch.

Each mutant is a named, exact text replacement in one file of a fresh
temporary copy of `src/`, paired with the tier-1 tests that must then fail.
The script runs the union of the paired tests on an unmutated copy (all
must pass) and each mutant's own paired tests on its copy, each copy in its
own temporary directory with its own Hypothesis example database, on
`os.cpu_count()` worker threads.  It prints one line per mutant in
`MUTANTS` order, `killed` or `SURVIVED`, then the count.  It exits 1 when a
replacement text does not occur exactly once, when the unmutated copy
fails a test, or when a mutant survives.  A surviving mutant is a missing
test: never a reason to drop the mutant or narrow its subset.

    python tests/mutants.py

Run it from anywhere; it needs only the standard library and pytest.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per pytest run; a run that takes longer kills the mutant


class Mutant(NamedTuple):
    name: str
    file: str  # under src/maxdepth
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, at least one of which must fail


COVERS = "tests/test_ideals.py::TestIrreducibleCovers"

MUTANTS = (
    Mutant(
        "tight-cut", "ideals.py",
        "if all(any(f & grown == {u} for f in tight[u]) for u in grown):",
        "if True:",
        (f"{COVERS}::test_matches_tight_minimal_covers",),
    ),
    Mutant(
        "edge-strict", "ideals.py",
        "if e <= g.exponents[i]) for g in I.gens]",
        "if e < g.exponents[i]) for g in I.gens]",
        (f"{COVERS}::test_matches_tight_minimal_covers",),
    ),
    # the unit pairs (i, 1..e) as vertices again: the same covers and the
    # same nodes, so only the memory of the search tells
    Mutant(
        "unit-pairs", "ideals.py",
        "pairs = {(i, e) for g in I.gens for i, e in enumerate(g.exponents) if e}",
        "pairs = {(i, j) for g in I.gens for i, e in enumerate(g.exponents) for j in range(1, e + 1)}",
        (f"{COVERS}::test_search_memory_does_not_grow_with_the_exponents",),
    ),
    # the literal swap `self.mdepth == self.depth` is equivalent, since ==
    # is symmetric; reading mdepth where depth stood is not
    Mutant(
        "maximal-depth-reads-mdepth", "invariants.py",
        "return self.depth == self.mdepth",
        "return self.mdepth == self.mdepth",
        ("tests/test_invariants.py::TestProfile::test_two_planes_flags",
         "tests/test_invariants.py::TestTensorJoin::test_maximal_depth_iff_both"),
    ),
    # projdim read off mdepth, which equals depth wherever S/I has
    # maximal depth
    Mutant(
        "projdim-reads-mdepth", "invariants.py",
        "return I.ring.n - profile(I).depth",
        "return I.ring.n - profile(I).mdepth",
        ("tests/test_invariants.py::TestProfile::test_projdim_matches_the_betti_oracle",),
    ),
    # finite length read as "the empty face contributes", not "only the
    # empty face" (the text moved when the table's faces became masks, the
    # empty face 0 where it was the tuple ())
    Mutant(
        "finite-length-any", "invariants.py",
        "return all(s == 0 for s, _ in self.contributions)",
        "return any(s == 0 for s, _ in self.contributions)",
        ("tests/test_invariants.py::TestProfile::test_generalized_cm_with_maximal_depth_is_cm_or_depth_zero",
         "tests/test_cli.py::TestAnalyze::test_gens_input",
         "tests/test_cech.py::test_squarefree_tables_match"),
    ),
    # the memo keyed on the ideal alone: a repeat call under a lowered cap
    # returns the answer found under the higher one
    Mutant(
        "per-limits-key", "ideals.py",
        "memo(I, limits())",
        "memo(I, None)",
        ("tests/test_filtration.py::TestPerLimitsMemo::test_lowered_cap_holds_on_repeat_call",),
    ),
    Mutant(
        "kernel-depth-wider", "filtration.py",
        "return DepthInterval(lo, ",
        "return DepthInterval(lo - 1, ",
        ("tests/test_filtration.py::TestDepthIntervals::test_c8_pinned_level",
         "tests/test_filtration.py::TestDepthIntervals::test_point_levels_obey_the_depth_lemma"),
    ),
    # every level read off the profile of I itself: the level-0 verdict only
    Mutant(
        "seqcm-reads-level-ideal", "filtration.py",
        "p = profile(lv.ideal)",
        "p = profile(I)",
        ("tests/test_filtration.py::TestSequentiallyCM::test_mixed_dim_pool_matches_reisner_rescan",),
    ),
    # level i passes with depth i: depth S/I^(i) > i - 1 instead of > i
    Mutant(
        "seqcm-depth-off-by-one", "filtration.py",
        "if p.depth <= i:",
        "if p.depth < i:",
        ("tests/test_filtration.py::TestSequentiallyCM::test_cycle_family",
         "tests/test_cli.py::TestOtherCommands::test_regress"),
    ),
    # a non-squarefree ideal called seqCM without reading its levels
    Mutant(
        "seqcm-non-squarefree-skips-levels", "filtration.py",
        "    profile(I)  # rejects the unit ideal",
        "    if not I.is_squarefree:\n        return SeqCMResult(\"true\")\n"
        "    profile(I)  # rejects the unit ideal",
        ("tests/test_cli.py::TestOtherCommands::test_regress",),
    ),
    # the faces walked on the facets less the cone are scanned without the
    # cone that every meet holds, so each lands in a degree too low (the
    # text moved when the table's faces became masks: the degree is read
    # off the face's mask, no longer off its sorted key)
    Mutant(
        "cone-re-add", "invariants.py",
        "j + (sm | cone).bit_count() + 1",
        "j + sm.bit_count() + 1",
        ("tests/test_invariants.py::TestScalars::test_zero_ideal",
         "tests/test_invariants.py::TestComplexTable::test_walk_leaves_out_the_cone"),
    ),
    # each face is stored without the cone, in its right degree: a seqCM
    # witness loses its cone vertices, and the face equal to the cone reads
    # as the empty face, so the top degree of a simplex (the zero ideal)
    # reads as finite length; the cone over C5 alone keeps its answers,
    # since other faces still contribute at its top degree
    Mutant(
        "cone-unstored", "invariants.py",
        "(sm | cone, h)",
        "(sm, h)",
        ("tests/test_cli.py::TestOtherCommands::test_regress",
         "tests/test_cli.py::TestOtherCommands::test_probe"),
    ),
    # no cone read: the walk runs on the full facets, and the faces it
    # yields are the same, so every table stays the same; only the spy on
    # the walk's masks tells
    Mutant(
        "cone-unread", "invariants.py",
        "cone = reduce(and_, masks)",
        "cone = 0",
        ("tests/test_invariants.py::TestComplexTable::test_walk_leaves_out_the_cone",),
    ),
    # the GF(2) ranks answer over QQ even when the strong core keeps torsion
    Mutant(
        "gf2-over-qq", "linalg.py",
        "if dims is None or (p == 0 and len(dims) > 1):",
        "if dims is None:",
        ("tests/test_linalg.py::TestReducedHomology::test_projective_plane_depends_on_field",),
    ),
    # Alexander duality read with the shift n - i - 2
    Mutant(
        "dual-shift", "linalg.py",
        "(n - 3 - j, h)",
        "(n - 2 - j, h)",
        ("tests/test_linalg.py::TestAlexanderDual::test_dense_complexes_match_full_elimination",),
    ),
    # the boundary of the (n-1)-simplex read as a sphere one dimension down
    Mutant(
        "simplex-boundary-degree", "linalg.py",
        "return ((n - 2, 1),)",
        "return ((n - 3, 1),)",
        ("tests/test_linalg.py::TestAlexanderDual::test_simplex_boundary_is_read_off_the_empty_dual",),
    ),
    # every vertex is deleted, dominated or not
    Mutant(
        "collapse-undominated", "linalg.py",
        "            if common == v:\n                continue\n",
        "",
        ("tests/test_linalg.py::TestReducedHomology::test_hollow_triangle_is_circle",),
    ),
    Mutant(
        "shift-a-minus-1", "invariants.py",
        "a = pol.ring.n - I.ring.n",
        "a = pol.ring.n - I.ring.n - 1",
        ("tests/test_invariants.py::TestProfile::test_invariant_chain",),
    ),
    # the table read as if it started at degree 1
    Mutant(
        "degree-from-one", "invariants.py",
        "enumerate(table.degrees)",
        "enumerate(table.degrees, 1)",
        ("tests/test_invariants.py::TestProfile::test_invariant_chain",),
    ),
    # the orbit representative holds one vertex too few of each class
    Mutant(
        "twin-rep-shift", "invariants.py",
        "rep = rep & ~c | firsts[(sm & c).bit_count()]",
        "rep = rep & ~c | firsts[(sm & c).bit_count() - 1]",
        ("tests/test_invariants.py::TestComplexTable::test_twin_orbits_match_the_plain_scan",),
    ),
    # vertices grouped by how many generators hold them, not by which
    Mutant(
        "twins-by-support", "invariants.py",
        "columns.setdefault(column, []).append(v)",
        "columns.setdefault(sum(column), []).append(v)",
        ("tests/test_invariants.py::TestComplexTable::"
         "test_polarized_table_gets_the_generator_column_classes",),
    ),
    # I_F kept as I: the localization only adds the variables of F
    Mutant(
        "no-substitution", "invariants.py",
        "0 if j in face else ",
        "",
        ("tests/test_invariants.py::TestLocalization::test_depth_inequality_over_all_faces",),
    ),
    # 2.7 read as 2, "2" as 2 and true as 1
    Mutant(
        "json-int-truncates", "ideals.py",
        "    if type(v) is not int:\n        raise TypeError(f\"expected an integer, got {v!r}\")\n"
        "    return v\n",
        "    return int(v)\n",
        ("tests/test_cli.py::TestJsonInput::test_bad_ideal_json_is_2",),
    ),
    # level i of the filtration printed as level i + 1
    Mutant(
        "filtration-level-position", "cli.py",
        "enumerate(zip(f.levels, quotient_depth_intervals(f)))",
        "enumerate(zip(f.levels, quotient_depth_intervals(f)), 1)",
        ("tests/test_cli.py::TestOtherCommands::test_filtration",),
    ),
    # claim i lists Ass^(i-1), and claim 0 the top level's primes
    Mutant(
        "att-reads-the-level-below", "filtration.py",
        'else "lower-bound-only", lv.ass_level)',
        'else "lower-bound-only", levels[i - 1].ass_level)',
        ("tests/test_filtration.py::TestAttReport::test_seqcm_case_is_fully_determined",
         "tests/test_filtration.py::TestAttReport::test_claims_are_ass_levels"),
    ),
    # only a seqCM claim is full: the top-degree claim becomes a lower bound
    Mutant(
        "kind-full-only-when-seqcm", "filtration.py",
        'return "lower-bound" if self.tag == "lower-bound-only" else "full"',
        'return "full" if self.tag == "seqcm-level" else "lower-bound"',
        ("tests/test_filtration.py::TestAttReport::test_c8_top_claim",
         "tests/test_filtration.py::TestAttReport::test_claims_are_indexed"),
    ),
    # a probe hit printed one degree too high
    Mutant(
        "probe-hit-degree", "cli.py",
        '"degree": h.degree,',
        '"degree": h.degree + 1,',
        ("tests/test_cli.py::TestOtherCommands::test_probe_hit_rendering",),
    ),
    # x_i^e polarized to the last e copies of x_i, not the first: the ideal
    # is the same up to renaming, so its invariants and the round trip back
    # to I stay the same, and only the printed generators tell
    Mutant(
        "polarize-fills-from-the-top", "ideals.py",
        "(1,) * e + (0,) * (s - e)",
        "(0,) * (s - e) + (1,) * e",
        ("tests/test_cli.py::TestOtherCommands::test_polarize",),
    ),
)


def mutated_copy(root: Path, mutant: Mutant | None) -> Path:
    """A copy of src/ under `root`, with the mutant's replacement made."""
    src = root / "src"
    shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        path = src / "maxdepth" / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                        encoding="utf-8")
    return src


def failing_tests(src: Path, tests: list[str]) -> set[str] | None:
    """The node ids that fail or error when `tests` run against `src`, one
    pytest run per test file, or None when a run times out.  A file that
    cannot be collected fails as a whole.  Hypothesis keeps its examples
    next to `src`, so concurrent runs share no database."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               HYPOTHESIS_STORAGE_DIRECTORY=str(src.parent / ".hypothesis"))
    failed = set()
    for path in sorted({t.split("::")[0] for t in tests}):
        ids = [t for t in tests if t.split("::")[0] == path]
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE", *ids]
        try:
            run = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
        found = {line.split()[1] for line in run.stdout.splitlines()
                 if line.startswith(("FAILED ", "ERROR "))}
        # 1: tests failed; 2 and 4: the file did not collect
        if (run.returncode != 0 and not found) or run.returncode not in (0, 1, 2, 4):
            raise SystemExit(f"pytest exited {run.returncode}:\n{run.stdout}\n{run.stderr}")
        failed |= found
    return failed


def hits(failed: set[str], test: str) -> bool:
    """Whether a failing node id lies inside `test`, or is a file or class
    that holds it (a collection error)."""
    return any(f == test or f.startswith((test + "::", test + "[")) or test.startswith(f + "::")
               for f in failed)


def main() -> int:
    for m in MUTANTS:  # before any run starts
        count = (REPO / "src" / "maxdepth" / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            raise SystemExit(f"mutant {m.name}: the text to replace occurs {count} "
                             f"times in src/maxdepth/{m.file}, not once")

    with tempfile.TemporaryDirectory(prefix="maxdepth-mutants-") as tmp, \
            ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        def run(name, mutant, tests):
            return pool.submit(lambda: failing_tests(mutated_copy(Path(tmp) / name, mutant), tests))

        original = run("original", None, sorted({t for m in MUTANTS for t in m.tests}))
        runs = [run(m.name, m, list(m.tests)) for m in MUTANTS]
        failed = original.result()
        if failed != set():
            pool.shutdown(cancel_futures=True)
            print(f"the unmutated copy fails: {sorted(failed) if failed else 'timeout'}")
            return 1
        width = max(len(m.name) for m in MUTANTS)
        survivors = []
        for m, future in zip(MUTANTS, runs):
            failed = future.result()
            killed = failed is None or any(hits(failed, t) for t in m.tests)
            print(f"{m.name:<{width}}  {'killed' if killed else 'SURVIVED'}", flush=True)
            if not killed:
                survivors.append(m.name)

    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed"
          + (f"; surviving: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
