"""The package's public surface and the engine's design rules.

Every name `maxdepth/__init__.py` imports is listed in README's "Library"
section or has a caller in src/maxdepth outside its own module.  Every rule
in RULES holds on every engine file in its scope, every name the
benchmark tracer wraps still exists, every mutant of tests/mutants.py
still finds its text, the harness's kill rule reads pytest's node ids as
it should, and no two test files define the same example or helper."""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import maxdepth

PACKAGE = Path(maxdepth.__file__).parent
REPO = Path(__file__).resolve().parents[1]
README = REPO / "README.md"


def exported():
    """(module, name) for each name the package's __init__ imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names(path):
    """Names and attributes the module's code reads (not its strings)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def readme_surface():
    """The code spans of the first bullet list in README's "Library" section."""
    text = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    listed = re.search(r"^- .*?(?=\n\n)", text, flags=re.M | re.S).group(0)
    return set(re.findall(r"`([^`]+)`", listed))


def test_every_export_is_documented_or_called():
    listed = readme_surface()
    callers = {p.stem: referenced_names(p) for p in PACKAGE.glob("*.py")
               if p.name != "__init__.py"}
    orphans = [
        f"{module}.{name}" for module, name in exported()
        if name not in listed
        and not any(name in names for stem, names in callers.items() if stem != module)
    ]
    assert orphans == []


def test_no_all_list():
    # the import list is the surface; an __all__ would repeat it
    assert not hasattr(maxdepth, "__all__")


CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def module_level_nodes(node):
    """The nodes under `node` outside any function or class body."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, SCOPES):
            yield child
            yield from module_level_nodes(child)


def is_container(value):
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in CONTAINER_CALLS
    return isinstance(value, CONTAINER_NODES)


def module_level_containers(source):
    """Lines that bind a dict, list or set display or comprehension, or a
    call to a container type, at module level."""
    return sorted(
        node.lineno for node in module_level_nodes(ast.parse(source))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and is_container(node.value)
    )


def engine_lines(check, files):
    """{file: lines} for each engine file, named by its path under the
    package, that fully matches the regex `files` and in which `check`
    flags lines."""
    paths = {p.relative_to(PACKAGE).as_posix(): p for p in sorted(PACKAGE.rglob("*.py"))}
    found = {name: check(p.read_text(encoding="utf-8")) for name, p in paths.items()
             if re.fullmatch(files, name)}
    return {name: lines for name, lines in found.items() if lines}


def grep(pattern):
    """A check that flags the lines on which the regex `pattern` matches."""
    rx = re.compile(pattern)
    return lambda source: [i for i, line in enumerate(source.splitlines(), 1) if rx.search(line)]


def test_container_check_flags_synthetic_source():
    source = "\n".join([
        "import collections",
        "X = {'a': 1}",
        "Y = [1, 2]",
        "T = {1, 2}",
        "S = dict(a=1)",
        "D: dict = {}",
        "Z = collections.defaultdict(list)",
        "C = {k: 1 for k in 'ab'}",
        "Z += [3]",
        "if True:",
        "    Q = []",
        "K = (1, 2)",
        "F = frozenset({1})",
        "N = None",
        "def f():",
        "    local = {}",
        "class R:",
        "    attr = []",
    ])
    assert module_level_containers(source) == [2, 3, 4, 5, 6, 7, 8, 9, 11]


def non_stdlib_imports(source):
    """Lines of the absolute imports of a package outside the standard library."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] not in sys.stdlib_module_names for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_stdlib_check_flags_synthetic_source():
    source = "\n".join([
        "from __future__ import annotations",
        "import numpy as np",
        "import os.path, sympy.matrices",
        "from hypothesis import given",
        "from . import ideals",
        "from .linalg import rank",
        "def f():",
        "    import scipy",
        "    import random",
    ])
    assert non_stdlib_imports(source) == [2, 3, 4, 8]


def test_families_oracle_shares_no_code_with_the_engine():
    # the closed forms check the engine from arithmetic alone: stdlib
    # imports only, so nothing from maxdepth or from the other oracles
    source = (REPO / "tests" / "families_oracle.py").read_text(encoding="utf-8")
    assert non_stdlib_imports(source) == []
    assert non_stdlib_imports("from maxdepth.cli import main\nimport reisner_oracle") == [1, 2]


def test_cech_oracle_shares_no_code_with_the_engine():
    # the Čech complex is built from the definition: stdlib imports only,
    # so nothing from maxdepth or from the oracles that read a complex
    source = (REPO / "tests" / "cech_oracle.py").read_text(encoding="utf-8")
    assert non_stdlib_imports(source) == []


def assert_lines(source):
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_assert_check_flags_synthetic_source():
    source = "\n".join([
        "assert True",
        "def f(x):",
        "    assert x, 'message'",
        "    return x",
        "class C:",
        "    def g(self):",
        "        if self:",
        "            assert self is not None",
        "note = 'assert False'",
    ])
    assert assert_lines(source) == [1, 3, 8]


def lshift_uses(source):
    """Lines that read `lshift` outside the function `_minimal_gens`, the
    one packed divisibility test."""
    def walk(node, allowed):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, allowed or child.name == "_minimal_gens")
                continue
            if not allowed and "lshift" in (getattr(child, "id", None), getattr(child, "attr", None)):
                yield child.lineno
            yield from walk(child, allowed)
    return sorted(set(walk(ast.parse(source), False)))


# (rule, check, files, why): `check` maps a source to the lines that break
# the rule, on each engine file whose path under src/maxdepth fully matches
# the regex `files`
ALL = r".*"
RULES = (
    ("no-module-level-container", module_level_containers, ALL,
     "memos are lru_caches on pure functions; no cache_clear() reaches a module container"),
    ("stdlib-only", non_stdlib_imports, ALL,
     "`dependencies = []`: the engine imports nothing that pip would have to install"),
    ("no-assert", assert_lines, ALL,
     "always-on checks raise InternalCheckError; python -O strips an assert"),
    ("no-global", grep(r"^\s*global\s"), ALL,
     "the caps live in one scoped Limits value (ideals.limited), not in module state"),
    ("one-intersection", grep(r"\b(intersect|intersect_all|prime_ideal)\("), ALL,
     "intersections go through ideals.meet_covers; pairwise lcms are tests/intersect_oracle.py"),
    ("one-cover-search", grep(r"(^|[^A-Za-z0-9_])_[a-z_]*(covers|transversals)\b"),
     r"(?!ideals\.py$).*",
     "the search and its cache stay private to ideals.py; others ask irreducible_covers"),
    ("one-face-walk", grep(r"all_faces"), ALL,
     "complexes.face_meets enumerates faces; all_faces is tests/faces_oracle.py"),
    ("att-from-ass-and-seqcm", grep(r"minimal_primes_of|ATT_NOTES|min-att"), ALL,
     "a claim lists Ass^i; the min-Att branch could never fire (it forces depth = dim)"),
    ("localization-by-substitution", grep(r"\b(link|to_ideal)\(|SquarefreeRequiredError"),
     r"invariants\.py",
     "localization_profile sets x_F = 1 on any ideal, not through link F and the dual"),
    ("results-are-plain-values",
     grep(r"\b(HomologyVector|AttReport|PsuppEntry|LocalizationProfile|Polarization|ProbeReport)\b"),
     ALL, "results are the values themselves, not records repeating the caller's arguments"),
    ("no-dataclasses", grep(r"^\s*(import|from)\s+dataclasses\b"), ALL,
     "every CLI call is a fresh interpreter, and dataclasses loads inspect; use named tuples"),
    ("one-divisibility-test", lshift_uses, ALL,
     "ideals._minimal_gens, behind the MonomialIdeal constructor, packs exponents to test "
     "divisibility; the plain scan is tests/intersect_oracle.py"),
    ("one-table-route", grep(r"\b(complex_table|facet_subcomplex_min_dim)\b"),
     r"(?!invariants\.py$).*",
     "every local cohomology table is read through profile's per-(ideal, Limits) memo"),
    ("one-reader-per-fact",
     grep(r"\.(at|level)\(|hochster\.(depth|dim)\b|\.index\b(?!\()|(\b(c|claim)|\])\.degree\b"), ALL,
     "a table degree is degrees[i], a level is levels[i] and a claim is att_report(I)[i]; "
     "depth and dim are the profile's"),
    ("projdim-by-auslander-buchsbaum", grep(r"_upper_koszul"), ALL,
     "projdim is n - depth; the Betti numbers over the lcm lattice are tests/betti_oracle.py"),
    ("tables-hold-masks", grep(r"\b(face_key|face_tuples)\b"), r"invariants\.py",
     "the scan stores each face as the mask face_meets walked; a face becomes a vertex tuple "
     "only where it is printed"),
)


@pytest.mark.parametrize("rule, check, files, why", RULES, ids=[row[0] for row in RULES])
def test_engine_keeps_rule(rule, check, files, why):
    assert engine_lines(lambda source: [0], files), "no engine file in scope"
    assert engine_lines(check, files) == {}, why


# a violation of each rule and the lines that break it, except the three
# AST rules that have theirs in the synthetic-source tests above
VIOLATIONS = {
    "no-global": ("def f():\n    global X\n# global note", [2]),
    "one-intersection": ("intersect(I, J)\nintersect_all(Is)\nprime_ideal(r, p)\nmeet_covers(I, cs)",
                         [1, 2, 3]),
    "one-cover-search": ("from .ideals import _tight_covers\nirreducible_covers(I)\n_transversals(I)",
                         [1, 3]),
    "one-face-walk": ("all_faces(cx)\nface_meets(masks)", [1]),
    "att-from-ass-and-seqcm": ("minimal_primes_of(I)\nATT_NOTES = ()\n'depth-min-att'\natt_report(I)",
                               [1, 2, 3]),
    "localization-by-substitution": ("link(cx, F)\nto_ideal(cx)\nSquarefreeRequiredError\nos.unlink(p)",
                                     [1, 2, 3]),
    "results-are-plain-values": ("AttReport(c)\nHomologyVector\nPsuppEntry\nLocalizationProfile\n"
                                 "ModuleProfile\nreturn Polarization(J, a, owner)\n# the polarization\n"
                                 "return ProbeReport(config, n, eligible, hits)\nProbeHit(I, 1, 1, 2)",
                                 [1, 2, 3, 4, 6, 8]),
    "no-dataclasses": ("import dataclasses\nfrom dataclasses import field\nif 1:\n"
                       "    import dataclasses as dc\nimport dataclasses_json", [1, 2, 4]),
    "one-divisibility-test": ("\n".join([
        "from operator import lshift",
        "def _minimal_gens(gens, shifts):",
        "    pack = lambda g: sum(map(lshift, g, shifts))",
        "    return [pack(g) for g in gens]",
        "def meet_covers(J, covers, shifts):",
        "    gens = [sum(map(lshift, g, shifts)) for g in J]",
        "    def raise_at(a, s, d):",
        "        return a + operator.lshift(d, s)",
        "    return gens",
        "packed = lshift(1, 2)",
        "def lshift_note():",
        "    return 1 << 2",
    ]), [6, 8, 10]),
    "one-table-route": ("t = complex_table(facet_subcomplex_min_dim(cx, i), field_spec)\n"
                        "t = profile(lv.ideal).hochster\n"
                        "from .invariants import complex_table, profile", [1, 3]),
    "one-reader-per-fact": ("t.at(k).contributions\nf8.level(3).ideal\nprof.hochster.depth\n"
                            "hochster.dim\nt.degrees[k]\nf8.levels[3]\nprof.depth\n"
                            "hochster.dimension\nlevel(i)\ni = lv.index\nf.levels[3].index\n"
                            "\"degree\": c.degree,\nclaim.degree\natt_report(I)[4].degree\n"
                            "xs.index(v)\nm.degree\nh.degree\nargs.degree\nabc.degree",
                            [1, 2, 3, 4, 10, 11, 12, 13, 14]),
    "projdim-by-auslander-buchsbaum": ("def _upper_koszul(I, b):\nreturn I.ring.n - profile(I).depth\n"
                                       "reduced_homology(_upper_koszul(I, b), field)\nupper_koszul", [1, 3]),
    "tables-hold-masks": ("from .complexes import face_key, face_meets\nface_meets(masks)\n"
                          "s for _, s in sorted(map(face_key, faces))\nface_tuples(faces)\n"
                          "face_keys = 0\nmy_face_tuples", [1, 3, 4]),
}


@pytest.mark.parametrize("rule", sorted(VIOLATIONS))
def test_pattern_rule_flags_its_violation(rule):
    check = next(row[1] for row in RULES if row[0] == rule)
    source, lines = VIOLATIONS[rule]
    assert check(source) == lines


def test_every_pattern_rule_has_a_violation():
    ast_rules = {"no-module-level-container", "stdlib-only", "no-assert"}
    assert set(VIOLATIONS) == {row[0] for row in RULES} - ast_rules


# an engine rule is a row of RULES, which tier-1 runs, not a grep in CI
engine_greps = grep(r"\bgrep\b.*\bsrc/maxdepth")


def test_workflow_greps_no_engine_file():
    assert engine_greps((REPO / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")) == []


def test_workflow_check_flags_synthetic_workflow():
    workflow = ("run: python -m pytest -q\nrun: grep -rn 'global' --include='*.py' src/maxdepth\n"
                "run: grep -n 'link(' src/maxdepth/invariants.py\nrun: maxdepth regress | grep passed")
    assert engine_greps(workflow) == [2, 3]


def test_every_mutant_applies_once():
    # tests/mutants.py runs in CI; a refactor that moves a mutated line
    # must carry the mutant along, which tier-1 checks here
    from mutants import MUTANTS
    for m in MUTANTS:
        assert (PACKAGE / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name


PAIRED = "tests/test_x.py::TestA::test_b"


@pytest.mark.parametrize("failed, killed", [
    ({PAIRED}, True),
    ({PAIRED + "[QQ-3]"}, True),  # one case of a parametrized test
    ({"tests/test_x.py"}, True),  # the file did not collect
    ({"tests/test_x.py::TestA"}, True),  # the class did not collect
    ({"tests/test_x.py::TestA::test_bc", "tests/test_x.py::TestAB",
      "tests/test_y.py::TestA::test_b", "tests/test_x.py::test_b"}, False),  # unrelated
    (set(), False),
], ids=["node", "parametrized", "file-collection", "class-collection", "unrelated", "none"])
def test_mutant_kill_rule(failed, killed):
    from mutants import hits
    assert hits(failed, PAIRED) is killed


BINDINGS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def shared_bindings(sources):
    """(name, files) for each top-level def, class or assignment that two or
    more of `sources` ({file: source}) hold with equal code (line numbers
    aside)."""
    files, names = {}, {}
    for file, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, BINDINGS):
                code = ast.dump(node)
                files.setdefault(code, []).append(file)
                names[code] = getattr(node, "name", None) or ast.unparse(
                    node.targets[0] if isinstance(node, ast.Assign) else node.target)
    return sorted((names[code], tuple(fs)) for code, fs in files.items() if len(fs) > 1)


def test_named_examples_are_defined_once():
    # the named complexes, `mk` and the strategies live in tests/conftest.py
    tests = REPO / "tests"
    paths = [tests / "conftest.py", *sorted(tests.glob("test_*.py"))]
    assert shared_bindings({p.name: p.read_text(encoding="utf-8") for p in paths}) == []


def test_shared_binding_check_flags_synthetic_sources():
    a = "\n".join([
        "import os",
        "X = f(1)",
        "Y = 2",
        "def g(a):",
        "    return a",
        "def h():",
        "    return 1",
        "class C:",
        "    pass",
    ])
    b = "\n".join([
        "import os",
        "Y = 3",
        "def k():",
        "    return 1",
        "class C:",
        "    pass",
        "X = f(1)",
        "if True:",
        "    Z = 1",
        "def g(a):",
        "    return a",
    ])
    both = ("a.py", "b.py")
    assert shared_bindings({"a.py": a, "b.py": b}) == [("C", both), ("X", both), ("g", both)]
    assert shared_bindings({"a.py": a}) == []


def test_every_traced_name_resolves():
    # TRACED is read from perfbench/tracer.py's source: installing the
    # tracer would rebind the engine's functions for the rest of the session
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "TRACED")
    names = [(module, fn) for module, fns in traced.items() for fn in fns]
    missing = [f"{module}.{fn}" for module, fn in names
               if not callable(getattr(importlib.import_module(f"maxdepth.{module}"), fn, None))]
    assert len(names) > 10 and missing == []
