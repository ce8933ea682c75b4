"""The package's public surface: every name `maxdepth/__init__.py` imports is
listed in README's "Library" section or has a caller in src/maxdepth outside
its own module.  And no module binds a mutable container at top level,
imports a package from outside the standard library or asserts."""
import ast
import re
import sys
from pathlib import Path

import maxdepth

PACKAGE = Path(maxdepth.__file__).parent
README = PACKAGE.parents[1] / "README.md"


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


def engine_lines(check):
    """{file: lines} for each engine module in which `check` flags lines."""
    found = {p.name: check(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    return {name: lines for name, lines in found.items() if lines}


def test_no_module_level_mutable_container():
    # the engine's memos are functools.lru_cache on pure functions, read with
    # cache_info(); a module-level container would be state that outlives the
    # call and that no cache_clear() reaches
    assert engine_lines(module_level_containers) == {}


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


def test_engine_is_stdlib_only():
    # `dependencies = []` is a feature: the engine imports nothing that
    # pip would have to install
    assert engine_lines(non_stdlib_imports) == {}


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


def assert_lines(source):
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert))


def test_no_assert_in_the_engine():
    # always-on checks raise InternalCheckError; `assert` is a bare
    # AssertionError, and python -O strips it
    assert engine_lines(assert_lines) == {}


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
