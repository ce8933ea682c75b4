"""The package's public surface: every name `maxdepth/__init__.py` imports is
listed in README's "Library" section or has a caller in src/maxdepth outside
its own module."""
import ast
import re
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
