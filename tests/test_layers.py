"""Import layering of the library, read from the source with `ast`, its
export list, and its error classes.

The package has no runtime dependency, so every absolute import names a
standard-library module.  `flow` works on its own arc graphs and imports no
other module of the package.  `kgreedy.__all__` names exactly the public
names the package binds, so a deleted API cannot stay exported.  Every class
in `errors.py` is raised somewhere in the package, or is a base of one that
is, so an error class cannot outlive its last `raise`.
"""

import ast
import sys
import types
from pathlib import Path

import kgreedy

PACKAGE = Path(__file__).parent.parent / "src" / "kgreedy"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _imports(path):
    """(level, module) for each imported module; level 0 is absolute, and a
    relative `from . import a, b` names a and b."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.append((node.level, node.module))
            else:
                found += [(node.level, alias.name) for alias in node.names]
    return found


def test_absolute_imports_are_stdlib():
    assert {p.stem for p in SOURCES} >= {"__init__", "crashing", "flow", "network"}
    for path in SOURCES:
        for level, module in _imports(path):
            if level == 0:
                top = module.partition(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"


def test_flow_imports_no_package_module():
    imported = _imports(PACKAGE / "flow.py")
    assert [m for level, m in imported if level > 0 or m.partition(".")[0] == "kgreedy"] == []


def test_all_lists_every_public_name():
    public = [
        name for name, value in vars(kgreedy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(kgreedy.__all__) == sorted(public)


def test_every_error_class_is_raised():
    bases = {
        node.name: node.bases[0].id
        for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    }
    kept = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                while name in bases and name not in kept:
                    kept.add(name)
                    name = bases[name]
    assert sorted(bases.keys() - kept) == []
