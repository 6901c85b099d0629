"""Import layering of the library, read from the source with `ast`, its
export list, and its error classes.

The package has no runtime dependency, so every absolute import names a
standard-library module.  `flow` works on its own arc graphs and imports no
other module of the package, and `oracle` imports only the error classes and
the data types it reads and returns.  `kgreedy.__all__` names exactly the public
names the package binds, so a deleted API cannot stay exported, and every
exported function and class has a caller in the library or the benchmark, so
an API that only the tests read cannot stay in the library.  Every class
in `errors.py` is raised somewhere in the package, or is a base of one that
is, so an error class cannot outlive its last `raise`.  And the CLI runs in
an isolated interpreter loading nothing but the standard library and the
package itself.
"""

import ast
import inspect
import re
import subprocess
import sys
import types
from pathlib import Path

import kgreedy

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "kgreedy"
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


# Run in `python -I`, which ignores PYTHONPATH and the user's site directory,
# with the source directory as its argument.  Modules loaded before the
# package are the interpreter's own start-up, `.pth` hooks of site-packages
# among them; every module loaded after must be built in, in the standard
# library (not in site-packages, which lives inside it) or in the package.
_ISOLATED_GEN_FIG2 = """
import contextlib, io, os, sys, sysconfig

started = set(sys.modules)
src = sys.argv[1]
sys.path.insert(0, src)
import kgreedy.cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert kgreedy.cli.main(["gen", "fig2"]) == 0
assert '"j1"' in out.getvalue()


def roots(*names):
    return {os.path.realpath(sysconfig.get_path(name)) for name in names}


def under(path, dirs):
    return any(path.startswith(d + os.sep) for d in dirs)


stdlib, third_party = roots("stdlib", "platstdlib"), roots("purelib", "platlib")
package = {os.path.realpath(os.path.join(src, "kgreedy"))}
for name in sorted(set(sys.modules) - started):
    path = getattr(sys.modules[name], "__file__", None)
    if path is None:  # built in, or frozen
        continue
    path = os.path.realpath(path)
    if not (under(path, package) or under(path, stdlib) and not under(path, third_party)):
        print(name, path)
"""


def test_cli_loads_only_the_standard_library():
    child = subprocess.run([sys.executable, "-I", "-c", _ISOLATED_GEN_FIG2, str(ROOT / "src")],
                           capture_output=True, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout == "", f"modules from outside the standard library:\n{child.stdout}"


def test_flow_imports_no_package_module():
    imported = _imports(PACKAGE / "flow.py")
    assert [m for level, m in imported if level > 0 or m.partition(".")[0] == "kgreedy"] == []


def test_oracle_imports_only_data_types():
    # the oracles check the greedy paths, so they share no algorithm with them
    allowed = {"errors": None, "network": {"Plan", "ProjectNetwork"}, "klis": {"SubseqSelection"}}
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.partition(".")[0] != "kgreedy" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "kgreedy":
                    continue
            names = {alias.name for alias in node.names}
            assert module in allowed, f"oracle.py imports from {module or 'the package'}"
            assert allowed[module] is None or names <= allowed[module], names


def test_all_lists_every_public_name():
    public = [
        name for name, value in vars(kgreedy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(kgreedy.__all__) == sorted(public)


def _referenced_names(tree):
    """Every Name id and Attribute attr in the tree, except those inside a
    function or class of the same name: a recursive call, or a class naming
    itself, is not a caller."""
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing |= {node.name}
        elif isinstance(node, ast.Name):
            found |= {node.id} - enclosing
        elif isinstance(node, ast.Attribute):
            found |= {node.attr} - enclosing
        stack += [(child, enclosing) for child in ast.iter_child_nodes(node)]
    return found


def test_every_exported_function_has_a_caller():
    exported = {
        name for name in kgreedy.__all__
        if inspect.isfunction(getattr(kgreedy, name)) or inspect.isclass(getattr(kgreedy, name))
    }
    called = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            called |= _referenced_names(tree)
    for path in sorted((ROOT / "bench").glob("*.py")):
        called |= set(re.findall(r"\bkg\.\w+\.(\w+)", path.read_text(encoding="utf-8")))
    assert sorted(exported - called) == []


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
