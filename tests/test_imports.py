"""Every name a module imports is read somewhere in that module (a stand-in
for pyflakes' unused-import check), for the package and its tests; every
name the package exports is read by the package or the benchmark; every
parameter of a package function is read in its body; no package module
imports a slow-loading module at import time; and none imports scipy at all,
which only the tests use, as an oracle."""

import ast
from pathlib import Path

import pytest

import stabvax

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted(ROOT.glob("src/stabvax/*.py"))
MODULES = PACKAGE + sorted(ROOT.glob("tests/*.py"))
# loaded by the functions that use them, so that start-up stays fast
LAZY = ("scipy", "concurrent.futures")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source and never read. Every name
    in a literal __all__ counts as read; so do names inside quoted
    annotations. The package __init__ is scanned like any module: its exports
    load lazily, through no import statement."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and isinstance(node.value, (ast.List, ast.Tuple))
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    for note in _annotations(tree):
        for node in ast.walk(note or ast.Pass()):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(n.id for n in ast.walk(ast.parse(node.value))
                            if isinstance(n, ast.Name))
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_unused_and_respects_all():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import scipy.linalg\n"
              "from typing import Optional\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'Optional[int]') -> None:\n"
              "    return 'scipy'\n"
              "print(sys.maxsize)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: scipy"]


def names_read(source: str) -> set[str]:
    """Names source reads: loaded names, attributes, and strings that are
    identifiers, which name what getattr reads (bench/tracing.py wraps the
    package's functions by module and name)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            read.add(node.value)
    return read


# exports no package module or benchmark file reads, each with its reason
UNREAD_EXPORTS = {
    "two_node_case": "the paper's two-location fixture, on which "
                     "tests/test_paper_claims.py checks the paper's claims",
}


def test_every_export_is_read():
    init = ROOT / "src/stabvax/__init__.py"
    exported = stabvax.__all__  # the lazy export table's names
    read = set().union(*(names_read(path.read_text()) for path in
                         PACKAGE + sorted(ROOT.glob("bench/*.py"))
                         if path != init))
    assert [name for name in exported if name not in read] == sorted(
        UNREAD_EXPORTS)
    assert set(UNREAD_EXPORTS) <= set(exported)


def test_scan_finds_names_read():
    source = ("import numpy as np\n"
              "def f(x):\n"
              "    y = np.zeros(x)\n"
              "    return getattr(y, 'shape'), 'not a name'\n")
    assert names_read(source) == {"np", "zeros", "x", "getattr", "y", "shape"}


def unread_parameters(source: str) -> list[str]:
    """'qualname: parameter' for every parameter of a function or lambda in
    source that its body never reads; nested functions count as the body."""
    found = []
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, scopes):
                visit(child, prefix)
                continue
            name = prefix + getattr(child, "name", "<lambda>")
            if not isinstance(child, ast.ClassDef):
                body = (child.body if isinstance(child, ast.Lambda)
                        else ast.Module(child.body, []))
                read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                args = child.args
                params = (args.posonlyargs + args.args + args.kwonlyargs
                          + [a for a in (args.vararg, args.kwarg) if a])
                found.extend(f"{name}: {arg.arg}" for arg in params
                             if arg.arg not in read)
            visit(child, name + ".")

    visit(ast.parse(source), "")
    return found


# parameters a caller's interface requires: integrate's rhs(t, y)
CALLBACK_PARAMETERS = {"bound_rhs.rhs: t"}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert [found for found in unread_parameters(path.read_text())
            if found not in CALLBACK_PARAMETERS] == []


def test_scan_finds_unread_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def g(x, y):\n"
              "        return a + x\n"
              "    h = lambda u, w: u\n"
              "    return g, h, c, kw\n"
              "class C:\n"
              "    def m(self, z):\n"
              "        z = 1\n"
              "        return self\n")
    assert unread_parameters(source) == [
        "f: b", "f: args", "f.g: y", "f.<lambda>: w", "C.m: z"]


def eager_imports(source: str, lazy=LAZY) -> list[str]:
    """Imports of the lazy modules (or their submodules) that run when the
    module is imported: those outside any function body."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        found.extend(f"line {node.lineno}: {name}" for name in names
                     if any(name == mod or name.startswith(mod + ".")
                            for mod in lazy))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_eager_slow_imports(path):
    assert eager_imports(path.read_text()) == []


def test_scan_finds_eager_imports_only():
    source = ("import scipy.linalg\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "import scipyx, concurrent\n"
              "from . import scipy\n"
              "class Solver:\n"
              "    from scipy import optimize\n"
              "def solve():\n"
              "    import scipy.optimize\n"
              "    return scipy.optimize\n")
    assert eager_imports(source) == ["line 1: scipy.linalg",
                                     "line 2: concurrent.futures",
                                     "line 6: scipy"]


def imports_of(source: str, module: str) -> list[str]:
    """Every import of module or its submodules in source, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend(f"line {node.lineno}: {name}" for name in names
                     if name == module or name.startswith(module + "."))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_never_imports_scipy(path):
    assert imports_of(path.read_text(), "scipy") == []


def test_scan_finds_imports_at_any_depth():
    source = ("import scipyx, numpy\n"
              "from . import scipy\n"
              "def solve():\n"
              "    from scipy import optimize\n"
              "    import scipy.linalg as la\n"
              "    return optimize, la\n")
    assert imports_of(source, "scipy") == ["line 4: scipy",
                                           "line 5: scipy.linalg"]


def package_imports(source: str) -> list[str]:
    """Every import of a module of the package in source, at any depth: a
    relative import, or an absolute one of stabvax."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found.extend(f"line {node.lineno}: {name}" for name in names
                     if name.startswith(".") or name.split(".")[0] == "stabvax")
    return found


def test_policies_import_no_package_module():
    # the policy vocabulary (PolicySpec, the age bands) is the package's
    # bottom layer: every model reads it, so it reads no model
    assert package_imports((ROOT / "src/stabvax/policies.py").read_text()) == []


def test_scan_finds_package_imports():
    source = ("import numpy as np, stabvaxx\n"
              "from . import bubar\n"
              "def f():\n"
              "    from .model import cholesky_factor\n"
              "    import stabvax.ingest\n"
              "    from stabvax import cli\n"
              "    return bubar, cholesky_factor, stabvax, cli, np, stabvaxx\n")
    assert package_imports(source) == ["line 2: .", "line 4: .model",
                                       "line 5: stabvax.ingest",
                                       "line 6: stabvax"]
