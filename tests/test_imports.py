"""Every name a module imports is read somewhere in that module (a stand-in
for pyflakes' unused-import check), for the package and its tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(ROOT.glob("src/stabvax/*.py")) + sorted(ROOT.glob("tests/*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def unused_imports(source: str, reexport: bool = False) -> list[str]:
    """Names bound by import statements in source and never read. Every
    import of a package __init__ (reexport) and every name in __all__ counts
    as read; so do names inside quoted annotations."""
    tree = ast.parse(source)
    if reexport:
        return []
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
    assert unused_imports(path.read_text(), reexport=(
        path.name == "__init__.py" and path.parent.name == "stabvax")) == []


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
    assert unused_imports(source, reexport=True) == []
