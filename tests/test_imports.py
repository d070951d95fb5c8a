"""Import hygiene of the package, checked with the stdlib ``ast`` module.

Two rules for every module under ``src/tall``:

- a module-level import binds a name the module references, unless its
  line carries ``# noqa: F401`` (an import kept on purpose);
- no function imports from the package itself: a relative import inside
  a function hides a dependency, or an import cycle, from the reader.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tall"
MODULES = sorted(SRC.glob("*.py"))


def _parse(path: Path) -> tuple[ast.Module, list[str]]:
    text = path.read_text()
    return ast.parse(text, filename=str(path)), text.splitlines()


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


def _referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)  # quoted annotations and __all__ entries
    return names


def unused_imports(path: Path) -> list[str]:
    tree, lines = _parse(path)
    used = _referenced_names(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.end_lineno - 1]:
            continue
        found += [f"{path.name}:{node.lineno} {name}"
                  for name in _bound_names(node) if name not in used]
    return found


def local_relative_imports(path: Path) -> list[str]:
    tree, _ = _parse(path)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        found += [f"{path.name}:{node.lineno} in {fn.name}"
                  for node in ast.walk(fn)
                  if isinstance(node, ast.ImportFrom) and node.level > 0]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_relative_imports(path):
    assert local_relative_imports(path) == []


def test_checks_catch_what_they_name(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import json\n"
        "import os  # noqa: F401\n"
        "from .models import pad_batch\n"
        "\n"
        "def f():\n"
        "    from .world import BOS\n"
        "    return BOS\n")
    assert unused_imports(bad) == ["bad.py:1 json", "bad.py:3 pad_batch"]
    assert local_relative_imports(bad) == ["bad.py:6 in f"]
