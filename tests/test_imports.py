"""Import hygiene and the product seam, checked with the stdlib ``ast``.

Three rules for every module under ``src/tall``:

- a module-level import binds a name the module references, unless its
  line carries ``# noqa: F401`` (an import kept on purpose);
- no function imports from the package itself: a relative import inside
  a function hides a dependency, or an import cycle, from the reader;
- every matrix product goes through ``tensor.matmul``: ``np.einsum``,
  ``np.matmul``, ``np.dot`` and the ``@`` operator appear only in
  ``tensor.py``, which calls ``np.matmul`` once, in its private kernel.
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


def numpy_products(path: Path) -> list[str]:
    tree, _ = _parse(path)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("einsum", "matmul", "dot")
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append(f"{path.name}:{node.lineno} @")
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_relative_imports(path):
    assert local_relative_imports(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "tensor.py"], ids=lambda p: p.name)
def test_products_go_through_tensor_matmul(path):
    assert numpy_products(path) == []


def test_tensor_has_one_product_kernel():
    [site] = numpy_products(SRC / "tensor.py")
    assert site.endswith(" np.matmul")


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
    prod = tmp_path / "prod.py"
    prod.write_text(
        "import numpy as np\n"
        "a = np.einsum('ij,jk->ik', x, y)\n"
        "b = np.dot(x, y) + x @ y\n"
        "c @= np.matmul(x, y)\n")
    assert numpy_products(prod) == [
        "prod.py:2 np.einsum", "prod.py:3 @", "prod.py:3 np.dot",
        "prod.py:4 @", "prod.py:4 np.matmul"]
