"""Import hygiene and the product seam, checked with the stdlib ``ast``.

Five rules for every module under ``src/tall``:

- a module-level import binds a name the module references, unless its
  line carries ``# noqa: F401`` (an import kept on purpose);
- no function imports from the package itself: a relative import inside
  a function hides a dependency, or an import cycle, from the reader;
- every matrix product goes through tensor's one product kernel:
  ``np.einsum``, ``np.matmul``, ``np.dot`` and the ``@`` operator appear
  only in ``tensor.py``, which calls ``np.matmul`` once, in its private
  kernel ``_product``;
- only ``evaluation.py`` samples: ``sample_token`` and ``example_rng``
  are called nowhere else, so every approach draws its answer the same
  way;
- only ``models.py`` names a position table (a ``"pos"`` or ``"*.pos"``
  string) or calls a mask builder, so every transformer stack adds its
  positions and builds its masks in ``models._stack_forward``.
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


def calls_to(path: Path, names: tuple[str, ...]) -> list[str]:
    tree, _ = _parse(path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = (fn.id if isinstance(fn, ast.Name)
                else fn.attr if isinstance(fn, ast.Attribute) else None)
        if name in names:
            found.append(f"{path.name}:{node.lineno} {name}")
    return sorted(found)


def sampling_calls(path: Path) -> list[str]:
    return calls_to(path, ("sample_token", "example_rng"))


def stack_seam_sites(path: Path) -> list[str]:
    """Position-table names and mask-builder calls."""
    tree, _ = _parse(path)
    found = calls_to(path, ("key_valid_mask", "causal_valid_mask",
                            "causal_mask"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and (node.value == "pos" or node.value.endswith(".pos"))):
            found.append(f"{path.name}:{node.lineno} {node.value!r}")
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


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "evaluation.py"],
    ids=lambda p: p.name)
def test_only_evaluation_samples(path):
    assert sampling_calls(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "models.py"], ids=lambda p: p.name)
def test_only_models_adds_positions_and_builds_masks(path):
    assert stack_seam_sites(path) == []


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
    samp = tmp_path / "samp.py"
    samp.write_text(
        "from .evaluation import example_rng, sample_token\n"
        "a = sample_token(row, s, example_rng(0, i))\n"
        "b = ev.sample_token(row, s, rng)\n")
    assert sampling_calls(samp) == [
        "samp.py:2 example_rng", "samp.py:2 sample_token",
        "samp.py:3 sample_token"]
    seam = tmp_path / "seam.py"
    seam.write_text(
        "x = T.add(x, T.embedding(store['bridge1.pos'], np.arange(n)))\n"
        "m = causal_valid_mask(lengths, n) & nn.causal_mask(n)\n"
        "k = key_valid_mask(lengths, n, n)\n"
        "p = store[f'{prefix}.pos'] or store['pos'] or store['pos_ids']\n")
    assert stack_seam_sites(seam) == [
        "seam.py:1 'bridge1.pos'", "seam.py:2 causal_mask",
        "seam.py:2 causal_valid_mask", "seam.py:3 key_valid_mask",
        "seam.py:4 '.pos'", "seam.py:4 'pos'"]
