"""Import hygiene and the product seam, checked with the stdlib ``ast``.

Nine rules for every module under ``src/tall``:

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
  positions and builds its masks in ``models._stack_forward``;
- only ``pipeline.py`` (from the backbones' widths) and
  ``params_report.py`` (for the published presets) call ``AdapterSpec``,
  so the adapters' geometry is not stated a second time;
- only ``runner.load_into`` calls ``load_checkpoint``, so every
  checkpoint a command reads is checked for its architecture, entries
  and kind the same way;
- only ``nn.py`` calls ``take_rows``, and no module picks final positions
  out of a whole sequence with ``[np.arange(...), ... - 1]``: a caller
  passes ``read`` to the stack, which chooses the rows in one place;
- no module compares a value against an approach name written as a
  string literal (``approach == "naive"``): ``runner.APPROACHES`` is the
  one place an approach is declared and dispatched.

And one for ``tensor.py`` and ``nn.py``: every public function has a
caller in ``src/tall`` outside its own body, so what only tests use
lives in ``tests/conftest.py``.
"""

import ast
from pathlib import Path

import pytest

from tall.runner import APPROACHES

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


def adapter_spec_calls(path: Path) -> list[str]:
    return calls_to(path, ("AdapterSpec",))


def read_row_sites(path: Path) -> list[str]:
    """``take_rows`` calls and ``[np.arange(...), ... - 1]`` subscripts."""
    tree, _ = _parse(path)
    found = calls_to(path, ("take_rows",))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Tuple)
                and len(node.slice.elts) >= 2):
            continue
        first, second = node.slice.elts[:2]
        if (isinstance(first, ast.Call)
                and getattr(first.func, "attr", getattr(first.func, "id", None))
                == "arange"
                and isinstance(second, ast.BinOp)
                and isinstance(second.op, ast.Sub)
                and isinstance(second.right, ast.Constant)
                and second.right.value == 1):
            found.append(f"{path.name}:{node.lineno} [arange, ... - 1]")
    return sorted(found)


# each approach's record name and its ``--approach`` name
APPROACH_NAMES = frozenset(n for name, a in APPROACHES.items()
                           for n in (name, a.cli_name))


def approach_name_comparisons(path: Path) -> list[str]:
    """Comparisons of a value against an approach name written as a string
    literal: ``x == "naive"``, ``"tall" != x`` or ``x in ("tall", ...)``.
    A key lookup such as ``"tall" in models`` compares nothing against
    the name and is not reported."""
    tree, _ = _parse(path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                items = (right.elts
                         if isinstance(right, (ast.Tuple, ast.List, ast.Set))
                         else [])
            else:
                items = [left, right]
            found += [f"{path.name}:{node.lineno} {item.value!r}"
                      for item in items if isinstance(item, ast.Constant)
                      and item.value in APPROACH_NAMES]
            left = right
    return sorted(found)


def uncalled_functions(target: Path, modules: list[Path]) -> list[str]:
    """Public top-level functions of ``target`` that no module in
    ``modules`` calls outside the function's own body.  A call counts
    through a module alias (``from . import tensor as T``, then
    ``T.f()``), through a name imported from ``target`` (``from .tensor
    import f``) and, inside ``target``, through the bare name."""
    tree, _ = _parse(target)
    public = {f.name for f in tree.body
              if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    called = set()
    for path in modules:
        module, _ = _parse(path)
        aliases = set()
        local = {n: n for n in public} if path == target else {}
        for node in module.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    aliases |= {a.asname or a.name for a in node.names
                                if a.name == target.stem}
                elif node.module == target.stem:
                    local.update({a.asname or a.name: a.name
                                  for a in node.names})
        for stmt in module.body:
            own = (stmt.name if path == target
                   and isinstance(stmt, ast.FunctionDef) else None)
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                name = (local.get(fn.id) if isinstance(fn, ast.Name)
                        else fn.attr if isinstance(fn, ast.Attribute)
                        and isinstance(fn.value, ast.Name)
                        and fn.value.id in aliases else None)
                if name is not None and name != own:
                    called.add(name)
    return sorted(public - called)


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


@pytest.mark.parametrize(
    "path", [p for p in MODULES
             if p.name not in ("pipeline.py", "params_report.py")],
    ids=lambda p: p.name)
def test_only_pipeline_and_presets_build_adapter_specs(path):
    assert adapter_spec_calls(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "nn.py"], ids=lambda p: p.name)
def test_only_nn_takes_the_rows_a_caller_reads(path):
    assert read_row_sites(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_approaches_are_dispatched_by_the_table(path):
    assert approach_name_comparisons(path) == []


# perfbench/spans.py TARGETS and BENCHMARK.json's per-layer metrics name
# tensor.softmax, so it stays though no module in src/tall calls it
KEPT_FOR_PERFBENCH = {"softmax"}


@pytest.mark.parametrize("name", ["tensor.py", "nn.py"])
def test_every_public_kernel_has_a_caller(name):
    uncalled = uncalled_functions(SRC / name, MODULES)
    assert [f for f in uncalled if f not in KEPT_FOR_PERFBENCH] == []


def test_checkpoints_are_read_by_one_loader():
    sites = [s for p in MODULES for s in calls_to(p, ("load_checkpoint",))]
    tree, _ = _parse(SRC / "runner.py")
    [loader] = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "load_into"]
    [call] = [n for n in ast.walk(loader) if isinstance(n, ast.Call)
              and getattr(n.func, "id", None) == "load_checkpoint"]
    assert sites == [f"runner.py:{call.lineno} load_checkpoint"]


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
    spec = tmp_path / "spec.py"
    spec.write_text(
        "a1 = AdapterSpec(enc.d_model, t.adapter1_hidden, lm.d_model)\n"
        "a2 = nn.AdapterSpec(96, 128, 64)\n"
        "n = AdapterSpecs(a1) or adapter_param_count(a2)\n")
    assert adapter_spec_calls(spec) == ["spec.py:1 AdapterSpec",
                                        "spec.py:2 AdapterSpec"]
    rows = tmp_path / "rows.py"
    rows.write_text(
        "a = logits[np.arange(b), lengths - 1]\n"
        "c = T.take_rows(x, read) + logits[arange(n), ends - 1, :]\n"
        "d = logits[np.arange(b), targets] + logits[:, -1] + x[i - 1]\n")
    assert read_row_sites(rows) == [
        "rows.py:1 [arange, ... - 1]", "rows.py:2 [arange, ... - 1]",
        "rows.py:2 take_rows"]
    chain = tmp_path / "chain.py"
    chain.write_text(
        "if approach == 'naive':\n"
        "    pass\n"
        "elif 'soft-prompt' != name or kind in ('tall', 'llm'):\n"
        "    pass\n"
        "ok = 'tall' in models and preset == 'toy' and x in 'direct'\n")
    assert approach_name_comparisons(chain) == [
        "chain.py:1 'naive'", "chain.py:3 'soft-prompt'", "chain.py:3 'tall'"]
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "tensor.py").write_text(
        "def used():\n"
        "    return 1\n"
        "def helper():\n"
        "    return used()\n"
        "def imported():\n"
        "    pass\n"
        "def only_itself(n):\n"
        "    return only_itself(n - 1)\n"
        "def _private():\n"
        "    pass\n")
    (pkg / "nn.py").write_text(
        "from . import tensor as T\n"
        "from .tensor import imported as renamed\n"
        "T.helper() + renamed() + other.only_itself(3)\n")
    assert uncalled_functions(pkg / "tensor.py",
                              sorted(pkg.glob("*.py"))) == ["only_itself"]
