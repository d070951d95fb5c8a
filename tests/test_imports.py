"""Import hygiene and the product seam, checked with the stdlib ``ast``.

Sixteen rules for every module under ``src/tall``:

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
  string), so every transformer stack adds its positions in
  ``models._stack_forward``; and only ``tensor.py`` masks: no other
  module names ``MASKED_LOGIT`` or defines a function with a parameter
  whose name contains ``mask``, so every attention mask comes from the
  packings ``tensor.attention`` is handed;
- only ``models.py`` builds a packing index: it alone calls the builder
  ``packing`` or passes an index to ``Packing``, so every stack packs
  its real tokens the one way ``models._stack_forward`` does (a
  ``Packing`` without an index, every grid position a row, is a reshape
  any module may state);
- no module subscripts with a boolean mask (``logits.data[mask]``, any
  name containing ``mask``): loss rows are packed rows already, and a
  masked selection would bring the padded rows back;
- only ``pipeline.py`` (from the backbones' widths) and
  ``params_report.py`` (for the published presets) call ``AdapterSpec``,
  so the adapters' geometry is not stated a second time;
- only ``runner.load_models`` calls ``load_checkpoint``, so every
  checkpoint a command reads is checked for its architecture, entries
  and kind the same way;
- only ``runner.py`` and ``pretrain.py`` call ``Translator.init``,
  ``CausalLM.init`` or ``TallModel.assemble``: the trainers build the
  models they train, and ``runner.load_models`` every model a command
  reads;
- only ``nn.py`` calls ``take_rows``, and no module picks final positions
  out of a whole sequence with ``[np.arange(...), ... - 1]``: a caller
  passes ``last`` to the stack, which picks each row's last real token
  in one place;
- only ``nn.py`` writes a KV cache's keys or values (assigns an
  attribute ``keys`` or ``values``, whole or through a subscript): the
  three cache kinds are kept by ``nn.KVCache`` alone;
- no module compares a value against an approach name written as a
  string literal (``approach == "naive"``): ``runner.APPROACHES`` is the
  one place an approach is declared and dispatched;
- only ``config.load_config`` calls ``RunConfig``, so every run
  configuration, the benchmark scale included, passes the load-time
  checks;
- only ``evaluation._predict`` calls ``EvalRecord``, so every approach
  is scored by the one eval loop and no second loop comes back;
- every defaulted parameter of a function is passed explicitly by some
  call in ``src/tall`` or in perfbench's non-test modules: a parameter
  every caller leaves at its default has one value in use, so it is a
  constant instead, and ``ONE_VALUE_KEPT`` names the few kept, each with
  its reason.

And one for ``tensor.py`` and ``nn.py``: every public function has a
caller in ``src/tall`` outside its own body, so what only tests use
lives in ``tests/conftest.py``.  And two for ``tensor.py``: it calls
neither ``ascontiguousarray`` nor ``copy``, so its kernels take views
and no layout copy creeps back; and no op's nested ``bwd`` calls
``_needs_grad`` or reads ``.data``, so each backward takes its flags
and the arrays it reads when the op runs and keeps no operand tensor
alive on the tape.  And one for ``config.py``: a class it
imports from another module and calls takes no defaulted parameter, so
every default is written once, in the section tree.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from tall.runner import APPROACHES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tall"
MODULES = sorted(SRC.glob("*.py"))
# every module that calls into src/tall for a run: the package itself and
# the benchmark harness, without its tests
CALLERS = MODULES + sorted(p for p in (ROOT / "perfbench").glob("*.py")
                           if not p.name.startswith("test_"))


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


def position_table_names(path: Path) -> list[str]:
    """``"pos"`` and ``"*.pos"`` strings."""
    tree, _ = _parse(path)
    return sorted(f"{path.name}:{node.lineno} {node.value!r}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and (node.value == "pos" or node.value.endswith(".pos")))


def mask_sites(path: Path) -> list[str]:
    """Names of ``MASKED_LOGIT`` (imported, read or assigned) and function
    parameters whose name contains ``mask``."""
    tree, _ = _parse(path)
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name == "MASKED_LOGIT":
            found.append(f"{path.name}:{node.lineno} MASKED_LOGIT")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            found += [f"{path.name}:{arg.lineno} parameter {arg.arg}"
                      for arg in (a.posonlyargs + a.args + a.kwonlyargs
                                  + [a.vararg, a.kwarg])
                      if arg is not None and "mask" in arg.arg]
    return sorted(found)


def packing_index_sites(path: Path) -> list[str]:
    """``packing(...)`` calls and ``Packing(...)`` calls given an index."""
    tree, _ = _parse(path)
    found = calls_to(path, ("packing",))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and "Packing" in (getattr(node.func, "id", None),
                                  getattr(node.func, "attr", None))
                and (len(node.args) > 2
                     or any(k.arg == "index" for k in node.keywords))):
            found.append(f"{path.name}:{node.lineno} Packing(index)")
    return sorted(found)


def mask_subscripts(path: Path) -> list[str]:
    """Subscripts by a bare name containing ``mask``: ``x.data[mask]``."""
    tree, _ = _parse(path)
    return sorted(f"{path.name}:{node.lineno} [{node.slice.id}]"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.slice, ast.Name)
                  and "mask" in node.slice.id)


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


def _written(target: ast.expr):
    """The attributes an assignment target writes, whole or through a
    subscript, looking into tuples and starred names."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _written(elt)
    elif isinstance(target, (ast.Starred, ast.Subscript)):
        yield from _written(target.value)
    elif isinstance(target, ast.Attribute):
        yield target


def cache_writes(path: Path) -> list[str]:
    """Writes to an attribute ``keys`` or ``values``: ``cache.keys = ...``,
    ``a.keys, a.values = ...``, ``a.values[:, i] = ...``, ``a.keys += ...``."""
    tree, _ = _parse(path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        found += [f"{path.name}:{node.lineno} .{a.attr}"
                  for t in targets for a in _written(t)
                  if a.attr in ("keys", "values")]
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


# the model classes and the constructor each is built by
MODEL_BUILDERS = {"Translator": "init", "CausalLM": "init",
                  "TallModel": "assemble"}


def model_builds(path: Path) -> list[str]:
    """``Translator.init``, ``CausalLM.init`` and ``TallModel.assemble``
    calls, also through a module (``models.Translator.init``)."""
    tree, _ = _parse(path)
    found = []
    for node in ast.walk(tree):
        fn = node.func if isinstance(node, ast.Call) else None
        if not isinstance(fn, ast.Attribute):
            continue
        owner = getattr(fn.value, "id", getattr(fn.value, "attr", None))
        if MODEL_BUILDERS.get(owner) == fn.attr:
            found.append(f"{path.name}:{node.lineno} {owner}.{fn.attr}")
    return sorted(found)


def calls_outside(path: Path, name: str, function: str) -> list[str]:
    """``name(...)`` calls outside the body of the function ``function``."""
    tree, _ = _parse(path)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == function
              for node in ast.walk(fn)}
    return sorted(f"{path.name}:{node.lineno} {name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None)))


def held_out_calls(path: Path) -> list[str]:
    """Calls of the held-out split and of TALL's held-out score."""
    return calls_to(path, ("split_train_eval", "evaluate_tall"))


def run_config_builds(path: Path) -> list[str]:
    """``RunConfig(...)`` calls outside the body of ``load_config``."""
    return calls_outside(path, "RunConfig", "load_config")


def eval_record_builds(path: Path) -> list[str]:
    """``EvalRecord(...)`` calls outside the body of ``_predict``."""
    return calls_outside(path, "EvalRecord", "_predict")


def imported_calls(path: Path) -> list[tuple[str, str]]:
    """(module, name) of each name ``path`` imports from a sibling module
    (``from .world import World``) and calls by that name."""
    tree, _ = _parse(path)
    imported = {a.asname or a.name: (node.module, a.name)
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module for a in node.names}
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    return sorted(imported[name] for name in called & imported.keys())


def defaulted_parameters(fn) -> list[str]:
    """``fn``'s parameters that have a default, as ``Name.param``."""
    return [f"{fn.__name__}.{p.name}"
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def _passes(call: ast.Call, callee: str, name: str, index) -> bool:
    """Whether ``call`` calls ``callee`` and passes its parameter ``name``
    (positional index ``index``, None for keyword-only): by keyword, by
    position, or possibly through ``*args`` or ``**kwargs``."""
    fn = call.func
    called = (fn.id if isinstance(fn, ast.Name)
              else fn.attr if isinstance(fn, ast.Attribute) else None)
    return called == callee and (
        any(k.arg in (name, None) for k in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (index is not None and len(call.args) > index))


def unpassed_defaults(defining: list[Path], calling: list[Path]) -> list[str]:
    """Defaulted parameters of the functions in ``defining`` that no call
    in ``calling`` passes, as ``module.py:Qualified.name(param)``.

    A call is matched by the name it calls (a class's name for its
    ``__init__``), so a call to another function of the same name counts
    too; a method's positions do not count ``self`` or ``cls``."""
    calls = [node for path in calling for node in ast.walk(_parse(path)[0])
             if isinstance(node, ast.Call)]
    found = []
    for path in defining:
        tree, _ = _parse(path)
        owners = {id(f): c for c in ast.walk(tree)
                  if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = owners.get(id(fn))
            bound = owner is not None and "staticmethod" not in [
                getattr(d, "id", None) for d in fn.decorator_list]
            callee = owner.name if fn.name == "__init__" else fn.name
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            params = [(arg.arg, i - bound)
                      for i, arg in enumerate(positional) if i >= first]
            params += [(arg.arg, None)
                       for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                       if d is not None]
            qualified = fn.name if owner is None else f"{owner.name}.{fn.name}"
            found += [f"{path.name}:{qualified}({name})"
                      for name, index in params
                      if not any(_passes(c, callee, name, index)
                                 for c in calls)]
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


def backward_reads(path: Path) -> list[str]:
    """Each ``_needs_grad`` call and ``.data`` read inside a function
    named ``bwd`` or ``rebuild`` that is nested in another function: an
    op's backward, or the rebuild of its output, that reads either still
    refers to an operand tensor, which keeps it alive on the tape."""
    tree, _ = _parse(path)
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, ast.FunctionDef):
            continue
        for inner in ast.walk(outer):
            if (inner is outer or not isinstance(inner, ast.FunctionDef)
                    or inner.name not in ("bwd", "rebuild")):
                continue
            for node in ast.walk(inner):
                if isinstance(node, ast.Call):
                    fn = node.func
                    name = (fn.id if isinstance(fn, ast.Name) else fn.attr
                            if isinstance(fn, ast.Attribute) else None)
                    if name == "_needs_grad":
                        found.add((node.lineno, name))
                elif isinstance(node, ast.Attribute) and node.attr == "data":
                    found.add((node.lineno, ".data"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_models_adds_positions_and_builds_masks(path):
    """Positions belong to ``models.py`` and masks to ``tensor.py``."""
    if path.name != "models.py":
        assert position_table_names(path) == []
    if path.name != "tensor.py":
        assert mask_sites(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "models.py"], ids=lambda p: p.name)
def test_only_models_builds_a_packing_index(path):
    assert packing_index_sites(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_selects_rows_with_a_mask(path):
    assert mask_subscripts(path) == []


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


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "nn.py"], ids=lambda p: p.name)
def test_only_nn_writes_cache_keys_and_values(path):
    """Only ``nn.py`` writes a KV cache's ``keys`` or ``values``."""
    assert cache_writes(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_approaches_are_dispatched_by_the_table(path):
    assert approach_name_comparisons(path) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("pretrain.py", "pipeline.py")],
    ids=lambda p: p.name)
def test_only_the_trainers_split_and_score_held_out(path):
    """The trainers own the held-out split and its scores, so no caller
    redoes them beside a training run."""
    assert held_out_calls(path) == []


# perfbench/spans.py TARGETS and BENCHMARK.json's per-layer metrics name
# tensor.softmax, so it stays though no module in src/tall calls it
KEPT_FOR_PERFBENCH = {"softmax"}


@pytest.mark.parametrize("name", ["tensor.py", "nn.py"])
def test_every_public_kernel_has_a_caller(name):
    uncalled = uncalled_functions(SRC / name, MODULES)
    assert [f for f in uncalled if f not in KEPT_FOR_PERFBENCH] == []


# defaulted parameters that no caller passes, kept on purpose
ONE_VALUE_KEPT = {
    "tensor.py:Tensor.__init__(requires_grad)":
        "kernel tests build the leaves they differentiate with it",
    "tensor.py:layer_norm(eps)":
        "kernel tests set it; eps=0.0 is test_direct_arithmetic's exact "
        "oracle",
    "models.py:Translator.greedy_translate(cap)":
        "it sizes the decode cache, and tests pin step counts with it",
    "cli.py:main(argv)":
        "the console script passes none; tests pass their command lines",
}


def test_every_default_is_passed_by_some_caller():
    """A parameter every caller leaves at its default has one value in
    use, so it is a constant; the kept ones are each still unpassed."""
    assert unpassed_defaults(MODULES, CALLERS) == sorted(ONE_VALUE_KEPT)


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("runner.py", "pretrain.py")],
    ids=lambda p: p.name)
def test_only_the_runner_and_the_trainers_build_models(path):
    assert model_builds(path) == []


def test_checkpoints_are_read_by_one_loader():
    sites = [s for p in MODULES for s in calls_to(p, ("load_checkpoint",))]
    tree, _ = _parse(SRC / "runner.py")
    [loader] = [f for f in tree.body
                if isinstance(f, ast.FunctionDef) and f.name == "load_models"]
    [call] = [n for n in ast.walk(loader) if isinstance(n, ast.Call)
              and getattr(n.func, "id", None) == "load_checkpoint"]
    assert sites == [f"runner.py:{call.lineno} load_checkpoint"]


def test_run_configs_are_built_by_load_config_alone():
    assert [s for p in MODULES for s in run_config_builds(p)] == []
    [_] = calls_to(SRC / "config.py", ("RunConfig",))


def test_eval_records_are_built_by_predict_alone():
    assert [s for p in MODULES for s in eval_record_builds(p)] == []
    [_] = calls_to(SRC / "evaluation.py", ("EvalRecord",))


def test_classes_config_builds_take_no_defaults():
    built = [getattr(importlib.import_module(f"tall.{module}"), name)
             for module, name in imported_calls(SRC / "config.py")]
    classes = [c for c in built if inspect.isclass(c)]
    assert {"TrainConfig", "SamplerConfig", "World", "ToyGrammar",
            "Seq2SeqConfig", "CausalLMConfig"} <= {c.__name__ for c in classes}
    assert [p for c in classes for p in defaulted_parameters(c)] == []


def test_tensor_has_one_product_kernel():
    [site] = numpy_products(SRC / "tensor.py")
    assert site.endswith(" np.matmul")


def test_tensor_makes_no_layout_copies():
    assert calls_to(SRC / "tensor.py", ("ascontiguousarray", "copy")) == []


def test_tensor_backwards_take_what_they_read_at_record_time():
    assert backward_reads(SRC / "tensor.py") == []


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
        "p = store[f'{prefix}.pos'] or store['pos'] or store['pos_ids']\n")
    assert position_table_names(seam) == [
        "seam.py:1 'bridge1.pos'", "seam.py:2 '.pos'", "seam.py:2 'pos'"]
    masks = tmp_path / "masks.py"
    masks.write_text(
        "from .tensor import MASKED_LOGIT\n"
        "def attend(q, self_mask, *, cross_mask=None, **masks):\n"
        "    return np.where(self_mask, 0.0, T.MASKED_LOGIT)\n"
        "MASKED_LOGIT = -1e9\n"
        "bias = lambda mask: mask + masked + valid_masks(q)\n")
    assert mask_sites(masks) == [
        "masks.py:1 MASKED_LOGIT", "masks.py:2 parameter cross_mask",
        "masks.py:2 parameter masks", "masks.py:2 parameter self_mask",
        "masks.py:3 MASKED_LOGIT", "masks.py:4 MASKED_LOGIT",
        "masks.py:5 parameter mask"]
    pack = tmp_path / "pack.py"
    pack.write_text(
        "rows = models.packing(lengths, width)\n"
        "a = T.Packing(b, l, np.flatnonzero(valid)) or Packing(b, l, index=i)\n"
        "q = T.Packing(len(read), 1) or packings(x)\n")
    assert packing_index_sites(pack) == [
        "pack.py:1 packing", "pack.py:2 Packing(index)",
        "pack.py:2 Packing(index)"]
    masked = tmp_path / "masked.py"
    masked.write_text(
        "rows = logits.data[mask]\n"
        "dl[label_mask] = p\n"
        "m = self_mask[pick] + x[np.arange(n), targets] + y[masks[0]]\n")
    assert mask_subscripts(masked) == ["masked.py:1 [mask]",
                                       "masked.py:2 [label_mask]"]
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
    writes = tmp_path / "writes.py"
    writes.write_text(
        "cache.keys = T.linear(x, w, b)\n"
        "cache.keys, (cache.values, n) = k, (v, 2)\n"
        "layer.self_attn.values[:, 3:4] = rows\n"
        "cache.keys += 1\n"
        "kv = cache.keys + x[cache.values] + d.values()\n"
        "opt.v = store.key = x[cache.keys] = cache.k = 1\n")
    assert cache_writes(writes) == [
        "writes.py:1 .keys", "writes.py:2 .keys", "writes.py:2 .values",
        "writes.py:3 .values", "writes.py:4 .keys"]
    chain = tmp_path / "chain.py"
    chain.write_text(
        "if approach == 'naive':\n"
        "    pass\n"
        "elif 'soft-prompt' != name or kind in ('tall', 'llm'):\n"
        "    pass\n"
        "ok = 'tall' in models and preset == 'toy' and x in 'direct'\n")
    assert approach_name_comparisons(chain) == [
        "chain.py:1 'naive'", "chain.py:3 'soft-prompt'", "chain.py:3 'tall'"]
    held = tmp_path / "held.py"
    held.write_text(
        "from .pretrain import split_train_eval\n"
        "_, heldout = split_train_eval(items, 0.1, seed)\n"
        "stats = pipeline.evaluate_tall(model, heldout, 16)\n"
        "score = evaluate_tall or evaluate(heldout)\n")
    assert held_out_calls(held) == ["held.py:2 split_train_eval",
                                    "held.py:3 evaluate_tall"]
    cfg = tmp_path / "cfg.py"
    cfg.write_text(
        "def load_config(path=None):\n"
        "    return _from_dict(RunConfig(), {}, '')\n"
        "def benchmark_config(seed):\n"
        "    cfg = RunConfig()\n"
        "    return config.RunConfig(world=cfg.world)\n"
        "kind = RunConfig\n")
    assert run_config_builds(cfg) == ["cfg.py:4 RunConfig",
                                      "cfg.py:5 RunConfig"]
    loop = tmp_path / "loop.py"
    loop.write_text(
        "def _predict(examples):\n"
        "    return [EvalRecord(i, 0, 0, True, 'x', 'ok') for i in examples]\n"
        "def eval_naive(examples):\n"
        "    return [ev.EvalRecord(i, 0, -1, False, 'naive', 'too_long')\n"
        "            for i in examples]\n"
        "record = EvalRecord\n")
    assert eval_record_builds(loop) == ["loop.py:4 EvalRecord"]
    builds = tmp_path / "builds.py"
    builds.write_text(
        "lm = CausalLM.init(llm_config(cfg), seed)\n"
        "tr = models.Translator.init(cfg, 0) or Translator(cfg, store)\n"
        "tall = TallModel.assemble(c, world, tr, tr, lm, 0)\n"
        "x = TallModel.init(c) or CausalLM.assemble(c) or store.init(c)\n")
    assert model_builds(builds) == ["builds.py:1 CausalLM.init",
                                    "builds.py:2 Translator.init",
                                    "builds.py:3 TallModel.assemble"]
    built = tmp_path / "built.py"
    built.write_text(
        "from . import world\n"
        "from .world import World as W, ToyGrammar, generate_corpus\n"
        "from numpy import array\n"
        "w = W(96, 0, 'seeded', True)\n"
        "c = generate_corpus(0, 1, world.ToyGrammar(), w) + array(3)\n")
    assert imported_calls(built) == [("world", "World"),
                                     ("world", "generate_corpus")]

    defs = tmp_path / "defs.py"
    defs.write_text(
        "def f(x, width=3, *, heads=2):\n"
        "    return f(x, heads=4)\n"
        "class Box:\n"
        "    def __init__(self, size=1):\n"
        "        pass\n"
        "    def grow(self, by=1, times=1):\n"
        "        return g(*args) + self.grow(2)\n"
        "def g(n=0):\n"
        "    pass\n")
    use = tmp_path / "use.py"
    use.write_text("b = Box(3) or f(1) or g(*args)\n")
    assert unpassed_defaults([defs], [defs, use]) == ["defs.py:Box.grow(times)",
                                                      "defs.py:f(width)"]

    def planted(width, heads=4, *, dropout=0.1):
        pass

    assert defaulted_parameters(planted) == ["planted.heads",
                                             "planted.dropout"]
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
    back = tmp_path / "back.py"
    back.write_text(
        "def op(x, w):\n"
        "    x_d = x.data if _needs_grad(w) else None\n"
        "    def bwd(g):\n"
        "        return g * w.data if _needs_grad(x) else T._needs_grad(w)\n"
        "    def helper(g):\n"
        "        return g.data + x_d\n"
        "    def rebuild():\n"
        "        return x.data * 2.0\n"
        "    return bwd, helper, rebuild\n"
        "def bwd(g):\n"
        "    return g.data\n")
    assert backward_reads(back) == ["back.py:4 .data", "back.py:4 _needs_grad",
                                    "back.py:8 .data"]
