"""Outside-in span tracing of the ``tall`` layers.

The tracer replaces public functions of the package (module attributes
and class methods) with wrappers that record one span per call: name,
start, end and the id of the enclosing span.  Spans are kept in memory
and written out when the run ends; per-name call counts, total time and
self time (total minus the time covered by child spans) are aggregated
as the spans close.  ``uninstall`` puts every original function object
back, and ``wrapped_attributes`` lets an untraced run prove that it
calls the originals.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# Marker set on every wrapper, so a leaked wrapper can be found by scanning.
MARKER = "_perfbench_span"

# Raw spans beyond this many are counted but not stored.
MAX_STORED_SPANS = 1_000_000


@dataclass(frozen=True)
class Target:
    """One traced function: where it lives and the span name it records."""

    name: str          # span name, "<layer>.<fn>"
    module: str        # module that defines it, e.g. "tall.tensor"
    attr: str          # "matmul" or "Tape.backward"


# The span names follow the layer (module) the caller sees, not always the
# defining module: stage functions are methods of TallModel, and both
# adapter stages go through one nn function (split by its ``prefix``).
TARGETS = (
    Target("tensor.matmul", "tall.tensor", "matmul"),
    Target("tensor.softmax", "tall.tensor", "softmax"),
    Target("tensor.layer_norm", "tall.tensor", "layer_norm"),
    Target("tensor.gelu", "tall.tensor", "gelu"),
    Target("tensor.embedding", "tall.tensor", "embedding"),
    Target("tensor.cross_entropy_last_token", "tall.tensor",
           "cross_entropy_last_token"),
    Target("tensor.cross_entropy_sum", "tall.tensor", "cross_entropy_sum"),
    Target("tensor.backward", "tall.tensor", "Tape.backward"),
    Target("nn.multi_head_attention", "tall.nn", "multi_head_attention"),
    Target("nn.ffn_forward", "tall.nn", "ffn_forward"),
    Target("nn.transformer_layer_forward", "tall.nn",
           "transformer_layer_forward"),
    Target("models.greedy_translate", "tall.models",
           "Translator.greedy_translate"),
    Target("models.encoder_forward", "tall.models", "encoder_forward"),
    Target("models.decoder_forward", "tall.models", "decoder_forward"),
    Target("models.logits_for", "tall.models", "CausalLM.logits_for"),
    Target("models.hidden_from_embeddings", "tall.models",
           "CausalLM.hidden_from_embeddings"),
    Target("pipeline.s1_encode", "tall.pipeline", "TallModel.encode_lr"),
    Target("pipeline.s2_adapter1", "tall.nn", "adapter_forward"),
    Target("pipeline.s3_bridge1", "tall.pipeline",
           "TallModel.bridge1_forward"),
    Target("pipeline.s4_llm", "tall.pipeline", "TallModel.llm_blocks"),
    Target("pipeline.s6_bridge2", "tall.pipeline",
           "TallModel.bridge2_forward"),
    Target("pipeline.s7_decode", "tall.pipeline", "TallModel.decode"),
    Target("pipeline.translate_prefixes", "tall.pipeline",
           "TallModel.translate_prefixes"),
    Target("pipeline.make_batch", "tall.pipeline", "TallModel.make_batch"),
    Target("pipeline.evaluate_tall", "tall.pipeline", "evaluate_tall"),
    Target("optim.AdamW.step", "tall.optim", "AdamW.step"),
    Target("optim.clip_grad_norm", "tall.optim", "clip_grad_norm"),
    Target("pretrain.llm_perplexity", "tall.pretrain", "llm_perplexity"),
    Target("world.generate_corpus", "tall.world", "generate_corpus"),
)

# nn.adapter_forward serves stage 2 and stage 5; its prefix argument says which.
_ADAPTER_SPANS = {"adapter1": "pipeline.s2_adapter1",
                  "adapter2": "pipeline.s5_adapter2"}

# Spans that never have traced children report total time only (".s").
LEAF_SPANS = frozenset({
    "tensor.matmul", "tensor.softmax", "tensor.layer_norm", "tensor.gelu",
    "tensor.embedding", "tensor.cross_entropy_last_token",
    "tensor.cross_entropy_sum", "tensor.backward", "optim.AdamW.step",
    "optim.clip_grad_norm", "pipeline.make_batch", "world.generate_corpus",
})

# Target order, with stage 5 in its place before stage 6.
SPAN_NAMES = tuple(n for t in TARGETS for n in (
    ("pipeline.s5_adapter2", t.name) if t.name == "pipeline.s6_bridge2"
    else (t.name,)))

COUNTERS = ("tensor.tape_nodes", "models.greedy.rows", "models.greedy.steps",
            "models.greedy.tokens")


def _resolve(target: Target):
    """(owner object, attribute name, function) for a target."""
    owner = sys.modules[target.module]
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def wrapped_attributes() -> list[str]:
    """Every attribute of a loaded ``tall`` module or class that is a wrapper."""
    found = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "tall" or mod_name.startswith("tall.")):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, MARKER):
                found.append(f"{mod_name}.{key}")
            elif isinstance(value, type) and value.__module__ == mod_name:
                found.extend(f"{mod_name}.{key}.{k}"
                             for k, v in vars(value).items() if hasattr(v, MARKER))
    return found


def original_functions() -> dict[str, object]:
    """Span name -> the function object currently bound at the target."""
    return {t.name: _resolve(t)[2] for t in TARGETS}


@dataclass
class _Agg:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Records spans while installed; aggregates them as they close."""

    spans: list = field(default_factory=list)
    dropped: int = 0
    agg: dict = field(default_factory=dict)
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)
    _next_id: int = 0

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, parent, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, parent, start, child_s = frame
        dur = end - start
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = _Agg()
        agg.calls += 1
        agg.total_s += dur
        agg.self_s += dur - child_s
        if parent is not None:
            parent[4] += dur
            if name == "models.decoder_forward" and parent[1] == "models.greedy_translate":
                self.counters["models.greedy.steps"] += 1
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, -1 if parent is None else parent[0],
                               name, start, end))
        else:
            self.dropped += 1

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counters read from a call's arguments and result."""
        if name == "tensor.backward":
            self.counters["tensor.tape_nodes"] += len(args[0])
        elif name == "models.greedy_translate":
            self.counters["models.greedy.rows"] += len(args[1])
            self.counters["models.greedy.tokens"] += sum(len(r) for r in result)

    def _wrapper(self, name: str, fn):
        tracer = self

        if name == "pipeline.s2_adapter1":
            def span_name(args, kwargs):
                prefix = kwargs.get("prefix", args[3] if len(args) > 3 else "")
                return _ADAPTER_SPANS.get(prefix, "nn.adapter_forward")
        else:
            def span_name(args, kwargs):
                return name

        def wrapper(*args, **kwargs):
            span = span_name(args, kwargs)
            frame = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._observe(span, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARKER, name)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every target, including copies bound by ``from x import f``."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        tall_modules = [m for n, m in sys.modules.items()
                        if m is not None and (n == "tall" or n.startswith("tall."))]
        for target in TARGETS:
            owner, attr, fn = _resolve(target)
            wrapper = self._wrapper(target.name, fn)
            sites = [(owner, attr)]
            if isinstance(owner, type(sys)):
                sites += [(m, k) for m in tall_modules if m is not owner
                          for k, v in vars(m).items() if v is fn]
            for site, key in sites:
                self._patched.append((site, key, fn))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, fn in reversed(self._patched):
            setattr(site, key, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """Span name -> {calls, total_s, self_s} for every known span."""
        out = {}
        for name in SPAN_NAMES:
            agg = self.agg.get(name, _Agg())
            out[name] = {"calls": agg.calls, "total_s": agg.total_s,
                         "self_s": agg.self_s}
        return out

    def write(self, path: Path, extra: dict) -> None:
        """Write the stored spans, the aggregate and ``extra`` as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["summary"] = self.summary()
        doc["counters"] = dict(self.counters)
        doc["dropped_spans"] = self.dropped
        doc["span_fields"] = ["id", "parent", "name", "start_s", "end_s"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
