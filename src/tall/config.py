"""Run configuration: a strict key-value tree with builders.

Configs load from YAML; unknown keys anywhere in the tree are rejected
with the offending dotted path.  Command-line overrides ("a.b.c=value")
win over the file.  Every artifact embeds the fully resolved config and
its hash, and a narrower compatibility hash over the world and model
sections guards checkpoints against being loaded into a mismatched
architecture.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .models import CausalLMConfig, Seq2SeqConfig
from .nn import AdapterSpec
from .pipeline import BridgeConfig, SamplerConfig, TallConfig
from .pretrain import TrainConfig
from .world import ToyGrammar, World


class ConfigError(ValueError):
    """Malformed configuration: unknown key, bad value, unreadable file."""


@dataclass
class WorldSection:
    seed: int = 0
    hr_vocab_size: int = 96
    min_len: int = 5
    max_len: int = 12
    branching: int = 4
    n_classes: int = 4
    cipher: str = "seeded"
    pair_swap: bool = True
    train_pairs: int = 20000
    eval_size: int = 2000
    eval_seed: int = 9000
    eval_shift_alpha: float = 0.25
    eval_shift_seed: int = 901


@dataclass
class TranslatorSection:
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    enc_layers: int = 2
    dec_layers: int = 2
    max_len: int = 32


@dataclass
class LlmSection:
    d_model: int = 96
    n_heads: int = 4
    d_ff: int = 256
    n_layers: int = 2
    max_len: int = 64


@dataclass
class BridgeSection:
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128


@dataclass
class TallSection:
    adapter1_hidden: int = 192
    adapter2_hidden: int = 128
    bridge1: BridgeSection = field(default_factory=BridgeSection)
    bridge2: BridgeSection = field(default_factory=BridgeSection)


@dataclass
class ModelsSection:
    translator: TranslatorSection = field(default_factory=TranslatorSection)
    llm: LlmSection = field(default_factory=LlmSection)
    tall: TallSection = field(default_factory=TallSection)


@dataclass
class TrainSection:
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    epochs: int = 3
    batch_size: int = 32
    grad_clip_norm: float = 1.0
    grad_accum_steps: int = 1
    warmup_steps: int = 0
    eval_fraction: float = 0.02

    def to_train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate, weight_decay=self.weight_decay,
            epochs=self.epochs, batch_size=self.batch_size,
            grad_clip_norm=self.grad_clip_norm,
            grad_accum_steps=self.grad_accum_steps,
            warmup_steps=self.warmup_steps, seed=seed,
            eval_fraction=self.eval_fraction)


@dataclass
class SoftPromptSection(TrainSection):
    # values follow the published soft-prompt recipe
    learning_rate: float = 5e-4
    warmup_steps: int = 100
    epochs: int = 2
    n_prompt: int = 30


@dataclass
class TrainingSection:
    translator: TrainSection = field(default_factory=lambda: TrainSection(
        learning_rate=1.5e-3, epochs=5))
    llm: TrainSection = field(default_factory=lambda: TrainSection(
        learning_rate=1.2e-3, epochs=4, batch_size=8, grad_accum_steps=8))
    tall: TrainSection = field(default_factory=lambda: TrainSection(
        learning_rate=1.5e-3, epochs=4, eval_fraction=0.03))
    soft_prompt: SoftPromptSection = field(default_factory=SoftPromptSection)
    finetune: TrainSection = field(default_factory=lambda: TrainSection(
        learning_rate=2e-5, epochs=1, batch_size=16))
    from_scratch: TrainSection = field(default_factory=lambda: TrainSection(
        learning_rate=5e-4, epochs=4, batch_size=8, grad_accum_steps=8))


@dataclass
class SamplerSection:
    temperature: float = 0.7
    top_k: int = 50
    top_p: float = 0.95
    seed: int = 0

    def to_sampler(self, seed: int | None = None) -> SamplerConfig:
        return SamplerConfig(self.temperature, self.top_k, self.top_p,
                             self.seed if seed is None else seed)


@dataclass
class PathsSection:
    out_dir: str = "runs"


@dataclass
class RunConfig:
    world: WorldSection = field(default_factory=WorldSection)
    models: ModelsSection = field(default_factory=ModelsSection)
    train: TrainingSection = field(default_factory=TrainingSection)
    sampler: SamplerSection = field(default_factory=SamplerSection)
    paths: PathsSection = field(default_factory=PathsSection)


def _from_dict(cls, data, path: str):
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or '<root>'} must be a mapping")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in data:
        if key not in fields:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {where}")
    kwargs = {}
    for name, f in fields.items():
        if name not in data:
            continue
        value = data[name]
        if dataclasses.is_dataclass(f.type) or (
                isinstance(f.type, str) and f.type[0].isupper()):
            sub_cls = f.type if dataclasses.is_dataclass(f.type) else globals()[f.type]
            kwargs[name] = _from_dict(sub_cls, value,
                                      f"{path}.{name}" if path else name)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in section {path or '<root>'}: {exc}")


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override must look like section.key=value: {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError:
        value = raw
    return key.strip(), value


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = yaml.safe_load(p.read_text()) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    for text in overrides or []:
        key, value = _parse_override(text)
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {key!r} crosses a scalar")
        node[parts[-1]] = value
    return _from_dict(RunConfig, data, "")


def resolved_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(resolved_dict(cfg), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def compat_hash(cfg: RunConfig) -> str:
    """Hash of the architecture-defining sections only (world + models)."""
    blob = json.dumps(
        {"world": dataclasses.asdict(cfg.world),
         "models": dataclasses.asdict(cfg.models)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# -- builders ---------------------------------------------------------------


def build_world(cfg: RunConfig) -> World:
    w = cfg.world
    return World(hr_vocab_size=w.hr_vocab_size, seed=w.seed, cipher=w.cipher,
                 pair_swap=w.pair_swap)


def build_grammar(cfg: RunConfig) -> ToyGrammar:
    w = cfg.world
    return ToyGrammar(hr_vocab_size=w.hr_vocab_size, min_len=w.min_len,
                      max_len=w.max_len, seed=w.seed, branching=w.branching,
                      n_classes=w.n_classes)


def build_eval_grammar(cfg: RunConfig) -> ToyGrammar:
    w = cfg.world
    grammar = build_grammar(cfg)
    if w.eval_shift_alpha == 0.0:
        return grammar
    return grammar.perturbed(w.eval_shift_seed, w.eval_shift_alpha)


def translator_config(cfg: RunConfig, direction: str) -> Seq2SeqConfig:
    t = cfg.models.translator
    world = build_world(cfg)
    src, tgt = ((world.vocab_lr, world.vocab_hr) if direction == "lr2hr"
                else (world.vocab_hr, world.vocab_lr))
    return Seq2SeqConfig(vocab_src=src, vocab_tgt=tgt, d_model=t.d_model,
                         n_heads=t.n_heads, d_ff=t.d_ff,
                         enc_layers=t.enc_layers, dec_layers=t.dec_layers,
                         max_len=t.max_len)


def llm_config(cfg: RunConfig) -> CausalLMConfig:
    m = cfg.models.llm
    world = build_world(cfg)
    return CausalLMConfig(vocab_size=world.vocab_lm, d_model=m.d_model,
                          n_heads=m.n_heads, d_ff=m.d_ff,
                          n_layers=m.n_layers, max_len=m.max_len)


def tall_config(cfg: RunConfig) -> TallConfig:
    t = cfg.models.tall
    enc = translator_config(cfg, "lr2hr")
    dec = translator_config(cfg, "hr2lr")
    lm = llm_config(cfg)
    return TallConfig(
        encoder_cfg=enc, llm_cfg=lm, decoder_cfg=dec,
        adapter1=AdapterSpec(enc.d_model, t.adapter1_hidden, lm.d_model),
        adapter2=AdapterSpec(lm.d_model, t.adapter2_hidden, dec.d_model),
        bridge1=BridgeConfig(t.bridge1.n_layers, t.bridge1.n_heads,
                             t.bridge1.d_ff),
        bridge2=BridgeConfig(t.bridge2.n_layers, t.bridge2.n_heads,
                             t.bridge2.d_ff))


def benchmark_config(seed: int = 0) -> RunConfig:
    """The standard toy benchmark: sized to finish a full seed quickly.

    The world seed doubles as the benchmark seed so each benchmark seed
    gets its own language world, corpus, and initializations.
    """
    cfg = RunConfig()
    cfg.world.seed = seed
    cfg.world.train_pairs = 6000
    cfg.world.eval_size = 2000
    cfg.world.eval_seed = 9000 + seed
    cfg.train.translator = TrainSection(learning_rate=1.5e-3, epochs=3)
    cfg.train.llm = TrainSection(learning_rate=1.2e-3, epochs=4,
                                 batch_size=8, grad_accum_steps=8)
    cfg.train.tall = TrainSection(learning_rate=1.5e-3, epochs=4,
                                  eval_fraction=0.03)
    cfg.train.soft_prompt = SoftPromptSection(epochs=2)
    return cfg
