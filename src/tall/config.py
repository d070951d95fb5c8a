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
from functools import partial
from pathlib import Path

import yaml

from .evaluation import SamplerConfig
from .models import CausalLMConfig, Seq2SeqConfig
from .pipeline import TallConfig
from .pretrain import TrainConfig, held_out_count
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
class ModelsSection:
    translator: TranslatorSection = field(default_factory=TranslatorSection)
    llm: LlmSection = field(default_factory=LlmSection)
    tall: TallConfig = field(default_factory=TallConfig)


@dataclass
class ScheduleSection:
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    epochs: int = 3
    batch_size: int = 32
    grad_clip_norm: float = 1.0
    grad_accum_steps: int = 1
    warmup_steps: int = 0

    def _train_config(self, seed: int, eval_fraction: float) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate, weight_decay=self.weight_decay,
            epochs=self.epochs, batch_size=self.batch_size,
            grad_clip_norm=self.grad_clip_norm,
            grad_accum_steps=self.grad_accum_steps,
            warmup_steps=self.warmup_steps, seed=seed,
            eval_fraction=eval_fraction)


@dataclass
class TrainSection(ScheduleSection):
    eval_fraction: float = 0.02

    def to_train_config(self, seed: int) -> TrainConfig:
        return self._train_config(seed, self.eval_fraction)


@dataclass
class SoftPromptSection(ScheduleSection):
    # values follow the published soft-prompt recipe
    learning_rate: float = 5e-4
    warmup_steps: int = 100
    epochs: int = 2
    n_prompt: int = 30

    def to_train_config(self, seed: int) -> TrainConfig:
        # the soft prompt holds nothing out: it trains on every sentence
        return self._train_config(seed, eval_fraction=0.0)


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

    def to_sampler(self, seed: int) -> SamplerConfig:
        return SamplerConfig(self.temperature, self.top_k, self.top_p, seed)


@dataclass
class RunConfig:
    world: WorldSection = field(default_factory=WorldSection)
    models: ModelsSection = field(default_factory=ModelsSection)
    train: TrainingSection = field(default_factory=TrainingSection)
    sampler: SamplerSection = field(default_factory=SamplerSection)


def _from_dict(default, data, path: str):
    """``default``, a section instance, with the keys ``data`` names
    replaced; a named nested section starts from ``default``'s own value
    of it, so every default is written once, in the section tree.  The
    keys are ``default``'s fields, and a key's kind is the type of its
    default value (every scalar default has its annotated type)."""
    if data is None:
        return default
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or '<root>'} must be a mapping")
    names = {f.name for f in dataclasses.fields(default)}
    kwargs = {}
    for name, value in data.items():
        where = f"{path}.{name}" if path else name
        if name not in names:
            raise ConfigError(f"unknown config key: {where}")
        current = getattr(default, name)
        kwargs[name] = (_from_dict(current, value, where)
                        if dataclasses.is_dataclass(current)
                        else _scalar(type(current), value, where))
    return dataclasses.replace(default, **kwargs)


def _scalar(kind: type, value, where: str):
    """``value`` checked against its field's type; YAML reads ``1e-3`` as a
    string, so a float field also takes a string that ``float()`` parses."""
    if kind is float and isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, bool) == (kind is bool) and isinstance(
            value, (int, float) if kind is float else kind):
        # an int given to a float field is stored, and hashed, as the float
        return float(value) if kind is float else value
    raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")


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
    cfg = _from_dict(RunConfig(), data, "")
    alpha = cfg.world.eval_shift_alpha
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(
            f"world.eval_shift_alpha: must be in [0, 1], got {alpha:g}")
    _check_heads(cfg)
    _check_lengths(cfg)
    # the builders name their section for the values they check themselves
    _check_builders(cfg)
    _check_sizes(cfg)
    return cfg


def _check_heads(cfg: RunConfig) -> None:
    """Every attention stack splits its width evenly across its heads."""
    m = cfg.models
    # the bridges run at the LM width and the decoder (translator) width
    for key, d_model, n_heads in (
            ("models.translator", m.translator.d_model, m.translator.n_heads),
            ("models.llm", m.llm.d_model, m.llm.n_heads),
            ("models.tall.bridge1", m.llm.d_model, m.tall.bridge1.n_heads),
            ("models.tall.bridge2", m.translator.d_model,
             m.tall.bridge2.n_heads)):
        if n_heads < 1 or d_model % n_heads:
            raise ConfigError(f"{key}.n_heads: {n_heads} does not divide "
                              f"d_model {d_model}")


def _check_sizes(section, path: str = "") -> None:
    """Every ``int`` field of the tree under ``section`` is at least 1,
    except a seed or a warmup step count, which may be 0.  A field's kind
    is the type of its default."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        where = f"{path}.{f.name}" if path else f.name
        if dataclasses.is_dataclass(value):
            _check_sizes(value, where)
        elif type(f.default) is int:
            if f.name.endswith(("seed", "warmup_steps")):
                if value < 0:
                    raise ConfigError(f"{where}: must be >= 0, got {value}")
            elif value < 1:
                raise ConfigError(f"{where}: must be positive, got {value}")


def _check_lengths(cfg: RunConfig) -> None:
    """Every position table holds the longest sequence its stack sees."""
    w, m = cfg.world.max_len, cfg.models
    # stages 3, 4 and 6 hold llm.max_len positions and see BOS plus a
    # greedy translation of up to translator.max_len - 1 tokens
    for key, have, need, what in (
            ("models.translator.max_len", m.translator.max_len, w + 1,
             "world.max_len + 1"),
            ("models.llm.max_len", m.llm.max_len, w + 1, "world.max_len + 1"),
            ("models.llm.max_len", m.llm.max_len, m.translator.max_len,
             "models.translator.max_len"),
            ("models.llm.max_len", m.llm.max_len,
             cfg.train.soft_prompt.n_prompt + w,
             "train.soft_prompt.n_prompt + world.max_len")):
        if have < need:
            raise ConfigError(f"{key}: {have} positions cannot hold "
                              f"{what} = {need}")


def _check_builders(cfg: RunConfig) -> None:
    """Build every derived config and held-out split once, at load time."""
    builds = [("world", partial(build_world, cfg)),
              ("world", partial(build_grammar, cfg)),
              ("sampler", partial(cfg.sampler.to_sampler, 0))]
    builds += [(f"train.{f.name}",
                partial(_held_out, getattr(cfg.train, f.name),
                        cfg.world.train_pairs))
               for f in dataclasses.fields(cfg.train)]
    for key, build in builds:
        try:
            build()
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc


def _held_out(section, n: int) -> int:
    """How many of ``n`` training pairs the section's schedule holds out."""
    return held_out_count(section.to_train_config(0).eval_fraction, n)


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
    world = build_world(cfg)
    src, tgt = ((world.vocab_lr, world.vocab_hr) if direction == "lr2hr"
                else (world.vocab_hr, world.vocab_lr))
    return Seq2SeqConfig(src, tgt, **dataclasses.asdict(cfg.models.translator))


def llm_config(cfg: RunConfig) -> CausalLMConfig:
    return CausalLMConfig(build_world(cfg).vocab_lm,
                          **dataclasses.asdict(cfg.models.llm))


def tall_config(cfg: RunConfig) -> TallConfig:
    return cfg.models.tall


def benchmark_config(seed: int = 0) -> RunConfig:
    """The standard toy benchmark: sized to finish a full seed quickly.

    The world seed doubles as the benchmark seed so each benchmark seed
    gets its own language world, corpus, and initializations.
    """
    return load_config(None, [f"world.seed={seed}", "world.train_pairs=6000",
                              f"world.eval_seed={9000 + seed}",
                              "train.translator.epochs=3"])
