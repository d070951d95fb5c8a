"""Strict configuration loading: unknown keys and bad values name their
dotted path."""

import dataclasses
import operator
import re
import typing

import pytest
from conftest import reference_benchmark_config

from tall import config, runner
from tall.config import (ConfigError, benchmark_config, compat_hash,
                         config_hash, load_config)


def test_removed_models_dtype_key_is_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("models:\n  dtype: f64\n")
    with pytest.raises(ConfigError, match=r"unknown config key: models\.dtype$"):
        load_config(path)


def test_unknown_override_names_its_path():
    with pytest.raises(ConfigError, match=r"unknown config key: train\.tall\.lr$"):
        load_config(None, ["train.tall.lr=0.1"])


@pytest.mark.parametrize("text, where", [
    ("paths:\n  out_dir: runs\n", "paths"),
    ("sampler:\n  seed: 3\n", "sampler.seed"),
    ("train:\n  soft_prompt:\n    eval_fraction: 0.1\n",
     "train.soft_prompt.eval_fraction"),
])
def test_removed_unread_keys_are_rejected(tmp_path, text, where):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError,
                       match=rf"unknown config key: {re.escape(where)}$"):
        load_config(path)


@pytest.mark.parametrize("section", [
    "models.translator", "models.llm", "models.tall.bridge1",
    "models.tall.bridge2"])
def test_heads_must_divide_the_width(section):
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.n_heads: "):
        load_config(None, [f"{section}.n_heads=5"])


@pytest.mark.parametrize("override, message", [
    ("models.llm.n_heads=abc", "models.llm.n_heads: expected int, got 'abc'"),
    ("world.seed=true", "world.seed: expected int, got True"),
    ("world.pair_swap=1", "world.pair_swap: expected bool, got 1"),
    ("world.cipher=3", "world.cipher: expected str, got 3"),
    ("train.tall.learning_rate=fast",
     "train.tall.learning_rate: expected float, got 'fast'"),
])
def test_scalar_values_are_checked_against_their_field_type(override, message):
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        load_config(None, [override])


def test_float_field_takes_the_string_yaml_reads_for_an_exponent():
    cfg = load_config(None, ["train.tall.learning_rate=1e-3"])
    assert cfg.train.tall.learning_rate == 1e-3
    assert isinstance(cfg.train.tall.learning_rate, float)


@pytest.mark.parametrize("override, text", [
    ("world.eval_shift_alpha=0", "world: {eval_shift_alpha: 0}"),
    ("train.llm.weight_decay=0", "train: {llm: {weight_decay: 0}}"),
    ("sampler.top_p=1", "sampler: {top_p: 1}")])
def test_a_float_key_given_an_int_hashes_as_the_float(override, text,
                                                      tmp_path):
    """``--set`` and YAML both read the int; the field stores the float,
    so the config hashes as the float's spelling does."""
    key, value = override.split("=")
    as_float = load_config(None, [f"{key}={float(value)}"])
    path = tmp_path / "run.yaml"
    path.write_text(text)
    for cfg in (load_config(None, [override]), load_config(path)):
        assert type(operator.attrgetter(key)(cfg)) is float
        assert (config_hash(cfg), compat_hash(cfg)) == (
            config_hash(as_float), compat_hash(as_float))


@pytest.mark.parametrize("override, section", [
    ("world.cipher=rot13", "world"),
    ("world.min_len=20", "world"),
    ("world.branching=0", "world"),
    ("world.n_classes=0", "world"),
    ("train.tall.epochs=0", "train.tall"),
    ("train.soft_prompt.batch_size=0", "train.soft_prompt"),
    ("sampler.top_p=0", "sampler"),
])
def test_derived_configs_are_built_at_load_time(override, section):
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: "):
        load_config(None, [override])


@pytest.mark.parametrize("overrides, message", [
    (["models.translator.max_len=12"],
     "models.translator.max_len: 12 positions cannot hold world.max_len + 1 = 13"),
    (["models.llm.max_len=12", "models.translator.max_len=13"],
     "models.llm.max_len: 12 positions cannot hold world.max_len + 1 = 13"),
    (["models.llm.max_len=31"],
     "models.llm.max_len: 31 positions cannot hold "
     "models.translator.max_len = 32"),
    (["train.soft_prompt.n_prompt=53"],
     "models.llm.max_len: 64 positions cannot hold "
     "train.soft_prompt.n_prompt + world.max_len = 65"),
])
def test_position_tables_must_hold_their_longest_sequence(overrides, message):
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        load_config(None, overrides)


def test_position_tables_exactly_at_their_limits_load():
    load_config(None, ["models.llm.max_len=42", "train.soft_prompt.n_prompt=30",
                       "models.translator.max_len=13"])


@pytest.mark.parametrize("override", [
    "models.tall.adapter1_hidden=0", "models.tall.adapter2_hidden=-2",
    "models.tall.bridge1.d_ff=-3", "models.tall.bridge2.n_layers=0",
    "models.llm.d_ff=0", "models.llm.n_layers=-1",
    "models.translator.d_ff=0", "models.translator.enc_layers=0",
    "models.translator.dec_layers=0"])
def test_feed_forward_widths_and_layer_counts_must_be_positive(override):
    key, value = override.split("=")
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(key)}: must be positive, got {value}$"):
        load_config(None, [override])


@pytest.mark.parametrize("value", ["0", "-2"])
def test_soft_prompt_needs_at_least_one_position(value):
    message = f"train.soft_prompt.n_prompt: must be positive, got {value}"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        load_config(None, [f"train.soft_prompt.n_prompt={value}"])


@pytest.mark.parametrize("value", ["2", "-0.5"])
def test_eval_shift_alpha_must_be_a_fraction(value):
    message = f"world.eval_shift_alpha: must be in [0, 1], got {value}"
    with pytest.raises(ConfigError, match=rf"^{re.escape(message)}$"):
        load_config(None, [f"world.eval_shift_alpha={value}"])


def _train_overrides() -> list[str]:
    """``train.<section>.<key>=<default>`` for every training key."""
    train = load_config(None, []).train
    return [f"train.{s.name}.{f.name}={getattr(getattr(train, s.name), f.name)}"
            for s in dataclasses.fields(train)
            for f in dataclasses.fields(getattr(train, s.name))]


@pytest.mark.parametrize("override", _train_overrides())
def test_naming_a_training_key_at_its_default_changes_nothing(override):
    assert load_config(None, [override]) == load_config(None, [])


def _sections(node, path: str = ""):
    """Every section of the tree under ``node``, with its dotted path."""
    yield path, node
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if dataclasses.is_dataclass(value):
            yield from _sections(value, f"{path}.{f.name}".lstrip("."))


def test_every_default_has_its_annotated_type():
    # the loader checks a key's value against the type of its default
    wrong = [f"{path}.{f.name}".lstrip(".")
             for path, section in _sections(load_config(None, []))
             for f in dataclasses.fields(section)
             if type(getattr(section, f.name))
             is not typing.get_type_hints(type(section))[f.name]]
    assert wrong == []


INT_KEYS = [f"{path}.{f.name}".lstrip(".")
            for path, section in _sections(load_config(None, []))
            for f in dataclasses.fields(section)
            if type(getattr(section, f.name)) is int]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("key", INT_KEYS)
def test_every_int_key_is_refused_at_load_or_builds(key, value):
    """``load_config`` refuses every size below 1 and every seed or warmup
    step count below 0; what it loads, the pipeline builds from."""
    try:
        cfg = load_config(None, [f"{key}={value}"])
    except ConfigError:
        return
    assert value == 0 and key.endswith(("seed", "warmup_steps"))
    runner.untrained_tall(cfg, cfg.world.seed)


FLOAT_KEYS = [f"{path}.{f.name}".lstrip(".")
              for path, section in _sections(load_config(None, []))
              for f in dataclasses.fields(section)
              if type(getattr(section, f.name)) is float]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_every_float_key_refuses_what_cannot_train(key, value):
    """No float key takes a NaN, an infinity or a negative value: each
    is a rate, a norm, a fraction or a temperature, and such a value
    would stop training as a numerical error or silently sample id 0."""
    assert len(FLOAT_KEYS) == 26
    with pytest.raises(ConfigError, match=key.rsplit(".", 1)[0]):
        load_config(None, [f"{key}={value}"])


@pytest.mark.parametrize("name", [
    f.name for f in dataclasses.fields(load_config(None, []).train)])
def test_a_train_section_passes_its_whole_schedule(name):
    section = getattr(load_config(None, []).train, name)
    want = {k: v for k, v in dataclasses.asdict(section).items()
            if k != "n_prompt"}
    # the soft prompt holds nothing out, and has no eval_fraction key
    want = {"eval_fraction": 0.0, **want, "seed": 7}
    assert dataclasses.asdict(section.to_train_config(7)) == want


def test_a_named_section_keeps_its_other_defaults(tmp_path):
    cfg = load_config(None, ["train.finetune.epochs=2"])
    assert (cfg.train.finetune.learning_rate, cfg.train.finetune.batch_size,
            cfg.train.finetune.epochs) == (2e-5, 16, 2)
    path = tmp_path / "run.yaml"
    path.write_text("train:\n  llm: {epochs: 1}\nmodels:\n  tall:\n"
                    "    bridge1: {n_layers: 3}\n")
    cfg = load_config(path)
    assert (cfg.train.llm.batch_size, cfg.train.llm.grad_accum_steps) == (8, 8)
    assert cfg.models.tall.bridge1.n_layers == 3
    assert cfg.models.tall.bridge1.d_ff == 128


def test_default_config_hashes_are_pinned():
    cfg = load_config(None, [])
    assert (config_hash(cfg), compat_hash(cfg)) == ("5d0ffd3dce153916",
                                                    "eb631ed1b1b74610")


@pytest.mark.parametrize("seed", range(12))
def test_benchmark_config_equals_the_hand_built_one(seed):
    assert benchmark_config(seed) == reference_benchmark_config(seed)


def test_benchmark_config_hashes_are_pinned():
    assert [config_hash(benchmark_config(s)) for s in (0, 3)] == [
        "d52aa9b36bf43985", "232250fb74f5f868"]


def test_benchmark_config_passes_the_load_time_checks(monkeypatch):
    checked = []
    monkeypatch.setattr(config, "_check_builders", checked.append)
    cfg = benchmark_config(4)
    assert checked == [cfg]
