"""Strict configuration loading: unknown keys and bad values name their
dotted path."""

import re

import pytest

from tall.config import ConfigError, load_config


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


@pytest.mark.parametrize("override, section", [
    ("models.tall.adapter1_hidden=0", "models"),
    ("world.cipher=rot13", "world"),
    ("world.min_len=20", "world"),
    ("world.branching=0", "world"),
    ("world.n_classes=0", "world"),
    ("train.tall.epochs=0", "train.tall"),
    ("train.soft_prompt.eval_fraction=1.5", "train.soft_prompt"),
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
    "models.tall.bridge1.d_ff=-3", "models.tall.bridge2.n_layers=0",
    "models.llm.d_ff=0", "models.llm.n_layers=-1",
    "models.translator.d_ff=0", "models.translator.enc_layers=0",
    "models.translator.dec_layers=0"])
def test_feed_forward_widths_and_layer_counts_must_be_positive(override):
    key, value = override.split("=")
    with pytest.raises(ConfigError,
                       match=rf"^{re.escape(key)}: must be positive, got {value}$"):
        load_config(None, [override])
