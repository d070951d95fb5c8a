"""Strict configuration loading: unknown keys name their dotted path."""

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
