"""Strict configuration loading: unknown keys name their dotted path."""

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
