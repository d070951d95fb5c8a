"""Exit codes of the ``tall`` command line, the parameter reports and one
end-to-end run of every approach on a tiny configuration."""

import json

import pytest

from tall import cli
from tall.pipeline import StageDimensionError
from tall.tensor import ShapeError


def _raise(exc):
    def handler(args):
        raise exc
    return handler


class TestExitCodes:
    def test_stage_mismatch_is_a_checkpoint_error_naming_the_stage(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_param_report", _raise(
            StageDimensionError(4, "loaded LM width 48 != config 96")))
        assert cli.main(["param-report", "--preset", "toy"]) == cli.EXIT_CHECKPOINT
        err = capsys.readouterr().err
        assert "checkpoint/config mismatch" in err
        assert "stage 4" in err

    def test_other_shape_error_has_its_own_code_and_message(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_param_report", _raise(ShapeError(
            "sequence length 40 exceeds encoder.pos table (32 positions)")))
        assert cli.main(["param-report", "--preset", "toy"]) == cli.EXIT_SHAPE
        err = capsys.readouterr().err
        assert "shape error: sequence length 40" in err
        assert "checkpoint" not in err

    def test_heads_not_dividing_the_width_is_a_config_error(
            self, tmp_path, capsys):
        code = cli.main(["pretrain", "llm", "--set", "models.llm.n_heads=5",
                         "--out", str(tmp_path / "llm.npz")])
        assert code == cli.EXIT_CONFIG
        assert "config error: models.llm.n_heads" in capsys.readouterr().err
        assert not (tmp_path / "llm.npz").exists()

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--approach", "soft-prompt", "--llm", "llm.npz",
          "--set", "train.soft_prompt.n_prompt=30"],
         "models.llm.max_len: 24 positions cannot hold "
         "train.soft_prompt.n_prompt + world.max_len = 37"),
        (["param-report", "--preset", "toy",
          "--set", "models.tall.adapter1_hidden=0"],
         "models: adapter dims must be positive"),
        (["pretrain", "llm", "--out", "llm.npz",
          "--set", "train.tall.epochs=0"],
         "train.tall: TrainConfig fields must be positive"),
        (["pretrain", "llm", "--out", "llm.npz",
          "--set", "models.llm.n_heads=abc"],
         "models.llm.n_heads: expected int, got 'abc'"),
    ], ids=["n_prompt", "adapter1_hidden", "epochs", "n_heads"])
    def test_bad_config_value_exits_before_any_work(
            self, tmp_path, monkeypatch, capsys, argv, message):
        (tmp_path / "run.yaml").write_text(TINY_RUN)
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "--config", "run.yaml"]) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "llm.npz").exists()


@pytest.mark.parametrize("preset", ["bloomz", "qwen"])
def test_param_report_check_reproduces_published_numbers(preset, capsys):
    assert cli.main(["param-report", "--preset", preset, "--check"]) == cli.EXIT_OK
    assert "all published numbers reproduced exactly" in capsys.readouterr().out


TINY_RUN = """\
world: {hr_vocab_size: 16, min_len: 4, max_len: 7, train_pairs: 60,
        eval_size: 20}
models:
  translator: {d_model: 16, n_heads: 2, d_ff: 32, enc_layers: 1,
               dec_layers: 1, max_len: 16}
  llm: {d_model: 16, n_heads: 2, d_ff: 32, n_layers: 1, max_len: 24}
  tall:
    adapter1_hidden: 16
    adapter2_hidden: 16
    bridge1: {n_layers: 1, n_heads: 2, d_ff: 32}
    bridge2: {n_layers: 1, n_heads: 2, d_ff: 32}
train:
  translator: {epochs: 1, batch_size: 16}
  llm: {epochs: 1, batch_size: 16, grad_accum_steps: 1}
  tall: {epochs: 1, batch_size: 16}
  soft_prompt: {epochs: 1, batch_size: 16, warmup_steps: 0, n_prompt: 4}
  finetune: {epochs: 1, batch_size: 16}
  from_scratch: {epochs: 1, batch_size: 16, grad_accum_steps: 1}
"""


def test_eval_all_runs_every_approach(tmp_path, capsys):
    config = tmp_path / "run.yaml"
    config.write_text(TINY_RUN)
    ckpt = {name: str(tmp_path / f"{name}.npz")
            for name in ("lr2hr", "hr2lr", "llm", "tall")}
    common = ["--config", str(config)]
    for component, name in (("translator-lr2hr", "lr2hr"),
                            ("translator-hr2lr", "hr2lr"), ("llm", "llm")):
        assert cli.main(["pretrain", component, *common,
                         "--out", ckpt[name]]) == cli.EXIT_OK
    backbones = ["--lr2hr", ckpt["lr2hr"], "--hr2lr", ckpt["hr2lr"],
                 "--llm", ckpt["llm"]]
    assert cli.main(["train-tall", *common, *backbones,
                     "--out", ckpt["tall"]]) == cli.EXIT_OK
    capsys.readouterr()
    results = tmp_path / "results.json"
    assert cli.main(["eval", "--all", *common, *backbones,
                     "--tall", ckpt["tall"], "--json", str(results)]) == cli.EXIT_OK
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 2 + 6
    doc = json.loads(results.read_text())
    assert doc["header"]["n_examples"] == 20
    assert sorted(r["approach"] for r in doc["rows"]) == sorted(
        cli.CLI_APPROACHES.values())
    assert all(0.0 <= r["accuracy_percent"] <= 100.0 for r in doc["rows"])
