"""Exit codes of the ``tall`` command line, the parameter reports and one
end-to-end run of every approach on a tiny configuration."""

import json
import struct

import numpy as np
import pytest

from tall import cli, runner
from tall import evaluation as ev
from tall.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from tall.config import ConfigError, build_world, llm_config, load_config
from tall.models import Translator
from tall.nn import ParamStore
from tall.pipeline import TallModel, evaluate_tall
from tall.pretrain import split_train_eval
from tall.tensor import ShapeError


def _raise(exc):
    def handler(args):
        raise exc
    return handler


class TestExitCodes:
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
         "models.tall.adapter1_hidden: must be positive, got 0"),
        (["eval", "--approach", "direct", "--llm", "llm.npz",
          "--set", "world.eval_shift_alpha=2"],
         "world.eval_shift_alpha: must be in [0, 1], got 2"),
        (["pretrain", "llm", "--out", "llm.npz",
          "--set", "train.tall.epochs=0"],
         "train.tall: TrainConfig fields must be positive"),
        (["pretrain", "llm", "--out", "llm.npz",
          "--set", "models.llm.n_heads=abc"],
         "models.llm.n_heads: expected int, got 'abc'"),
        (["pretrain", "translator-lr2hr", "--out", "llm.npz",
          "--set", "world.train_pairs=1"],
         "train.translator: eval_fraction 0.02 holds out 1 of n=1 "
         "examples, leaving none to train on"),
        (["eval", "--approach", "direct", "--llm", "llm.npz",
          "--set", "world.eval_size=0"],
         "world.eval_size: must be positive, got 0"),
        (["eval", "--all", "--llm", "llm.npz", "--lr2hr", "lr2hr.npz",
          "--hr2lr", "hr2lr.npz", "--tall", "tall.npz",
          "--set", "train.soft_prompt.n_prompt=0"],
         "train.soft_prompt.n_prompt: must be positive, got 0"),
        (["eval", "--approach", "direct", "--llm", "llm.npz",
          "--set", "world.eval_seed=-1"],
         "world.eval_seed: must be >= 0, got -1"),
        (["param-report", "--preset", "toy", "--seed", "-1"],
         "--seed: must be >= 0, got -1"),
        (["eval", "--approach", "direct", "--llm", "llm.npz",
          "--eval-seed", "-2"],
         "--eval-seed: must be >= 0, got -2"),
        (["pretrain", "llm", "--out", "llm.npz",
          "--set", "train.llm.learning_rate=nan"],
         "train.llm: learning_rate and grad_clip_norm must be finite"),
        (["eval", "--approach", "direct", "--llm", "llm.npz",
          "--set", "sampler.temperature=nan"],
         "sampler: temperature must be finite and >= 0, got nan"),
    ], ids=["n_prompt", "adapter1_hidden", "eval_shift_alpha", "epochs",
            "n_heads", "train_pairs", "eval_size", "no_prompt", "eval_seed",
            "seed", "eval_seed_flag", "learning_rate_nan", "temperature_nan"])
    def test_bad_config_value_exits_before_any_work(
            self, tmp_path, monkeypatch, capsys, argv, message):
        (tmp_path / "run.yaml").write_text(TINY_RUN)
        monkeypatch.chdir(tmp_path)
        assert cli.main([*argv, "--config", "run.yaml"]) == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "llm.npz").exists()


# a grammar of four words and two-word sentences has too few sentences
SMALL_GRAMMAR = ["--set", "world.hr_vocab_size=4", "--set", "world.min_len=2",
                 "--set", "world.max_len=2"]


def test_a_corpus_the_grammar_cannot_fill_is_a_config_error(tmp_path,
                                                             capsys):
    out = tmp_path / "X"
    code = cli.main(["pretrain", "llm", *SMALL_GRAMMAR,
                     "--set", "world.train_pairs=100", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert ("config error: world.train_pairs: could not reach 100 unique "
            "sentences within 6000 draws") in capsys.readouterr().err
    assert not out.exists()


def test_an_eval_set_the_grammar_cannot_fill_names_its_size():
    cfg = load_config(None, [o for o in SMALL_GRAMMAR if o != "--set"]
                      + ["world.eval_size=100"])
    with pytest.raises(ConfigError, match="^world.eval_size: could not reach "
                                          "100 unique sentences"):
        runner.eval_dataset(cfg)


def test_param_report_check_of_the_toy_preset_is_refused_first(
        monkeypatch, capsys):
    monkeypatch.setattr(runner, "load_models",
                        lambda *args: pytest.fail("the pipeline was built"))
    code = cli.main(["param-report", "--preset", "toy", "--check"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_CONFIG and out == ""
    assert "config error: --check applies to the published presets only" in err


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


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Backbone and pipeline checkpoints of one tiny run, made in-process."""
    tmp = tmp_path_factory.mktemp("tiny_run")
    config = tmp / "run.yaml"
    config.write_text(TINY_RUN)
    ckpt = {name: str(tmp / f"{name}.npz")
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
    return common + backbones, ckpt


def test_eval_all_runs_every_approach(tiny_run, tmp_path, capsys):
    args, ckpt = tiny_run
    capsys.readouterr()
    results = tmp_path / "results.json"
    assert cli.main(["eval", "--all", *args, "--tall", ckpt["tall"],
                     "--json", str(results)]) == cli.EXIT_OK
    table = capsys.readouterr().out.splitlines()
    assert len(table) == 2 + 6
    doc = json.loads(results.read_text())
    assert doc["header"]["n_examples"] == 20
    assert [r["approach"] for r in doc["rows"]] == sorted(runner.APPROACHES)
    assert all(0.0 <= r["accuracy_percent"] <= 100.0 for r in doc["rows"])
    # each line ends in the sentinel total, then the count of each reason
    for line, row in zip(table[2:], doc["rows"]):
        counts = row["sentinels"]
        assert set(counts) <= {"special_token", "other_language",
                               "too_long", "empty_back_translation"}
        assert all(n > 0 for n in counts.values())
        assert line.split()[4:] == [str(sum(counts.values()))] + [
            f"{reason}={n}" for reason, n in sorted(counts.items())]


def test_resume_continues_from_a_pipeline_checkpoint(tiny_run, capsys):
    args, ckpt = tiny_run
    capsys.readouterr()
    assert cli.main(["train-tall", *args, "--resume", ckpt["tall"]]) == cli.EXIT_OK
    resumed, written = map(json.loads, capsys.readouterr().out.splitlines())
    start = load_checkpoint(ckpt["tall"])[1]["step"]
    assert resumed["resumed_at"] == start > 0
    assert written["step"] > start


def test_resume_with_nothing_held_out_reports_no_eval(tiny_run, capsys):
    args, ckpt = tiny_run
    capsys.readouterr()
    assert cli.main(["train-tall", *args, "--resume", ckpt["tall"],
                     "--set", "train.tall.eval_fraction=0"]) == cli.EXIT_OK
    resumed, written = map(json.loads, capsys.readouterr().out.splitlines())
    assert resumed == {"eval": None,
                       "resumed_at": load_checkpoint(ckpt["tall"])[1]["step"]}
    assert written["best_eval_loss"] is None
    assert written["best_step"] == -1


def test_resume_counts_the_best_step_from_the_checkpoint_step(
        tiny_run, tmp_path, capsys):
    """``best_step`` and ``step`` count updates from the checkpoint's
    origin.  The checkpoint resumed holds the untrained init weights, so
    an epoch beats them; their held-out score is the run's first eval
    record.  Three epochs scored on 24 held-out pairs, not the tiny run's
    one epoch on 2, put the best epoch between the first and the last."""
    args, ckpt = tiny_run
    cfg = load_config(args[1])
    meta = load_checkpoint(ckpt["tall"])[1]
    init = str(tmp_path / "init.npz")
    untrained = runner.untrained_tall(cfg, cfg.world.seed).store
    save_checkpoint(dict(untrained.trainable_items()), meta, init)
    metrics = tmp_path / "metrics.jsonl"
    capsys.readouterr()
    assert cli.main(["train-tall", *args, "--resume", init,
                     "--set", "train.tall.epochs=3",
                     "--set", "train.tall.eval_fraction=0.4",
                     "--metrics", str(metrics)]) == cli.EXIT_OK
    resumed, written = map(json.loads, capsys.readouterr().out.splitlines())
    records = [json.loads(line) for line in metrics.read_text().splitlines()]
    start = meta["step"]
    updates = sum(r["split"] == "train" for r in records)
    assert records[0] == {"step": 0, "split": "eval", **resumed["eval"]}
    assert written["best_eval_loss"] < resumed["eval"]["loss"]
    assert start < written["best_step"] <= written["step"]
    assert written["step"] == start + updates


def test_resume_translates_each_prefix_once(
        tiny_run, monkeypatch, capsys, reference_kernel):
    """The resume report scores the held-out part of the one translation
    of every training prefix."""
    args, ckpt = tiny_run
    argv = ["train-tall", *args, "--resume", ckpt["tall"]]
    cfg = load_config(args[1])
    seed = cfg.world.seed
    model = runner.load_models(cfg, seed, ckpt)[0]["tall"]
    teachers = [list(p.lr_tokens) for p in runner.train_corpus(cfg)]
    hr_lm = model.translate_prefixes([t[:-1] for t in teachers])
    _, heldout = split_train_eval(list(zip(teachers, hr_lm)),
                                  cfg.train.tall.eval_fraction, seed)
    want = evaluate_tall(model, heldout, cfg.train.tall.batch_size)

    rows = []
    translate = TallModel.translate_prefixes

    def counted(self, prefixes, *rest, **kwargs):
        rows.append(len(prefixes))
        return translate(self, prefixes, *rest, **kwargs)

    monkeypatch.setattr(TallModel, "translate_prefixes", counted)
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_OK
    resumed = capsys.readouterr().out.splitlines()[0]
    assert rows == [len(teachers)] == [60]
    assert resumed == json.dumps(
        {"resumed_at": load_checkpoint(ckpt["tall"])[1]["step"],
         "eval": want}, sort_keys=True)


def test_a_fresh_run_ends_no_worse_than_its_init(tiny_run):
    """A fresh ``train-tall`` scores the weights it starts from before the
    first update, so its best held-out loss is at most theirs.  Here the
    one epoch scores 3.3174 on the two held-out pairs and the init
    3.2572, so the init is the snapshot kept."""
    args, ckpt = tiny_run
    cfg = load_config(args[1])
    seed = cfg.world.seed
    model = runner.load_models(cfg, seed, {**ckpt, "tall": None})[0]["tall"]
    teachers = [list(p.lr_tokens) for p in runner.train_corpus(cfg)]
    hr_lm = model.translate_prefixes([t[:-1] for t in teachers])
    _, heldout = split_train_eval(list(zip(teachers, hr_lm)),
                                  cfg.train.tall.eval_fraction, seed)
    init = evaluate_tall(model, heldout, cfg.train.tall.batch_size)
    assert load_checkpoint(ckpt["tall"])[1]["best_eval_loss"] <= init["loss"]


def test_resume_reports_the_checkpoint_best_held_out_loss(tiny_run,
                                                          tmp_path, capsys):
    """With more held-out examples than one batch, the resume report
    batches them as training did, so on the shipped kernel it reproduces
    the loss the best snapshot was kept for."""
    args, _ = tiny_run
    held_out = ["--set", "train.tall.eval_fraction=0.4"]  # 24: 16, then 8
    ckpt = str(tmp_path / "tall.npz")
    assert cli.main(["train-tall", *args, *held_out, "--out", ckpt]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["train-tall", *args, *held_out,
                     "--resume", ckpt]) == cli.EXIT_OK
    resumed = json.loads(capsys.readouterr().out.splitlines()[0])
    assert resumed["eval"]["loss"] == load_checkpoint(ckpt)[1]["best_eval_loss"]


def test_run_approaches_matches_the_eval_calls(tmp_path, monkeypatch,
                                               reference_kernel):
    (tmp_path / "run.yaml").write_text(TINY_RUN)
    cfg = load_config(str(tmp_path / "run.yaml"))
    examples, dataset_hash = runner.eval_dataset(cfg)

    def tiny_models():
        return runner.load_models(cfg, 0, dict.fromkeys(runner.CHECKPOINTS))[0]

    corpora = []
    train_corpus = runner.train_corpus

    def counted_corpus(cfg):
        corpora.append(cfg)
        return train_corpus(cfg)

    monkeypatch.setattr(runner, "train_corpus", counted_corpus)
    runner.run_approaches(cfg, ["direct", "naive", "tall"], tiny_models(),
                          examples, dataset_hash, 0)
    assert len(corpora) == 0  # no approach trains
    _, details = runner.run_approaches(cfg, sorted(runner.APPROACHES),
                                       tiny_models(), examples, dataset_hash,
                                       0)
    assert len(corpora) == 1  # built once for the three that train

    m = tiny_models()
    world = build_world(cfg)
    sampler = cfg.sampler.to_sampler(0)
    corpus_lr = [list(p.lr_tokens) for p in train_corpus(cfg)]
    tuned, _, _ = ev.finetune_llm(m["llm"], world, corpus_lr,
                                  cfg.train.finetune.to_train_config(0))
    scratch, _, _ = ev.from_scratch_llm(
        world, corpus_lr, llm_config(cfg),
        cfg.train.from_scratch.to_train_config(0))
    sp_cfg = cfg.train.soft_prompt
    prompt, _ = ev.train_soft_prompt(m["llm"], world, corpus_lr,
                                     sp_cfg.to_train_config(0),
                                     n_prompt=sp_cfg.n_prompt)
    assert details["records"] == {
        "direct": ev.eval_direct(m["llm"], world, examples, sampler),
        "finetuned": ev.eval_direct(tuned, world, examples, sampler,
                                    approach="finetuned"),
        "from_scratch": ev.eval_direct(scratch, world, examples, sampler,
                                       approach="from_scratch"),
        "naive": ev.eval_naive(m["lr2hr"], m["llm"], m["hr2lr"], world,
                               examples, sampler),
        "soft_prompt": ev.eval_soft_prompt(m["llm"], prompt, world, examples,
                                           sampler),
        "tall": ev.eval_tall(m["tall"], examples, sampler),
    }


def test_missing_checkpoint_flags_are_named_before_any_work(tmp_path,
                                                            capsys):
    (tmp_path / "run.yaml").write_text(TINY_RUN)
    code = cli.main(["eval", "--approach", "naive",
                     "--config", str(tmp_path / "run.yaml"),
                     "--llm", str(tmp_path / "llm.npz")])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: approaches ['naive'] need "
                            "--hr2lr, --lr2hr\n")
    assert captured.out == ""


@pytest.mark.parametrize("approach, built", [("direct", 0), ("naive", 2)])
def test_eval_builds_only_the_models_its_approach_reads(
        tiny_run, monkeypatch, approach, built):
    """Every checkpoint flag is given; ``direct`` reads the LM alone, so
    no translator is built."""
    args, _ = tiny_run
    calls = []
    init = Translator.init.__func__

    def spy(cls, *rest):
        calls.append(rest)
        return init(cls, *rest)

    monkeypatch.setattr(Translator, "init", classmethod(spy))
    assert cli.main(["eval", "--approach", approach, *args]) == cli.EXIT_OK
    assert len(calls) == built


def test_the_pipeline_is_assembled_on_the_loaded_backbones(
        tiny_run, monkeypatch):
    """The frozen entries of the pipeline ``eval --approach tall`` runs
    hold the backbone files' bytes, not a random init's."""
    args, ckpt = tiny_run
    seen = {}
    run = runner.run_approaches

    def capture(cfg, approaches, models, *rest, **kwargs):
        seen.update(models)
        return run(cfg, approaches, models, *rest, **kwargs)

    monkeypatch.setattr(runner, "run_approaches", capture)
    assert cli.main(["eval", "--approach", "tall", *args,
                     "--tall", ckpt["tall"]]) == cli.EXIT_OK
    store = seen["tall"].store
    cfg = load_config(args[1])
    fresh = runner.untrained_tall(cfg, cfg.world.seed).store
    files = {flag: load_checkpoint(ckpt[flag])[0]
             for flag in ("lr2hr", "hr2lr", "llm")}
    want = {**{n: t for n, t in files["lr2hr"].items()
               if n.startswith("encoder.")},
            **{f"llm.{n}": t for n, t in files["llm"].items()},
            **{n: t for n, t in files["hr2lr"].items()
               if n.startswith("decoder.")}}
    frozen = {n: t for n, t in store.items()
              if n.split(".", 1)[0] in ("encoder", "llm", "decoder")}
    assert sorted(frozen) == sorted(want)
    owner = {"encoder": "lr2hr", "llm": "llm", "decoder": "hr2lr"}
    for name, t in frozen.items():
        assert t.data.tobytes() == want[name].data.tobytes()
        assert t.data.tobytes() != fresh[name].data.tobytes()
        backbone = seen[owner[name.split(".", 1)[0]]].store
        assert np.shares_memory(t.data,
                                backbone[name.removeprefix("llm.")].data)


def test_eval_help_lists_each_approach_and_its_checkpoint_flags(capsys):
    with pytest.raises(SystemExit):
        cli.main(["eval", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for approach in runner.APPROACHES.values():
        flags = " ".join(f"--{f}" for f in approach.checkpoints)
        assert f"{approach.cli_name} {flags}" in text


def _adapter1_only(ckpt, tmp_path):
    store, meta = load_checkpoint(ckpt["tall"])
    part = ParamStore()
    for name, t in store.items():
        if name.startswith("adapter1."):
            part.add(name, t.data)
    path = tmp_path / "adapter1.npz"
    save_checkpoint(part, meta, path)
    return path


def _tall_argv(command, args, path):
    return (["eval", "--approach", "tall", *args, "--tall", str(path)]
            if command == "eval"
            else ["train-tall", *args, "--resume", str(path)])


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("checkpoint, message", [
    ("adapter1_only", "entry 'bridge1.pos' is missing"),
    ("llm", "entry 'tok_embed' is not a trainable pipeline part"),
], ids=["adapter1_only", "llm"])
def test_tall_checkpoint_must_hold_exactly_the_trainable_parts(
        tiny_run, tmp_path, capsys, command, checkpoint, message):
    args, ckpt = tiny_run
    path = (_adapter1_only(ckpt, tmp_path) if checkpoint == "adapter1_only"
            else ckpt["llm"])
    capsys.readouterr()
    assert cli.main(_tall_argv(command, args, path)) == cli.EXIT_CHECKPOINT
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eval", "resume"])
@pytest.mark.parametrize("step", ["x", None, -1, 2.5, True, "absent"])
def test_tall_checkpoint_step_must_be_an_update_count(
        tiny_run, tmp_path, capsys, command, step):
    """``step``, the update count resumed from, is an int >= 0; a bool is
    not one."""
    args, ckpt = tiny_run
    store, meta = load_checkpoint(ckpt["tall"])
    meta = {k: v for k, v in meta.items() if k != "step"}
    if step != "absent":
        meta["step"] = step
    path = tmp_path / "bad_step.npz"
    save_checkpoint(store, meta, path)
    capsys.readouterr()
    assert cli.main(_tall_argv(command, args, path)) == cli.EXIT_CHECKPOINT
    captured = capsys.readouterr()
    assert ("checkpoint error: trainable stages 2, 3, 5 and 6: "
            f"{path}: checkpoint step is") in captured.err
    assert captured.out == ""


def test_dry_run_checks_every_stage(tiny_run, capsys):
    args, _ = tiny_run
    capsys.readouterr()
    assert cli.main(["train-tall", *args, "--dry-run"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    vocab_lr = build_world(load_config(args[1])).vocab_lr
    assert report["logit_shape"] == [4, vocab_lr]


@pytest.mark.parametrize("command, swap, message", [
    ("eval", {"lr2hr": "hr2lr", "hr2lr": "lr2hr"},
     "stage 1 encoder backbone: {hr2lr}: checkpoint kind is "
     "'translator-hr2lr', expected 'translator-lr2hr'"),
    ("eval", {"lr2hr": "llm"},
     "stage 1 encoder backbone: {llm}: entry 'tok_embed' is not a "
     "translator-lr2hr part"),
    ("dry-run", {"lr2hr": "llm"},
     "stage 1 encoder backbone: {llm}: entry 'tok_embed' is not a "
     "translator-lr2hr part"),
    ("eval", {"llm": "lr2hr"},
     "stage 4 language-model backbone: {lr2hr}: entry 'encoder.src_embed' "
     "is not a causal-lm part"),
], ids=["swapped_translators", "llm_as_lr2hr", "llm_as_lr2hr_dry_run",
        "translator_as_llm"])
def test_backbone_checkpoint_must_be_of_its_stage_kind(
        tiny_run, capsys, command, swap, message):
    args, ckpt = tiny_run
    config = args[:2]  # --config <file>, then the backbone flags
    backbones = [arg for flag in ("lr2hr", "hr2lr", "llm")
                 for arg in (f"--{flag}", ckpt[swap.get(flag, flag)])]
    argv = (["eval", "--approach", "naive", *config, *backbones]
            if command == "eval"
            else ["train-tall", *config, *backbones, "--dry-run"])
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CHECKPOINT
    captured = capsys.readouterr()
    assert f"checkpoint error: {message.format(**ckpt)}" in captured.err
    assert captured.out == ""


def test_a_malformed_checkpoint_exits_with_the_checkpoint_code(
        tmp_path, monkeypatch, capsys):
    """A file whose metadata is a JSON list, not an object."""
    (tmp_path / "run.yaml").write_text(TINY_RUN)
    (tmp_path / "llm.npz").write_bytes(
        MAGIC + struct.pack("<II", VERSION, 2) + b"[]" + struct.pack("<I", 0))
    monkeypatch.chdir(tmp_path)
    code = cli.main(["eval", "--approach", "direct", "--llm", "llm.npz",
                     "--config", "run.yaml"])
    assert code == cli.EXIT_CHECKPOINT
    captured = capsys.readouterr()
    assert ("checkpoint error: stage 4 language-model backbone: llm.npz: "
            "metadata is a JSON list, not an object") in captured.err
    assert captured.out == ""


def test_output_directory_must_exist_before_training(tmp_path, capsys):
    (tmp_path / "run.yaml").write_text(TINY_RUN)
    code = cli.main(["pretrain", "llm", "--config", str(tmp_path / "run.yaml"),
                     "--out", str(tmp_path / "llm.npz"),
                     "--metrics", str(tmp_path / "missing" / "m.jsonl")])
    assert code == cli.EXIT_CONFIG
    assert "config error: --metrics: directory" in capsys.readouterr().err
    assert not (tmp_path / "llm.npz").exists()


def test_output_directory_must_exist_before_eval(tiny_run, tmp_path, capsys):
    args, _ = tiny_run
    capsys.readouterr()
    code = cli.main(["eval", "--approach", "direct", *args,
                     "--json", str(tmp_path / "missing" / "r.json")])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error: --json: directory" in captured.err
    assert captured.out == ""
