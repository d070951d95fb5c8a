"""Operator command line: pretraining, pipeline training, eval, reports.

Exit codes: 0 success, 2 configuration problem, 3 checkpoint problem
(unreadable, built for another config, or not holding exactly the
entries the model expects), 4 numerical failure during training, 5 a
shape the models cannot take (such as a sequence longer than a position
table).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import runner
from .checkpoint import CheckpointError, save_checkpoint
from .config import ConfigError, config_hash, load_config
from .params_report import check_report, format_report, param_report
from .pipeline import evaluate_tall, train_tall
from .pretrain import split_train_eval
from .tensor import NumericalError, ShapeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_NUMERICAL = 4
EXIT_SHAPE = 5

CLI_APPROACHES = {
    "direct": "direct",
    "naive": "naive",
    "soft-prompt": "soft_prompt",
    "finetune": "finetuned",
    "scratch": "from_scratch",
    "tall": "tall",
}


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML run configuration")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config entry (repeatable; wins "
                             "over the file)")
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed (defaults to world.seed)")


def _load(args) -> tuple:
    cfg = load_config(args.config, args.overrides)
    seed = cfg.world.seed if args.seed is None else args.seed
    return cfg, seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tall",
        description="toy frozen-backbone cross-lingual pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a frozen stand-in component")
    p.add_argument("component",
                   choices=["translator-lr2hr", "translator-hr2lr", "llm"])
    _add_config_args(p)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="metrics JSONL output path")

    p = sub.add_parser("train-tall", help="train the adapter/bridge parts")
    _add_config_args(p)
    p.add_argument("--lr2hr", required=True, help="LR->HR translator checkpoint")
    p.add_argument("--hr2lr", required=True, help="HR->LR translator checkpoint")
    p.add_argument("--llm", required=True, help="language model checkpoint")
    p.add_argument("--out", help="best-checkpoint output path")
    p.add_argument("--metrics", help="metrics JSONL output path")
    p.add_argument("--resume", help="trainable-parts checkpoint to resume from")
    p.add_argument("--dry-run", action="store_true",
                   help="validate shapes across all seven stages and exit")

    p = sub.add_parser("eval", help="evaluate approaches on the shared task")
    _add_config_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--approach", choices=sorted(CLI_APPROACHES))
    group.add_argument("--all", action="store_true",
                       help="run every approach on the shared dataset")
    p.add_argument("--lr2hr")
    p.add_argument("--hr2lr")
    p.add_argument("--llm")
    p.add_argument("--tall", help="trained pipeline checkpoint")
    p.add_argument("--eval-seed", type=int, default=None,
                   help="evaluation dataset seed (defaults to world.eval_seed)")
    p.add_argument("--json", help="write machine-readable results here")

    p = sub.add_parser("param-report", help="parameter accounting tables")
    p.add_argument("--preset", required=True)
    p.add_argument("--check", action="store_true",
                   help="exit nonzero unless the published numbers reproduce")
    _add_config_args(p)
    return parser


def cmd_pretrain(args) -> int:
    cfg, seed = _load(args)
    if args.component == "llm":
        model, meta, metrics = runner.pretrain_llm(cfg, seed)
    else:
        direction = args.component.split("-")[1]
        model, meta, metrics = runner.pretrain_translator(cfg, direction, seed)
    save_checkpoint(model.store, meta, args.out)
    if args.metrics:
        runner.write_metrics(metrics, args.metrics)
    summary = {k: v for k, v in meta.items() if k != "config"}
    print(json.dumps({"written": str(args.out), **summary}, sort_keys=True))
    return EXIT_OK


def _assemble_from_args(cfg, seed, args):
    try:
        lr2hr, _ = runner.load_translator(cfg, "lr2hr", args.lr2hr)
    except (CheckpointError, OSError) as exc:
        raise CheckpointError(f"stage 1 encoder backbone: {exc}")
    try:
        hr2lr, _ = runner.load_translator(cfg, "hr2lr", args.hr2lr)
    except (CheckpointError, OSError) as exc:
        raise CheckpointError(f"stage 7 decoder backbone: {exc}")
    try:
        llm, _ = runner.load_llm(cfg, args.llm)
    except (CheckpointError, OSError) as exc:
        raise CheckpointError(f"stage 4 language-model backbone: {exc}")
    return runner.assemble_tall(cfg, lr2hr, hr2lr, llm, seed)


def cmd_train_tall(args) -> int:
    cfg, seed = _load(args)
    model = _assemble_from_args(cfg, seed, args)
    corpus = runner.train_corpus(cfg)
    if args.dry_run:
        teachers = [list(corpus[i].lr_tokens) for i in range(min(4, len(corpus)))]
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        logits = model.forward(batch)
        print(json.dumps({
            "dry_run": True,
            "logit_shape": list(logits.shape),
            "trainable": [n for n, _ in model.store.trainable_items()][:4],
            "config_hash": config_hash(cfg),
        }))
        return EXIT_OK
    start_step = 0
    if args.resume:
        meta = runner.load_tall_trainables(model, args.resume, cfg)
        start_step = int(meta.get("step", 0))
        stats = evaluate_tall(model, _resume_heldout(model, corpus, cfg, seed))
        print(json.dumps({"resumed_at": start_step, "eval": stats},
                         sort_keys=True))
    meta, metrics = train_tall(model, corpus,
                               cfg.train.tall.to_train_config(seed))
    meta = runner.stamp_meta(cfg, meta)
    meta["step"] += start_step
    if args.out:
        save_checkpoint(runner.tall_trainable_store(model), meta, args.out)
    if args.metrics:
        runner.write_metrics(metrics, args.metrics)
    summary = {k: v for k, v in meta.items() if k != "config"}
    print(json.dumps({"written": args.out, **summary}, sort_keys=True))
    return EXIT_OK


def _resume_heldout(model, corpus, cfg, seed):
    teachers = [list(p.lr_tokens) for p in corpus]
    hr_lm = model.translate_prefixes([t[:-1] for t in teachers])
    _, heldout = split_train_eval(list(zip(teachers, hr_lm)),
                                  cfg.train.tall.eval_fraction, seed)
    return heldout


def cmd_eval(args) -> int:
    cfg, seed = _load(args)
    if args.all:
        wanted = sorted(CLI_APPROACHES.values())
    else:
        wanted = [CLI_APPROACHES[args.approach]]
    needs_translators = bool({"naive", "tall"} & set(wanted))
    needs_tall = "tall" in wanted
    if args.llm is None:
        raise ConfigError("eval requires --llm")
    if needs_translators and (args.lr2hr is None or args.hr2lr is None):
        raise ConfigError(
            f"approaches {wanted} require --lr2hr and --hr2lr checkpoints")
    if needs_tall and args.tall is None:
        raise ConfigError("the tall approach requires a --tall checkpoint")
    llm, _ = runner.load_llm(cfg, args.llm)
    lr2hr = hr2lr = tall_model = None
    if needs_translators:
        lr2hr, _ = runner.load_translator(cfg, "lr2hr", args.lr2hr)
        hr2lr, _ = runner.load_translator(cfg, "hr2lr", args.hr2lr)
    if needs_tall:
        tall_model = runner.assemble_tall(cfg, lr2hr, hr2lr, llm, seed)
        runner.load_tall_trainables(tall_model, args.tall, cfg)
    examples, dataset_hash = runner.eval_dataset(cfg, args.eval_seed)
    rows, details = runner.run_approaches(
        cfg, wanted, lr2hr, hr2lr, llm, tall_model, examples, dataset_hash,
        sampler_seed=seed)
    print(runner.format_results_table(rows, details["header"]))
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"header": details["header"], "rows": rows}, sort_keys=True,
            indent=2))
    return EXIT_OK


def cmd_param_report(args) -> int:
    preset = args.preset
    if preset not in ("bloomz", "qwen", "toy"):
        raise ConfigError(f"unknown preset {preset!r}")
    if preset == "toy":
        cfg, seed = _load(args)
        report = param_report("toy", runner.untrained_tall(cfg, seed).store)
    else:
        report = param_report(preset)
    print(format_report(report))
    if args.check:
        if preset == "toy":
            raise ConfigError("--check applies to the published presets only")
        problems = check_report(report)
        if problems:
            for p in problems:
                print(f"MISMATCH: {p}", file=sys.stderr)
            return 1
        print("all published numbers reproduced exactly")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "pretrain": cmd_pretrain,
        "train-tall": cmd_train_tall,
        "eval": cmd_eval,
        "param-report": cmd_param_report,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CheckpointError, OSError) as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
