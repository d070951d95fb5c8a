"""Operator command line: pretraining, pipeline training, eval, reports.

``tall eval`` takes its approaches from ``runner.APPROACHES``: the
``--approach`` choices, what ``--all`` runs and the checkpoint flags
each approach needs all come from that one table.

Exit codes: 0 success, 2 configuration problem (also a missing
checkpoint flag or an output directory that does not exist), 3
checkpoint problem (unreadable, built for another config, not holding
exactly the entries the model expects, or of another kind), 4 numerical
failure during training, 5 a shape the models cannot take (such as a
sequence longer than a position table).
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

# checkpoint flag -> the meta kind its file must carry, the stage it fills
CHECKPOINTS = {
    "lr2hr": ("translator-lr2hr", "stage 1 encoder backbone"),
    "hr2lr": ("translator-hr2lr", "stage 7 decoder backbone"),
    "llm": ("causal-lm", "stage 4 language-model backbone"),
    "tall": ("tall", "trainable stages 2, 3, 5 and 6"),
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
    p.add_argument("--resume", dest="tall",
                   help="trainable-parts checkpoint to resume from")
    p.add_argument("--dry-run", action="store_true",
                   help="validate shapes across all seven stages and exit")

    p = sub.add_parser("eval", help="evaluate approaches on the shared task")
    _add_config_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--approach",
        choices=sorted(a.cli_name for a in runner.APPROACHES.values()),
        help="the approach to run; each needs these checkpoint flags: "
             + "; ".join(f"{a.cli_name} "
                         + " ".join(f"--{f}" for f in a.checkpoints)
                         for a in runner.APPROACHES.values()))
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


def _load_models(cfg, seed, args, flags) -> tuple[dict, dict]:
    """The models the checkpoint ``flags`` name, keyed by flag, each filled
    from its flag's file when one is given (``tall`` is the pipeline on
    the filled backbones), and each loaded file's metadata."""
    models = {f: m for f, m in runner.backbones(cfg, seed).items()
              if f in flags}
    metas = {}
    for flag, (kind, stage) in CHECKPOINTS.items():
        if flag not in flags:
            continue
        if flag not in models:  # the pipeline, on the backbones filled above
            models[flag] = runner.assemble_tall(cfg, models, seed)
        if getattr(args, flag) is None:
            continue  # train-tall without --resume
        # every entry of a fresh backbone; the pipeline's trainable parts
        params = dict(models[flag].store.trainable_items())
        try:
            metas[flag] = runner.load_into(params, getattr(args, flag), cfg,
                                           kind)
        except (CheckpointError, OSError) as exc:
            raise CheckpointError(f"{stage}: {exc}")
    return models, metas


def cmd_train_tall(args) -> int:
    cfg, seed = _load(args)
    models, metas = _load_models(cfg, seed, args, tuple(CHECKPOINTS))
    model = models["tall"]
    corpus = runner.train_corpus(cfg)
    if args.dry_run:
        logits = model.final_logits([list(p.lr_tokens)[:-1] for p in corpus[:4]])
        print(json.dumps({
            "dry_run": True,
            "logit_shape": list(logits.shape),
            "trainable": [n for n, _ in model.store.trainable_items()][:4],
            "config_hash": config_hash(cfg),
        }))
        return EXIT_OK
    start_step = 0
    if "tall" in metas:
        start_step = int(metas["tall"].get("step", 0))
        # the split depends only on the corpus size and the seed, so only
        # the held-out prefixes need translating
        _, heldout = split_train_eval([list(p.lr_tokens) for p in corpus],
                                      cfg.train.tall.eval_fraction, seed)
        hr_lm = model.translate_prefixes([t[:-1] for t in heldout])
        stats = evaluate_tall(model, list(zip(heldout, hr_lm)))
        print(json.dumps({"resumed_at": start_step, "eval": stats},
                         sort_keys=True))
    meta, metrics = train_tall(model, corpus,
                               cfg.train.tall.to_train_config(seed))
    meta = runner.stamp_meta(cfg, meta)
    meta["step"] += start_step
    if args.out:
        save_checkpoint(dict(model.store.trainable_items()), meta, args.out)
    if args.metrics:
        runner.write_metrics(metrics, args.metrics)
    summary = {k: v for k, v in meta.items() if k != "config"}
    print(json.dumps({"written": args.out, **summary}, sort_keys=True))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, seed = _load(args)
    wanted = [name for name, a in sorted(runner.APPROACHES.items())
              if args.all or a.cli_name == args.approach]
    flags = {f for name in wanted for f in runner.APPROACHES[name].checkpoints}
    missing = [f"--{f}" for f in sorted(flags) if getattr(args, f) is None]
    if missing:
        raise ConfigError(f"approaches {wanted} need {', '.join(missing)}")
    models, _ = _load_models(cfg, seed, args, flags)
    examples, dataset_hash = runner.eval_dataset(cfg, args.eval_seed)
    rows, details = runner.run_approaches(cfg, wanted, models, examples,
                                          dataset_hash, sampler_seed=seed)
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
        for flag in ("out", "metrics", "json"):
            parent = Path(getattr(args, flag, None) or ".").parent
            if not parent.is_dir():
                raise ConfigError(f"--{flag}: directory {parent} does not exist")
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
