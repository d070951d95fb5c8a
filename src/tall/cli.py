"""Operator command line: pretraining, pipeline training, eval, reports.

``tall eval`` takes its approaches from ``runner.APPROACHES``: the
``--approach`` choices, what ``--all`` runs and the checkpoint flags
each approach needs all come from that one table.  ``train-tall`` and
``eval`` declare their checkpoint flags from ``runner.CHECKPOINTS``,
and every model a command reads is built by ``runner.load_models``, so
this module names no model class, checkpoint kind or stage.

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
from .pipeline import train_tall
from .tensor import NumericalError, ShapeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_NUMERICAL = 4
EXIT_SHAPE = 5

# runner's checkpoint flags: the three backbones', then the pipeline's
*BACKBONES, PIPELINE = runner.CHECKPOINTS


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
    for flag in ("seed", "eval_seed"):  # --eval-seed is eval's alone
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            raise ConfigError(f"--{flag.replace('_', '-')}: must be >= 0, "
                              f"got {value}")
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
    for flag in BACKBONES:
        p.add_argument(f"--{flag}", required=True,
                       help=f"checkpoint of the {runner.CHECKPOINTS[flag][1]}")
    p.add_argument("--out", help="best-checkpoint output path")
    p.add_argument("--metrics", help="metrics JSONL output path")
    p.add_argument("--resume", dest=PIPELINE,
                   help="trainable-parts checkpoint to resume from; its "
                        "weights are kept unless an epoch beats their "
                        "held-out loss, which is reported after training")
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
    for flag, (_, stage) in runner.CHECKPOINTS.items():
        p.add_argument(f"--{flag}", help=f"checkpoint of the {stage}")
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


def cmd_train_tall(args) -> int:
    cfg, seed = _load(args)
    models, metas = runner.load_models(
        cfg, seed, {f: getattr(args, f) for f in runner.CHECKPOINTS})
    model = models[PIPELINE]
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
    start_step = int(metas[PIPELINE].get("step", 0)) if PIPELINE in metas else 0
    meta, metrics = train_tall(model, corpus,
                               cfg.train.tall.to_train_config(seed), start_step)
    meta = runner.stamp_meta(cfg, meta)
    if PIPELINE in metas:
        # a resumed run's first eval record scores the weights it resumed
        first = metrics[0]
        stats = ({k: v for k, v in first.items() if k not in ("step", "split")}
                 if first["split"] == "eval" else None)
        print(json.dumps({"resumed_at": start_step, "eval": stats},
                         sort_keys=True))
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
    files = {f: getattr(args, f)
             for name in wanted for f in runner.APPROACHES[name].checkpoints}
    missing = [f"--{f}" for f in sorted(files) if files[f] is None]
    if missing:
        raise ConfigError(f"approaches {wanted} need {', '.join(missing)}")
    models, _ = runner.load_models(cfg, seed, files)
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
    if args.check and preset == "toy":
        raise ConfigError("--check applies to the published presets only")
    if preset == "toy":
        cfg, seed = _load(args)
        models, _ = runner.load_models(cfg, seed,
                                       dict.fromkeys(runner.CHECKPOINTS))
        report = param_report("toy", models[PIPELINE].store)
    else:
        report = param_report(preset)
    print(format_report(report))
    if args.check:
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
