"""End-to-end orchestration: pretraining, assembly, and the benchmark.

Everything here is a deterministic function of a RunConfig and a seed.
Checkpoints stamp the resolved config, its hash, and a narrower
architecture-compatibility hash that loading verifies.  The
checkpoint table, :data:`CHECKPOINTS` (flag -> meta kind, stage), is
read by the one loader, :func:`load_models`, which builds every model a
command reads.  The benchmark's approaches are declared once, in
:data:`APPROACHES`, which the command line reads for its choices and
checkpoint flags.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from . import evaluation as ev
from .checkpoint import CheckpointError, load_checkpoint
from .config import (
    ConfigError,
    RunConfig,
    build_eval_grammar,
    build_grammar,
    build_world,
    compat_hash,
    config_hash,
    llm_config,
    resolved_dict,
    tall_config,
    translator_config,
)
from .models import CausalLM, Translator
from .pipeline import TallModel
from .pretrain import train_llm, train_translator
from .world import generate_corpus


def stamp_meta(cfg: RunConfig, meta: dict) -> dict:
    meta = dict(meta)
    meta["config"] = json.loads(json.dumps(resolved_dict(cfg)))
    meta["config_hash"] = config_hash(cfg)
    meta["compat_hash"] = compat_hash(cfg)
    return meta


@contextlib.contextmanager
def _sized_by(key: str):
    """A corpus the grammar cannot fill (``generate_corpus``'s draw
    budget) reported as a config error naming the size ``key``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def train_corpus(cfg: RunConfig):
    grammar, world = build_grammar(cfg), build_world(cfg)
    with _sized_by("world.train_pairs"):
        return generate_corpus(cfg.world.seed, cfg.world.train_pairs,
                               grammar, world)


def eval_dataset(cfg: RunConfig, eval_seed: int | None = None):
    seed = cfg.world.eval_seed if eval_seed is None else eval_seed
    world, grammar = build_world(cfg), build_eval_grammar(cfg)
    with _sized_by("world.eval_size"):
        return ev.make_eval_dataset(world, grammar, seed, cfg.world.eval_size)


def pretrain_translator(cfg: RunConfig, direction: str, seed: int
                        ) -> tuple[Translator, dict, list[dict]]:
    model_cfg = translator_config(cfg, direction)
    model, meta, metrics = train_translator(
        direction, model_cfg, train_corpus(cfg),
        cfg.train.translator.to_train_config(seed))
    return model, stamp_meta(cfg, meta), metrics


def pretrain_llm(cfg: RunConfig, seed: int
                 ) -> tuple[CausalLM, dict, list[dict]]:
    world = build_world(cfg)
    sequences = [world.hr_to_lm(p.hr_tokens).tolist()
                 for p in train_corpus(cfg)]
    model, meta, metrics = train_llm(llm_config(cfg), sequences,
                                     cfg.train.llm.to_train_config(seed))
    return model, stamp_meta(cfg, meta), metrics


# checkpoint flag -> the meta kind its file must carry, the stage it fills;
# in build order, the pipeline last, on the backbones filled before it
CHECKPOINTS = {
    "lr2hr": ("translator-lr2hr", "stage 1 encoder backbone"),
    "hr2lr": ("translator-hr2lr", "stage 7 decoder backbone"),
    "llm": ("causal-lm", "stage 4 language-model backbone"),
    "tall": ("tall", "trainable stages 2, 3, 5 and 6"),
}


def _init(cfg: RunConfig, flag: str, built: dict, seed: int):
    """The random init of checkpoint ``flag``'s model; the pipeline is
    assembled on the backbones in ``built``."""
    if flag in ("lr2hr", "hr2lr"):
        return Translator.init(translator_config(cfg, flag), seed)
    if flag == "llm":
        return CausalLM.init(llm_config(cfg), seed)
    return TallModel.assemble(tall_config(cfg), build_world(cfg),
                              built["lr2hr"], built["hr2lr"], built["llm"], seed)


def load_models(cfg: RunConfig, seed: int, files: dict) -> tuple[dict, dict]:
    """The models of the checkpoint flags ``files`` names, keyed by flag,
    and each loaded file's metadata.

    ``files`` maps a flag of :data:`CHECKPOINTS` to a checkpoint path, or
    to None to keep the random init; naming ``tall``, the pipeline, needs
    its three backbones named too.  Only the models named are built, in
    the table's order, so the pipeline is assembled on the backbones
    already filled.  A file must be written for ``cfg``'s architecture,
    hold exactly the entries its model trains (every entry of a
    backbone, the pipeline's trainable parts) at their shapes and carry
    its flag's meta kind; anything else is a :class:`CheckpointError`
    that names the stage.
    """
    models, metas = {}, {}
    for flag, (kind, stage) in CHECKPOINTS.items():
        if flag not in files:
            continue
        model = models[flag] = _init(cfg, flag, models, seed)
        path = files[flag]
        if path is None:
            continue
        params = dict(model.store.trainable_items())
        try:
            store, meta = load_checkpoint(
                path, expect_meta={"compat_hash": compat_hash(cfg)})
            want = {n: t.shape for n, t in params.items()}
            got = {n: t.shape for n, t in store.items()}
            if got != want:
                name = next(n for n in [*got, *want]
                            if got.get(n) != want.get(n))
                part = {"tall": "trainable pipeline"}.get(kind, kind)
                problem = ("is missing" if name not in got
                           else f"is not a {part} part" if name not in want
                           else f"has shape {got[name]}, expected {want[name]}")
                raise CheckpointError(f"{path}: entry {name!r} {problem}")
            if meta.get("kind") != kind:
                raise CheckpointError(f"{path}: checkpoint kind is "
                                      f"{meta.get('kind')!r}, expected {kind!r}")
        except (CheckpointError, OSError) as exc:
            raise CheckpointError(f"{stage}: {exc}")
        for name, t in store.items():
            params[name].data[:] = t.data
        metas[flag] = meta
    return models, metas


def untrained_tall(cfg: RunConfig, seed: int) -> TallModel:
    """The pipeline on randomly initialised backbones, for shape-only uses."""
    return load_models(cfg, seed, dict.fromkeys(CHECKPOINTS))[0]["tall"]


def write_metrics(metrics: list[dict], path) -> None:
    with open(path, "w") as fh:
        for record in metrics:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# benchmark


def _direct(cfg, models, world, corpus_lr, examples, sampler):
    return ev.eval_direct(models["llm"], world, examples, sampler)


def _finetuned(cfg, models, world, corpus_lr, examples, sampler):
    tuned, _, _ = ev.finetune_llm(
        models["llm"], world, corpus_lr(),
        cfg.train.finetune.to_train_config(sampler.seed))
    return ev.eval_direct(tuned, world, examples, sampler, approach="finetuned")


def _from_scratch(cfg, models, world, corpus_lr, examples, sampler):
    scratch, _, _ = ev.from_scratch_llm(
        world, corpus_lr(), llm_config(cfg),
        cfg.train.from_scratch.to_train_config(sampler.seed))
    return ev.eval_direct(scratch, world, examples, sampler,
                          approach="from_scratch")


def _naive(cfg, models, world, corpus_lr, examples, sampler):
    return ev.eval_naive(models["lr2hr"], models["llm"], models["hr2lr"],
                         world, examples, sampler)


def _soft_prompt(cfg, models, world, corpus_lr, examples, sampler):
    sp_cfg = cfg.train.soft_prompt
    prompt, _ = ev.train_soft_prompt(
        models["llm"], world, corpus_lr(),
        sp_cfg.to_train_config(sampler.seed), n_prompt=sp_cfg.n_prompt)
    return ev.eval_soft_prompt(models["llm"], prompt, world, examples, sampler)


def _tall(cfg, models, world, corpus_lr, examples, sampler):
    return ev.eval_tall(models["tall"], examples, sampler)


@dataclass(frozen=True)
class Approach:
    """One approach of the benchmark.

    ``cli_name`` is its ``tall eval --approach`` name, ``checkpoints``
    the checkpoint flags (keys of :data:`CHECKPOINTS`) whose models it
    reads, and ``run(cfg, models, world, corpus_lr, examples, sampler)``
    trains whatever the approach trains, on ``corpus_lr()`` (the LR
    sentences of the training corpus), then returns its eval records.
    """

    cli_name: str
    checkpoints: tuple[str, ...]
    run: Callable[..., list]


# record name (``EvalRecord.approach``) -> the approach
APPROACHES = {
    "direct": Approach("direct", ("llm",), _direct),
    "finetuned": Approach("finetune", ("llm",), _finetuned),
    "from_scratch": Approach("scratch", ("llm",), _from_scratch),
    "naive": Approach("naive", ("lr2hr", "hr2lr", "llm"), _naive),
    "soft_prompt": Approach("soft-prompt", ("llm",), _soft_prompt),
    "tall": Approach("tall", ("lr2hr", "hr2lr", "llm", "tall"), _tall),
}


def run_approaches(cfg: RunConfig, approaches, models: dict, examples,
                   dataset_hash: str, sampler_seed: int
                   ) -> tuple[list[dict], dict]:
    """Run ``approaches`` (keys of :data:`APPROACHES`, in the order given)
    on one shared dataset.

    ``models`` maps checkpoint flags to models and holds every flag the
    approaches declare.  The fine-tuned, from-scratch and soft-prompt
    baselines train here, because they are per-approach trainings rather
    than reusable backbones; the training corpus they share is generated
    at most once, and only if one of them runs.  Returns the results rows,
    each with its sentinel count by reason, and ``{"header": ...,
    "records": {approach: records}}``.
    """
    world = build_world(cfg)
    sampler = cfg.sampler.to_sampler(sampler_seed)
    corpus_lr = functools.cache(
        lambda: [list(p.lr_tokens) for p in train_corpus(cfg)])
    all_records = {a: APPROACHES[a].run(cfg, models, world, corpus_lr,
                                        examples, sampler)
                   for a in approaches}
    rows = [{"dataset": f"toy-shifted-{cfg.world.eval_seed}",
             "approach": approach,
             "model": "toy-lm",
             "accuracy_percent": round(100.0 * ev.accuracy(records), 2),
             "sentinels": dict(sorted(Counter(
                 r.reason for r in records if r.reason != "ok").items()))}
            for approach, records in all_records.items()]
    header = {
        "config_hash": config_hash(cfg),
        "dataset_hash": dataset_hash,
        "sampler_seed": sampler.seed,
        "n_examples": len(examples),
    }
    return rows, {"header": header, "records": all_records}


def format_results_table(rows: list[dict], header: dict) -> str:
    lines = [
        f"# config_hash={header['config_hash']} "
        f"dataset_hash={header['dataset_hash']} "
        f"sampler_seed={header['sampler_seed']} n={header['n_examples']}",
        f"{'Dataset':<22} {'Approach':<14} {'Model':<10} {'Accuracy (%)':>12}"
        f"  Sentinels",
    ]
    for row in rows:
        counts = row["sentinels"]
        lines.append(
            f"{row['dataset']:<22} {row['approach']:<14} {row['model']:<10} "
            f"{row['accuracy_percent']:>12.2f}  {sum(counts.values())}"
            + "".join(f" {reason}={n}" for reason, n in counts.items()))
    return "\n".join(lines)
