"""The benchmark workloads: set-up, two timed phases each, checks.

Every workload builds its inputs from the seed alone, through the
package's public functions and the ``benchmark_config(seed)`` model
sizes.  Backbones are seeded random inits (``Translator.init``,
``CausalLM.init``, ``TallModel.assemble``), so set-up takes a fraction
of a second instead of a full pretrain.

Sentence slices are stratified by length: the k-th sentence of a slice
has the same length for every seed (lengths cycle through the grammar's
range), so a seed changes the content of the work but not its shape.

A phase returns an :class:`Outcome`: how many examples it processed,
the loss of its last update and the list of failed correctness checks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from tall import config as C
from tall import evaluation as ev
from tall import pipeline as P
from tall import pretrain as PT
from tall import world as W
from tall.models import CausalLM, Translator


@dataclass(frozen=True)
class Sizes:
    """Examples per phase call, and set-ups before the first round."""

    adapt_pairs: int = 32        # one B<=32 batch per epoch for both phases
    pretrain_pairs: int = 256
    setup_repeats: int = 5


STANDARD = Sizes()
TINY = Sizes(adapt_pairs=9, pretrain_pairs=16, setup_repeats=2)


@dataclass
class Outcome:
    examples: int
    loss: float
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Phase:
    name: str            # names the phase in failures and printed metrics
    run: object          # callable(state) -> Outcome


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object        # callable(seed, sizes) -> state
    phases: tuple        # (Phase, Phase)


# ---------------------------------------------------------------------------
# inputs


def stratified(items: list, n: int, length_of, lengths: range) -> list:
    """First ``n`` items taken round-robin over ``lengths``, in list order."""
    buckets = {l: [] for l in lengths}
    for item in items:
        bucket = buckets.get(length_of(item))
        if bucket is not None:
            bucket.append(item)
    out = []
    for k in range(-(-n // len(lengths))):
        for l in lengths:
            if k >= len(buckets[l]):
                raise ValueError(f"only {len(buckets[l])} sentences of length {l}")
            out.append(buckets[l][k])
    return out[:n]


def _lengths(cfg) -> range:
    return range(cfg.world.min_len, cfg.world.max_len + 1)


def corpus_slice(cfg, world, n: int) -> list:
    """``n`` length-stratified training pairs of the seed's world."""
    grammar = C.build_grammar(cfg)
    pool = 4 * n + 64
    pairs = W.generate_corpus(cfg.world.seed, pool, grammar, world)
    return stratified(pairs, n, lambda p: len(p.lr_tokens), _lengths(cfg))


def backbones(cfg, seed: int):
    """Seeded random-init translators, LM and the assembled pipeline."""
    world = C.build_world(cfg)
    lr2hr = Translator.init(C.translator_config(cfg, "lr2hr"), seed)
    hr2lr = Translator.init(C.translator_config(cfg, "hr2lr"), seed)
    llm = CausalLM.init(C.llm_config(cfg), seed)
    model = P.TallModel.assemble(C.tall_config(cfg), world, lr2hr, hr2lr, llm,
                                 seed)
    return world, llm, model


def frozen_bytes(store) -> dict:
    return {p: store.snapshot_bytes(p) for p in P.FROZEN_PARTS}


# ---------------------------------------------------------------------------
# checks (each returns a list of problem strings)


def check_losses(phase: str, records: list) -> list:
    bad = [r for r in records if "loss" in r and not math.isfinite(r["loss"])]
    return [f"{phase}: non-finite loss at step {r['step']}" for r in bad[:3]]


def check_updates(phase: str, records: list, n: int, cfg) -> list:
    want = -(-n // (cfg.batch_size * cfg.grad_accum_steps)) * cfg.epochs
    got = sum(r["split"] == "train" for r in records)
    return [] if got == want else [f"{phase}: {got} updates, expected {want}"]


def check_repeat(phase: str, state: dict, key: str, value) -> list:
    """The first value seen under ``key`` is the reference for later calls."""
    first = state["reference"].setdefault(key, value)
    return [] if first == value else [f"{phase}: result differs from the first call"]


def last_train_loss(records: list) -> float:
    return [r["loss"] for r in records if r["split"] == "train"][-1]


# ---------------------------------------------------------------------------
# adapt: TALL training, then soft-prompt training, on one corpus slice


def setup_adapt(seed: int, sizes: Sizes) -> dict:
    cfg = C.benchmark_config(seed)
    world, llm, model = backbones(cfg, seed)
    corpus = corpus_slice(cfg, world, sizes.adapt_pairs)
    return {
        "cfg": cfg, "world": world, "llm": llm, "model": model,
        "corpus": corpus, "corpus_lr": [list(p.lr_tokens) for p in corpus],
        "trainable_init": {n: t.data.copy()
                           for n, t in model.store.trainable_items()},
        "frozen": frozen_bytes(model.store),
        "llm_bytes": llm.store.snapshot_bytes(),
        "reference": {},
    }


def tall_train(st: dict) -> Outcome:
    model = st["model"]
    for name, arr in st["trainable_init"].items():
        model.store[name].data[:] = arr
    train_cfg = st["cfg"].train.tall.to_train_config(st["cfg"].world.seed)
    meta, records = P.train_tall(model, st["corpus"], train_cfg)
    n = len(st["corpus"])
    n_train = n - math.ceil(train_cfg.eval_fraction * n)
    loss = last_train_loss(records)
    problems = (check_losses("tall_train", records)
                + check_updates("tall_train", records, n_train, train_cfg)
                + check_repeat("tall_train", st, "tall_loss", loss))
    if frozen_bytes(model.store) != st["frozen"]:
        problems.append("tall_train: frozen backbone bytes changed")
    return Outcome(n_train * train_cfg.epochs, loss, problems)


def soft_prompt_train(st: dict) -> Outcome:
    sp = st["cfg"].train.soft_prompt
    train_cfg = sp.to_train_config(st["cfg"].world.seed)
    params, records = ev.train_soft_prompt(st["llm"], st["world"],
                                           st["corpus_lr"], train_cfg,
                                           n_prompt=sp.n_prompt)
    n = len(st["corpus_lr"])
    loss = last_train_loss(records)
    problems = (check_losses("soft_prompt_train", records)
                + check_updates("soft_prompt_train", records, n, train_cfg)
                + check_repeat("soft_prompt_train", st, "soft_loss", loss))
    if st["llm"].store.snapshot_bytes() != st["llm_bytes"]:
        problems.append("soft_prompt_train: frozen LM bytes changed")
    return Outcome(n * train_cfg.epochs, loss, problems)


# ---------------------------------------------------------------------------
# pretrain: one epoch of the LR->HR translator, then one of the LM


def setup_pretrain(seed: int, sizes: Sizes) -> dict:
    cfg = C.benchmark_config(seed)
    world = C.build_world(cfg)
    corpus = corpus_slice(cfg, world, sizes.pretrain_pairs)
    sequences = [world.hr_to_lm(np.array(p.hr_tokens)).tolist() for p in corpus]
    return {"cfg": cfg, "world": world, "corpus": corpus,
            "sequences": sequences, "reference": {}}


def _one_epoch(section, seed: int):
    return dataclasses.replace(section.to_train_config(seed), epochs=1)


def translator_train(st: dict) -> Outcome:
    cfg = st["cfg"]
    # No held-out split: its greedy exact-match decode stops when every row
    # has emitted EOS, which after one epoch takes 4 to 31 steps depending
    # on the seed, and that alone moved the phase time by up to 25%.
    train_cfg = dataclasses.replace(
        _one_epoch(cfg.train.translator, cfg.world.seed), eval_fraction=0.0)
    model, meta, records = PT.train_translator(
        "lr2hr", C.translator_config(cfg, "lr2hr"), st["corpus"], train_cfg)
    n = len(st["corpus"])
    loss = last_train_loss(records)
    problems = (check_losses("translator_train", records)
                + check_updates("translator_train", records, n, train_cfg)
                + check_repeat("translator_train", st, "translator_loss", loss))
    return Outcome(n, loss, problems)


def llm_train(st: dict) -> Outcome:
    cfg = st["cfg"]
    train_cfg = _one_epoch(cfg.train.llm, cfg.world.seed)
    model, meta, records = PT.train_llm(C.llm_config(cfg), st["sequences"],
                                        train_cfg)
    n = len(st["sequences"])
    n_train = n - math.ceil(train_cfg.eval_fraction * n)
    loss = last_train_loss(records)
    problems = (check_losses("llm_train", records)
                + check_updates("llm_train", records, n_train, train_cfg)
                + check_repeat("llm_train", st, "llm_loss", loss))
    return Outcome(n_train, loss, problems)


WORKLOADS = {
    "adapt": Workload("adapt", setup_adapt,
                      (Phase("tall_train", tall_train),
                       Phase("soft_prompt_train", soft_prompt_train))),
    "pretrain": Workload("pretrain", setup_pretrain,
                         (Phase("translator_train", translator_train),
                          Phase("llm_train", llm_train))),
}
