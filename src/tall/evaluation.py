"""The six evaluation approaches over one shared missing-word task.

Every approach consumes the identical evaluation dataset and identical
per-example sampler streams (derived from the sampler seed and example
index), so accuracy differences come from the approaches themselves.
Predictions are scored in LR token space; approaches whose raw output
lives in the LM space map it back first (``scored_id``), and anything
unmappable scores as incorrect with a sentinel prediction of -1.  The
sentinel cases are: the LM emitted a special token (PAD/BOS/EOS/UNK), the
LM emitted a token of the other language, and, in the naive round trip
only, a sequence too long for the next model's position table or an
empty back-translation.  A sentinel is per example, so no single input
stops a whole evaluation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .models import CausalLM, Translator, pad_batch
from .nn import ParamStore
from .optim import AdamW, clip_grad_norm, cosine_lr
from .pipeline import SamplerConfig, TallModel, example_rng, sample_token
from .pretrain import TrainConfig, _epoch_batches
from .tensor import Tape, Tensor
from .world import (BOS, N_SPECIALS, ToyGrammar, World, corpus_hash,
                    generate_corpus)

APPROACHES = ("direct", "finetuned", "from_scratch", "naive", "soft_prompt",
              "tall")


@dataclass(frozen=True)
class EvalRecord:
    example_id: int
    gold: int
    predicted: int
    correct: bool
    approach: str


@dataclass
class EvalExample:
    """One missing-word item: the LR sentence with its last token held out."""

    lr_tokens: tuple

    @property
    def prefix(self) -> list:
        return list(self.lr_tokens[:-1])

    @property
    def gold(self) -> int:
        return int(self.lr_tokens[-1])


def make_eval_dataset(world: World, grammar: ToyGrammar, seed: int,
                      n: int) -> tuple[list[EvalExample], str]:
    pairs = generate_corpus(seed, n, grammar, world)
    examples = [EvalExample(p.lr_tokens) for p in pairs]
    return examples, corpus_hash([e.lr_tokens for e in examples])


def accuracy(records: list[EvalRecord]) -> float:
    if not records:
        raise ValueError("accuracy needs at least one record")
    return sum(r.correct for r in records) / len(records)


def scored_id(mapped: int | None) -> int:
    """The prediction to score for an id mapped back from the LM space.

    ``mapped`` is the result of ``World.lm_to_lr`` (or ``lm_to_hr``): None
    when the LM token belongs to the other language, the id itself for a
    special token.  Both score as the sentinel -1; a content id is kept.
    """
    return mapped if mapped is not None and mapped >= N_SPECIALS else -1


def _records(approach: str, examples: list[EvalExample],
             predictions: list[int]) -> list[EvalRecord]:
    return [
        EvalRecord(i, ex.gold, int(pred), int(pred) == ex.gold, approach)
        for i, (ex, pred) in enumerate(zip(examples, predictions))
    ]


# ---------------------------------------------------------------------------
# direct family: feed LR ids (remapped) straight into a causal LM


def _direct_predictions(llm: CausalLM, world: World,
                        examples: list[EvalExample], sampler: SamplerConfig,
                        batch_size: int = 128) -> list[int]:
    preds = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        prefixes = [world.lr_to_lm(np.array(ex.prefix)).tolist() for ex in chunk]
        logits = llm.next_token_logits(prefixes)
        for j, ex in enumerate(chunk):
            rng = example_rng(sampler.seed, start + j)
            lm_id = sample_token(logits[j], sampler, rng)
            preds.append(scored_id(world.lm_to_lr(lm_id)))
    return preds


def eval_direct(llm: CausalLM, world: World, examples: list[EvalExample],
                sampler: SamplerConfig, approach: str = "direct"
                ) -> list[EvalRecord]:
    if not examples:
        raise ValueError("evaluation dataset is empty")
    return _records(approach, examples,
                    _direct_predictions(llm, world, examples, sampler))


# ---------------------------------------------------------------------------
# naive: round-trip translation with one LM continuation token in between


def eval_naive(lr2hr: Translator, llm: CausalLM, hr2lr: Translator,
               world: World, examples: list[EvalExample],
               sampler: SamplerConfig, batch_size: int = 128,
               log: list | None = None) -> list[EvalRecord]:
    """Translate the LR prefix to HR, let the LM add one HR token, translate
    the completed sentence back and score its last LR token.

    An example scores the sentinel -1, and goes no further through the
    round trip, when:

    - its HR prefix plus BOS does not fit ``llm.cfg.max_len``;
    - the LM emitted a special token;
    - the LM emitted a token of the other language (an LR-side id);
    - the completed HR sentence plus EOS does not fit ``hr2lr.cfg.max_len``;
    - the back-translation is empty.

    Each sentinel appends one line naming its example to ``log``.
    """
    if not examples:
        raise ValueError("evaluation dataset is empty")
    preds = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        hr_seqs = lr2hr.greedy_translate([ex.prefix for ex in chunk])
        reasons: dict[int, str] = {}
        fits_lm = []
        for j, h in enumerate(hr_seqs):
            if len(h) + 1 > llm.cfg.max_len:
                reasons[j] = "HR prefix too long for the LM"
            else:
                fits_lm.append(j)
        logits = llm.next_token_logits([
            world.hr_to_lm(np.array(hr_seqs[j], dtype=np.int64)).tolist()
            for j in fits_lm]) if fits_lm else []
        completed: dict[int, list] = {}
        for row, j in enumerate(fits_lm):
            rng = example_rng(sampler.seed, start + j)
            lm_id = sample_token(logits[row], sampler, rng)
            hr_id = scored_id(world.lm_to_hr(lm_id))
            if hr_id == -1:
                reasons[j] = ("LM emitted a special token" if lm_id < N_SPECIALS
                              else "LM emitted a non-HR token")
                continue
            completion = list(hr_seqs[j]) + [hr_id]
            if len(completion) + 1 > hr2lr.cfg.max_len:
                reasons[j] = "completion too long for hr2lr"
            else:
                completed[j] = completion
        back = dict(zip(completed,
                        hr2lr.greedy_translate(list(completed.values()))))
        for j in range(len(chunk)):
            if j in back and not back[j]:
                reasons[j] = "empty back-translation"
            if j in reasons:
                preds.append(-1)
                if log is not None:
                    log.append(f"example {start + j}: {reasons[j]}")
            else:
                preds.append(int(back[j][-1]))
    return _records("naive", examples, preds)


# ---------------------------------------------------------------------------
# soft prompt: trainable vectors prepended to frozen LM embeddings


@dataclass
class SoftPromptParams:
    store: ParamStore
    n_prompt: int

    @property
    def embeddings(self) -> Tensor:
        return self.store["prompt"]


def _soft_prompt_logits(llm: CausalLM, prompt: Tensor, lm_prefixes: list
                        ) -> tuple[Tensor, np.ndarray]:
    """Final-position logits with the prompt block prepended to each row."""
    ids, lengths = pad_batch([[BOS] + list(p) for p in lm_prefixes])
    b = len(lm_prefixes)
    n_prompt = prompt.shape[0]
    tok = T.embedding(llm.store["tok_embed"], ids)
    block = T.broadcast_to(T.reshape(prompt, (1,) + prompt.shape),
                           (b,) + prompt.shape)
    x = T.concat([block, tok], axis=1)
    full_lengths = lengths + n_prompt
    hidden = llm.hidden_from_embeddings(x, full_lengths)
    from .models import tied_logits

    return tied_logits(hidden, llm.store["tok_embed"]), full_lengths


def train_soft_prompt(llm: CausalLM, world: World, corpus_lr: list,
                      train_cfg: TrainConfig, n_prompt: int = 30
                      ) -> tuple[SoftPromptParams, list[dict]]:
    """Train only the prompt block on the shared final-token task.

    ``corpus_lr`` holds full LR sentences (content ids).  The LM itself
    must already be frozen; its bytes are untouched.
    """
    for name in llm.store.names():
        if not llm.store.is_frozen(name):
            llm.store.freeze(name)
    store = ParamStore()
    rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0x50F7]))
    store.add("prompt", rng.normal(0.0, 0.1,
                                   size=(n_prompt, llm.cfg.d_model)))
    params = SoftPromptParams(store, n_prompt)
    opt = AdamW(store, lr=train_cfg.learning_rate,
                weight_decay=train_cfg.weight_decay)
    updates_per_epoch = -(-len(corpus_lr) // train_cfg.batch_size)
    total = max(1, updates_per_epoch * train_cfg.epochs)
    metrics, update = [], 0
    for epoch in range(train_cfg.epochs):
        for batch_idx in _epoch_batches(len(corpus_lr), train_cfg.batch_size,
                                        train_cfg.seed, epoch):
            batch = [corpus_lr[i] for i in batch_idx]
            lm_prefix = [world.lr_to_lm(np.array(s[:-1])).tolist() for s in batch]
            targets = np.array(
                [world.lr_to_lm(np.array([s[-1]]))[0] for s in batch])
            with Tape() as tape:
                logits, lengths = _soft_prompt_logits(
                    llm, params.embeddings, lm_prefix)
                loss = T.cross_entropy_last_token(logits, targets, lengths)
            tape.backward(loss)
            grad_norm = clip_grad_norm(opt.params, train_cfg.grad_clip_norm)
            lr = cosine_lr(update, total, train_cfg.learning_rate,
                           train_cfg.warmup_steps)
            opt.step(lr)
            opt.zero_grad()
            metrics.append({"step": update, "split": "train",
                            "loss": loss.item(), "lr": lr,
                            "grad_norm": grad_norm})
            update += 1
    return params, metrics


def eval_soft_prompt(llm: CausalLM, params: SoftPromptParams, world: World,
                     examples: list[EvalExample], sampler: SamplerConfig,
                     batch_size: int = 128) -> list[EvalRecord]:
    if not examples:
        raise ValueError("evaluation dataset is empty")
    preds = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        lm_prefix = [world.lr_to_lm(np.array(ex.prefix)).tolist()
                     for ex in chunk]
        logits, lengths = _soft_prompt_logits(llm, params.embeddings,
                                              lm_prefix)
        rows = logits.data[np.arange(len(chunk)), lengths - 1]
        for j, ex in enumerate(chunk):
            rng = example_rng(sampler.seed, start + j)
            lm_id = sample_token(rows[j], sampler, rng)
            preds.append(scored_id(world.lm_to_lr(lm_id)))
    return _records("soft_prompt", examples, preds)


# ---------------------------------------------------------------------------
# fine-tuned and from-scratch: full-model training on the LR corpus


def clone_llm(llm: CausalLM) -> CausalLM:
    store = ParamStore()
    for name, t in llm.store.items():
        store.add(name, t.data.copy(), trainable=True)
    return CausalLM(llm.cfg, store)


def finetune_llm(llm: CausalLM, world: World, corpus_lr: list,
                 train_cfg: TrainConfig) -> tuple[CausalLM, dict, list[dict]]:
    """Continue next-token training of every LM weight on LR data."""
    from .pretrain import train_llm

    tuned = clone_llm(llm)
    if train_cfg.epochs == 0:
        return tuned, {"kind": "finetuned", "step": 0}, []
    sequences = [world.lr_to_lm(np.array(s)).tolist() for s in corpus_lr]
    model, meta, metrics = train_llm(llm.cfg, sequences, train_cfg,
                                     init_model=tuned)
    meta["kind"] = "finetuned"
    return model, meta, metrics


def from_scratch_llm(world: World, corpus_lr: list, llm_cfg,
                     train_cfg: TrainConfig) -> tuple[CausalLM, dict, list[dict]]:
    from .pretrain import train_llm

    sequences = [world.lr_to_lm(np.array(s)).tolist() for s in corpus_lr]
    model, meta, metrics = train_llm(llm_cfg, sequences, train_cfg)
    meta["kind"] = "from_scratch"
    return model, meta, metrics


# ---------------------------------------------------------------------------
# the assembled pipeline


def eval_tall(model: TallModel, examples: list[EvalExample],
              sampler: SamplerConfig, batch_size: int = 128
              ) -> list[EvalRecord]:
    if not examples:
        raise ValueError("evaluation dataset is empty")
    preds = []
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        rngs = [example_rng(sampler.seed, start + j)
                for j in range(len(chunk))]
        preds.extend(model.predict_final_tokens(
            [ex.prefix for ex in chunk], sampler, rngs=rngs))
    return _records("tall", examples, preds)
