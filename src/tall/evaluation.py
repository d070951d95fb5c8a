"""The six evaluation approaches over one shared missing-word task.

Every approach consumes the identical evaluation dataset and turns logits
into an answer the same way, so accuracy differences come from the
approaches themselves.  ``_predict`` is that one loop: it walks the
examples in chunks, hands each chunk's prefixes to the approach, which
draws its answers with ``draw(j, logits)``, and builds the records.
``draw`` is ``_draw``: ``sample_token`` on the example's own stream,
``example_rng(sampler.seed, index)``, so a draw depends only on the
sampler seed and the example index, never on chunking or on the other
examples.  This module is the only one that samples; the pipeline
and the models return logits.

Predictions are scored in LR token space; approaches whose raw output
lives in the LM space map it back first.  Every record carries a reason:
``ok`` for a scored content id, or the cause of a sentinel prediction of
-1, which scores as incorrect: ``special_token`` (PAD/BOS/EOS/UNK drawn),
``other_language`` (an LM token of the other language) and, in the naive
round trip only, ``too_long`` (a sequence too long for the next model's
position table) and ``empty_back_translation``.  A sentinel is per
example, so no single input stops a whole evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .models import CausalLM, Translator, pad_batch, tied_logits
from .nn import LayerCache, ParamStore
from .pipeline import TallModel
from .pretrain import TrainConfig, fit, train_llm
from .tensor import Tensor
from .world import (BOS, N_SPECIALS, ToyGrammar, World, corpus_hash,
                    generate_corpus)


# Examples per chunk of every evaluation loop.
CHUNK = 128


@dataclass
class SamplerConfig:
    temperature: float
    top_k: int
    top_p: float
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got "
                             f"{self.temperature}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")


def sample_token(logits: np.ndarray, sampler: SamplerConfig,
                 rng: np.random.Generator) -> int:
    """Temperature, then top-k, then nucleus filtering, then one draw.

    temperature == 0 means pure argmax (lowest index wins ties) and draws
    nothing from ``rng``.  The nucleus keeps the smallest
    descending-probability prefix reaching top_p, never fewer than one
    candidate.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if logits.size < 1:
        raise ValueError("sample_token needs at least one logit")
    if sampler.temperature == 0.0:
        return int(np.argmax(logits))
    scaled = logits / sampler.temperature
    scaled -= scaled.max()
    p = np.exp(scaled)
    p /= p.sum()
    order = np.argsort(-p, kind="stable")[: min(sampler.top_k, p.size)]
    probs = p[order]
    cum = np.cumsum(probs)
    cut = int(np.searchsorted(cum, sampler.top_p * cum[-1], side="left")) + 1
    kept, probs = order[:cut], probs[:cut]
    probs = probs / probs.sum()
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    return int(kept[min(idx, cut - 1)])


def example_rng(global_seed: int, example_index: int) -> np.random.Generator:
    """Per-example sampler stream; parallel and serial runs agree."""
    return np.random.default_rng(
        np.random.SeedSequence([global_seed, example_index]))


def _draw(row: np.ndarray, sampler: SamplerConfig, index: int) -> int:
    """One id from ``row`` on example ``index``'s own stream."""
    return sample_token(row, sampler, example_rng(sampler.seed, index))


@dataclass(frozen=True)
class EvalRecord:
    example_id: int
    gold: int
    predicted: int
    correct: bool
    approach: str
    reason: str


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


def scored_id(mapped: int | None) -> tuple[int, str]:
    """The prediction to score for a drawn id, and its reason.

    ``mapped`` is an LR id, or the result of ``World.lm_to_lr`` (or
    ``lm_to_hr``): None when the LM token belongs to the other language,
    the id itself for a special token.  Both score as the sentinel -1; a
    content id is kept.
    """
    if mapped is None:
        return -1, "other_language"
    if mapped < N_SPECIALS:
        return -1, "special_token"
    return mapped, "ok"


def _predict(approach: str, examples: list[EvalExample],
             sampler: SamplerConfig, run_chunk: Callable
             ) -> list[EvalRecord]:
    """The prediction loop every approach shares.

    ``run_chunk(prefixes, draw)`` returns ``(predicted, reason)`` for each
    LR prefix of one chunk, where ``draw(j, logits)`` is ``_draw`` on the
    stream of the chunk's ``j``-th example.
    """
    if not examples:
        raise ValueError("evaluation dataset is empty")
    records = []
    for start in range(0, len(examples), CHUNK):
        chunk = examples[start : start + CHUNK]
        answers = run_chunk([ex.prefix for ex in chunk],
                            lambda j, row: _draw(row, sampler, start + j))
        records += [EvalRecord(start + j, ex.gold, int(pred),
                               int(pred) == ex.gold, approach, reason)
                    for j, (ex, (pred, reason))
                    in enumerate(zip(chunk, answers))]
    return records


def _single_step(next_logits: Callable[[list], np.ndarray],
                 to_lr: Callable[[int], tuple[int, str]]) -> Callable:
    """One draw per row of ``next_logits``, mapped by ``to_lr``."""
    return lambda prefixes, draw: [to_lr(draw(j, row)) for j, row
                                   in enumerate(next_logits(prefixes))]


def _lm_ids(world: World, lr_seqs: list) -> list:
    """LR id sequences re-tokenized into LM ids."""
    return [world.lr_to_lm(np.array(s)).tolist() for s in lr_seqs]


def _lm_to_lr(world: World) -> Callable[[int], tuple[int, str]]:
    return lambda lm_id: scored_id(world.lm_to_lr(lm_id))


# ---------------------------------------------------------------------------
# direct family: feed LR ids (remapped) straight into a causal LM


def eval_direct(llm: CausalLM, world: World, examples: list[EvalExample],
                sampler: SamplerConfig, approach: str = "direct"
                ) -> list[EvalRecord]:
    return _predict(approach, examples, sampler, _single_step(
        lambda prefixes: llm.next_token_logits(_lm_ids(world, prefixes)),
        _lm_to_lr(world)))


# ---------------------------------------------------------------------------
# naive: round-trip translation with one LM continuation token in between


def eval_naive(lr2hr: Translator, llm: CausalLM, hr2lr: Translator,
               world: World, examples: list[EvalExample],
               sampler: SamplerConfig) -> list[EvalRecord]:
    """Translate the LR prefix to HR, let the LM add one HR token, translate
    the completed sentence back and score its last LR token.  Each stage
    runs once per chunk, on the rows a sentinel has not stopped: ``too_long``
    when the HR prefix plus BOS or the completion plus EOS exceeds the next
    model's ``max_len``, ``scored_id``'s reasons for the LM's token and
    for the back-translation's last token."""
    def run_chunk(prefixes, draw):
        hr_seqs = lr2hr.greedy_translate(prefixes)
        out = {j: (-1, "too_long") for j, h in enumerate(hr_seqs)
               if len(h) + 1 > llm.cfg.max_len}
        fits_lm = [j for j in range(len(hr_seqs)) if j not in out]
        logits = llm.next_token_logits([
            world.hr_to_lm(np.array(hr_seqs[j], dtype=np.int64)).tolist()
            for j in fits_lm]) if fits_lm else []
        completed = {}
        for row, j in enumerate(fits_lm):
            hr_id, reason = scored_id(world.lm_to_hr(draw(j, logits[row])))
            if reason != "ok":
                out[j] = (-1, reason)
            elif len(hr_seqs[j]) + 2 > hr2lr.cfg.max_len:
                out[j] = (-1, "too_long")
            else:
                completed[j] = list(hr_seqs[j]) + [hr_id]
        back = hr2lr.greedy_translate(list(completed.values()))
        for j, lr in zip(completed, back):
            out[j] = scored_id(lr[-1]) if lr else (-1, "empty_back_translation")
        return [out[j] for j in range(len(hr_seqs))]

    return _predict("naive", examples, sampler, run_chunk)


# ---------------------------------------------------------------------------
# soft prompt: trainable vectors prepended to frozen LM embeddings


def _soft_prompt_logits(llm: CausalLM, prompt: Tensor, lm_prefixes: list
                        ) -> Tensor:
    """Final-position logits [B, V] of each LM prefix after the prompt
    block [P, d].  The LM is causal, so the prompt's keys and values are
    the same in every row: it runs once, as a batch of one, into prefix
    caches (``LayerCache.prefix``; the other kinds, a greedy decode's
    buffer and its cross-attention memory, serve the translators).  The
    B token rows then attend to those [P, d] keys and values as one
    shared block, which is never copied into a row, and the caches do
    not grow, so any number of token calls may share them."""
    ids, lengths = pad_batch([[BOS] + list(p) for p in lm_prefixes])
    n_prompt = prompt.shape[0]
    cache = [LayerCache.prefix() for _ in range(llm.cfg.n_layers)]
    # only the caches are read, so the last layer runs one prompt row
    llm.hidden_from_embeddings(prompt, np.array([n_prompt]), last=True,
                               cache=cache)
    hidden = llm.hidden_from_ids(ids, lengths + n_prompt, last=True,
                                 cache=cache)
    return tied_logits(hidden, llm.store["tok_embed"])


def train_soft_prompt(llm: CausalLM, world: World, corpus_lr: list,
                      train_cfg: TrainConfig, n_prompt: int
                      ) -> tuple[ParamStore, list[dict]]:
    """Train only the prompt block on the shared final-token task; returns
    the store holding the block [n_prompt, d] as ``prompt``, and the
    training records.

    ``corpus_lr`` holds full LR sentences (content ids).  The LM is
    frozen while the prompt trains; afterwards its bytes, its frozen
    flags and its ``requires_grad`` are as the caller passed them.
    """
    store = ParamStore()
    rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0x50F7]))
    prompt = store.add("prompt", rng.normal(0.0, 0.1,
                                            size=(n_prompt, llm.cfg.d_model)))
    prefixes = _lm_ids(world, [s[:-1] for s in corpus_lr])
    targets = world.lr_to_lm(np.array([s[-1] for s in corpus_lr]))

    def loss_fn(batch_idx):
        logits = _soft_prompt_logits(llm, prompt,
                                     [prefixes[i] for i in batch_idx])
        # weight 1: an update averages micro-batch means (see ``pretrain``)
        return T.cross_entropy_last_token(logits, targets[batch_idx]), 1

    with llm.store.frozen():
        return store, fit(store, train_cfg, len(corpus_lr), loss_fn)


def eval_soft_prompt(llm: CausalLM, store: ParamStore, world: World,
                     examples: list[EvalExample], sampler: SamplerConfig
                     ) -> list[EvalRecord]:
    """Score ``examples`` with the prompt block ``store["prompt"]`` that
    :func:`train_soft_prompt` trained."""
    def next_logits(prefixes):
        return _soft_prompt_logits(llm, store["prompt"],
                                   _lm_ids(world, prefixes)).data

    return _predict("soft_prompt", examples, sampler,
                    _single_step(next_logits, _lm_to_lr(world)))


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
    sequences = _lm_ids(world, corpus_lr)
    model, meta, metrics = train_llm(llm.cfg, sequences, train_cfg,
                                     init_model=clone_llm(llm))
    meta["kind"] = "finetuned"
    return model, meta, metrics


def from_scratch_llm(world: World, corpus_lr: list, llm_cfg,
                     train_cfg: TrainConfig) -> tuple[CausalLM, dict, list[dict]]:
    sequences = _lm_ids(world, corpus_lr)
    model, meta, metrics = train_llm(llm_cfg, sequences, train_cfg)
    meta["kind"] = "from_scratch"
    return model, meta, metrics


# ---------------------------------------------------------------------------
# the assembled pipeline


def eval_tall(model: TallModel, examples: list[EvalExample],
              sampler: SamplerConfig) -> list[EvalRecord]:
    # the pipeline decodes straight into LR ids, scored as drawn
    return _predict("tall", examples, sampler,
                    _single_step(model.final_logits, scored_id))
