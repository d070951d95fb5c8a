"""The six evaluation approaches over one shared missing-word task.

Every approach consumes the identical evaluation dataset and turns logits
into an answer the same way, so accuracy differences come from the
approaches themselves.  ``_predict`` is that one loop: it walks the
examples in chunks, asks the approach for the last-position logits of
each chunk's prefixes, draws one id per row with ``_draw`` and maps it
back to LR space.  ``_draw`` is ``sample_token`` on the example's own
stream, ``example_rng(sampler.seed, index)``, so a draw depends only on
the sampler seed and the example index, never on chunking or on the
other examples.  This module is the only one that samples; the pipeline
and the models return logits.

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
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
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


def _predict(approach: str, examples: list[EvalExample],
             sampler: SamplerConfig,
             next_logits: Callable[[list], np.ndarray],
             to_lr: Callable[[int], int]) -> list[EvalRecord]:
    """The prediction loop every single-step approach shares.

    ``next_logits`` maps a chunk of LR prefixes to the logits [B, V] of
    the token after each; ``to_lr`` maps a drawn id to the LR id scored.
    """
    if not examples:
        raise ValueError("evaluation dataset is empty")
    preds = []
    for start in range(0, len(examples), CHUNK):
        chunk = examples[start : start + CHUNK]
        logits = next_logits([ex.prefix for ex in chunk])
        preds.extend(to_lr(_draw(row, sampler, start + j))
                     for j, row in enumerate(logits))
    return _records(approach, examples, preds)


def _lm_ids(world: World, lr_seqs: list) -> list:
    """LR id sequences re-tokenized into LM ids."""
    return [world.lr_to_lm(np.array(s)).tolist() for s in lr_seqs]


def _lm_to_lr(world: World) -> Callable[[int], int]:
    return lambda lm_id: scored_id(world.lm_to_lr(lm_id))


# ---------------------------------------------------------------------------
# direct family: feed LR ids (remapped) straight into a causal LM


def eval_direct(llm: CausalLM, world: World, examples: list[EvalExample],
                sampler: SamplerConfig, approach: str = "direct"
                ) -> list[EvalRecord]:
    return _predict(approach, examples, sampler,
                    lambda prefixes: llm.next_token_logits(
                        _lm_ids(world, prefixes)),
                    _lm_to_lr(world))


# ---------------------------------------------------------------------------
# naive: round-trip translation with one LM continuation token in between


def eval_naive(lr2hr: Translator, llm: CausalLM, hr2lr: Translator,
               world: World, examples: list[EvalExample],
               sampler: SamplerConfig, log: list | None = None
               ) -> list[EvalRecord]:
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
    for start in range(0, len(examples), CHUNK):
        chunk = examples[start : start + CHUNK]
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
            lm_id = _draw(logits[row], sampler, start + j)
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
                        ) -> Tensor:
    """Final-position logits [B, V] of each LM prefix after the prompt
    block [P, d].  The LM is causal, so the prompt's keys and values are
    the same in every row: it runs once, as a batch of one, into the
    caches that the B token rows then share."""
    ids, lengths = pad_batch([[BOS] + list(p) for p in lm_prefixes])
    n_prompt = prompt.shape[0]
    cache = [LayerCache() for _ in range(llm.cfg.n_layers)]
    # only the caches are read, so the last layer runs one prompt row
    llm.hidden_from_embeddings(T.reshape(prompt, (1,) + prompt.shape),
                               np.array([n_prompt]),
                               read=np.array([n_prompt - 1]), cache=cache)
    tok = T.embedding(llm.store["tok_embed"], ids)
    hidden = llm.hidden_from_embeddings(tok, lengths + n_prompt,
                                        read=lengths - 1, cache=cache)
    return tied_logits(hidden, llm.store["tok_embed"])


def train_soft_prompt(llm: CausalLM, world: World, corpus_lr: list,
                      train_cfg: TrainConfig, n_prompt: int
                      ) -> tuple[SoftPromptParams, list[dict]]:
    """Train only the prompt block on the shared final-token task.

    ``corpus_lr`` holds full LR sentences (content ids).  The LM is
    frozen while the prompt trains; afterwards its bytes, its frozen
    flags and its ``requires_grad`` are as the caller passed them.
    """
    store = ParamStore()
    rng = np.random.default_rng(np.random.SeedSequence([train_cfg.seed, 0x50F7]))
    store.add("prompt", rng.normal(0.0, 0.1,
                                   size=(n_prompt, llm.cfg.d_model)))
    params = SoftPromptParams(store, n_prompt)
    prefixes = _lm_ids(world, [s[:-1] for s in corpus_lr])
    targets = world.lr_to_lm(np.array([s[-1] for s in corpus_lr]))

    def loss_fn(batch_idx):
        logits = _soft_prompt_logits(llm, params.embeddings,
                                     [prefixes[i] for i in batch_idx])
        # weight 1: an update averages micro-batch means (see ``pretrain``)
        return T.cross_entropy_last_token(logits, targets[batch_idx]), 1

    with llm.store.frozen():
        return params, fit(store, train_cfg, len(corpus_lr), loss_fn)


def eval_soft_prompt(llm: CausalLM, params: SoftPromptParams, world: World,
                     examples: list[EvalExample], sampler: SamplerConfig
                     ) -> list[EvalRecord]:
    def next_logits(prefixes):
        return _soft_prompt_logits(llm, params.embeddings,
                                   _lm_ids(world, prefixes)).data

    return _predict("soft_prompt", examples, sampler, next_logits,
                    _lm_to_lr(world))


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
    return _predict("tall", examples, sampler, model.final_logits, int)
