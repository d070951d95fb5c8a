"""The training loop, and the trainers of the frozen stand-ins.

Every trainer in the package is a ``loss_fn`` handed to ``fit``, the
one accumulate-normalise-clip-step loop.  ``loss_fn(batch_idx)``
returns ``(loss, weight)`` for one micro-batch of training examples.
``fit`` backpropagates each loss, and after ``grad_accum_steps``
micro-batches (or the shorter last group of an epoch) divides the
summed gradients and losses by the summed weight, refuses a non-finite
loss, clips the global gradient norm and takes one AdamW step on a
cosine schedule.

The weight says what an update averages over.  The translator and LM
trainers here, which build the pipeline's frozen backbones, return
summed token cross entropy with the token count, so an update is the
mean over every target token it saw.  TALL returns the summed
cross entropy of each example's final token with the batch size, a mean
over examples.
The soft prompt returns its mean loss with weight 1: at accumulation 1
that is its batch mean exactly, and at accumulation > 1 it averages the
micro-batch means, so a short last batch counts as much as a full one.

Every source of randomness is a child of ``TrainConfig.seed``, so
re-running reproduces checkpoints bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .models import CausalLM, CausalLMConfig, Seq2SeqConfig, Translator
from .optim import AdamW, clip_grad_norm, cosine_lr
from .tensor import NumericalError, Tape
from .world import BilingualPair

# held-out examples per greedy decode or LM forward when scoring
HELDOUT_CHUNK = 128


@dataclass
class TrainConfig:
    learning_rate: float
    weight_decay: float
    epochs: int
    batch_size: int
    grad_clip_norm: float
    grad_accum_steps: int
    warmup_steps: int
    seed: int
    eval_fraction: float

    def __post_init__(self):
        if min(self.learning_rate, self.epochs, self.batch_size,
               self.grad_clip_norm, self.grad_accum_steps) <= 0:
            raise ValueError(f"TrainConfig fields must be positive: {self}")
        if not (math.isfinite(self.learning_rate)
                and math.isfinite(self.grad_clip_norm)):
            raise ValueError(f"learning_rate and grad_clip_norm must be "
                             f"finite: {self}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0: {self}")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise ValueError(f"eval_fraction must be in [0, 1): {self}")


def held_out_count(fraction: float, n: int) -> int:
    """ceil(fraction * n) of ``n`` items held out; one must be left over."""
    n_eval = int(np.ceil(fraction * n)) if fraction > 0 else 0
    if n_eval >= n:
        raise ValueError(f"eval_fraction {fraction} holds out {n_eval} of "
                         f"n={n} examples, leaving none to train on")
    return n_eval


def split_train_eval(items: list, fraction: float, seed: int) -> tuple[list, list]:
    """Deterministic shuffle-split; eval gets ``held_out_count`` items."""
    n_eval = held_out_count(fraction, len(items))
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5317]))
    order = rng.permutation(len(items))
    eval_idx = set(order[:n_eval].tolist())
    train = [items[i] for i in range(len(items)) if i not in eval_idx]
    heldout = [items[i] for i in sorted(eval_idx)]
    return train, heldout


def _epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C, epoch]))
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def fit(store, train_cfg: TrainConfig, n_train: int, loss_fn,
        evaluate=None) -> list[dict]:
    """Train the trainable tensors of ``store``; return the metrics records.

    ``loss_fn(batch_idx)`` returns ``(loss, weight)`` for one micro-batch
    of indices into the ``n_train`` training examples.  ``evaluate(step)``,
    when given, runs after each epoch, and the dict it returns is
    recorded with ``split="eval"``.
    """
    accum = train_cfg.grad_accum_steps
    opt = AdamW(store, train_cfg.weight_decay)
    total_updates = max(1, -(-n_train // (train_cfg.batch_size * accum))
                        * train_cfg.epochs)
    metrics: list[dict] = []
    update = 0
    for epoch in range(train_cfg.epochs):
        batches = list(_epoch_batches(n_train, train_cfg.batch_size,
                                      train_cfg.seed, epoch))
        for start in range(0, len(batches), accum):
            loss_sum, weight = 0.0, 0
            for batch_idx in batches[start : start + accum]:
                with Tape() as tape:
                    loss, w = loss_fn(batch_idx)
                tape.backward(loss)
                loss_sum += loss.item()
                weight += w
            if not np.isfinite(loss_sum):
                raise NumericalError(
                    f"training diverged: loss is not finite at update "
                    f"{update} (loss_sum={loss_sum})")
            for p in opt.params:
                if p.grad is not None:
                    p.grad = p.grad / weight
            grad_norm = clip_grad_norm(opt.params, train_cfg.grad_clip_norm)
            lr = cosine_lr(update, total_updates, train_cfg.learning_rate,
                           train_cfg.warmup_steps)
            opt.step(lr)
            opt.zero_grad()
            metrics.append({"step": update, "split": "train",
                            "loss": loss_sum / weight, "lr": lr,
                            "grad_norm": grad_norm})
            update += 1
        if evaluate is not None:
            metrics.append({"step": update, "split": "eval",
                            **evaluate(update)})
    return metrics


def _score_held_out(metrics: list[dict], key: str, score, model,
                    heldout: list) -> float:
    """``score(model, heldout)`` appended to ``metrics`` as the eval record
    ``key`` after the last update; NaN, and no record, when nothing is
    held out."""
    if not heldout:
        return float("nan")
    value = score(model, heldout)
    metrics.append({"step": len(metrics), "split": "eval", key: value,
                    "n": len(heldout)})
    return value


def train_translator(direction: str, model_cfg: Seq2SeqConfig,
                     corpus: list[BilingualPair], train_cfg: TrainConfig
                     ) -> tuple[Translator, dict, list[dict]]:
    """Teacher-forced training with loss at every target position.

    ``direction`` is "lr2hr" or "hr2lr".  Returns the trained model,
    a metadata dict (held-out greedy exact-match rate included), and
    the per-step metrics records.
    """
    if direction not in ("lr2hr", "hr2lr"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "lr2hr":
        examples = [(p.lr_tokens, p.hr_tokens) for p in corpus]
    else:
        examples = [(p.hr_tokens, p.lr_tokens) for p in corpus]
    train, heldout = split_train_eval(examples, train_cfg.eval_fraction,
                                      train_cfg.seed)
    model = Translator.init(model_cfg, train_cfg.seed)

    def loss_fn(batch_idx):
        return T.cross_entropy_sum(*model.teacher_logits(
            [train[i][0] for i in batch_idx], [train[i][1] for i in batch_idx]))

    metrics = fit(model.store, train_cfg, len(train), loss_fn)
    step = len(metrics)
    exact = _score_held_out(metrics, "exact_match", translator_exact_match,
                            model, heldout)
    meta = {
        "kind": f"translator-{direction}",
        "seed": train_cfg.seed,
        "step": step,
        "heldout_exact_match": exact,
    }
    return model, meta, metrics


def translator_exact_match(model: Translator, examples: list) -> float:
    """Greedy-decode exact-sentence accuracy over (src, tgt) examples."""
    hits = 0
    for start in range(0, len(examples), HELDOUT_CHUNK):
        chunk = examples[start : start + HELDOUT_CHUNK]
        outs = model.greedy_translate([src for src, _ in chunk])
        hits += sum(tuple(o) == tuple(t) for o, (_, t) in zip(outs, chunk))
    return hits / len(examples)


def train_llm(model_cfg: CausalLMConfig, sequences: list,
              train_cfg: TrainConfig, init_model: CausalLM | None = None
              ) -> tuple[CausalLM, dict, list[dict]]:
    """Next-token training over every position of each sequence.

    ``sequences`` are content id lists in the model's own token space.
    Pass ``init_model`` to continue training existing weights (the
    fine-tuning baseline); otherwise weights start fresh from the seed.
    """
    train, heldout = split_train_eval(sequences, train_cfg.eval_fraction,
                                      train_cfg.seed)
    model = init_model if init_model is not None else CausalLM.init(
        model_cfg, train_cfg.seed)

    def loss_fn(batch_idx):
        return T.cross_entropy_sum(*model.logits_for(
            [train[i] for i in batch_idx]))

    metrics = fit(model.store, train_cfg, len(train), loss_fn)
    step = len(metrics)
    ppl = _score_held_out(metrics, "perplexity", llm_perplexity, model,
                          heldout)
    meta = {
        "kind": "causal-lm",
        "seed": train_cfg.seed,
        "step": step,
        "heldout_perplexity": ppl,
    }
    return model, meta, metrics


def llm_perplexity(model: CausalLM, sequences: list) -> float:
    """exp(mean token cross entropy); a uniform model scores vocab_size."""
    total, count = 0.0, 0
    for start in range(0, len(sequences), HELDOUT_CHUNK):
        batch = sequences[start : start + HELDOUT_CHUNK]
        loss_sum, n = T.cross_entropy_sum(*model.logits_for(batch))
        total += loss_sum.item()
        count += n
    return float(np.exp(total / count))
