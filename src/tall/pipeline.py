"""The seven-stage pipeline: frozen backbones stitched by trainable parts.

Stages:

1. frozen source-language encoder over the LR prefix
2. trainable alignment adapter, encoder width -> LM width
3. trainable bridge transformer (causal self-attention over the LM
   embeddings of the translated prefix, cross-attention to stage 2)
4. frozen LM blocks consuming stage 3 output as input embeddings, with
   the LM's own positions re-added at injection
5. trainable alignment adapter, LM width -> decoder width
6. trainable bridge transformer (bidirectional self-attention)
7. frozen target-language decoder over teacher-forced target tokens
   with cross-attention to stage 6, then the frozen tied head; the
   decoder's last layer and the head run on each row's last real token
   alone

Only {adapter1, bridge1, adapter2, bridge2} ever receive gradients;
training uses the final-token loss exclusively.  Bridge 1 runs at the LM
width and bridge 2 at the decoder width; the backbones fix every width
the trainable parts connect to, so :class:`TallConfig` holds only the
free choices and a stage width mismatch cannot be configured.  Stages
1 to 6 pass packed rows [N, d], one per real token (see
``models._stack_forward``): stages 1 and 2 over the LR prefix's
lengths, stages 3 to 6 over the translation's.  The
forward pass returns the final-position logits [B, V_lr], for training
and inference alike (``TallModel.final_logits``), and does no sampling;
:mod:`tall.evaluation` draws the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import tensor as T
from .models import (
    CausalLM,
    CausalLMConfig,
    Seq2SeqConfig,
    Translator,
    _stack_forward,
    decoder_forward,
    encoder_forward,
    init_stack,
    pad_batch,
    tied_logits,
)
from .nn import AdapterSpec, LayerConfig, ParamStore
# perfbench/test_perfbench.py::test_tracer_wraps_copies_and_restores_originals
# checks that the tracer wraps this module-level copy
from .optim import clip_grad_norm  # noqa: F401
from .pretrain import TrainConfig, fit, split_train_eval
from .tensor import Tensor
from .world import BOS, EOS, PAD, BilingualPair, World

TRAINABLE_PARTS = ("adapter1", "bridge1", "adapter2", "bridge2")
FROZEN_PARTS = ("encoder", "llm", "decoder")
# prefixes per greedy translation batch
TRANSLATE_CHUNK = 256


@dataclass(frozen=True)
class BridgeConfig:
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128


@dataclass
class TallConfig:
    """The trainable parts' free choices; the widths they connect come
    from the backbones at assembly."""

    adapter1_hidden: int = 192
    adapter2_hidden: int = 128
    bridge1: BridgeConfig = field(default_factory=BridgeConfig)
    bridge2: BridgeConfig = field(default_factory=BridgeConfig)


@dataclass
class TallBatch:
    """One teacher-forcing batch, everything already padded."""

    enc_ids: np.ndarray          # [B, L1] LR prefix + EOS (LR space)
    enc_lengths: np.ndarray
    hr_ids: np.ndarray           # [B, L3] BOS + translated prefix (LM space)
    hr_lengths: np.ndarray
    dec_ids: np.ndarray          # [B, Lt] BOS + teacher[:-1] (LR space)
    dec_lengths: np.ndarray
    targets: np.ndarray          # [B] final teacher token per example


class TallModel:
    """Assembled pipeline: one store, frozen backbones, trainable parts."""

    def __init__(self, cfg: TallConfig, store: ParamStore, world: World,
                 lr2hr: Translator, llm_cfg: CausalLMConfig,
                 decoder_cfg: Seq2SeqConfig):
        self.cfg = cfg
        self.store = store
        self.world = world
        self.lr2hr = lr2hr
        self.encoder_cfg = lr2hr.cfg
        self.llm_cfg = llm_cfg
        self.decoder_cfg = decoder_cfg
        d_enc, d_lm, d_dec = lr2hr.cfg.d_model, llm_cfg.d_model, decoder_cfg.d_model
        self.adapter1 = AdapterSpec(d_enc, cfg.adapter1_hidden, d_lm)
        self.adapter2 = AdapterSpec(d_lm, cfg.adapter2_hidden, d_dec)
        self.bridge1_layer = LayerConfig(d_lm, cfg.bridge1.n_heads,
                                         cfg.bridge1.d_ff, causal=True)
        self.bridge2_layer = LayerConfig(d_dec, cfg.bridge2.n_heads,
                                         cfg.bridge2.d_ff, causal=False)

    @classmethod
    def assemble(cls, cfg: TallConfig, world: World, lr2hr: Translator,
                 hr2lr: Translator, llm: CausalLM, seed: int) -> "TallModel":
        model = cls(cfg, ParamStore(), world, lr2hr, llm.cfg, hr2lr.cfg)
        store = model.store
        store.adopt("encoder", lr2hr.store, "encoder")
        store.adopt("llm", llm.store)
        store.adopt("decoder", hr2lr.store, "decoder")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A11]))
        nn.init_adapter(store, "adapter1", model.adapter1, rng)
        init_stack(store, "bridge1", llm.cfg.max_len, cfg.bridge1.n_layers,
                   model.bridge1_layer, rng, cross_kv_dim=llm.cfg.d_model)
        nn.init_adapter(store, "adapter2", model.adapter2, rng)
        init_stack(store, "bridge2", llm.cfg.max_len, cfg.bridge2.n_layers,
                   model.bridge2_layer, rng)
        for part in FROZEN_PARTS:
            store.freeze(part)
        return model

    def check_frozen(self) -> None:
        bad = [n for n, t in self.store.items()
               if any(n.startswith(p) for p in FROZEN_PARTS) and t.requires_grad]
        if bad:
            raise RuntimeError(f"backbone tensors are not frozen: {bad[:5]}")
        trainable = {n.split(".", 1)[0] for n, _ in self.store.trainable_items()}
        if trainable != set(TRAINABLE_PARTS):
            raise RuntimeError(
                f"trainable set must be exactly {set(TRAINABLE_PARTS)}, "
                f"got {trainable}")

    # -- stages -------------------------------------------------------------

    def encode_lr(self, enc_ids: np.ndarray, enc_lengths: np.ndarray) -> Tensor:
        """Stage 1: frozen encoder over the LR prefix."""
        return encoder_forward(self.store, "encoder", self.encoder_cfg,
                               enc_ids, enc_lengths)

    def bridge1_forward(self, hr_ids: np.ndarray, hr_lengths: np.ndarray,
                        h_a1: Tensor, a1_lengths: np.ndarray) -> Tensor:
        """Stage 3: causal bridge over LM token embeddings + cross-attn."""
        return _stack_forward(hr_ids, self.store, "bridge1",
                              self.cfg.bridge1.n_layers, self.bridge1_layer,
                              hr_lengths, cross_kv=h_a1,
                              cross_lengths=a1_lengths,
                              embed=self.store["llm.tok_embed"])

    def llm_blocks(self, h_b1: Tensor, hr_lengths: np.ndarray) -> Tensor:
        """Stage 4: frozen LM blocks on injected embeddings, positions re-added."""
        return _stack_forward(h_b1, self.store, "llm", self.llm_cfg.n_layers,
                              self.llm_cfg.layer(), hr_lengths)

    def bridge2_forward(self, h_a2: Tensor, lengths: np.ndarray) -> Tensor:
        """Stage 6: bidirectional bridge preparing the decoder memory."""
        return _stack_forward(h_a2, self.store, "bridge2",
                              self.cfg.bridge2.n_layers, self.bridge2_layer,
                              lengths)

    def decode(self, dec_ids: np.ndarray, dec_lengths: np.ndarray,
               memory: Tensor, memory_lengths: np.ndarray) -> Tensor:
        """Stage 7: frozen decoder plus frozen tied head -> the LR logits
        [B, V_lr] of each row's final position, ``dec_lengths - 1``."""
        hidden = decoder_forward(self.store, "decoder", self.decoder_cfg,
                                 dec_ids, dec_lengths, memory, memory_lengths,
                                 last=True)
        return tied_logits(hidden, self.store["decoder.tgt_embed"])

    def forward(self, batch: TallBatch) -> Tensor:
        """All seven stages; logits [B, V_lr] for each example's final
        teacher token."""
        h_enc = self.encode_lr(batch.enc_ids, batch.enc_lengths)
        h_a1 = nn.adapter_forward(h_enc, self.adapter1, self.store, "adapter1")
        h_b1 = self.bridge1_forward(batch.hr_ids, batch.hr_lengths, h_a1,
                                    batch.enc_lengths)
        h_llm = self.llm_blocks(h_b1, batch.hr_lengths)
        h_a2 = nn.adapter_forward(h_llm, self.adapter2, self.store, "adapter2")
        h_b2 = self.bridge2_forward(h_a2, batch.hr_lengths)
        return self.decode(batch.dec_ids, batch.dec_lengths, h_b2,
                           batch.hr_lengths)

    # -- data plumbing --------------------------------------------------------

    def translate_prefixes(self, prefixes: list) -> list:
        """Frozen greedy LR->HR translation, re-tokenized into LM ids, in
        chunks of ``TRANSLATE_CHUNK`` prefixes."""
        out = []
        for start in range(0, len(prefixes), TRANSLATE_CHUNK):
            chunk = prefixes[start : start + TRANSLATE_CHUNK]
            hr = self.lr2hr.greedy_translate(chunk)
            out.extend([BOS] + self.world.hr_to_lm(h).tolist() for h in hr)
        return out

    def make_batch(self, teachers: list, hr_lm_seqs: list) -> TallBatch:
        """Teacher-forcing batch from full LR sentences and translations."""
        enc_ids, enc_lengths = pad_batch(
            [list(t[:-1]) + [EOS] for t in teachers])
        hr_ids, hr_lengths = pad_batch(hr_lm_seqs)
        dec_ids, dec_lengths = pad_batch([[BOS] + list(t[:-1]) for t in teachers])
        targets = np.array([t[-1] for t in teachers], dtype=np.int64)
        return TallBatch(enc_ids, enc_lengths, hr_ids, hr_lengths, dec_ids,
                         dec_lengths, targets)

    def loss(self, batch: TallBatch) -> Tensor:
        """Mean final-token cross entropy."""
        return T.cross_entropy_last_token(self.forward(batch), batch.targets)

    # -- inference ------------------------------------------------------------

    def final_logits(self, prefixes: list) -> np.ndarray:
        """LR logits [B, V_lr] for the token after each LR prefix.

        One word is one token in this world, so this row is the whole
        missing-word answer; the caller samples it.
        """
        if any(len(p) == 0 for p in prefixes):
            raise ValueError("cannot predict from an empty prefix")
        # make_batch holds out each teacher's last token, so a PAD
        # placeholder after each prefix makes the whole prefix the input
        batch = self.make_batch([list(p) + [PAD] for p in prefixes],
                                self.translate_prefixes(prefixes))
        return self.forward(batch).data


def train_tall(model: TallModel, corpus: list[BilingualPair],
               train_cfg: TrainConfig, start_step: int = 0
               ) -> tuple[dict, list[dict]]:
    """Final-token training of the four trainable parts.

    Strips the last word of each LR sentence, greedy-translates the
    prefix once up front (the translator is frozen, so the translations
    are constants), then optimizes the mean final-token cross entropy
    with ``fit``.  After each epoch it records held-out loss, accuracy
    and perplexity, and at the end it restores the best snapshot by
    held-out loss.

    When something is held out, the weights as given (the init, or a
    resumed checkpoint's) are scored before the first update: that score
    is the first candidate for the best snapshot and the first eval
    record (``step`` 0), so a run never ends worse on held out than the
    weights it started from.  ``start_step`` is the update count of the
    checkpoint the trainable parts were resumed from, 0 for a fresh run.
    The returned ``step`` and ``best_step`` count updates from the
    checkpoint's origin; ``best_step`` is -1 and ``best_eval_loss`` None
    when nothing is held out.
    """
    model.check_frozen()
    train_idx, heldout_idx = split_train_eval(
        list(range(len(corpus))), train_cfg.eval_fraction, train_cfg.seed)
    teachers = [list(p.lr_tokens) for p in corpus]
    hr_lm = model.translate_prefixes([t[:-1] for t in teachers])
    train = [(teachers[i], hr_lm[i]) for i in train_idx]
    heldout = [(teachers[i], hr_lm[i]) for i in heldout_idx]
    best = {"loss": None, "step": -1, "params": None}

    def loss_fn(batch_idx):
        chunk = [train[i] for i in batch_idx]
        batch = model.make_batch([t for t, _ in chunk], [h for _, h in chunk])
        return T.scale(model.loss(batch), float(len(chunk))), len(chunk)

    def evaluate(step: int) -> dict:
        stats = evaluate_tall(model, heldout, batch_size=train_cfg.batch_size)
        if best["loss"] is None or stats["loss"] < best["loss"]:
            best.update(loss=stats["loss"], step=start_step + step, params={
                n: t.data.copy() for n, t in model.store.trainable_items()})
        return stats

    metrics = [{"step": 0, "split": "eval", **evaluate(0)}] if heldout else []
    metrics += fit(model.store, train_cfg, len(train), loss_fn,
                   evaluate if heldout else None)
    if best["params"] is not None:
        for n, arr in best["params"].items():
            model.store[n].data[:] = arr
    meta = {
        "kind": "tall",
        "seed": train_cfg.seed,
        "step": start_step + sum(m["split"] == "train" for m in metrics),
        "best_step": best["step"],
        "best_eval_loss": best["loss"],
    }
    return meta, metrics


def evaluate_tall(model: TallModel, examples: list, batch_size: int) -> dict:
    """Held-out final-token loss, greedy accuracy, and perplexity."""
    if not examples:
        raise ValueError("held-out set is empty")
    total_loss, hits, count = 0.0, 0, 0
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        batch = model.make_batch([t for t, _ in chunk], [h for _, h in chunk])
        logits = model.forward(batch)
        loss = T.cross_entropy_last_token(logits, batch.targets)
        total_loss += loss.item() * len(chunk)
        hits += int((logits.data.argmax(axis=1) == batch.targets).sum())
        count += len(chunk)
    mean_loss = total_loss / count
    return {"loss": mean_loss, "accuracy": hits / count,
            "perplexity": float(np.exp(mean_loss))}
