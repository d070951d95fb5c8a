"""The seven-stage pipeline: frozen backbones stitched by trainable parts.

Stages (numbers used in dimension-mismatch errors):

1. frozen source-language encoder over the LR prefix
2. trainable alignment adapter, encoder width -> LM width
3. trainable bridge transformer (causal self-attention over the LM
   embeddings of the translated prefix, cross-attention to stage 2)
4. frozen LM blocks consuming stage 3 output as input embeddings, with
   the LM's own positions re-added at injection
5. trainable alignment adapter, LM width -> decoder width
6. trainable bridge transformer (bidirectional self-attention)
7. frozen target-language decoder over teacher-forced target tokens
   with cross-attention to stage 6, then the frozen tied head

Only {adapter1, bridge1, adapter2, bridge2} ever receive gradients;
training uses the final-token loss exclusively.
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
    causal_valid_mask,
    key_valid_mask,
    pad_batch,
    tied_logits,
)
from .nn import AdapterSpec, LayerConfig, ParamStore
from .optim import AdamW, clip_grad_norm, cosine_lr
from .pretrain import TrainConfig, _epoch_batches, split_train_eval
from .tensor import NumericalError, Tape, Tensor
from .world import BOS, EOS, BilingualPair, World

TRAINABLE_PARTS = ("adapter1", "bridge1", "adapter2", "bridge2")
FROZEN_PARTS = ("encoder", "llm", "decoder")


class StageDimensionError(T.ShapeError):
    """Dimension mismatch between pipeline stages, named by stage number."""

    def __init__(self, stage: int, detail: str):
        super().__init__(f"stage {stage}: {detail}")
        self.stage = stage


@dataclass
class SamplerConfig:
    temperature: float = 0.7
    top_k: int = 50
    top_p: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must be in (0, 1], got {self.top_p}")


def sample_token(logits: np.ndarray, sampler: SamplerConfig,
                 rng: np.random.Generator | None = None) -> int:
    """Temperature, then top-k, then nucleus filtering, then one draw.

    temperature == 0 means pure argmax (lowest index wins ties).  The
    nucleus keeps the smallest descending-probability prefix reaching
    top_p, never fewer than one candidate.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if logits.size < 1:
        raise ValueError("sample_token needs at least one logit")
    if sampler.temperature == 0.0:
        return int(np.argmax(logits))
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([sampler.seed]))
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


@dataclass(frozen=True)
class BridgeConfig:
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 128


@dataclass
class TallConfig:
    encoder_cfg: Seq2SeqConfig
    llm_cfg: CausalLMConfig
    decoder_cfg: Seq2SeqConfig
    adapter1: AdapterSpec = None
    adapter2: AdapterSpec = None
    bridge1: BridgeConfig = field(default_factory=BridgeConfig)
    bridge2: BridgeConfig = field(default_factory=BridgeConfig)

    def __post_init__(self):
        d_enc = self.encoder_cfg.d_model
        d_lm = self.llm_cfg.d_model
        d_dec = self.decoder_cfg.d_model
        if self.adapter1 is None:
            self.adapter1 = AdapterSpec(d_enc, 2 * d_lm, d_lm)
        if self.adapter2 is None:
            self.adapter2 = AdapterSpec(d_lm, 2 * d_dec, d_dec)
        if self.adapter1.d_in != d_enc:
            raise StageDimensionError(
                2, f"adapter1.d_in {self.adapter1.d_in} != encoder width {d_enc}")
        if self.adapter1.d_out != d_lm:
            raise StageDimensionError(
                3, f"adapter1.d_out {self.adapter1.d_out} != LM width {d_lm}")
        if self.adapter2.d_in != d_lm:
            raise StageDimensionError(
                5, f"adapter2.d_in {self.adapter2.d_in} != LM width {d_lm}")
        if self.adapter2.d_out != d_dec:
            raise StageDimensionError(
                6, f"adapter2.d_out {self.adapter2.d_out} != decoder width {d_dec}")

    def bridge1_layer(self) -> LayerConfig:
        return LayerConfig(self.llm_cfg.d_model, self.bridge1.n_heads,
                           self.bridge1.d_ff, causal=True)

    def bridge2_layer(self) -> LayerConfig:
        return LayerConfig(self.decoder_cfg.d_model, self.bridge2.n_heads,
                           self.bridge2.d_ff, causal=False)


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
                 lr2hr: Translator):
        self.cfg = cfg
        self.store = store
        self.world = world
        self.lr2hr = lr2hr

    @classmethod
    def assemble(cls, cfg: TallConfig, world: World, lr2hr: Translator,
                 hr2lr: Translator, llm: CausalLM, seed: int) -> "TallModel":
        if lr2hr.cfg.d_model != cfg.encoder_cfg.d_model:
            raise StageDimensionError(
                1, f"loaded encoder width {lr2hr.cfg.d_model} != config "
                   f"{cfg.encoder_cfg.d_model}")
        if llm.cfg.d_model != cfg.llm_cfg.d_model:
            raise StageDimensionError(
                4, f"loaded LM width {llm.cfg.d_model} != config "
                   f"{cfg.llm_cfg.d_model}")
        if hr2lr.cfg.d_model != cfg.decoder_cfg.d_model:
            raise StageDimensionError(
                7, f"loaded decoder width {hr2lr.cfg.d_model} != config "
                   f"{cfg.decoder_cfg.d_model}")
        store = ParamStore()
        store.adopt("encoder", lr2hr.store.subset("encoder"))
        store.adopt("llm", llm.store)
        store.adopt("decoder", hr2lr.store.subset("decoder"))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7A11]))
        nn.init_adapter(store, "adapter1", cfg.adapter1, rng)
        nn.init_embedding(store, "bridge1.pos", cfg.llm_cfg.max_len,
                          cfg.llm_cfg.d_model, rng)
        for i in range(cfg.bridge1.n_layers):
            nn.init_transformer_layer(store, f"bridge1.layers.{i}",
                                      cfg.bridge1_layer(), rng,
                                      cross_kv_dim=cfg.llm_cfg.d_model)
        nn.init_layer_norm(store, "bridge1.final_ln", cfg.llm_cfg.d_model)
        nn.init_adapter(store, "adapter2", cfg.adapter2, rng)
        nn.init_embedding(store, "bridge2.pos", cfg.llm_cfg.max_len,
                          cfg.decoder_cfg.d_model, rng)
        for i in range(cfg.bridge2.n_layers):
            nn.init_transformer_layer(store, f"bridge2.layers.{i}",
                                      cfg.bridge2_layer(), rng)
        nn.init_layer_norm(store, "bridge2.final_ln", cfg.decoder_cfg.d_model)
        for part in FROZEN_PARTS:
            store.freeze(part)
        return cls(cfg, store, world, lr2hr)

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
        from .models import encoder_forward

        h = encoder_forward(self.store, "encoder", self.cfg.encoder_cfg,
                            enc_ids, enc_lengths)
        if h.shape[-1] != self.cfg.adapter1.d_in:
            raise StageDimensionError(
                2, f"encoder output width {h.shape[-1]} != adapter1.d_in "
                   f"{self.cfg.adapter1.d_in}")
        return h

    def bridge1_forward(self, hr_ids: np.ndarray, hr_lengths: np.ndarray,
                        h_a1: Tensor, a1_lengths: np.ndarray) -> Tensor:
        """Stage 3: causal bridge over LM token embeddings + cross-attn."""
        if h_a1.shape[-1] != self.cfg.llm_cfg.d_model:
            raise StageDimensionError(
                3, f"cross-attention memory width {h_a1.shape[-1]} != LM "
                   f"width {self.cfg.llm_cfg.d_model}")
        x = T.embedding(self.store["llm.tok_embed"], hr_ids)
        x = T.add(x, T.embedding(self.store["bridge1.pos"],
                                 np.arange(hr_ids.shape[1])))
        self_mask = causal_valid_mask(hr_lengths, hr_ids.shape[1])
        cross_mask = key_valid_mask(a1_lengths, hr_ids.shape[1], h_a1.shape[1])
        cfg = self.cfg.bridge1_layer()
        for i in range(self.cfg.bridge1.n_layers):
            x = nn.transformer_layer_forward(
                x, h_a1, cfg, self.store, f"bridge1.layers.{i}", self_mask,
                cross_mask)
        return nn.layer_norm(x, self.store, "bridge1.final_ln")

    def llm_blocks(self, h_b1: Tensor, hr_lengths: np.ndarray) -> Tensor:
        """Stage 4: frozen LM blocks on injected embeddings, positions re-added."""
        if h_b1.shape[-1] != self.cfg.llm_cfg.d_model:
            raise StageDimensionError(
                4, f"injected embedding width {h_b1.shape[-1]} != LM width "
                   f"{self.cfg.llm_cfg.d_model}")
        from .models import _stack_forward

        x = T.add(h_b1, T.embedding(self.store["llm.pos"],
                                    np.arange(h_b1.shape[1])))
        mask = causal_valid_mask(hr_lengths, h_b1.shape[1])
        return _stack_forward(x, self.store, "llm", self.cfg.llm_cfg.n_layers,
                              self.cfg.llm_cfg.layer(), mask)

    def bridge2_forward(self, h_a2: Tensor, lengths: np.ndarray) -> Tensor:
        """Stage 6: bidirectional bridge preparing the decoder memory."""
        if h_a2.shape[-1] != self.cfg.decoder_cfg.d_model:
            raise StageDimensionError(
                6, f"bridge2 input width {h_a2.shape[-1]} != decoder width "
                   f"{self.cfg.decoder_cfg.d_model}")
        x = T.add(h_a2, T.embedding(self.store["bridge2.pos"],
                                    np.arange(h_a2.shape[1])))
        mask = key_valid_mask(lengths, h_a2.shape[1], h_a2.shape[1])
        cfg = self.cfg.bridge2_layer()
        for i in range(self.cfg.bridge2.n_layers):
            x = nn.transformer_layer_forward(
                x, None, cfg, self.store, f"bridge2.layers.{i}", mask)
        return nn.layer_norm(x, self.store, "bridge2.final_ln")

    def decode(self, dec_ids: np.ndarray, dec_lengths: np.ndarray,
               memory: Tensor, memory_lengths: np.ndarray) -> Tensor:
        """Stage 7: frozen decoder plus frozen tied head -> LR logits."""
        if memory.shape[-1] != self.cfg.decoder_cfg.d_model:
            raise StageDimensionError(
                7, f"decoder memory width {memory.shape[-1]} != decoder "
                   f"width {self.cfg.decoder_cfg.d_model}")
        from .models import decoder_forward

        hidden = decoder_forward(self.store, "decoder", self.cfg.decoder_cfg,
                                 dec_ids, dec_lengths, memory, memory_lengths)
        return tied_logits(hidden, self.store["decoder.tgt_embed"])

    def forward(self, batch: TallBatch) -> Tensor:
        """All seven stages; logits [B, Lt, V_lr], position t predicts
        teacher token t."""
        h_enc = self.encode_lr(batch.enc_ids, batch.enc_lengths)
        h_a1 = nn.adapter_forward(h_enc, self.cfg.adapter1, self.store,
                                  "adapter1")
        h_b1 = self.bridge1_forward(batch.hr_ids, batch.hr_lengths, h_a1,
                                    batch.enc_lengths)
        h_llm = self.llm_blocks(h_b1, batch.hr_lengths)
        h_a2 = nn.adapter_forward(h_llm, self.cfg.adapter2, self.store,
                                  "adapter2")
        h_b2 = self.bridge2_forward(h_a2, batch.hr_lengths)
        return self.decode(batch.dec_ids, batch.dec_lengths, h_b2,
                           batch.hr_lengths)

    # -- data plumbing --------------------------------------------------------

    def translate_prefixes(self, prefixes: list, batch_size: int = 256) -> list:
        """Frozen greedy LR->HR translation, re-tokenized into LM ids."""
        out = []
        for start in range(0, len(prefixes), batch_size):
            chunk = prefixes[start : start + batch_size]
            hr = self.lr2hr.greedy_translate(chunk)
            out.extend(
                [BOS] + self.world.hr_to_lm(np.array(h, dtype=np.int64)).tolist()
                if h else [BOS]
                for h in hr
            )
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
        """Mean final-token cross entropy (all other positions zero-grad)."""
        logits = self.forward(batch)
        return T.cross_entropy_last_token(logits, batch.targets,
                                          batch.dec_lengths)

    # -- inference ------------------------------------------------------------

    def predict_final_tokens(self, prefixes: list, sampler: SamplerConfig,
                             rngs: list | None = None,
                             hr_lm_seqs: list | None = None) -> list[int]:
        """Missing-word prediction for a batch of LR prefixes.

        One word is one token in this world, so a single sampled token
        per example is the answer.  ``rngs`` supplies one generator per
        example (defaults to streams derived from sampler.seed).
        """
        if any(len(p) == 0 for p in prefixes):
            raise ValueError("cannot predict from an empty prefix")
        if hr_lm_seqs is None:
            hr_lm_seqs = self.translate_prefixes(prefixes)
        enc_ids, enc_lengths = pad_batch([list(p) + [EOS] for p in prefixes])
        hr_ids, hr_lengths = pad_batch(hr_lm_seqs)
        dec_ids, dec_lengths = pad_batch([[BOS] + list(p) for p in prefixes])
        h_enc = self.encode_lr(enc_ids, enc_lengths)
        h_a1 = nn.adapter_forward(h_enc, self.cfg.adapter1, self.store,
                                  "adapter1")
        h_b1 = self.bridge1_forward(hr_ids, hr_lengths, h_a1, enc_lengths)
        h_llm = self.llm_blocks(h_b1, hr_lengths)
        h_a2 = nn.adapter_forward(h_llm, self.cfg.adapter2, self.store,
                                  "adapter2")
        h_b2 = self.bridge2_forward(h_a2, hr_lengths)
        logits = self.decode(dec_ids, dec_lengths, h_b2, hr_lengths).data
        last = logits[np.arange(len(prefixes)), dec_lengths - 1]
        if rngs is None:
            rngs = [example_rng(sampler.seed, i) for i in range(len(prefixes))]
        return [int(sample_token(last[i], sampler, rngs[i]))
                for i in range(len(prefixes))]


def train_tall(model: TallModel, corpus: list[BilingualPair],
               train_cfg: TrainConfig, eval_every: int = 0
               ) -> tuple[dict, list[dict]]:
    """Final-token training of the four trainable parts.

    Strips the last word of each LR sentence, greedy-translates the
    prefix once up front (the translator is frozen, so the translations
    are constants), then optimizes the mean final-token cross entropy
    with AdamW under a cosine schedule.  Tracks held-out loss, accuracy
    and perplexity, and restores the best snapshot by held-out loss.
    """
    if not corpus:
        raise ValueError("corpus must be nonempty")
    model.check_frozen()
    teachers = [list(p.lr_tokens) for p in corpus]
    hr_lm = model.translate_prefixes([t[:-1] for t in teachers])
    examples = list(zip(teachers, hr_lm))
    train, heldout = split_train_eval(examples, train_cfg.eval_fraction,
                                      train_cfg.seed)
    opt = AdamW(model.store, lr=train_cfg.learning_rate,
                weight_decay=train_cfg.weight_decay)
    updates_per_epoch = -(-len(train) // (train_cfg.batch_size
                                          * train_cfg.grad_accum_steps))
    total_updates = max(1, updates_per_epoch * train_cfg.epochs)
    metrics: list[dict] = []
    best = {"loss": np.inf, "step": -1, "params": None}
    update = 0

    def evaluate(step: int) -> None:
        if not heldout:
            return
        stats = evaluate_tall(model, heldout, batch_size=train_cfg.batch_size)
        metrics.append({"step": step, "split": "eval", **stats})
        if stats["loss"] < best["loss"]:
            best.update(loss=stats["loss"], step=step, params={
                n: t.data.copy() for n, t in model.store.trainable_items()})

    for epoch in range(train_cfg.epochs):
        pending_loss, pending_examples, micro = 0.0, 0, 0
        for batch_idx in _epoch_batches(len(train), train_cfg.batch_size,
                                        train_cfg.seed, epoch):
            chunk = [train[i] for i in batch_idx]
            batch = model.make_batch([t for t, _ in chunk],
                                     [h for _, h in chunk])
            with Tape() as tape:
                mean_loss = model.loss(batch)
                loss_sum = T.scale(mean_loss, float(len(chunk)))
            tape.backward(loss_sum)
            pending_loss += loss_sum.item()
            pending_examples += len(chunk)
            micro += 1
            if micro < train_cfg.grad_accum_steps:
                continue
            if not np.isfinite(pending_loss):
                raise NumericalError(
                    f"tall training diverged at update {update}")
            for p in opt.params:
                if p.grad is not None:
                    p.grad = p.grad / pending_examples
            grad_norm = clip_grad_norm(opt.params, train_cfg.grad_clip_norm)
            lr = cosine_lr(update, total_updates, train_cfg.learning_rate,
                           train_cfg.warmup_steps)
            opt.step(lr)
            opt.zero_grad()
            metrics.append({
                "step": update, "split": "train",
                "loss": pending_loss / pending_examples,
                "lr": lr, "grad_norm": grad_norm,
            })
            update += 1
            if eval_every and update % eval_every == 0:
                evaluate(update)
            pending_loss, pending_examples, micro = 0.0, 0, 0
        evaluate(update)

    if best["params"] is not None:
        for n, arr in best["params"].items():
            model.store[n].data[:] = arr
    meta = {
        "kind": "tall",
        "seed": train_cfg.seed,
        "step": update,
        "best_step": best["step"],
        "best_eval_loss": None if best["loss"] is np.inf else float(best["loss"]),
    }
    return meta, metrics


def evaluate_tall(model: TallModel, examples: list, batch_size: int = 64
                  ) -> dict:
    """Held-out final-token loss, greedy accuracy, and perplexity."""
    total_loss, hits, count = 0.0, 0, 0
    for start in range(0, len(examples), batch_size):
        chunk = examples[start : start + batch_size]
        batch = model.make_batch([t for t, _ in chunk], [h for _, h in chunk])
        logits = model.forward(batch)
        loss = T.cross_entropy_last_token(logits, batch.targets,
                                          batch.dec_lengths)
        total_loss += loss.item() * len(chunk)
        last = logits.data[np.arange(len(chunk)), batch.dec_lengths - 1]
        hits += int((last.argmax(axis=1) == batch.targets).sum())
        count += len(chunk)
    mean_loss = total_loss / count
    return {"loss": mean_loss, "accuracy": hits / count,
            "perplexity": float(np.exp(mean_loss))}
