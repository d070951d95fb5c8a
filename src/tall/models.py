"""Toy sequence models: an encoder-decoder translator and a causal LM.

Both are pre-LN transformers over the blocks in :mod:`tall.nn`, with
learned absolute positions added at the embedding step and the output
projection weight-tied to the target-side token embedding.  Greedy
decoding is incremental: ``decoder_forward`` with a per-layer
:class:`~tall.nn.LayerCache` list embeds only the newest token, at the
position after the cached ones, appends its self-attention keys and
values to the cache and projects the encoder memory into cross-attention
keys and values once, on the first step.  Teacher-forced training passes
no cache and runs the whole sequence in one call.

Sequence conventions (content ids exclude specials):

* encoder input:  ``tokens + [EOS]``
* decoder input:  ``[BOS] + tokens`` with labels ``tokens + [EOS]``
* causal LM:      input ``[BOS] + tokens`` with labels ``tokens + [EOS]``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import tensor as T
from .nn import LayerConfig, ParamStore
from .tensor import ShapeError, Tensor
from .world import BOS, EOS, PAD


@dataclass(frozen=True)
class Seq2SeqConfig:
    vocab_src: int
    vocab_tgt: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    enc_layers: int = 2
    dec_layers: int = 2
    max_len: int = 32

    def layer(self, causal: bool) -> LayerConfig:
        return LayerConfig(self.d_model, self.n_heads, self.d_ff, causal)


@dataclass(frozen=True)
class CausalLMConfig:
    vocab_size: int
    d_model: int = 96
    n_heads: int = 4
    d_ff: int = 384
    n_layers: int = 3
    max_len: int = 64

    def layer(self) -> LayerConfig:
        return LayerConfig(self.d_model, self.n_heads, self.d_ff, causal=True)


def pad_batch(seqs: list, pad_value: int = PAD) -> tuple[np.ndarray, np.ndarray]:
    """Stack ragged id sequences into (ids [B, L], lengths [B])."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    out = np.full((len(seqs), max(1, int(lengths.max(initial=0)))), pad_value,
                  dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out, lengths


def key_valid_mask(lengths: np.ndarray, l_query: int, l_key: int) -> np.ndarray:
    """[B, Lq, Lk] mask allowing only key positions below each length."""
    valid = np.arange(l_key)[None, :] < lengths[:, None]
    return np.broadcast_to(valid[:, None, :], (len(lengths), l_query, l_key))


def causal_valid_mask(lengths: np.ndarray, l: int) -> np.ndarray:
    return key_valid_mask(lengths, l, l) & nn.causal_mask(l)[None]


def _p(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def embed_sequence(store: ParamStore, prefix: str, embed_name: str,
                   ids: np.ndarray, start: int = 0) -> Tensor:
    """Token embedding plus learned positions ``start .. start + L - 1``."""
    pos_table = store[_p(prefix, "pos")]
    end = start + ids.shape[-1]
    if end > pos_table.shape[0]:
        raise ShapeError(
            f"sequence length {end} exceeds {_p(prefix, 'pos')} table "
            f"({pos_table.shape[0]} positions)"
        )
    tok = T.embedding(store[_p(prefix, embed_name)], ids)
    pos = T.embedding(pos_table, np.arange(start, end))
    return T.add(tok, pos)


def tied_logits(hidden: Tensor, embed: Tensor) -> Tensor:
    """Project hidden states onto the vocabulary via the embedding table."""
    return T.matmul(hidden, T.swapaxes(embed, 0, 1))


def _stack_forward(x: Tensor, store: ParamStore, prefix: str, n_layers: int,
                   cfg: LayerConfig, self_mask, cross_kv=None,
                   cross_mask=None, cache: list | None = None) -> Tensor:
    for i in range(n_layers):
        x = nn.transformer_layer_forward(
            x, cross_kv, cfg, store, _p(prefix, f"layers.{i}"), self_mask,
            cross_mask, None if cache is None else cache[i])
    return nn.layer_norm(x, store, _p(prefix, "final_ln"))


def init_encoder(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                 rng: np.random.Generator) -> None:
    nn.init_embedding(store, f"{prefix}.src_embed", cfg.vocab_src, cfg.d_model, rng)
    nn.init_embedding(store, f"{prefix}.pos", cfg.max_len, cfg.d_model, rng)
    for i in range(cfg.enc_layers):
        nn.init_transformer_layer(store, f"{prefix}.layers.{i}",
                                  cfg.layer(causal=False), rng)
    nn.init_layer_norm(store, f"{prefix}.final_ln", cfg.d_model)


def init_decoder(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                 rng: np.random.Generator) -> None:
    nn.init_embedding(store, f"{prefix}.tgt_embed", cfg.vocab_tgt, cfg.d_model, rng)
    nn.init_embedding(store, f"{prefix}.pos", cfg.max_len, cfg.d_model, rng)
    for i in range(cfg.dec_layers):
        nn.init_transformer_layer(store, f"{prefix}.layers.{i}",
                                  cfg.layer(causal=True), rng,
                                  cross_kv_dim=cfg.d_model)
    nn.init_layer_norm(store, f"{prefix}.final_ln", cfg.d_model)


def encoder_forward(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                    ids: np.ndarray, lengths: np.ndarray) -> Tensor:
    x = embed_sequence(store, prefix, "src_embed", ids)
    mask = key_valid_mask(lengths, ids.shape[1], ids.shape[1])
    return _stack_forward(x, store, prefix, cfg.enc_layers,
                          cfg.layer(causal=False), mask)


def decoder_forward(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                    ids: np.ndarray, lengths: np.ndarray, memory: Tensor,
                    memory_lengths: np.ndarray,
                    cache: list[nn.LayerCache] | None = None) -> Tensor:
    """Decoder hidden states for ``ids`` [B, L].

    With ``cache`` (one :class:`~tall.nn.LayerCache` per layer) ``ids``
    continue the tokens already cached, and ``lengths`` count the cached
    tokens too.  The first call with fresh caches projects ``memory`` for
    cross-attention; later calls reuse that projection.
    """
    start = 0 if cache is None else cache[0].self_attn.length
    x = embed_sequence(store, prefix, "tgt_embed", ids, start)
    end = start + ids.shape[1]
    self_mask = causal_valid_mask(lengths, end)[:, start:]
    cross_mask = key_valid_mask(memory_lengths, ids.shape[1], memory.shape[1])
    return _stack_forward(x, store, prefix, cfg.dec_layers,
                          cfg.layer(causal=True), self_mask,
                          cross_kv=memory, cross_mask=cross_mask, cache=cache)


class Translator:
    """Encoder-decoder with tied target head, for one direction."""

    def __init__(self, cfg: Seq2SeqConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store

    @classmethod
    def init(cls, cfg: Seq2SeqConfig, seed: int) -> "Translator":
        store = ParamStore()
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E9]))
        init_encoder(store, "encoder", cfg, rng)
        init_decoder(store, "decoder", cfg, rng)
        return cls(cfg, store)

    def encode(self, src_seqs: list) -> tuple[Tensor, np.ndarray]:
        ids, lengths = pad_batch([list(s) + [EOS] for s in src_seqs])
        return encoder_forward(self.store, "encoder", self.cfg, ids, lengths), lengths

    def teacher_logits(self, src_seqs: list, tgt_seqs: list
                       ) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Teacher-forced logits plus (labels, label_mask) for the loss."""
        memory, mem_lengths = self.encode(src_seqs)
        dec_ids, dec_lengths = pad_batch([[BOS] + list(t) for t in tgt_seqs])
        labels, _ = pad_batch([list(t) + [EOS] for t in tgt_seqs])
        hidden = decoder_forward(self.store, "decoder", self.cfg, dec_ids,
                                 dec_lengths, memory, mem_lengths)
        logits = tied_logits(hidden, self.store["decoder.tgt_embed"])
        mask = np.arange(labels.shape[1])[None, :] < dec_lengths[:, None]
        return logits, labels, mask

    def greedy_translate(self, src_seqs: list, cap: int | None = None) -> list:
        """Deterministic argmax decode; returns content ids without EOS.

        Rows decode in lockstep, one cached ``decoder_forward`` call per
        step, for at most ``cap`` steps or until every row has emitted
        EOS.  A row that has emitted EOS is fed PAD from then on; PAD
        tokens (emitted or fed) are left out of the result.
        """
        if not src_seqs:
            return []
        cap = cap if cap is not None else self.cfg.max_len - 1
        memory, mem_lengths = self.encode(src_seqs)
        b = len(src_seqs)
        cache = [nn.LayerCache() for _ in range(self.cfg.dec_layers)]
        step_ids = np.full((b, 1), BOS, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        out = [[] for _ in range(b)]
        for t in range(cap):
            hidden = decoder_forward(self.store, "decoder", self.cfg, step_ids,
                                     np.full(b, t + 1), memory, mem_lengths,
                                     cache)
            logits = tied_logits(hidden, self.store["decoder.tgt_embed"]).data
            nxt = logits[:, -1].argmax(axis=1)
            done = done | (nxt == EOS)
            step_ids = np.where(done, PAD, nxt)[:, None]
            for i in np.flatnonzero(~done & (nxt != PAD)):
                out[i].append(int(nxt[i]))
            if done.all():
                break
        return out


class CausalLM:
    """Decoder-only next-token model with tied output head."""

    def __init__(self, cfg: CausalLMConfig, store: ParamStore):
        self.cfg = cfg
        self.store = store

    @classmethod
    def init(cls, cfg: CausalLMConfig, seed: int) -> "CausalLM":
        store = ParamStore()
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x11A]))
        nn.init_embedding(store, "tok_embed", cfg.vocab_size, cfg.d_model, rng)
        nn.init_embedding(store, "pos", cfg.max_len, cfg.d_model, rng)
        for i in range(cfg.n_layers):
            nn.init_transformer_layer(store, f"layers.{i}", cfg.layer(), rng)
        nn.init_layer_norm(store, "final_ln", cfg.d_model)
        return cls(cfg, store)

    def hidden_from_ids(self, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        x = embed_sequence(self.store, "", "tok_embed", ids)
        return self.hidden_from_embeddings(x, lengths, add_positions=False)

    def hidden_from_embeddings(self, x: Tensor, lengths: np.ndarray,
                               add_positions: bool = True) -> Tensor:
        """Run the blocks on externally supplied input embeddings."""
        if add_positions:
            pos = T.embedding(self.store["pos"], np.arange(x.shape[1]))
            x = T.add(x, pos)
        mask = causal_valid_mask(lengths, x.shape[1])
        return _stack_forward(x, self.store, "", self.cfg.n_layers,
                              self.cfg.layer(), mask)

    def logits_for(self, seqs: list) -> tuple[Tensor, np.ndarray, np.ndarray]:
        """Teacher-forced LM logits plus (labels, mask) for training."""
        ids, lengths = pad_batch([[BOS] + list(s) for s in seqs])
        labels, _ = pad_batch([list(s) + [EOS] for s in seqs])
        hidden = self.hidden_from_ids(ids, lengths)
        logits = tied_logits(hidden, self.store["tok_embed"])
        mask = np.arange(labels.shape[1])[None, :] < lengths[:, None]
        return logits, labels, mask

    def next_token_logits(self, prefixes: list) -> np.ndarray:
        """Logits over the vocabulary for the token after each prefix."""
        ids, lengths = pad_batch([[BOS] + list(p) for p in prefixes])
        hidden = self.hidden_from_ids(ids, lengths)
        logits = tied_logits(hidden, self.store["tok_embed"]).data
        return logits[np.arange(len(prefixes)), lengths - 1]
