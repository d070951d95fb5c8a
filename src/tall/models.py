"""Toy sequence models: an encoder-decoder translator and a causal LM.

Both are pre-LN transformers over the blocks in :mod:`tall.nn`, with the
output projection weight-tied to the target-side token embedding.  Every
transformer stack, here and in :mod:`tall.pipeline`, runs through
``_stack_forward``, which owns four decisions.  It packs the batch: from
the sequence lengths and the padded width L it builds the
:class:`~tall.tensor.Packing` of the real positions (:func:`packing`),
gathers the token embeddings of those ids alone (or takes another
stack's packed rows), and every activation from there on is packed rows
[N, d], one per real token, so no linear, norm, GELU, tied head or loss
runs on a PAD position; attention alone scatters to the [B, L] grid, and
when every position is real the packing is a reshape.  It adds the
stack's learned ``<prefix>.pos`` table at each real position (and
rejects a sequence longer than that table), builds the memory's packing
from the memory lengths, and, when its caller passes ``last``, runs the
last layer's queries, feed-forward and the final norm on each row's last
real token alone (as Hugging Face's ``logits_to_keep=1`` does).  It
builds no mask: each packing carries its lengths and first position, and
:func:`tensor.attention` masks from them, causally exactly when the
stack's :class:`~tall.nn.LayerConfig` says so.  The callers that read
one next-token row pass ``last``: ``next_token_logits``, the soft prompt
and stage 7 of the pipeline; teacher-forced training reads every real
position, so its logits are [N, V] and its labels are the target
sequences laid end to end.  Greedy decoding is incremental:
``decoder_forward`` with a per-layer :class:`~tall.nn.LayerCache` list
(``LayerCache.decode``, sized for the step cap) embeds only the newest
token, at the position after the cached ones; each self-attention block
writes the step's keys and values into the next column of its decode
buffer, allocated once per call, and attends to the filled columns; and
cross-attention projects the encoder memory into a key and a value grid
once, on the first step.  Every step is a full batch, so its packing is
a reshape.  The third cache kind, a prefix every row shares
(``LayerCache.prefix``), serves the soft prompt.  Teacher-forced
training passes no cache and runs the whole sequence in one call.

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
    d_model: int
    n_heads: int
    d_ff: int
    enc_layers: int
    dec_layers: int
    max_len: int

    def layer(self, causal: bool) -> LayerConfig:
        return LayerConfig(self.d_model, self.n_heads, self.d_ff, causal)


@dataclass(frozen=True)
class CausalLMConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    d_ff: int
    n_layers: int
    max_len: int

    def layer(self) -> LayerConfig:
        return LayerConfig(self.d_model, self.n_heads, self.d_ff, causal=True)


def pad_batch(seqs: list) -> tuple[np.ndarray, np.ndarray]:
    """Stack ragged id sequences into (ids [B, L], lengths [B]), padded
    with PAD."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    out = np.full((len(seqs), max(1, int(lengths.max(initial=0)))), PAD,
                  dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out, lengths


def packing(lengths: np.ndarray, width: int, start: int = 0) -> T.Packing:
    """The real positions of a [B, width] call whose first position is
    ``start``: position j of row i is real iff ``start + j < lengths[i]``.

    Rows are packed in row-major order, so row i's real positions are
    consecutive and follow those of rows 0 .. i - 1; when every position
    is real the packing is a reshape.
    """
    lengths = np.asarray(lengths)
    valid = start + np.arange(width)[None, :] < lengths[:, None]
    return T.Packing(len(valid), width,
                     None if valid.all() else np.flatnonzero(valid),
                     lengths=lengths, start=start)


def _p(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def tied_logits(hidden: Tensor, embed: Tensor) -> Tensor:
    """Project hidden states onto the vocabulary via the embedding table."""
    return T.matmul(hidden, T.swapaxes(embed, 0, 1))


def _width(lengths: np.ndarray, start: int = 0) -> int:
    """The grid width ``pad_batch`` gives rows of ``lengths`` past ``start``."""
    return max(1, int(np.max(lengths, initial=0)) - start)


def _stack_forward(x, store: ParamStore, prefix: str, n_layers: int,
                   cfg: LayerConfig, lengths: np.ndarray, cross_kv=None,
                   cross_lengths=None, cache: list | None = None,
                   last: bool = False, embed: Tensor | None = None) -> Tensor:
    """One transformer stack over the real positions of a [B, L] batch.

    ``x`` is token ids [B, L], looked up in ``embed``, or, without
    ``embed``, input embeddings [N, d]: one row per real position, packed
    as :func:`packing` packs them (another stack's output over the same
    lengths), with L the width ``pad_batch`` gives.  The stack builds the
    packing from ``lengths`` and L, gathers the token and position
    embeddings of the real positions alone, and runs every position-wise
    op on those N rows; attention alone sees the grid.  Every layer
    attends with the same packings, so :func:`tensor.attention` builds
    each mask bias once per stack call and the later layers reuse it.

    Adds ``<prefix>.pos`` at positions ``start .. start + L - 1``, where
    ``start`` counts the tokens already in ``cache``; attention sees the
    keys before ``lengths`` (which count cached tokens too), causally iff
    ``cfg.causal``, and, in cross-attention to ``cross_kv``, the packed
    rows of a batch of ``cross_lengths``, the keys before
    ``cross_lengths``.
    Returns the packed hidden states [N, d], or with ``last`` the hidden
    state [B, d] of each row's last real token, position
    ``lengths[i] - 1``: the last layer then runs its queries,
    feed-forward and the final norm on those rows alone; a row with no
    real position among the call's, which has no such token, is refused.
    """
    lengths = np.asarray(lengths)
    b = len(lengths)
    start = 0 if cache is None else cache[0].self_attn.length
    if last and np.any(lengths <= start):
        raise IndexError(f"rows {np.flatnonzero(lengths <= start).tolist()} "
                         f"have no real position to read")
    width = x.shape[1] if embed is not None else _width(lengths, start)
    end = start + width
    pos_table = store[_p(prefix, "pos")]
    if end > pos_table.shape[0]:
        raise ShapeError(
            f"sequence length {end} exceeds {_p(prefix, 'pos')} table "
            f"({pos_table.shape[0]} positions)"
        )
    rows = packing(lengths, width, start)
    if embed is not None:
        x = T.embedding(embed, rows.rows(np.asarray(x)))
    elif x.shape[0] != rows.n:
        raise ShapeError(f"{prefix or 'stack'} input has {x.shape[0]} rows, "
                         f"but lengths {lengths.tolist()} give {rows.n}")
    positions = rows.rows(np.broadcast_to(np.arange(start, end), (b, width)))
    x = T.add(x, T.embedding(pos_table, positions))
    cross_rows = None
    if cross_kv is not None:
        cross_rows = packing(cross_lengths, _width(cross_lengths))
    for i in range(n_layers):
        x = nn.transformer_layer_forward(
            x, cross_kv, cfg, store, _p(prefix, f"layers.{i}"), rows,
            cross_rows, None if cache is None else cache[i],
            last and i == n_layers - 1)
    # the tape keeps the packing alive until backward, but not its biases
    rows.biases.clear()
    return nn.layer_norm(x, store, _p(prefix, "final_ln"))


def init_stack(store: ParamStore, prefix: str, n_pos: int, n_layers: int,
               cfg: LayerConfig, rng: np.random.Generator,
               cross_kv_dim: int | None = None) -> None:
    """Positions, then ``n_layers`` layers, then the final layer norm."""
    nn.init_embedding(store, _p(prefix, "pos"), n_pos, cfg.d_model, rng)
    for i in range(n_layers):
        nn.init_transformer_layer(store, _p(prefix, f"layers.{i}"), cfg, rng,
                                  cross_kv_dim=cross_kv_dim)
    nn.init_layer_norm(store, _p(prefix, "final_ln"), cfg.d_model)


def init_encoder(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                 rng: np.random.Generator) -> None:
    nn.init_embedding(store, f"{prefix}.src_embed", cfg.vocab_src, cfg.d_model, rng)
    init_stack(store, prefix, cfg.max_len, cfg.enc_layers,
               cfg.layer(causal=False), rng)


def init_decoder(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                 rng: np.random.Generator) -> None:
    nn.init_embedding(store, f"{prefix}.tgt_embed", cfg.vocab_tgt, cfg.d_model, rng)
    init_stack(store, prefix, cfg.max_len, cfg.dec_layers,
               cfg.layer(causal=True), rng, cross_kv_dim=cfg.d_model)


def encoder_forward(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                    ids: np.ndarray, lengths: np.ndarray) -> Tensor:
    """Encoder hidden states: the packed rows [N, d] of ``ids`` [B, L]."""
    return _stack_forward(ids, store, prefix, cfg.enc_layers,
                          cfg.layer(causal=False), lengths,
                          embed=store[f"{prefix}.src_embed"])


def decoder_forward(store: ParamStore, prefix: str, cfg: Seq2SeqConfig,
                    ids: np.ndarray, lengths: np.ndarray, memory: Tensor,
                    memory_lengths: np.ndarray,
                    cache: list[nn.LayerCache] | None = None,
                    last: bool = False) -> Tensor:
    """Decoder hidden states for ``ids`` [B, L]: packed rows [N, d], or
    with ``last`` [B, d] at each row's last real token; ``memory`` holds
    the packed encoder rows of a batch of ``memory_lengths``.

    With ``cache`` (one :class:`~tall.nn.LayerCache` per layer) ``ids``
    continue the tokens already cached, and ``lengths`` count the cached
    tokens too.  The first call with fresh caches projects ``memory`` for
    cross-attention; later calls reuse that projection.
    """
    return _stack_forward(ids, store, prefix, cfg.dec_layers,
                          cfg.layer(causal=True), lengths, cross_kv=memory,
                          cross_lengths=memory_lengths, cache=cache,
                          last=last, embed=store[f"{prefix}.tgt_embed"])


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
                       ) -> tuple[Tensor, np.ndarray]:
        """Teacher-forced logits [N, V], one row per target token, and
        their labels [N]."""
        memory, mem_lengths = self.encode(src_seqs)
        dec_ids, dec_lengths = pad_batch([[BOS] + list(t) for t in tgt_seqs])
        hidden = decoder_forward(self.store, "decoder", self.cfg, dec_ids,
                                 dec_lengths, memory, mem_lengths)
        logits = tied_logits(hidden, self.store["decoder.tgt_embed"])
        return logits, _packed_labels(tgt_seqs)

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
        cache = [nn.LayerCache.decode(cap) for _ in range(self.cfg.dec_layers)]
        step_ids = np.full((b, 1), BOS, dtype=np.int64)
        done = np.zeros(b, dtype=bool)
        out = [[] for _ in range(b)]
        for t in range(cap):
            hidden = decoder_forward(self.store, "decoder", self.cfg, step_ids,
                                     np.full(b, t + 1), memory, mem_lengths,
                                     cache)
            logits = tied_logits(hidden, self.store["decoder.tgt_embed"]).data
            nxt = logits.argmax(axis=1)
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
        init_stack(store, "", cfg.max_len, cfg.n_layers, cfg.layer(), rng)
        return cls(cfg, store)

    def hidden_from_ids(self, ids: np.ndarray, lengths: np.ndarray,
                        last: bool = False,
                        cache: list[nn.LayerCache] | None = None) -> Tensor:
        """Run the blocks on token ids [B, L]: packed rows [N, d], or
        with ``last`` [B, d] at each row's last real token; with
        ``cache`` ``ids`` continue the cached tokens (see
        ``_stack_forward``)."""
        return _stack_forward(ids, self.store, "", self.cfg.n_layers,
                              self.cfg.layer(), lengths, cache=cache,
                              last=last, embed=self.store["tok_embed"])

    def hidden_from_embeddings(self, x: Tensor, lengths: np.ndarray,
                               last: bool = False,
                               cache: list[nn.LayerCache] | None = None
                               ) -> Tensor:
        """Run the blocks, positions included, on input embeddings: the
        packed rows [N, d] of a batch of ``lengths``; returns [N, d], or
        with ``last`` [B, d] at each row's last real token.  With
        ``cache`` ``x`` continues the cached embeddings (see
        ``_stack_forward``)."""
        return _stack_forward(x, self.store, "", self.cfg.n_layers,
                              self.cfg.layer(), lengths, cache=cache,
                              last=last)

    def logits_for(self, seqs: list) -> tuple[Tensor, np.ndarray]:
        """Teacher-forced LM logits [N, V], one row per label, and their
        labels [N], for training."""
        ids, lengths = pad_batch([[BOS] + list(s) for s in seqs])
        hidden = self.hidden_from_ids(ids, lengths)
        return tied_logits(hidden, self.store["tok_embed"]), _packed_labels(seqs)

    def next_token_logits(self, prefixes: list) -> np.ndarray:
        """Logits over the vocabulary for the token after each prefix."""
        ids, lengths = pad_batch([[BOS] + list(p) for p in prefixes])
        hidden = self.hidden_from_ids(ids, lengths, last=True)
        return tied_logits(hidden, self.store["tok_embed"]).data


def _packed_labels(seqs: list) -> np.ndarray:
    """The labels ``tokens + [EOS]`` of every sequence, end to end: the
    packed order of the rows of a ``[BOS] + tokens`` batch."""
    return np.array([t for s in seqs for t in (*s, EOS)], dtype=np.int64)
