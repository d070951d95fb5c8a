"""Transformer building blocks over a named parameter store.

Blocks are plain functions: parameters live in a :class:`ParamStore`
under dotted prefixes, and each ``*_forward`` function reads the names
its matching ``init_*`` function created.  Conventions:

* pre-LayerNorm residual layers, single output projection per attention
  block, biases everywhere, GELU feed-forward.
* masked attention logits get -1e9 rather than -inf so softmax never
  sees NaN.
* incremental decoding passes a :class:`LayerCache` per layer: attention
  then keeps its projected keys and values between calls, so each call
  needs to project only its new query positions.
* every projection is one :func:`tensor.linear` node and every attention
  core (scores, mask, softmax, context) one :func:`tensor.attention`
  node, so the tape keeps one record per composite.
* a layer given ``read`` (one position per row) runs everything after
  its self-attention keys and values on those rows alone: this module is
  the one caller of :func:`tensor.take_rows`.
* the dimension-alignment adapter is Linear -> LayerNorm -> GELU ->
  Linear -> LayerNorm; this is the stack whose parameter count matches
  the published per-module figures (see adapter_param_count).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import ContractError, ShapeError, Tensor

MASKED_LOGIT = -1e9


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int
    n_heads: int
    d_kv: int | None = None  # key/value input width; defaults to d_model

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )

    @property
    def kv_dim(self) -> int:
        return self.d_kv if self.d_kv is not None else self.d_model


@dataclass(frozen=True)
class AdapterSpec:
    d_in: int
    d_hidden: int
    d_out: int

    def __post_init__(self):
        if min(self.d_in, self.d_hidden, self.d_out) <= 0:
            raise ShapeError(f"adapter dims must be positive, got {self}")


@dataclass(frozen=True)
class LayerConfig:
    """One transformer layer: attention geometry plus feed-forward width."""

    d_model: int
    n_heads: int
    d_ff: int
    causal: bool = False  # models._stack_forward builds a causal self mask

    def attn(self, d_kv: int | None = None) -> AttentionConfig:
        return AttentionConfig(self.d_model, self.n_heads, d_kv)


@dataclass
class KVCache:
    """Projected keys and values [B, L, d] one attention block keeps
    between incremental decode calls.

    With ``grow`` (self-attention) every call appends its keys and values
    and attends over all of them.  Without it (cross-attention) the first
    call projects its key/value input and later calls reuse the result,
    ignoring their key/value input.
    """

    grow: bool
    k: Tensor | None = None
    v: Tensor | None = None

    @property
    def length(self) -> int:
        return 0 if self.k is None else self.k.shape[1]


@dataclass
class LayerCache:
    """The attention caches of one transformer layer."""

    self_attn: KVCache = field(default_factory=lambda: KVCache(grow=True))
    cross_attn: KVCache = field(default_factory=lambda: KVCache(grow=False))


class ParamStore:
    """Insertion-ordered map of dotted names to tensors with frozen flags.

    Frozen entries keep ``requires_grad`` False so backward never stores
    gradients for them, and optimizers skip them entirely.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}
        self._frozen: set[str] = set()

    def add(self, name: str, value, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise KeyError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = trainable
        self._entries[name] = t
        if not trainable:
            self._frozen.add(name)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def is_frozen(self, name: str) -> bool:
        return name in self._frozen

    def freeze(self, prefix: str) -> int:
        """Freeze every entry whose name starts with ``prefix``."""
        hits = [n for n in self._entries if n.startswith(prefix)]
        if not hits:
            raise KeyError(f"freeze: no parameter matches prefix {prefix!r}")
        for n in hits:
            self._frozen.add(n)
            self._entries[n].requires_grad = False
            self._entries[n].grad = None
        return len(hits)

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._entries.items() if n not in self._frozen]

    def adopt(self, prefix: str, other: "ParamStore", trainable: bool = False) -> None:
        """Copy every entry of ``other`` in under ``prefix`` (fresh arrays)."""
        for name, t in other.items():
            self.add(f"{prefix}.{name}", t.data.copy(), trainable=trainable)

    def subset(self, prefix: str) -> "ParamStore":
        sub = ParamStore()
        plen = len(prefix) + 1
        for name, t in self._entries.items():
            if name.startswith(prefix + "."):
                sub.add(name[plen:], t.data.copy(), trainable=not self.is_frozen(name))
        if len(sub) == 0:
            raise KeyError(f"subset: no parameter matches prefix {prefix!r}")
        return sub

    def snapshot_bytes(self, prefix: str = "") -> dict[str, bytes]:
        return {
            n: t.data.tobytes()
            for n, t in self._entries.items()
            if n.startswith(prefix)
        }


# ---------------------------------------------------------------------------
# initialization


def init_linear(store: ParamStore, prefix: str, d_in: int, d_out: int,
                rng: np.random.Generator) -> None:
    store.add(f"{prefix}.weight", rng.normal(0.0, d_in ** -0.5, size=(d_in, d_out)))
    store.add(f"{prefix}.bias", np.zeros(d_out))


def init_layer_norm(store: ParamStore, prefix: str, dim: int) -> None:
    store.add(f"{prefix}.gamma", np.ones(dim))
    store.add(f"{prefix}.beta", np.zeros(dim))


def init_embedding(store: ParamStore, name: str, n: int, dim: int,
                   rng: np.random.Generator, std: float = 0.1) -> None:
    store.add(name, rng.normal(0.0, std, size=(n, dim)))


def init_adapter(store: ParamStore, prefix: str, spec: AdapterSpec,
                 rng: np.random.Generator) -> None:
    init_linear(store, f"{prefix}.linear1", spec.d_in, spec.d_hidden, rng)
    init_layer_norm(store, f"{prefix}.ln1", spec.d_hidden)
    init_linear(store, f"{prefix}.linear2", spec.d_hidden, spec.d_out, rng)
    init_layer_norm(store, f"{prefix}.ln2", spec.d_out)


def init_attention(store: ParamStore, prefix: str, cfg: AttentionConfig,
                   rng: np.random.Generator) -> None:
    init_linear(store, f"{prefix}.q", cfg.d_model, cfg.d_model, rng)
    init_linear(store, f"{prefix}.k", cfg.kv_dim, cfg.d_model, rng)
    init_linear(store, f"{prefix}.v", cfg.kv_dim, cfg.d_model, rng)
    init_linear(store, f"{prefix}.out", cfg.d_model, cfg.d_model, rng)


def init_ffn(store: ParamStore, prefix: str, d_model: int, d_ff: int,
             rng: np.random.Generator) -> None:
    init_linear(store, f"{prefix}.up", d_model, d_ff, rng)
    init_linear(store, f"{prefix}.down", d_ff, d_model, rng)


def init_transformer_layer(store: ParamStore, prefix: str, cfg: LayerConfig,
                           rng: np.random.Generator,
                           cross_kv_dim: int | None = None) -> None:
    init_layer_norm(store, f"{prefix}.ln_self", cfg.d_model)
    init_attention(store, f"{prefix}.self_attn", cfg.attn(), rng)
    if cross_kv_dim is not None:
        init_layer_norm(store, f"{prefix}.ln_cross", cfg.d_model)
        init_attention(store, f"{prefix}.cross_attn", cfg.attn(cross_kv_dim),
                       rng)
    init_layer_norm(store, f"{prefix}.ln_ffn", cfg.d_model)
    init_ffn(store, f"{prefix}.ffn", cfg.d_model, cfg.d_ff, rng)


# ---------------------------------------------------------------------------
# forward passes


def linear(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return T.linear(x, store[f"{prefix}.weight"], store[f"{prefix}.bias"])


def layer_norm(x: Tensor, store: ParamStore, prefix: str, eps: float = 1e-5) -> Tensor:
    return T.layer_norm(x, store[f"{prefix}.gamma"], store[f"{prefix}.beta"], eps)


def adapter_forward(x: Tensor, spec: AdapterSpec, store: ParamStore,
                    prefix: str) -> Tensor:
    if x.shape[-1] != spec.d_in:
        raise ShapeError(
            f"adapter {prefix!r} expects last dim {spec.d_in}, got {x.shape}"
        )
    h = linear(x, store, f"{prefix}.linear1")
    h = layer_norm(h, store, f"{prefix}.ln1")
    h = T.gelu(h)
    h = linear(h, store, f"{prefix}.linear2")
    return layer_norm(h, store, f"{prefix}.ln2")


def adapter_param_count(spec: AdapterSpec) -> int:
    """Closed-form size of the adapter stack (weights, biases, LN affines)."""
    return (
        spec.d_in * spec.d_hidden + spec.d_hidden      # linear1
        + 2 * spec.d_hidden                            # ln1
        + spec.d_hidden * spec.d_out + spec.d_out      # linear2
        + 2 * spec.d_out                               # ln2
    )


def causal_mask(n: int) -> np.ndarray:
    """Boolean n x n mask; entry [i, j] allows attention iff j <= i."""
    if n < 1:
        raise ShapeError(f"causal_mask needs n >= 1, got {n}")
    return np.tril(np.ones((n, n), dtype=bool))


def _mask_bias(mask: np.ndarray, dtype) -> np.ndarray:
    """Additive logits bias: 0 where allowed, MASKED_LOGIT where not."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 2:
        mask = mask[None, None]          # [1, 1, Lq, Lkv]
    elif mask.ndim == 3:
        mask = mask[:, None]             # [B, 1, Lq, Lkv]
    else:
        raise ShapeError(f"mask must be rank 2 or 3, got rank {mask.ndim}")
    if not mask.any(axis=-1).all():
        raise ContractError("attention mask has a fully-masked query row")
    return np.where(mask, 0.0, MASKED_LOGIT).astype(dtype)


def multi_head_attention(q_in: Tensor, kv_in: Tensor, mask: np.ndarray,
                         cfg: AttentionConfig, store: ParamStore,
                         prefix: str, cache: KVCache | None = None) -> Tensor:
    """Scaled dot-product attention of ``q_in`` [B, Lq, d], or [B, d] for
    one query per row, over ``kv_in`` [B, Lkv, d_kv].

    ``mask`` is [Lq, Lkv] or [B, Lq, Lkv], with Lq = 1 for one query per
    row.  With ``cache`` the keys and values come from, and go to, the
    cache, so ``mask`` spans every cached key: [B, Lq, Lcache].
    """
    if (q_in.ndim not in (2, 3) or kv_in.ndim != 3
            or q_in.shape[-1] != cfg.d_model or kv_in.shape[-1] != cfg.kv_dim):
        raise ShapeError(
            f"attention {prefix!r} expects [B, L, d] inputs ([B, d] queries "
            f"allowed) with q last dim {cfg.d_model} and kv last dim "
            f"{cfg.kv_dim}, got {q_in.shape} and {kv_in.shape}"
        )
    q = linear(q_in, store, f"{prefix}.q")
    if cache is not None and not cache.grow and cache.k is not None:
        k, v = cache.k, cache.v
    else:
        k = linear(kv_in, store, f"{prefix}.k")
        v = linear(kv_in, store, f"{prefix}.v")
        if cache is not None:
            if cache.k is not None:
                k = T.concat([cache.k, k], axis=1)
                v = T.concat([cache.v, v], axis=1)
            cache.k, cache.v = k, v
    ctx = T.attention(q, k, v, _mask_bias(mask, q.dtype), cfg.n_heads)
    return linear(ctx, store, f"{prefix}.out")


def ffn_forward(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return linear(T.gelu(linear(x, store, f"{prefix}.up")), store, f"{prefix}.down")


def transformer_layer_forward(x: Tensor, cross_kv: Tensor | None,
                              cfg: LayerConfig, store: ParamStore, prefix: str,
                              self_mask: np.ndarray,
                              cross_mask: np.ndarray | None = None,
                              cache: LayerCache | None = None,
                              read: np.ndarray | None = None) -> Tensor:
    """One pre-LN layer; with ``cache`` the masks span the cached keys.

    With ``read`` [B] the self-attention keys and values still span every
    position of ``x`` [B, L, d], but the queries, the residual stream,
    cross-attention and the feed-forward run on row ``read[i]`` of each
    ``x[i]`` alone; the masks then hold one query row each, [B, 1, Lkv],
    and the layer returns [B, d].
    """
    normed = layer_norm(x, store, f"{prefix}.ln_self")
    queries = normed
    if read is not None:
        x = T.take_rows(x, read)
        queries = T.take_rows(normed, read)
    h = T.add(x, multi_head_attention(
        queries, normed, self_mask, cfg.attn(), store, f"{prefix}.self_attn",
        None if cache is None else cache.self_attn))
    if cross_kv is not None:
        if cross_mask is None:
            raise ContractError("cross_kv given without cross_mask")
        h = T.add(h, multi_head_attention(
            layer_norm(h, store, f"{prefix}.ln_cross"), cross_kv,
            cross_mask, cfg.attn(cross_kv.shape[-1]), store,
            f"{prefix}.cross_attn",
            None if cache is None else cache.cross_attn))
    return T.add(h, ffn_forward(layer_norm(h, store, f"{prefix}.ln_ffn"),
                                store, f"{prefix}.ffn"))
