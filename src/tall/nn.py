"""Transformer building blocks over a named parameter store.

Blocks are plain functions: parameters live in a :class:`ParamStore`
under dotted prefixes, and each ``*_forward`` function reads the names
its matching ``init_*`` function created.  Conventions:

* pre-LayerNorm residual layers, single output projection per attention
  block, biases everywhere, GELU feed-forward.
* no block builds a mask: each attention call hands
  :func:`tensor.attention` the packings of its queries and keys, with
  their lengths and positions, and a causal flag for causal
  self-attention, and the op masks the hidden keys itself.
* a cached call passes a :class:`LayerCache` per layer: attention then
  keeps its projected keys and values between calls, so each call needs
  to project only its new query positions.  No cache is ever copied:
  greedy decoding writes each step's keys and values into one column of
  a [B, capacity, d] decode buffer, in place and with no tape, and
  attends to a view of the filled columns; cross-attention scatters the
  memory into a grid on the first step and reuses it; and a prefix
  cache keeps the [P, d] keys and values of a prefix that every row of
  the later calls attends to as :func:`tensor.attention`'s shared block.
  This module alone writes a cache's keys and values.
* every projection is one :func:`tensor.linear` node and every attention
  core (scores, masks, softmax, context) one :func:`tensor.attention`
  node, so the tape keeps one record per composite.
* a layer's activations are packed rows [N, d], one per real token of a
  [B, L] grid described by a :class:`tensor.Packing` (built by
  ``models._stack_forward``); every projection, norm and feed-forward
  runs on those rows, and only :func:`tensor.attention` sees the grid.
  A decode or memory cache passes its [B, L, d] grid to attention with
  an index-free packing and the lengths of its keys.
* a layer given ``last`` runs everything after its self-attention keys
  and values on each row's last real token alone: this module is the
  one caller of :func:`tensor.take_rows`.
* the dimension-alignment adapter is Linear -> LayerNorm -> GELU ->
  Linear -> LayerNorm; this is the stack whose parameter count matches
  the published per-module figures (see adapter_param_count).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor


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
    causal: bool = False  # self-attention sees no later position


@dataclass
class KVCache:
    """Projected keys and values one attention block keeps between calls.

    There are three kinds, by ``kind``:

    * ``"decode"``, the self-attention cache of incremental decoding: the
      first call allocates [B, ``capacity``, d] key and value buffers, each
      call writes its rows into the next columns in place (zeros where the
      grid has no row), and attention reads a view of the filled columns.
    * ``"memory"``, the cross-attention cache of incremental decoding: the
      first call projects its key/value rows and scatters them into
      [B, Lkv, d] grids, and later calls reuse those, ignoring their
      key/value input.
    * ``"prefix"``, a prefix every row of later calls shares (the soft
      prompt): the first call, one row of P positions, keeps its key and
      value rows [P, d] as recorded tensors, and every later call attends
      to them as :func:`tensor.attention`'s shared block, so gradients
      reach the prefix and the cache never grows.

    A decode or memory cache writes arrays that no tape sees, so using
    one while a tape records is a :class:`tensor.ContractError`.
    """

    kind: str
    capacity: int = 0
    keys: Tensor | np.ndarray | None = None
    values: Tensor | np.ndarray | None = None
    length: int = 0  # the positions cached so far

    def update(self, k: Tensor, v: Tensor, rows: T.Packing):
        """The keys, values, key packing and shared block this call
        attends with, after keeping what the call adds: ``k`` and ``v``
        are the call's projected rows of the grid ``rows`` (a memory
        cache's own grids once it holds them)."""
        if self.kind == "prefix":
            if self.keys is not None:
                return k, v, rows, (self.keys, self.values)
            if rows.batch != 1:
                raise ShapeError(f"a prefix cache is filled by one row, "
                                 f"got {rows.batch}")
            self.keys, self.values, self.length = k, v, rows.width
            return k, v, rows, None
        if T.recording():
            raise T.ContractError(f"a {self.kind} cache is written in place, "
                                  f"so it cannot run under a tape")
        if self.kind == "memory":
            if self.keys is None:
                self.keys, self.values = rows.grid(k.data), rows.grid(v.data)
            width = self.keys.shape[1]
            return (self.keys, self.values,
                    T.Packing(rows.batch, width, lengths=rows.lengths), None)
        end = self.length + rows.width
        if end > self.capacity:
            raise T.ContractError(f"a decode cache of {self.capacity} "
                                  f"positions cannot take {end}")
        if self.keys is None:
            shape = (rows.batch, self.capacity, k.shape[-1])
            self.keys, self.values = np.empty(shape), np.empty(shape)
        self.keys[:, self.length:end] = rows.grid(k.data)
        self.values[:, self.length:end] = rows.grid(v.data)
        self.length = end
        return (self.keys[:, :end], self.values[:, :end],
                T.Packing(rows.batch, end, lengths=rows.lengths), None)


@dataclass
class LayerCache:
    """The attention caches of one transformer layer."""

    self_attn: KVCache
    cross_attn: KVCache | None = None

    @classmethod
    def decode(cls, capacity: int) -> "LayerCache":
        """Incremental decoding of at most ``capacity`` positions."""
        return cls(KVCache("decode", capacity), KVCache("memory"))

    @classmethod
    def prefix(cls) -> "LayerCache":
        """A prefix that every row of the later calls shares."""
        return cls(KVCache("prefix"))


class ParamStore:
    """Insertion-ordered map of dotted names to tensors.

    An entry is frozen when its ``requires_grad`` is False, the one flag:
    backward never stores gradients for it, and optimizers skip it.
    """

    def __init__(self):
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise KeyError(f"duplicate parameter name: {name}")
        t = value if isinstance(value, Tensor) else Tensor(value)
        t.requires_grad = trainable
        self._entries[name] = t
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
        return not self._entries[name].requires_grad

    def freeze(self, prefix: str) -> int:
        """Freeze every entry whose name starts with ``prefix``."""
        hits = [n for n in self._entries if n.startswith(prefix)]
        if not hits:
            raise KeyError(f"freeze: no parameter matches prefix {prefix!r}")
        for n in hits:
            self._entries[n].requires_grad = False
            self._entries[n].grad = None
        return len(hits)

    @contextlib.contextmanager
    def frozen(self):
        """Every entry frozen inside the block; each entry's flag
        restored after it."""
        wanted = [t.requires_grad for _, t in self.items()]
        self.freeze("")
        try:
            yield
        finally:
            for (_, t), flag in zip(self.items(), wanted):
                t.requires_grad = flag

    def trainable_items(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._entries.items() if t.requires_grad]

    def adopt(self, prefix: str, other: "ParamStore", source: str = "") -> None:
        """Re-root each entry ``source.<rest>`` of ``other`` (every entry
        when ``source`` is empty) as ``prefix.<rest>``, frozen, on a
        read-only view of ``other``'s own array: the two stores share one
        array, which ``other`` alone can write.  A ``source`` that
        matches nothing is a KeyError."""
        strip = f"{source}." if source else ""
        picked = [(n[len(strip):], t) for n, t in other.items()
                  if n.startswith(strip)]
        if not picked:
            raise KeyError(f"adopt: no parameter matches prefix {source!r}")
        for rest, t in picked:
            view = t.data.view()
            view.flags.writeable = False
            self.add(f"{prefix}.{rest}", view, trainable=False)

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
                   rng: np.random.Generator) -> None:
    store.add(name, rng.normal(0.0, 0.1, size=(n, dim)))


def init_adapter(store: ParamStore, prefix: str, spec: AdapterSpec,
                 rng: np.random.Generator) -> None:
    init_linear(store, f"{prefix}.linear1", spec.d_in, spec.d_hidden, rng)
    init_layer_norm(store, f"{prefix}.ln1", spec.d_hidden)
    init_linear(store, f"{prefix}.linear2", spec.d_hidden, spec.d_out, rng)
    init_layer_norm(store, f"{prefix}.ln2", spec.d_out)


def init_attention(store: ParamStore, prefix: str, d_model: int, d_kv: int,
                   rng: np.random.Generator) -> None:
    init_linear(store, f"{prefix}.q", d_model, d_model, rng)
    init_linear(store, f"{prefix}.k", d_kv, d_model, rng)
    init_linear(store, f"{prefix}.v", d_kv, d_model, rng)
    init_linear(store, f"{prefix}.out", d_model, d_model, rng)


def init_ffn(store: ParamStore, prefix: str, d_model: int, d_ff: int,
             rng: np.random.Generator) -> None:
    init_linear(store, f"{prefix}.up", d_model, d_ff, rng)
    init_linear(store, f"{prefix}.down", d_ff, d_model, rng)


def init_transformer_layer(store: ParamStore, prefix: str, cfg: LayerConfig,
                           rng: np.random.Generator,
                           cross_kv_dim: int | None = None) -> None:
    init_layer_norm(store, f"{prefix}.ln_self", cfg.d_model)
    init_attention(store, f"{prefix}.self_attn", cfg.d_model, cfg.d_model, rng)
    if cross_kv_dim is not None:
        init_layer_norm(store, f"{prefix}.ln_cross", cfg.d_model)
        init_attention(store, f"{prefix}.cross_attn", cfg.d_model,
                       cross_kv_dim, rng)
    init_layer_norm(store, f"{prefix}.ln_ffn", cfg.d_model)
    init_ffn(store, f"{prefix}.ffn", cfg.d_model, cfg.d_ff, rng)


# ---------------------------------------------------------------------------
# forward passes


def linear(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return T.linear(x, store[f"{prefix}.weight"], store[f"{prefix}.bias"])


def layer_norm(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return T.layer_norm(x, store[f"{prefix}.gamma"], store[f"{prefix}.beta"])


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


def multi_head_attention(q_in: Tensor, kv_in: Tensor, n_heads: int,
                         store: ParamStore, prefix: str, q_rows: T.Packing,
                         kv_rows: T.Packing, causal: bool = False,
                         cache: KVCache | None = None) -> Tensor:
    """Scaled dot-product attention over ``n_heads`` heads of the query
    rows ``q_in`` [Nq, d] of the [B, Lq] grid ``q_rows`` over the rows
    ``kv_in`` [Nkv, d_kv] of the [B, Lkv] grid ``kv_rows``, masked by
    :func:`tensor.attention` from the two packings (causally iff
    ``causal``).

    With ``cache`` the keys and values also come from, and go to, the
    cache (see :class:`KVCache` for its three kinds).
    """
    b = q_rows.batch
    if (cache is not None and cache.kind == "decode"
            and cache.keys is not None and cache.keys.shape[0] != b):
        raise ShapeError(f"attention {prefix!r} got {b} rows against a "
                         f"cache of {cache.keys.shape[0]}")
    q = linear(q_in, store, f"{prefix}.q")
    if (cache is not None and cache.kind == "memory"
            and cache.keys is not None):
        k, v = cache.keys, cache.values
    else:
        k = linear(kv_in, store, f"{prefix}.k")
        v = linear(kv_in, store, f"{prefix}.v")
    shared = None
    if cache is not None:
        k, v, kv_rows, shared = cache.update(k, v, kv_rows)
    ctx = T.attention(q, k, v, n_heads, q_rows, kv_rows, causal, shared)
    return linear(ctx, store, f"{prefix}.out")


def ffn_forward(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    return linear(T.gelu(linear(x, store, f"{prefix}.up")), store, f"{prefix}.down")


def transformer_layer_forward(x: Tensor, cross_kv: Tensor | None,
                              cfg: LayerConfig, store: ParamStore, prefix: str,
                              rows: T.Packing,
                              cross_rows: T.Packing | None = None,
                              cache: LayerCache | None = None,
                              last: bool = False) -> Tensor:
    """One pre-LN layer over the packed rows ``x`` [N, d] of the grid
    ``rows``, self-attending causally iff ``cfg.causal``, with
    cross-attention to ``cross_kv``, packed by ``cross_rows``.

    With ``last`` the self-attention keys and values still span every
    row of ``x``, but the queries, the residual stream, cross-attention
    and the feed-forward run on each row's last real token alone, a
    query at its own position, and the layer returns [B, d].  Every grid
    row must hold a real position.
    """
    normed = layer_norm(x, store, f"{prefix}.ln_self")
    queries, q_rows = normed, rows
    if last:
        picked = np.cumsum(rows.lengths - rows.start) - 1
        x = T.take_rows(x, picked)
        queries = T.take_rows(normed, picked)
        q_rows = T.Packing(rows.batch, 1, lengths=rows.lengths,
                           start=rows.lengths - 1)
    h = T.add(x, multi_head_attention(
        queries, normed, cfg.n_heads, store, f"{prefix}.self_attn", q_rows,
        rows, cfg.causal, None if cache is None else cache.self_attn))
    if cross_kv is not None:
        h = T.add(h, multi_head_attention(
            layer_norm(h, store, f"{prefix}.ln_cross"), cross_kv,
            cfg.n_heads, store, f"{prefix}.cross_attn", q_rows, cross_rows,
            cache=None if cache is None else cache.cross_attn))
    return T.add(h, ffn_forward(layer_norm(h, store, f"{prefix}.ln_ffn"),
                                store, f"{prefix}.ffn"))
