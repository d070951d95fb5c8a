"""Dense tensors with tape-based reverse-mode automatic differentiation.

Design constraints, in order of priority:

* reproducibility: every kernel is deterministic, so a computation
  replayed with identical inputs and shapes gives bit-identical outputs
  and gradients on one machine and BLAS build.  Matrix products go
  through one private kernel, ``np.matmul`` (BLAS).  BLAS does not match
  a sequential triple loop bit for bit, and a row's bytes depend on the
  shape of the whole product (GEMV and GEMM differ), but for fixed
  shapes its bytes do not vary from run to run.  The einsum reference
  ``np.einsum("...ik,...kj->...ij", a, b)`` on C-order copies of its
  operands, which accumulates over the inner axis in order whatever
  views it is handed, is kept in the tests as the oracle: swapped in
  for the kernel, it gives the byte-exact results the golden and
  triple-loop tests pin.
* simplicity: define-by-run tape, no graph rewriting, and one dtype: a
  tensor holds 64-bit floats, whatever it is built from.
* memory: what the tape keeps alive sets a training run's peak, and no
  kernel copies an array to change its layout.  A transformer stack's
  activations are packed rows [N, d], one per real token (see
  :class:`Packing`), not a padded [B, L, d] grid: every position-wise
  op (linear, layer norm, GELU, residual add, the tied head and
  :func:`cross_entropy_sum`) runs on real tokens only, and the tape holds
  [N, d].  :func:`attention` is the one op that needs the grid; it
  scatters its rows into it and gathers the context rows back, and when
  every position is real the packing is a reshape.  It is also the one
  place that masks: a packing carries its rows' lengths and first
  position, and attention hides each key at or past its row's length
  and, when causal, past the query's position, with
  :data:`MASKED_LOGIT`.  The two composites every transformer layer
  repeats are single nodes with a hand-written backward: :func:`linear`
  (product plus bias) and :func:`attention` (head split, scores, masks,
  softmax, context and head merge), which works on head views and keeps
  only its softmax probabilities.  Both
  replay the array operations of the compositions they replace, so on
  the reference kernel their bytes match them.  :meth:`Tape.backward`
  drops each intermediate gradient once its node has run, so after
  backward only leaves hold ``grad``.  Layer norm and GELU compute
  forward and backward in place on their own buffers, in the arithmetic
  order of the formulas, so they keep no temporaries beyond what
  backward reads.  A stack read at each row's last real token runs its
  last layer on those rows alone (:func:`take_rows`), so the tape holds
  [B, d] for that layer, the final norm and the head, and
  :func:`cross_entropy_last_token` takes those [B, V] logits.  No op
  copies a KV cache (``nn.KVCache`` keeps three kinds).  A greedy
  decode's self-attention cache is a [B, capacity, d] buffer that ``nn``
  writes one column per step, with no tape, and :func:`attention` reads
  a view of its filled columns; cross-attention reads the memory grid
  scattered on the first step; and a prefix every row shares (the soft
  prompt) is :func:`attention`'s shared block [P, d], attended to by
  every row without a per-row copy.

Recording happens only while a :class:`Tape` is active, so inference
code that never opens a tape pays no autodiff overhead.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field

import numpy as np
from scipy.special import erf

# a hidden key's logit: -1e9 rather than -inf, so softmax never sees NaN
MASKED_LOGIT = -1e9


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(RuntimeError):
    """A documented precondition of an operation was violated."""


class NumericalError(RuntimeError):
    """A NaN or Inf appeared where only finite values are allowed."""


class Tensor:
    """Dense n-dimensional value with optional gradient tracking.

    ``data`` is a float64 array, possibly a read-only view; no kernel
    writes into its operands' data.  ``grad`` is either
    ``None`` or an array of identical shape.  :meth:`Tape.backward` sets
    it on leaves only: tensors with ``requires_grad`` that no recorded
    operation produced (parameters, and tensors created with
    ``requires_grad=True``).  An operation's output holds its gradient
    only while backward runs, as in PyTorch's non-leaf rule.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _data(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def _needs_grad(x) -> bool:
    """Whether backward should compute a gradient for operand ``x``."""
    return isinstance(x, Tensor) and x.requires_grad


class Tape:
    """Ordered record of operations for reverse-mode differentiation.

    Operations are appended in execution order, so the record is a
    topological order by construction; ``backward`` replays it in exact
    reverse.  Tapes nest (the innermost active tape records).
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple, object]] = []

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE.pop()
        assert popped is self, "tapes unwound out of order"

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every reachable requires_grad leaf.

        Gradients accumulate (+=) into pre-existing ``grad`` arrays, so
        calling backward for several losses between optimizer steps sums
        their gradients; frozen tensors never receive grad storage.  A
        node's output gradient is dropped as soon as the node has run,
        so spent gradients do not pile up beside the tape.
        """
        if loss.data.ndim != 0:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        loss.grad = np.ones(())
        for out, inputs, backward_fn in reversed(self._nodes):
            if out.grad is None:
                continue
            grads = backward_fn(out.grad)
            out.grad = None
            for inp, g in zip(inputs, grads):
                if g is None or not _needs_grad(inp):
                    continue
                if inp.grad is None:
                    inp.grad = g
                else:
                    inp.grad = inp.grad + g


_ACTIVE: list[Tape] = []


def recording() -> bool:
    """Whether a tape is active, so that an op on a tensor that needs a
    gradient would be recorded."""
    return bool(_ACTIVE)


def _register(out: Tensor, inputs: tuple, backward_fn) -> Tensor:
    if _ACTIVE and any(_needs_grad(t) for t in inputs):
        out.requires_grad = True
        _ACTIVE[-1]._nodes.append((out, inputs, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural ops


def add(a, b) -> Tensor:
    a_d, b_d = _data(a), _data(b)
    out = Tensor(a_d + b_d)

    def bwd(g):
        ga = _unbroadcast(g, a_d.shape) if _needs_grad(a) else None
        gb = _unbroadcast(g, b_d.shape) if _needs_grad(b) else None
        return ga, gb

    return _register(out, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    out = Tensor(a.data * c)

    def bwd(g):
        return (g * c,)

    return _register(out, (a,), bwd)


def swapaxes(a: Tensor, i: int, j: int) -> Tensor:
    out = Tensor(np.swapaxes(a.data, i, j))

    def bwd(g):
        return (np.swapaxes(g, i, j),)

    return _register(out, (a,), bwd)


def take_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """Rows ``rows`` [B] of ``a`` [N, ...]: [B, ...].

    One node; backward scatters the gradient into zeros of ``a``'s
    shape, so every row not taken gets an exact zero.
    """
    rows = np.asarray(rows)
    if a.ndim < 1 or rows.ndim != 1:
        raise ShapeError(f"take_rows needs an [N, ...] operand and rows [B], "
                         f"got {a.shape} and {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[0]):
        raise IndexError(f"take_rows rows out of range [0, {a.shape[0]})")
    out = Tensor(a.data[rows])

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[rows] = g
        return (ga,)

    return _register(out, (a,), bwd)


@dataclass(frozen=True, eq=False)
class Packing:
    """Where N packed rows sit in a [B, L] grid of positions.

    ``index`` [N] holds each row's flat position ``b * L + l``, in
    increasing order; it is None when every position of the grid is a row
    (N = B * L), and packing is then a reshape.  ``lengths`` [B] counts
    each sequence's real positions, and grid column 0 sits at sequence
    position ``start``: an int, or one value per row for a grid of one
    query per row.  :func:`attention` builds its masks from these two
    alone.  ``models.packing`` builds the index from sequence lengths.
    """

    batch: int
    width: int
    index: np.ndarray | None = None
    _: KW_ONLY
    lengths: np.ndarray
    start: int | np.ndarray = 0
    # the attention biases built on this query packing (see ``_bias``)
    biases: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.batch * self.width if self.index is None else len(self.index)

    def grid(self, rows: np.ndarray) -> np.ndarray:
        """[N, ...] rows (or, with no index, an array of the grid's size)
        -> [B, L, ...], zeros at the positions that are not rows."""
        if self.index is None:
            return rows.reshape((self.batch, self.width) + rows.shape[-1:])
        out = np.zeros((self.batch * self.width,) + rows.shape[1:], rows.dtype)
        out[self.index] = rows
        return out.reshape((self.batch, self.width) + rows.shape[1:])

    def rows(self, grid: np.ndarray) -> np.ndarray:
        """[B, L, ...] -> the [N, ...] rows."""
        flat = grid.reshape((self.batch * self.width,) + grid.shape[2:])
        return flat if self.index is None else flat.take(self.index, axis=0)


def _check_rows(x: np.ndarray, rows: Packing, what: str) -> None:
    """``x`` holds the rows of ``rows``: [N, d], or, when every grid
    position is a row, the [B, L, d] grid itself (a KV cache)."""
    lead = x.shape[:-1]
    if lead != (rows.n,) and (rows.index is not None
                              or lead != (rows.batch, rows.width)):
        raise ShapeError(f"{what} {x.shape} does not hold the rows of a "
                         f"packing of {rows.n} rows")


# ---------------------------------------------------------------------------
# matrix product


def _product(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``[..., m, k] @ [..., k, n]``, into ``out`` if given: the one
    matrix-product kernel; operands and ``out`` may be strided views."""
    return np.matmul(a, b, out=out)


def matmul(a, b) -> Tensor:
    """Product ``[..., m, k] @ [k, n]`` of an activation and a weight.

    The activation's leading dimensions are collapsed, so forward and
    each gradient is a single GEMM computed by :func:`_product` (BLAS):
    deterministic for fixed shapes on one machine and BLAS build, but
    not bit-identical to a triple loop.
    """
    a_d, b_d = _data(a), _data(b)
    if a_d.ndim < 2 or b_d.ndim != 2 or a_d.shape[-1] != b_d.shape[0]:
        raise ShapeError(f"matmul needs a [..., m, k] and w [k, n], got "
                         f"{a_d.shape} and {b_d.shape}")
    k, n = b_d.shape
    out = Tensor(_product(a_d.reshape(-1, k), b_d).reshape(
        a_d.shape[:-1] + (n,)))

    def bwd(g):
        ga = (_product(g.reshape(-1, n), b_d.T).reshape(a_d.shape)
              if _needs_grad(a) else None)
        gb = (_product(a_d.reshape(-1, k).T, g.reshape(-1, n))
              if _needs_grad(b) else None)
        return ga, gb

    return _register(out, (a, b), bwd)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: ``x`` [..., k], ``w`` [k, n], ``b`` [n].

    The forward is one :func:`_product` on the collapsed rows of ``x``
    with the bias added in place; backward computes only the gradients
    whose operand needs one.  The bytes are those of ``add(matmul(x, w),
    b)``.
    """
    x_d, w_d, b_d = _data(x), _data(w), _data(b)
    if w_d.ndim != 2 or x_d.ndim < 1 or x_d.shape[-1] != w_d.shape[0]:
        raise ShapeError(f"linear needs x [..., k] and w [k, n], got "
                         f"{x_d.shape} and {w_d.shape}")
    k, n = w_d.shape
    if b_d.shape != (n,):
        raise ShapeError(f"linear bias must have shape ({n},), got {b_d.shape}")
    out_d = _product(x_d.reshape(-1, k), w_d)
    out_d += b_d
    out = Tensor(out_d.reshape(x_d.shape[:-1] + (n,)))

    def bwd(g):
        rows = g.reshape(-1, n)
        gx = _product(rows, w_d.T).reshape(x_d.shape) if _needs_grad(x) else None
        gw = _product(x_d.reshape(-1, k).T, rows) if _needs_grad(w) else None
        gb = _unbroadcast(g, b_d.shape) if _needs_grad(b) else None
        return gx, gw, gb

    return _register(out, (x, w, b), bwd)


def _attention_bias(q_rows: Packing, kv_rows: Packing,
                    causal: bool) -> np.ndarray | None:
    """The additive logits bias of :func:`attention`'s row keys, [B, 1 or
    Lq, Lkv] (broadcastable to its [h, B, Lq, Lkv] scores), or None when
    every key is visible.

    Key column j of row b sits at sequence position ``kv_rows.start + j``
    and is visible iff that position is before ``kv_rows.lengths[b]``
    and, when ``causal``, at most ``q_rows.start[b] + i`` for query
    column i.  A hidden key gets :data:`MASKED_LOGIT`.  A query with no
    visible key is a :class:`ContractError`, unless keys before
    ``kv_rows.start`` (a shared block) are there for it to see.
    """
    keys = kv_rows.start + np.arange(kv_rows.width)
    visible = (keys < kv_rows.lengths[:, None])[:, None]
    if causal:
        queries = np.reshape(q_rows.start, (-1, 1)) + np.arange(q_rows.width)
        visible = visible & (keys <= queries[..., None])
    if kv_rows.start == 0 and not visible.any(axis=-1).all():
        raise ContractError("attention mask has a fully-masked query row")
    if visible.all():
        return None
    return np.where(visible, 0.0, MASKED_LOGIT)


def _bias(q_rows: Packing, kv_rows: Packing, causal: bool) -> np.ndarray | None:
    """:func:`_attention_bias`, built once per query packing and key
    width, first position, lengths and causal flag: every layer of a
    stack call attends with the same packings, so it reuses the first
    layer's bias."""
    key = (kv_rows.width, kv_rows.start, kv_rows.lengths.tobytes(), causal)
    if key not in q_rows.biases:
        q_rows.biases[key] = _attention_bias(q_rows, kv_rows, causal)
    return q_rows.biases[key]


def attention(q, k, v, n_heads: int, q_rows: Packing, kv_rows: Packing,
              causal: bool = False, shared: tuple | None = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` holds the packed query rows [Nq, d] of the [B, Lq] grid
    ``q_rows``, and ``k`` and ``v`` the key and value rows [Nkv, d] of
    the [B, Lkv] grid ``kv_rows`` (a KV cache passes its [B, Lkv, d] grid
    with an index-free packing).  ``shared``, a pair of key and value
    blocks [P, d], is a prefix every row shares: its keys sit at
    positions 0 .. P - 1, before the row keys (so ``kv_rows.start`` must
    be P), and every query sees all of them.  The masks of the row keys
    come from the packings alone (:func:`_attention_bias`, built once
    per packing pair by :func:`_bias`): a query sees the keys before its
    row's length, and, when ``causal``, none past its own position.
    Returns the merged heads' context, shaped like ``q``.

    This is the one op that needs the grid: it scatters its rows into
    the head views of [B, L, d] buffers (a reshape when every position is
    a row), and gathers the context rows back; backward scatters them
    again rather than keep the grids on the tape.  The scores of a head
    are one [B * Lq, P + Lkv] buffer: the shared keys' columns come from
    one product per head over every query row, the row keys' columns
    from one product per row and head, and one softmax normalises both.
    The context adds the shared values' product per head to the row
    values' product, and backward gets the block's gradients from one
    product per head, so the block is never copied into a row.  Products
    run on head views and write through the head view of a fresh result.
    The node keeps only the softmax probabilities P; backward uses dS = P
    * (dP - rowsum(dP * P)) * scale, the softmax backward of
    FlashAttention (Dao et al. 2022), which also takes its masks from
    sequence lengths and a causal flag; Hydragen (Juravsky et al. 2024)
    attends to a shared prefix as its own batched key block in the same
    way.  Without a shared block every array operation is the one the
    primitive composition (reshape, swapaxes, matmul, scale, add,
    softmax) performs, so on the reference kernel the bytes match it.
    """
    q_d, k_d, v_d = _data(q), _data(k), _data(v)
    _check_rows(q_d, q_rows, "attention q")
    _check_rows(k_d, kv_rows, "attention k")
    if (v_d.shape != k_d.shape or q_rows.batch != kv_rows.batch
            or q_d.shape[-1] != k_d.shape[-1]):
        raise ShapeError(f"attention needs q [Nq, d] and k, v [Nkv, d] "
                         f"rows, got {q_d.shape}, {k_d.shape} and "
                         f"{v_d.shape} over grids of {q_rows.batch} and "
                         f"{kv_rows.batch} rows")
    b, lq, lkv, d = q_rows.batch, q_rows.width, kv_rows.width, q_d.shape[-1]
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention width {d} not divisible by {n_heads} heads")
    ns = 0
    if shared is not None:
        sk_d, sv_d = _data(shared[0]), _data(shared[1])
        if sk_d.ndim != 2 or sv_d.shape != sk_d.shape or sk_d.shape[1] != d:
            raise ShapeError(f"attention's shared block needs keys and "
                             f"values [P, {d}], got {sk_d.shape} and "
                             f"{sv_d.shape}")
        ns = len(sk_d)
    if kv_rows.start != ns:
        raise ContractError(f"attention's row keys start at position "
                            f"{kv_rows.start}, after {ns} shared keys")
    hd = d // n_heads
    c = hd ** -0.5
    bias = _bias(q_rows, kv_rows, causal)

    def heads(x: np.ndarray, length: int) -> np.ndarray:
        """[B, L, d] or [B * L, d] -> its [h, B, L, hd] view."""
        return x.reshape(b, length, n_heads, hd).transpose(2, 0, 1, 3)

    def flat_heads(x: np.ndarray) -> np.ndarray:
        """[..., d] -> its [h, N, hd] view, N rows per head."""
        return x.reshape(-1, n_heads, hd).swapaxes(0, 1)

    def by_row(s: np.ndarray) -> np.ndarray:
        """[h, B * Lq, P + Lkv] scores -> the [h, B, Lq, Lkv] view of the
        row keys' columns."""
        return s.reshape(n_heads, b, lq, ns + lkv)[..., ns:]

    def merged_product(x, y, length: int) -> np.ndarray:
        """[B * L, d] array whose head view holds ``x @ y``."""
        merged = np.empty((b * length, d))
        _product(x, y, out=heads(merged, length))
        return merged

    def shared_product(x, y) -> np.ndarray:
        """[P, d] array whose head view holds ``x @ y``."""
        merged = np.empty((ns, d))
        _product(x, y, out=flat_heads(merged))
        return merged

    def add_shared(merged: np.ndarray, x, y) -> None:
        """Add ``x @ y``, one product per head, into the head view of the
        rows ``merged``."""
        view = flat_heads(merged)
        view += _product(x, y)

    q_grid = q_rows.grid(q_d)
    p = np.empty((n_heads, b * lq, ns + lkv))
    _product(heads(q_grid, lq),
             np.swapaxes(heads(kv_rows.grid(k_d), lkv), 2, 3), out=by_row(p))
    if ns:
        _product(flat_heads(q_grid), np.swapaxes(flat_heads(sk_d), 1, 2),
                 out=p[..., :ns])
    del q_grid  # a scattered grid lives no longer than its products
    p *= c
    if bias is not None:
        by_row(p)[...] += bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    ctx = merged_product(by_row(p), heads(kv_rows.grid(v_d), lkv), lq)
    if ns:
        add_shared(ctx, p[..., :ns], flat_heads(sv_d))
    out = Tensor(q_rows.rows(ctx.reshape(b, lq, d)).reshape(q_d.shape))
    inputs = (q, k, v) if shared is None else (q, k, v, *shared)

    def bwd(g):
        # the grids are scattered again here, not kept alive on the tape
        g_grid = q_rows.grid(g)
        g_ctx = heads(g_grid, lq)
        grads = [None] * len(inputs)
        if _needs_grad(v):
            grads[2] = kv_rows.rows(merged_product(
                np.swapaxes(by_row(p), 2, 3), g_ctx, lkv
            ).reshape(b, lkv, d)).reshape(v_d.shape)
        if ns and _needs_grad(shared[1]):
            grads[4] = shared_product(np.swapaxes(p[..., :ns], 1, 2),
                                      flat_heads(g_grid))
        if any(_needs_grad(x) for x in inputs[:2] + inputs[3:4]):
            ds = np.empty_like(p)
            _product(g_ctx, np.swapaxes(heads(kv_rows.grid(v_d), lkv), 2, 3),
                     out=by_row(ds))
            if ns:
                _product(flat_heads(g_grid), np.swapaxes(flat_heads(sv_d), 1, 2),
                         out=ds[..., :ns])
            dot = (ds * p).sum(axis=-1, keepdims=True)
            ds -= dot
            ds *= p
            ds *= c
            if _needs_grad(k) or (ns and _needs_grad(shared[0])):
                q_grid = q_rows.grid(q_d)  # scattered once for both keys
                if _needs_grad(k):
                    grads[1] = kv_rows.rows(merged_product(
                        np.swapaxes(by_row(ds), 2, 3), heads(q_grid, lq), lkv
                    ).reshape(b, lkv, d)).reshape(k_d.shape)
                if ns and _needs_grad(shared[0]):
                    grads[3] = shared_product(np.swapaxes(ds[..., :ns], 1, 2),
                                              flat_heads(q_grid))
                del q_grid
            # last, so that its merged buffer outlives no other product
            if _needs_grad(q):
                gq = merged_product(by_row(ds), heads(kv_rows.grid(k_d), lkv),
                                    lq)
                if ns:
                    add_shared(gq, ds[..., :ns], flat_heads(sk_d))
                grads[0] = q_rows.rows(gq.reshape(b, lq, d)).reshape(q_d.shape)
        return grads

    return _register(out, inputs, bwd)


# ---------------------------------------------------------------------------
# neural-net primitives


def softmax(x: Tensor, axis: int) -> Tensor:
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} out of range for rank {x.ndim}")
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _register(out, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis, forward and backward in place on
    their own buffers, in the arithmetic order of the textbook formulas."""
    d = x.shape[-1]
    if _data(gamma).shape != (d,) or _data(beta).shape != (d,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({d},), got "
            f"{_data(gamma).shape} and {_data(beta).shape}"
        )
    if eps < 0:
        raise ContractError(f"layer_norm eps must be >= 0, got {eps}")
    # sum / d is np.mean's own arithmetic, without its Python overhead
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= d
    xh = x.data - mu
    inv = (xh * xh).sum(axis=-1, keepdims=True)
    inv /= d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xh *= inv
    g_d, b_d = _data(gamma), _data(beta)
    out_d = xh * g_d
    out_d += b_d
    out = Tensor(out_d)

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        buf = g * xh
        d_gamma = buf.sum(axis=lead) if _needs_grad(gamma) else None
        d_beta = g.sum(axis=lead) if _needs_grad(beta) else None
        dx = None
        if _needs_grad(x):
            # dx = inv * (dxh - mean(dxh) - xh * mean(dxh * xh))
            dx = g * g_d
            s1 = dx.sum(axis=-1, keepdims=True)
            s1 /= d
            np.multiply(dx, xh, out=buf)
            s2 = buf.sum(axis=-1, keepdims=True)
            s2 /= d
            np.multiply(xh, s2, out=buf)
            dx -= s1
            dx -= buf
            dx *= inv
        return dx, d_gamma, d_beta

    return _register(out, (x, gamma, beta), bwd)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact erf formulation x * Phi(x), not the tanh approximation.

    Forward and backward work in place on their own buffers, in the
    arithmetic order of ``x * 0.5 * (1 + erf(x / sqrt 2))``."""
    phi_cdf = x.data * _INV_SQRT2
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    out = Tensor(x.data * phi_cdf)

    def bwd(g):
        # g * (Phi(x) + x * exp(-x^2 / 2) / sqrt(2 pi))
        dx = x.data * -0.5
        dx *= x.data
        np.exp(dx, out=dx)
        dx *= _INV_SQRT_2PI
        dx *= x.data
        dx += phi_cdf
        dx *= g
        return (dx,)

    return _register(out, (x,), bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Rows ``ids`` of ``table``.  Backward adds each gradient row into
    its id's row in the order of ``ids``, element by element through
    ``np.add.at`` on the flat table (its one-dimensional fast path)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    out = Tensor(table.data[ids])

    def bwd(g):
        d = table.shape[-1]
        dt = np.zeros_like(table.data)
        np.add.at(dt.reshape(-1), (ids.reshape(-1, 1) * d + np.arange(d)
                                   ).reshape(-1), g.reshape(-1))
        return (dt,)

    return _register(out, (table,), bwd)


def _log_softmax_rows(rows: np.ndarray) -> np.ndarray:
    m = rows.max(axis=-1, keepdims=True)
    shifted = rows - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def _nll(logits: Tensor, targets: np.ndarray, divisor: int) -> Tensor:
    """Summed negative log-likelihood of each row of ``logits`` [N, V]
    at ``targets`` [N], divided by ``divisor``."""
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [rows, vocab], got {logits.shape}")
    n, vocab = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets must be ({n},), got {targets.shape}")
    if n == 0:
        raise ContractError("cross entropy needs at least one row")
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexError(f"target id out of range [0, {vocab})")
    logp = _log_softmax_rows(logits.data)
    out = Tensor(-logp[np.arange(n), targets].sum() / divisor)

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), targets] -= 1.0
        p *= float(g) / divisor
        return (p,)

    return _register(out, (logits,), bwd)


def cross_entropy_last_token(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of each example's final position.

    ``logits`` [batch, vocab] are the final-position logits, which the
    model computes alone (see ``models._stack_forward``'s ``last``);
    example i has class ``targets[i]``.
    """
    return _nll(logits, targets, logits.shape[0])


def cross_entropy_sum(logits: Tensor, targets: np.ndarray
                      ) -> tuple[Tensor, int]:
    """Summed token-level cross entropy of the packed rows ``logits``
    [N, V] against ``targets`` [N]: one row per real token, so there is
    no mask.

    Returns (loss_sum, N).  Sum reduction keeps gradient accumulation
    over micro-batches exactly equivalent to one large batch; callers
    normalize by the total position count at update time.
    """
    return _nll(logits, targets, 1), logits.shape[0]
