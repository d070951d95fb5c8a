"""Dense tensors with tape-based reverse-mode automatic differentiation.

Design constraints, in order of priority:

* reproducibility: every kernel is deterministic, so a computation
  replayed with identical inputs and shapes gives bit-identical outputs
  and gradients on one machine and BLAS build.  Matrix products go
  through one private kernel, ``np.matmul`` (BLAS).  BLAS does not match
  a sequential triple loop bit for bit, and a row's bytes depend on the
  shape of the whole product (GEMV and GEMM differ), but for fixed
  shapes its bytes do not vary from run to run.  The einsum reference
  ``np.einsum("...ik,...kj->...ij", a, b)``, which accumulates over the
  inner axis in order, is kept in the tests as the oracle: swapped in
  for the kernel, it gives the byte-exact results the golden and
  triple-loop tests pin.
* simplicity: define-by-run tape, no graph rewriting, 64-bit floats by
  default.  float32 is supported but excluded from gradient-check
  tolerances.
* memory: what the tape keeps alive sets a training run's peak.  The two
  composites every transformer layer repeats are single nodes with a
  hand-written backward: :func:`linear` (product plus bias) and
  :func:`attention` (head split, scores, mask, softmax, context and head
  merge), which keeps only its softmax probabilities and rebuilds the
  head views of its inputs in backward.  Both replay exactly the array
  operations of the primitive composition they replace, so their bytes
  match it.  :meth:`Tape.backward` drops each intermediate gradient once
  its node has run, so after backward only leaves hold ``grad``.  Layer
  norm and GELU compute forward and backward in place on their own
  buffers, in the arithmetic order of the formulas, so they keep no
  temporaries beyond what backward reads.  A stack's last layer runs on
  the rows its caller reads (:func:`take_rows`), so the tape holds
  [B, d] rather than [B, L, d] for that layer, the final norm and the
  head, and :func:`cross_entropy_last_token` takes those [B, V] logits
  without a [B, L, V] gradient.

Recording happens only while a :class:`Tape` is active, so inference
code that never opens a tape pays no autodiff overhead.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float64

_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(RuntimeError):
    """A documented precondition of an operation was violated."""


class NumericalError(RuntimeError):
    """A NaN or Inf appeared where only finite values are allowed."""


class Tensor:
    """Dense n-dimensional value with optional gradient tracking.

    ``data`` is always a C-contiguous float array.  ``grad`` is either
    ``None`` or an array of identical shape.  :meth:`Tape.backward` sets
    it on leaves only: tensors with ``requires_grad`` that no recorded
    operation produced (parameters, and tensors created with
    ``requires_grad=True``).  An operation's output holds its gradient
    only while backward runs, as in PyTorch's non-leaf rule.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim > 0 and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
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

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

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
        loss.grad = np.ones((), dtype=loss.dtype)
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


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return _register(out, (a,), bwd)


def swapaxes(a: Tensor, i: int, j: int) -> Tensor:
    out = Tensor(np.swapaxes(a.data, i, j))

    def bwd(g):
        return (np.ascontiguousarray(np.swapaxes(g, i, j)),)

    return _register(out, (a,), bwd)


def concat(parts: list, axis: int) -> Tensor:
    datas = [_data(p) for p in parts]
    out = Tensor(np.concatenate(datas, axis=axis))
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        pieces = np.split(g, splits, axis=axis)
        return [
            np.ascontiguousarray(piece) if _needs_grad(p) else None
            for p, piece in zip(parts, pieces)
        ]

    return _register(out, tuple(parts), bwd)


def broadcast_to(a: Tensor, shape) -> Tensor:
    out = Tensor(np.broadcast_to(a.data, shape).copy())

    def bwd(g):
        return (_unbroadcast(g, a.data.shape),)

    return _register(out, (a,), bwd)


def take_rows(a: Tensor, rows: np.ndarray) -> Tensor:
    """Row ``rows[i]`` of each ``a[i]``: ``a`` [B, L, ...] -> [B, ...].

    One node; backward scatters the gradient into zeros of ``a``'s
    shape, so every row not taken gets an exact zero.
    """
    rows = np.asarray(rows)
    if a.ndim < 2 or rows.shape != (a.shape[0],):
        raise ShapeError(f"take_rows needs a [B, L, ...] operand and rows "
                         f"[B], got {a.shape} and {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= a.shape[1]):
        raise IndexError(f"take_rows rows out of range [0, {a.shape[1]})")
    batch = np.arange(a.shape[0])
    out = Tensor(a.data[batch, rows])

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[batch, rows] = g
        return (ga,)

    return _register(out, (a,), bwd)


# ---------------------------------------------------------------------------
# matrix product


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[..., m, k] @ [..., k, n]``: the one matrix-product kernel."""
    return np.matmul(a, b)


def matmul(a, b) -> Tensor:
    """Matrix product ``[..., m, k] @ [..., k, n]``.

    The leading dimensions either match exactly or one operand is a
    plain matrix (the usual weight case).  Forward and backward are all
    computed by :func:`_product` (BLAS): deterministic for fixed shapes
    on one machine and BLAS build, but not bit-identical to a triple
    loop.  Against a 2-D weight the activation's leading dimensions are
    collapsed, so each product is a single GEMM.
    """
    a_d, b_d = _data(a), _data(b)
    if a_d.ndim < 2 or b_d.ndim < 2:
        raise ShapeError(
            f"matmul needs rank >= 2 operands, got {a_d.shape} and {b_d.shape}"
        )
    if a_d.shape[-1] != b_d.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a_d.shape} x {b_d.shape}"
        )
    if a_d.ndim > 2 and b_d.ndim > 2 and a_d.shape[:-2] != b_d.shape[:-2]:
        raise ShapeError(
            f"matmul leading dimensions disagree: {a_d.shape} x {b_d.shape}"
        )
    k, n = b_d.shape[-2:]
    weight = b_d.ndim == 2
    if weight:
        out_d = _product(a_d.reshape(-1, k), b_d).reshape(a_d.shape[:-1] + (n,))
    else:
        out_d = _product(a_d, b_d)
    out = Tensor(out_d)

    def bwd(g):
        ga = gb = None
        if _needs_grad(a):
            if weight:
                ga = _product(g.reshape(-1, n), b_d.T).reshape(a_d.shape)
            else:
                ga = _unbroadcast(_product(g, np.swapaxes(b_d, -1, -2)), a_d.shape)
        if _needs_grad(b):
            if weight:
                gb = _product(a_d.reshape(-1, k).T, g.reshape(-1, n))
            else:
                gb = _unbroadcast(_product(np.swapaxes(a_d, -1, -2), g), b_d.shape)
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


def attention(q, k, v, bias: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q`` [B, Lq, d], ``k`` and ``v`` [B, Lkv, d] are projected inputs;
    ``bias`` is an additive logits bias that broadcasts to [B, h, Lq,
    Lkv].  Returns the merged heads' context [B, Lq, d]; a ``q`` of
    [B, d] is one query per row (Lq = 1) and gives a [B, d] context.  The
    head split and merge are array copies inside the node, and the node
    keeps only the softmax probabilities P: backward rebuilds the head views from
    the inputs and uses dS = P * (dP - rowsum(dP * P)) * scale, the
    softmax backward of FlashAttention (Dao et al. 2022).  Every array
    operation is the one the primitive composition (reshape, swapaxes,
    matmul, scale, add, softmax) performs, so the bytes match it.
    """
    q_d, k_d, v_d = _data(q), _data(k), _data(v)
    q_shape = q_d.shape
    if q_d.ndim == 2:
        q_d = q_d[:, None]
    if (q_d.ndim != 3 or k_d.ndim != 3 or v_d.shape != k_d.shape
            or q_d.shape[0] != k_d.shape[0] or q_d.shape[2] != k_d.shape[2]):
        raise ShapeError(f"attention needs q [B, Lq, d] and k, v [B, Lkv, d], "
                         f"got {q_d.shape}, {k_d.shape} and {v_d.shape}")
    b, lq, d = q_d.shape
    lkv = k_d.shape[1]
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention width {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    c = hd ** -0.5

    def heads(x: np.ndarray, length: int) -> np.ndarray:
        """[B, L, d] -> contiguous [B, h, L, hd]."""
        return np.ascontiguousarray(
            np.swapaxes(x.reshape(b, length, n_heads, hd), 1, 2))

    def merge(x: np.ndarray, length: int) -> np.ndarray:
        """[B, h, L, hd] -> [B, L, d]."""
        return np.ascontiguousarray(np.swapaxes(x, 1, 2)).reshape(b, length, d)

    def keys_t() -> np.ndarray:
        """Contiguous [B, h, hd, Lkv]."""
        return np.ascontiguousarray(np.swapaxes(heads(k_d, lkv), 2, 3))

    p = _product(heads(q_d, lq), keys_t())
    p *= c
    p += bias
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = Tensor(merge(_product(p, heads(v_d, lkv)), lq).reshape(q_shape))

    def bwd(g):
        g_ctx = heads(g.reshape(b, lq, d), lq)
        gq = gk = gv = None
        if _needs_grad(v):
            gv = merge(_product(np.swapaxes(p, -1, -2), g_ctx), lkv)
        if _needs_grad(q) or _needs_grad(k):
            ds = _product(g_ctx, np.swapaxes(heads(v_d, lkv), -1, -2))
            dot = (ds * p).sum(axis=-1, keepdims=True)
            ds -= dot
            ds *= p
            ds *= c
            if _needs_grad(q):
                gq = merge(_product(ds, np.swapaxes(keys_t(), -1, -2)),
                           lq).reshape(q_shape)
            if _needs_grad(k):
                gk_t = _product(np.swapaxes(heads(q_d, lq), -1, -2), ds)
                gk = merge(np.ascontiguousarray(np.swapaxes(gk_t, 2, 3)), lkv)
        return gq, gk, gv

    return _register(out, (q, k, v), bwd)


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
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding ids out of range [0, {table.shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    out = Tensor(table.data[ids])

    def bwd(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (dt,)

    return _register(out, (table,), bwd)


def _log_softmax_rows(rows: np.ndarray) -> np.ndarray:
    m = rows.max(axis=-1, keepdims=True)
    shifted = rows - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - lse


def cross_entropy_last_token(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of each example's final position.

    ``logits`` [batch, vocab] are the final-position logits, which the
    model computes alone (see ``models._stack_forward``'s ``read``);
    example i has class ``targets[i]``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be [batch, vocab], got {logits.shape}")
    b, vocab = logits.shape
    if targets.shape != (b,):
        raise ShapeError(f"targets must be ({b},), got {targets.shape}")
    if targets.min() < 0 or targets.max() >= vocab:
        raise IndexError(f"target id out of range [0, {vocab})")
    logp = _log_softmax_rows(logits.data)
    out = Tensor(-logp[np.arange(b), targets].sum() / b)

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(b), targets] -= 1.0
        p *= float(g) / b
        return (p,)

    return _register(out, (logits,), bwd)


def cross_entropy_sum(
    logits: Tensor, targets: np.ndarray, mask: np.ndarray
) -> tuple[Tensor, int]:
    """Summed token-level cross entropy over masked-in positions.

    Returns (loss_sum, n_positions).  Sum reduction keeps gradient
    accumulation over micro-batches exactly equivalent to one large
    batch; callers normalize by the total position count at update time.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    b, seq, vocab = logits.shape
    if targets.shape != (b, seq) or mask.shape != (b, seq):
        raise ShapeError(
            f"targets/mask must be ({b}, {seq}), got {targets.shape} and {mask.shape}"
        )
    valid = targets[mask]
    if valid.size == 0:
        raise ContractError("cross_entropy_sum needs at least one valid position")
    if valid.min() < 0 or valid.max() >= vocab:
        raise IndexError(f"target id out of range [0, {vocab})")
    rows = logits.data[mask]
    logp = _log_softmax_rows(rows)
    n = rows.shape[0]
    out = Tensor(-logp[np.arange(n), valid].sum())

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), valid] -= 1.0
        dl = np.zeros_like(logits.data)
        dl[mask] = p * float(g)
        return (dl,)

    return _register(out, (logits,), bwd), n
