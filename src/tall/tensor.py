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
* memory: what the tape keeps alive sets a training run's peak, so it
  keeps only what backward reads, as PyTorch's ``save_for_backward``
  does.  A node holds its output's gradient slot, a route for each
  operand (the producer's slot, a leaf, or None when the operand needs
  no gradient) and a backward closure over the flags and arrays it
  reads, taken when the op runs; it never holds an output or operand
  tensor.  So a linear with a frozen weight keeps no input, a residual
  add keeps shapes alone, and an activation that no backward reads
  (a frozen stage's GELU output, say) is freed as soon as the forward
  code drops it; :meth:`Tape.backward` releases every node before it
  returns.  Nor does the tape keep a second copy of an array it can
  rebuild: layer norm and attention offer their output's rebuild on its
  slot, a function that replays their own last operations on arrays
  they keep anyway (``xh``; the probabilities and values), and a
  :func:`linear` or :func:`matmul` whose weight needs a gradient keeps
  that function instead of its input and calls it in backward, as in
  the selective activation recomputation of Korthikanti et al. (2022);
  the consumers of one output share one rebuild per backward.
  The rebuild runs the forward's operations on the same shapes, so its
  bytes are the output's on either kernel.  No kernel copies an array
  to change its layout.  A transformer stack's activations are packed
  rows [N, d], one per real token (see :class:`Packing`), not a padded
  [B, L, d] grid: every position-wise op (linear, layer norm, GELU,
  residual add, the tied head and :func:`cross_entropy_sum`) runs on
  real tokens only, and the tape holds [N, d].  :func:`attention` is
  the one op that needs the grid; it scatters its rows into it and
  gathers the context rows back, and when every position is real the
  packing is a reshape.  It is also the one
  place that masks: a packing carries its rows' lengths and first
  position, and attention hides each key at or past its row's length
  and, when causal, past the query's position, with
  :data:`MASKED_LOGIT`.  The two composites every transformer layer
  repeats are single nodes with a hand-written backward: :func:`linear`
  (product plus bias) and :func:`attention` (head split, scores, masks,
  softmax, context and head merge), which works on head views and keeps
  its softmax probabilities and, of its operands, only the rows its
  gradients read, never a grid.  Both replay the array operations of
  the compositions they replace, so on the reference kernel their bytes
  match them.  After backward only leaves hold ``grad``.  Layer norm
  and GELU compute in place on their own buffers, in the arithmetic
  order of the formulas, so they keep no temporaries beyond what
  backward reads.  A recorded GELU computes its slope in the forward and
  keeps that one array, neither its input nor ``Phi(x)``, so its input
  is freed once the forward code drops it.  A stack read at each row's
  last real token runs its last layer on those rows alone
  (:func:`take_rows`), so the tape holds [B, d] for that layer, the
  final norm and the head, and :func:`cross_entropy_last_token` takes
  those [B, V] logits.  No op copies a KV cache (``nn.KVCache`` keeps
  three kinds).  A greedy decode's self-attention cache is a
  [B, capacity, d] buffer that ``nn`` writes one column per step, with
  no tape, and :func:`attention` reads a view of its filled columns;
  cross-attention reads the memory grid scattered on the first step;
  and a prefix every row shares (the soft prompt) is
  :func:`attention`'s shared block [P, d], attended to by every row
  without a per-row copy.

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
    ``requires_grad=True``).  A recorded operation's output never holds
    a gradient: its ``node``, the :class:`_Slot` the tape routes its
    gradient through, holds it while backward runs, as in PyTorch's
    non-leaf rule.  ``node`` is None on every other tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self.node = None

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


class _Slot:
    """The gradient of one recorded output, held only while backward
    runs: the tape keeps this slot, never the output tensor itself.

    ``rebuild``, when the op offers one, is a function of no arguments
    that recomputes the output's data from arrays the node keeps anyway,
    with the forward's own operations in their order, so its bytes are
    the output's.  A consumer that would keep the output for a weight's
    gradient keeps :meth:`rebuilt` instead (see :func:`_kept`).
    """

    __slots__ = ("grad", "rebuild", "cache")

    def __init__(self, rebuild=None):
        self.grad = None
        self.rebuild = rebuild
        self.cache = None  # the rebuilt array, while consumers read it

    def rebuilt(self) -> np.ndarray:
        """The output's data, rebuilt once per backward: the first
        consumer to run rebuilds it and the rest read the same array,
        until the producer's own node runs and drops it."""
        if self.cache is None:
            self.cache = self.rebuild()
        return self.cache


def _route(x) -> "_Slot | Tensor | None":
    """Where backward adds operand ``x``'s gradient: the slot of the
    node that produced it, the leaf itself, or None when ``x`` needs no
    gradient."""
    if not _needs_grad(x):
        return None
    return x if x.node is None else x.node


class Tape:
    """Ordered record of operations for reverse-mode differentiation.

    Operations are appended in execution order, so the record is a
    topological order by construction; ``backward`` replays it in exact
    reverse.  Tapes nest (the innermost active tape records).  A node is
    ``(slot, routes, backward_fn)``: the output's gradient slot, one
    :func:`_route` per operand, and a backward that holds only the flags
    and arrays it reads, taken when the op ran.  No node refers to an
    output or operand tensor, so an activation no backward reads is
    freed as soon as the forward code drops it.
    """

    def __init__(self):
        self._nodes: list[tuple[_Slot, tuple, object]] = []
        self._ran: int | None = None  # nodes recorded, once backward ran

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE.pop()
        assert popped is self, "tapes unwound out of order"

    def __len__(self) -> int:
        """The number of nodes recorded, before and after backward."""
        return len(self._nodes) if self._ran is None else self._ran

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every reachable requires_grad leaf.

        Gradients accumulate (+=) into pre-existing ``grad`` arrays, so
        calling backward for several losses between optimizer steps sums
        their gradients (each loss on its own tape); frozen tensors never
        receive grad storage.  A node's output gradient is dropped as
        soon as the node has run, and backward releases every node, with
        the arrays its backward kept, and drops every slot's rebuild
        and rebuilt array before it returns, so after backward the tape
        holds no activation and only leaves hold ``grad``; ``len`` still
        counts the nodes recorded.  A tape runs backward once: a second
        call is a :class:`ContractError`, since its nodes are gone.
        """
        if self._ran is not None:
            raise ContractError("backward already ran on this tape and "
                                "released its nodes; record a new tape")
        if loss.data.ndim != 0:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}"
            )
        (loss if loss.node is None else loss.node).grad = np.ones(())
        nodes = self._nodes
        self._ran = len(nodes)
        for slot, routes, backward_fn in reversed(nodes):
            slot.cache = None  # every consumer of the output has run
            if slot.grad is None:
                continue
            grads = backward_fn(slot.grad)
            slot.grad = None
            for route, g in zip(routes, grads):
                if g is None or route is None:
                    continue
                if route.grad is None:
                    route.grad = g
                else:
                    route.grad = route.grad + g
        # released together, not one by one as each runs: frees amid
        # backward's own allocations let the allocator hand pages back
        # and fault them in again; an output the caller still holds
        # keeps its slot, so the slot lets go of what its rebuild reads
        for slot, _, _ in nodes:
            slot.rebuild = slot.cache = None
        nodes.clear()


_ACTIVE: list[Tape] = []


def recording() -> bool:
    """Whether a tape is active, so that an op on a tensor that needs a
    gradient would be recorded."""
    return bool(_ACTIVE)


def _register(out: Tensor, inputs: tuple, backward_fn,
              rebuild=None) -> Tensor:
    """Record ``out`` of an op on ``inputs`` when a tape is active and
    some input needs a gradient.  ``backward_fn`` maps the output's
    gradient to one gradient (or None) per input, and must hold no
    input or output tensor: only what it reads.  ``rebuild``, if given,
    recomputes ``out``'s data from arrays ``backward_fn`` already holds,
    replaying the forward's operations in their order; it goes on the
    output's slot (:class:`_Slot`), and is dropped if nothing records."""
    if _ACTIVE:
        routes = tuple(_route(t) for t in inputs)
        if any(r is not None for r in routes):
            out.requires_grad = True
            out.node = _Slot(rebuild)
            _ACTIVE[-1]._nodes.append((out.node, routes, backward_fn))
    return out


def _kept(x, x_d: np.ndarray):
    """What an op keeps of its activation operand ``x`` (data ``x_d``)
    for a weight's gradient: a function of no arguments that returns the
    array, the producer slot's :meth:`_Slot.rebuilt` when it offers a
    rebuild (so no second copy of what the producer keeps is held, and
    the consumers of one output share one rebuild), else ``x_d``
    itself."""
    slot = x.node if isinstance(x, Tensor) else None
    if slot is not None and slot.rebuild is not None:
        return slot.rebuilt
    return lambda: x_d


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
    # backward reads the operands' shapes alone
    a_shape = a_d.shape if _needs_grad(a) else None
    b_shape = b_d.shape if _needs_grad(b) else None

    def bwd(g):
        ga = None if a_shape is None else _unbroadcast(g, a_shape)
        gb = None if b_shape is None else _unbroadcast(g, b_shape)
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
    shape = a.shape

    def bwd(g):
        ga = np.zeros(shape)
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
    not bit-identical to a triple loop.  For the weight's gradient the
    node keeps the activation, or its producer's rebuild when it offers
    one (the tied head's final layer norm, say; see :func:`_kept`).
    """
    a_d, b_d = _data(a), _data(b)
    if a_d.ndim < 2 or b_d.ndim != 2 or a_d.shape[-1] != b_d.shape[0]:
        raise ShapeError(f"matmul needs a [..., m, k] and w [k, n], got "
                         f"{a_d.shape} and {b_d.shape}")
    k, n = b_d.shape
    out = Tensor(_product(a_d.reshape(-1, k), b_d).reshape(
        a_d.shape[:-1] + (n,)))
    # each operand is kept only for the other's gradient, the activation
    # as its producer's rebuild when it offers one
    a_shape = a_d.shape
    a_kept = _kept(a, a_d) if _needs_grad(b) else None
    b_kept = b_d if _needs_grad(a) else None

    def bwd(g):
        ga = (None if b_kept is None
              else _product(g.reshape(-1, n), b_kept.T).reshape(a_shape))
        gb = (None if a_kept is None
              else _product(a_kept().reshape(-1, k).T, g.reshape(-1, n)))
        return ga, gb

    return _register(out, (a, b), bwd)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: ``x`` [..., k], ``w`` [k, n], ``b`` [n].

    The forward is one :func:`_product` on the collapsed rows of ``x``
    with the bias added in place; backward computes only the gradients
    whose operand needs one.  The bytes are those of ``add(matmul(x, w),
    b)``.  For ``w``'s gradient the node keeps ``x``, or, when ``x``'s
    producer offers a rebuild (a layer norm, an attention context), that
    function, which backward calls (see :func:`_kept`).
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
    # x is kept only for w's gradient and w only for x's, so a frozen
    # weight's input is freed once the forward code drops it; x is kept
    # as its producer's rebuild when it offers one
    x_shape = x_d.shape
    x_kept = _kept(x, x_d) if _needs_grad(w) else None
    w_kept = w_d if _needs_grad(x) else None
    grad_b = _needs_grad(b)

    def bwd(g):
        rows = g.reshape(-1, n)
        gx = None if w_kept is None else _product(rows, w_kept.T).reshape(x_shape)
        gw = (None if x_kept is None
              else _product(x_kept().reshape(-1, k).T, rows))
        gb = _unbroadcast(g, (n,)) if grad_b else None
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
    The node keeps the softmax probabilities P and, of its operands, what
    its gradients read; when that includes the values it offers the
    context as its output's rebuild: the P @ V product, the shared
    block's term, then the row gather.  Backward uses dS = P
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
    ns, sk_d, sv_d = 0, None, None
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
    q_shape, kv_shape = q_d.shape, k_d.shape

    def rebuild():
        ctx = merged_product(by_row(p), heads(kv_rows.grid(v_d), lkv), lq)
        if ns:
            add_shared(ctx, p[..., :ns], flat_heads(sv_d))
        return q_rows.rows(ctx.reshape(b, lq, d)).reshape(q_shape)

    out = Tensor(rebuild())
    inputs = (q, k, v) if shared is None else (q, k, v, *shared)
    # each gradient's flag, and only the operand arrays those gradients
    # read: the queries for the keys', the keys for the queries', and the
    # values for every gradient but the values' own
    grad_q, grad_k, grad_v = map(_needs_grad, (q, k, v))
    grad_sk, grad_sv = ((False, False) if shared is None
                        else map(_needs_grad, shared))
    grad_keys = grad_k or grad_sk
    q_kept = q_d if grad_keys else None
    k_kept, sk_kept = (k_d, sk_d) if grad_q else (None, None)
    v_kept, sv_kept = (v_d, sv_d) if grad_q or grad_keys else (None, None)
    n_inputs = len(inputs)

    def bwd(g):
        # the grids are scattered again here, not kept alive on the tape
        g_grid = q_rows.grid(g)
        g_ctx = heads(g_grid, lq)
        grads = [None] * n_inputs
        if grad_v:
            grads[2] = kv_rows.rows(merged_product(
                np.swapaxes(by_row(p), 2, 3), g_ctx, lkv
            ).reshape(b, lkv, d)).reshape(kv_shape)
        if grad_sv:
            grads[4] = shared_product(np.swapaxes(p[..., :ns], 1, 2),
                                      flat_heads(g_grid))
        if grad_q or grad_keys:
            ds = np.empty_like(p)
            _product(g_ctx, np.swapaxes(heads(kv_rows.grid(v_kept), lkv), 2, 3),
                     out=by_row(ds))
            if ns:
                _product(flat_heads(g_grid),
                         np.swapaxes(flat_heads(sv_kept), 1, 2),
                         out=ds[..., :ns])
            dot = (ds * p).sum(axis=-1, keepdims=True)
            ds -= dot
            ds *= p
            ds *= c
            if grad_keys:
                q_grid = q_rows.grid(q_kept)  # scattered once for both keys
                if grad_k:
                    grads[1] = kv_rows.rows(merged_product(
                        np.swapaxes(by_row(ds), 2, 3), heads(q_grid, lq), lkv
                    ).reshape(b, lkv, d)).reshape(kv_shape)
                if grad_sk:
                    grads[3] = shared_product(np.swapaxes(ds[..., :ns], 1, 2),
                                              flat_heads(q_grid))
                del q_grid
            # last, so that its merged buffer outlives no other product
            if grad_q:
                gq = merged_product(by_row(ds),
                                    heads(kv_rows.grid(k_kept), lkv), lq)
                if ns:
                    add_shared(gq, ds[..., :ns], flat_heads(sk_kept))
                grads[0] = q_rows.rows(gq.reshape(b, lq, d)).reshape(q_shape)
        return grads

    # the context is rebuilt only from what the node keeps: P and the values
    return _register(out, inputs, bwd, None if v_kept is None else rebuild)


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
    their own buffers, in the arithmetic order of the textbook formulas.

    A recorded call keeps the normalised rows ``xh`` and ``1 / sigma``,
    and offers ``xh * gamma`` then ``+= beta``, the forward's own two
    operations, as its output's rebuild, so a trainable projection of
    the output keeps no copy of it."""
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

    def rebuild():
        out_d = xh * g_d
        out_d += b_d
        return out_d

    out = Tensor(rebuild())
    grad_x, grad_gamma, grad_beta = map(_needs_grad, (x, gamma, beta))

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        buf = g * xh
        d_gamma = buf.sum(axis=lead) if grad_gamma else None
        d_beta = g.sum(axis=lead) if grad_beta else None
        dx = None
        if grad_x:
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

    return _register(out, (x, gamma, beta), bwd, rebuild)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact erf formulation x * Phi(x), not the tanh approximation.

    Works in place on its own buffers, in the arithmetic order of
    ``x * 0.5 * (1 + erf(x / sqrt 2))``.  A recorded call computes the
    slope ``Phi(x) + x * exp(-x^2 / 2) / sqrt(2 pi)`` during the forward
    and keeps it alone, so its input and ``Phi(x)`` are freed once the
    forward code drops them; backward multiplies the upstream gradient
    into the slope.  An unrecorded call computes no slope.  It offers no
    rebuild of its output: it keeps neither ``x`` nor ``Phi(x)``, and
    its backward writes the slope in place."""
    x_d = x.data
    phi_cdf = x_d * _INV_SQRT2
    erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    out = Tensor(x_d * phi_cdf)
    if not (recording() and _needs_grad(x)):
        return out
    slope = x_d * -0.5
    slope *= x_d
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= x_d
    slope += phi_cdf

    def bwd(g):
        # a tape runs backward once, so the slope is this call's to write
        return (np.multiply(slope, g, out=slope),)

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
    shape = table.shape

    def bwd(g):
        d = shape[-1]
        dt = np.zeros(shape)
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
