import math
import weakref

import numpy as np
import pytest
from scipy.special import erf

from tall import tensor as T
from tall.tensor import (
    ContractError,
    ShapeError,
    Tape,
    Tensor,
    add,
    cross_entropy_last_token,
    cross_entropy_sum,
    embedding,
    gelu,
    layer_norm,
    matmul,
    softmax,
    swapaxes,
    take_rows,
)

from conftest import (
    assert_close,
    assert_parity,
    batched_matmul,
    broadcast_to,
    composed_attention,
    composed_linear,
    concat,
    finite_diff_grad,
    kept_arrays,
    kept_bytes,
    max_relative_error,
    mean_all,
    mul,
    reference_attention_bias,
    reshape,
    scale,
    sum_all,
)


def naive_matmul(a, b):
    m, k = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_projector(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        x = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(matmul(p, x).data, [[5.0, 6.0], [0.0, 0.0]])

    @pytest.mark.usefixtures("reference_kernel")
    def test_against_triple_loop(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_array_equal(out.data, naive_matmul(a, b))

    @pytest.mark.usefixtures("reference_kernel")
    def test_triple_loop_large_inner_dim(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 96))
        b = rng.standard_normal((96, 3))
        np.testing.assert_array_equal(
            matmul(Tensor(a), Tensor(b)).data, naive_matmul(a, b)
        )

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_the_right_operand_is_a_weight(self):
        with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(2, 4, 5\)"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 5))))

    @pytest.mark.usefixtures("reference_kernel")
    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal((4, 5, 2))
        out = batched_matmul(Tensor(a), Tensor(b)).data
        for i in range(4):
            np.testing.assert_array_equal(out[i], naive_matmul(a[i], b[i]))


# each case's product op and operand shapes; the batched product of
# attention is the oracle op ``composed_attention`` runs on
MATMUL_SHAPES = {
    "2d_at_2d": (matmul, ((5, 7), (7, 3))),
    "3d_at_weight": (matmul, ((4, 6, 7), (7, 3))),
    "4d_attention": (batched_matmul, ((2, 3, 5, 4), (2, 3, 4, 6))),
}


def _product_and_grads(op, a, b, g):
    """``op``'s output and both operand gradients for upstream ``g``."""
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = op(ta, tb)
        loss = sum_all(mul(out, Tensor(g)))
    tape.backward(loss)
    return out.data, ta.grad, tb.grad


def _operands(shapes, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shapes[0])
    b = rng.standard_normal(shapes[1])
    return a, b, rng.standard_normal(np.matmul(a, b).shape)


class TestShippedKernel:
    """The BLAS kernel against the einsum reference, and its determinism."""

    @pytest.mark.parametrize("op, shapes", MATMUL_SHAPES.values(),
                             ids=MATMUL_SHAPES.keys())
    def test_forward_and_backward_match_reference(
            self, op, shapes, monkeypatch, einsum_reference):
        a, b, g = _operands(shapes, seed=11)
        shipped = _product_and_grads(op, a, b, g)
        monkeypatch.setattr(T, "_product", einsum_reference)
        reference = _product_and_grads(op, a, b, g)
        for got, want in zip(shipped, reference):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("op, shapes", MATMUL_SHAPES.values(),
                             ids=MATMUL_SHAPES.keys())
    def test_bytes_do_not_depend_on_buffer_offset(self, op, shapes):
        def at_offset(x, offset):
            buf = np.zeros(x.nbytes + 32, dtype=np.uint8)
            view = buf[offset:offset + x.nbytes].view(np.float64).reshape(x.shape)
            view[...] = x
            return view

        a, b, g = _operands(shapes, seed=12)
        runs = []
        for offset in (0, 8, 16, 24):
            a_o, b_o, g_o = (at_offset(x, offset) for x in (a, b, g))
            runs.append([x.tobytes()
                         for x in _product_and_grads(op, a_o, b_o, g_o)])
        assert all(run == runs[0] for run in runs[1:])


def _attention_operands(seed, b=2, lq=3, lkv=5, d=8, causal=False):
    """Projected q, k, v grids, an upstream gradient, and the masks:
    (q_rows, kv_rows, causal), the grids' index-free packings and the
    flag.  Unless ``causal``, the last row's keys are real up to column 2
    only; when ``causal`` every key is real and the mask is causal."""
    rng = np.random.default_rng(seed)
    q, g = rng.standard_normal((2, b, lq, d))
    k, v = rng.standard_normal((2, b, lkv, d))
    lengths = np.full(b, lkv)
    if not causal:
        lengths[-1] = 2
    masks = (T.Packing(b, lq, lengths=np.full(b, lq)),
             T.Packing(b, lkv, lengths=lengths), causal)
    return [q, k, v], g, masks


def _linear_operands(seed, x_shape):
    rng = np.random.default_rng(seed)
    k, n = x_shape[-1], 3
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal((k, n))
    b = rng.standard_normal(n)
    return [x, w, b], rng.standard_normal(x_shape[:-1] + (n,))


def _output_and_grads(op, arrays, g, trainable=None):
    """``op``'s output and each operand's gradient for upstream ``g``."""
    trainable = trainable or [True] * len(arrays)
    leaves = [Tensor(a.copy(), requires_grad=t) for a, t in zip(arrays, trainable)]
    with Tape() as tape:
        out = op(*leaves)
        loss = sum_all(mul(out, Tensor(g)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in leaves]


LINEAR_SHAPES = {"rows": (5, 4), "batched": (2, 3, 4)}
ATTENTION_CASES = {"cross_padded": {}, "causal_self": {"lkv": 3, "causal": True}}


class TestFusedOps:
    """``linear`` and ``attention`` against the primitive compositions."""

    @pytest.mark.parametrize("kernel", ["blas", "reference"])
    @pytest.mark.parametrize("x_shape", LINEAR_SHAPES.values(),
                             ids=LINEAR_SHAPES.keys())
    def test_linear_matches_composition(self, x_shape, kernel, monkeypatch,
                                        einsum_reference):
        if kernel == "reference":
            monkeypatch.setattr(T, "_product", einsum_reference)
        arrays, g = _linear_operands(21, x_shape)
        fused = _output_and_grads(T.linear, arrays, g)
        composed = _output_and_grads(composed_linear, arrays, g)
        for got, want in zip(fused, composed):
            assert got.shape == want.shape
            if kernel == "reference":
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kernel", ["blas", "reference"])
    @pytest.mark.parametrize("case", ATTENTION_CASES.values(),
                             ids=ATTENTION_CASES.keys())
    def test_attention_matches_composition(self, case, kernel, monkeypatch,
                                           einsum_reference):
        if kernel == "reference":
            monkeypatch.setattr(T, "_product", einsum_reference)
        arrays, g, masks = _attention_operands(22, **case)

        def fused(q, k, v):
            return T.attention(q, k, v, 2, *masks)

        def composed(q, k, v):
            return composed_attention(q, k, v,
                                      reference_attention_bias(*masks), 2)

        for got, want in zip(_output_and_grads(fused, arrays, g),
                             _output_and_grads(composed, arrays, g)):
            assert got.shape == want.shape
            if kernel == "reference":
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("op", ["linear", "attention"])
    def test_strided_operands_match_contiguous_copies(self, op, kernel):
        """Column slices of a wider array give the bytes of their copies
        on the reference kernel, and agree to 1e-12 on BLAS."""
        if op == "linear":
            arrays, g = _linear_operands(28, (2, 3, 4))
            fn, n_views = T.linear, 1
        else:
            arrays, g, masks = _attention_operands(28)
            fn, n_views = (lambda q, k, v: T.attention(q, k, v, 2, *masks)), 3
        rng = np.random.default_rng(29)
        views = []
        for a in arrays[:n_views]:
            wide = rng.standard_normal(a.shape[:-1] + (3 * a.shape[-1],))
            view = wide[..., a.shape[-1]:2 * a.shape[-1]]
            view[...] = a
            assert not view.flags.c_contiguous
            views.append(view)
        runs = []
        for operands in (views + arrays[n_views:], arrays):
            leaves = [Tensor(a, requires_grad=True) for a in operands]
            with Tape() as tape:
                out = fn(*leaves)
                loss = sum_all(mul(out, Tensor(g)))
            tape.backward(loss)
            runs.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*runs):
            assert_parity(got, want, kernel)

    def test_one_query_per_row_is_a_length_one_query(self):
        arrays, g, (q_rows, kv_rows, _) = _attention_operands(27, lq=1)

        def attend(q, k, v):
            return T.attention(q, k, v, 2, q_rows, kv_rows)

        rows = [arrays[0][:, 0]] + arrays[1:]
        one = _output_and_grads(attend, rows, g[:, 0])
        full = _output_and_grads(attend, arrays, g)
        assert one[0].shape == (2, 8) and one[1].shape == (2, 8)
        for got, want in zip(one, full):
            np.testing.assert_array_equal(got, want.reshape(got.shape))

    def test_packed_rows_are_the_rows_of_the_grid(self, kernel):
        """Packed query rows (lengths 3 and 1) over packed key rows
        (lengths 5 and 2) give the output rows and gradient rows of the
        grid run whose other positions hold zeros and get no gradient."""
        arrays, g, (q_grid, kv_grid, _) = _attention_operands(30)
        q_index, kv_index = np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3, 4, 5, 6])
        q_rows = T.Packing(2, 3, q_index, lengths=np.array([3, 1]))
        kv_rows = T.Packing(2, 5, kv_index, lengths=kv_grid.lengths)
        grids = [q_rows.grid(q_rows.rows(arrays[0]))] + [
            kv_rows.grid(kv_rows.rows(a)) for a in arrays[1:]]
        g_grid = q_rows.grid(q_rows.rows(g))
        packed = _output_and_grads(
            lambda q, k, v: T.attention(q, k, v, 2, q_rows, kv_rows),
            [q_rows.rows(grids[0])] + [kv_rows.rows(a) for a in grids[1:]],
            q_rows.rows(g_grid))
        grid = _output_and_grads(
            lambda q, k, v: T.attention(q, k, v, 2, q_grid, kv_grid),
            grids, g_grid)
        picks = (q_rows, q_rows, kv_rows, kv_rows)
        for got, want, rows in zip(packed, grid, picks):
            assert_parity(got, rows.rows(want), kernel)

    def test_a_packing_with_every_position_is_a_reshape(self):
        arrays, g, masks = _attention_operands(31)
        packed = _output_and_grads(
            lambda q, k, v: T.attention(q, k, v, 2, *masks),
            [a.reshape(-1, 8) for a in arrays], g.reshape(-1, 8))
        grid = _output_and_grads(
            lambda q, k, v: T.attention(q, k, v, 2, *masks), arrays, g)
        for got, want in zip(packed, grid):
            assert got.tobytes() == want.tobytes()

    def test_linear_against_finite_differences(self):
        arrays, g = _linear_operands(23, (2, 3, 4))
        leaves = [Tensor(a, requires_grad=True) for a in arrays]

        def loss():
            return sum_all(mul(T.linear(*leaves), Tensor(g)))

        with Tape() as tape:
            value = loss()
        tape.backward(value)
        fd = finite_diff_grad(lambda: loss().item(), leaves)
        for leaf, want in zip(leaves, fd):
            assert max_relative_error(leaf.grad, want) < 1e-6

    @pytest.mark.parametrize("case", ATTENTION_CASES.values(),
                             ids=ATTENTION_CASES.keys())
    def test_attention_against_finite_differences(self, case):
        arrays, g, masks = _attention_operands(24, **case)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]

        def loss():
            return sum_all(mul(T.attention(*leaves, 2, *masks), Tensor(g)))

        with Tape() as tape:
            value = loss()
        tape.backward(value)
        fd = finite_diff_grad(lambda: loss().item(), leaves)
        for leaf, want in zip(leaves, fd):
            assert max_relative_error(leaf.grad, want) < 1e-6

    def test_frozen_weight_and_bias_get_no_gradient(self):
        arrays, g = _linear_operands(25, (2, 3, 4))
        x, w, b = (Tensor(a, requires_grad=t)
                   for a, t in zip(arrays, (True, False, False)))
        with Tape() as tape:
            out = T.linear(x, w, b)
        [(slot, routes, backward_fn)] = tape._nodes
        assert slot is out.node and routes == (x, None, None)
        gx, gw, gb = backward_fn(g)
        assert gw is None and gb is None
        np.testing.assert_array_equal(
            gx, _output_and_grads(composed_linear, arrays, g,
                                  [True, False, False])[1])

    def test_frozen_keys_and_values_get_no_gradient(self):
        arrays, g, masks = _attention_operands(26)
        q, k, v = (Tensor(a, requires_grad=t)
                   for a, t in zip(arrays, (True, False, False)))
        with Tape() as tape:
            out = T.attention(q, k, v, 2, *masks)
        [(slot, routes, backward_fn)] = tape._nodes
        assert slot is out.node and routes == (q, None, None)
        gq, gk, gv = backward_fn(g)
        assert gk is None and gv is None
        assert gq.shape == q.shape

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))),
                     Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):
            T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))),
                     Tensor(np.zeros(4)))
        rows = T.Packing(1, 3, lengths=np.array([3]))
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                        Tensor(np.zeros((3, 4))), 2, rows, rows)
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))),
                        Tensor(np.zeros((3, 4))), 3, rows, rows)


def _shared_block_operands(seed, n_shared=4):
    """Packed query rows, row keys and values, a shared block of
    ``n_shared`` keys and values, an upstream gradient, and the packings:
    three rows of 3, 1 and 2 new positions after the block, causal."""
    rng = np.random.default_rng(seed)
    new = np.array([3, 1, 2])
    index = np.array([0, 1, 2, 3, 6, 7])
    rows = T.Packing(3, 3, index, lengths=n_shared + new, start=n_shared)
    q, k, v, g = rng.standard_normal((4, rows.n, 8))
    sk, sv = rng.standard_normal((2, n_shared, 8))
    return [q, k, v, sk, sv], g, rows


class TestSharedBlock:
    """``attention``'s shared block against the block copied in front of
    every row's keys: the composition it replaces."""

    @staticmethod
    def block_in_every_row(rows):
        """``attention`` over each row's keys after its own copy of the
        block: a [B, P + L] key grid whose first P columns are the block."""
        n_shared = rows.start
        full = T.Packing(rows.batch, n_shared + rows.width,
                         lengths=rows.lengths)
        queries = T.Packing(rows.batch, rows.width, rows.index,
                            lengths=rows.lengths, start=n_shared)

        def to_grid(x):
            out = Tensor(rows.grid(x.data))
            return T._register(out, (x,), lambda g: (rows.rows(g),))

        def attend(q, k, v, sk, sv):
            grids = [concat([broadcast_to(reshape(block, (1,) + block.shape),
                                          (rows.batch,) + block.shape),
                             to_grid(x)], axis=1)
                     for block, x in ((sk, k), (sv, v))]
            return T.attention(q, *grids, 2, queries, full, causal=True)

        return attend

    def test_shared_block_is_the_block_in_every_row(self, kernel):
        arrays, g, rows = _shared_block_operands(40)
        got = _output_and_grads(
            lambda q, k, v, sk, sv: T.attention(q, k, v, 2, rows, rows, True,
                                                (sk, sv)), arrays, g)
        want = _output_and_grads(self.block_in_every_row(rows), arrays, g)
        for a, b in zip(got, want):
            assert_close(a, b)

    def test_against_finite_differences(self, kernel):
        arrays, g, rows = _shared_block_operands(41, n_shared=2)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]

        def loss():
            return sum_all(mul(T.attention(*leaves[:3], 2, rows, rows, True,
                                           tuple(leaves[3:])), Tensor(g)))

        with Tape() as tape:
            value = loss()
        tape.backward(value)
        fd = finite_diff_grad(lambda: loss().item(), leaves)
        for leaf, want in zip(leaves, fd):
            assert max_relative_error(leaf.grad, want) < 1e-6

    def test_no_shared_block_leaves_the_node_as_it_was(self):
        """Without a block the node records the routes of its three
        operands alone: here the leaves themselves."""
        arrays, g, masks = _attention_operands(42)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            T.attention(*leaves, 2, *masks)
        [(_, routes, _)] = tape._nodes
        assert routes == tuple(leaves)

    def test_the_row_keys_start_after_the_block(self):
        arrays, _, rows = _shared_block_operands(43)
        q, k, v, sk, sv = map(Tensor, arrays)
        with pytest.raises(ContractError, match="start at position 4, "
                                                "after 3 shared keys"):
            T.attention(q, k, v, 2, rows, rows, True,
                        (Tensor(sk.data[:3]), Tensor(sv.data[:3])))
        with pytest.raises(ContractError, match="after 0 shared keys"):
            T.attention(q, k, v, 2, rows, rows, True)
        with pytest.raises(ShapeError, match="shared block"):
            T.attention(q, k, v, 2, rows, rows, True, (sk, Tensor(sv.data[1:])))


def _rebuild_cases():
    """name -> (leaf arrays, upstream gradient, graph): ``graph(through,
    *leaves)`` returns a producer's output and a trainable projection of
    ``through(output)``; the projection's weight is the last leaf."""
    rng = np.random.default_rng(50)
    x, g_lin, g_head = (rng.standard_normal(s) for s in ((5, 4), (5, 3), (5, 7)))
    norm = [x, rng.standard_normal(4), rng.standard_normal(4)]
    w, bias, embed = (rng.standard_normal(s) for s in ((4, 3), (3,), (7, 4)))
    w_ctx, b_ctx = rng.standard_normal((8, 3)), rng.standard_normal(3)

    def projected(produce):
        def graph(through, *leaves):
            out = produce(*leaves[:-2])
            return out, T.linear(through(out), *leaves[-2:])
        return graph

    def tied_head(through, x, gamma, beta, embed):
        out = layer_norm(x, gamma, beta)
        return out, matmul(through(out), swapaxes(embed, 0, 1))

    cases = {"layer_norm": (norm + [w, bias], g_lin, projected(layer_norm)),
             "tied_head": (norm + [embed], g_head, tied_head)}
    for name, seed, kw in (("self_attention", 51, {"lkv": 3, "causal": True}),
                           ("cross_attention", 52, {})):
        arrays, g, masks = _attention_operands(seed, **kw)
        cases[name] = (arrays + [w_ctx, b_ctx], g[..., :3], projected(
            lambda q, k, v, masks=masks: T.attention(q, k, v, 2, *masks)))
    arrays, g, rows = _shared_block_operands(53)
    cases["shared_block"] = (arrays + [w_ctx, b_ctx], g[..., :3], projected(
        lambda q, k, v, sk, sv: T.attention(q, k, v, 2, rows, rows, True,
                                            (sk, sv))))
    return cases


REBUILD_CASES = _rebuild_cases()


class TestRebuild:
    """A trainable projection of a layer-norm output or an attention
    context keeps its producer's rebuild, not the output itself.  The
    reference graph routes the output through ``scale(., 1.0)``, a copy
    that offers no rebuild."""

    @staticmethod
    def run(case, through):
        """The projection's output and every leaf's gradient, the bytes
        the tape keeps before backward, leaves left out, and the bytes of
        the producer's output."""
        arrays, g, graph = case
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        with Tape() as tape:
            produced, out = graph(through, *leaves)
            loss = sum_all(mul(out, Tensor(g)))
        kept = kept_bytes(tape, skip=leaves)
        tape.backward(loss)
        return ([out.data] + [t.grad for t in leaves], kept,
                produced.data.nbytes)

    @pytest.mark.parametrize("name", REBUILD_CASES)
    def test_gradients_keep_their_bytes_and_the_output_is_not_kept(
            self, name, kernel):
        got, kept, nbytes = self.run(REBUILD_CASES[name], lambda t: t)
        want, kept_copy, _ = self.run(REBUILD_CASES[name],
                                      lambda t: scale(t, 1.0))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert kept_copy - kept == nbytes

    @staticmethod
    def three_projections(seed, through, count=None):
        """A layer norm read by three trainable linears, as an attention
        block's ``ln_self`` output feeds its q, k and v projections: every
        leaf's gradient after one backward.  ``count``, a list, gets one
        entry per call of the norm's rebuild."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        leaves = [x] + [Tensor(rng.standard_normal(s), requires_grad=True)
                        for s in [(8,), (8,)] + [(8, 6), (6,)] * 3]
        gamma, beta, *proj = leaves[1:]
        with Tape() as tape:
            n = layer_norm(x, gamma, beta)
            if count is not None:
                rebuild = n.node.rebuild
                n.node.rebuild = lambda: count.append(1) or rebuild()
            outs = [T.linear(through(n), w, b)
                    for w, b in zip(proj[::2], proj[1::2])]
            loss = sum_all(mul(add(add(outs[0], outs[1]), outs[2]),
                               Tensor(rng.standard_normal((5, 6)))))
        tape.backward(loss)
        return [t.grad for t in leaves]

    def test_an_output_read_by_three_projections_is_rebuilt_once(
            self, kernel):
        calls = []
        got = self.three_projections(56, lambda t: t, calls)
        want = self.three_projections(56, lambda t: scale(t, 1.0))
        assert len(calls) == 1
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_what_keeps_no_operand_it_would_read_offers_no_rebuild(self):
        """GELU keeps neither its input nor ``Phi(x)``, and attention
        whose values alone need a gradient keeps no values."""
        arrays, _, masks = _attention_operands(54)
        q, k, v = (Tensor(a, requires_grad=t)
                   for a, t in zip(arrays, (False, False, True)))
        with Tape():
            outs = [gelu(v), T.attention(q, k, v, 2, *masks),
                    layer_norm(v, *(Tensor(np.ones(8)) for _ in range(2)))]
        assert [out.node.rebuild is None for out in outs] == [True, True,
                                                            False]


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_analytic(self):
        out = softmax(Tensor([math.log(2.0), 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)

    def test_overflow_stability(self):
        out = softmax(Tensor([1000.0, 0.0]), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_slices_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 5, 7)) * 10)
        for axis in range(3):
            s = softmax(x, axis=axis).data.sum(axis=axis)
            np.testing.assert_allclose(s, 1.0, atol=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        a = softmax(Tensor(x), axis=-1).data
        b = softmax(Tensor(x + 123.456), axis=-1).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            softmax(Tensor([1.0, 2.0]), axis=2)


class TestLayerNorm:
    def test_constant_input(self):
        g = Tensor(np.ones(3))
        b = Tensor(np.zeros(3))
        out = layer_norm(Tensor([4.0, 4.0, 4.0]), g, b, eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_direct_arithmetic(self):
        out = layer_norm(
            Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0
        )
        expected = np.array([-1.0, 0.0, 1.0]) * math.sqrt(1.5)
        np.testing.assert_allclose(out.data, expected, atol=1e-6)
        np.testing.assert_allclose(out.data[1], 0.0, atol=1e-15)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 4)))
        beta = Tensor(np.array([1.0, -2.0, 0.5, 3.0]))
        out = layer_norm(x, Tensor(np.zeros(4)), beta, eps=1e-5)
        np.testing.assert_array_equal(out.data, np.broadcast_to(beta.data, (2, 4)))

    def test_standardization_invariant(self):
        rng = np.random.default_rng(3)
        eps = 1e-5
        x = Tensor(rng.standard_normal((6, 9)) * 3 + 1)
        out = layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)), eps=eps).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
        popvar = (out * out).mean(axis=-1)
        assert np.max(np.abs(popvar - 1.0)) < 10 * eps

    def test_bytes_match_the_textbook_formula(self):
        """The in-place kernel keeps the arithmetic order of the formulas."""
        rng = np.random.default_rng(9)
        x_d = rng.standard_normal((3, 4, 7)) * 2 + 0.5
        g_d, b_d = rng.standard_normal((2, 7))
        up = rng.standard_normal((3, 4, 7))
        x, gamma, beta = (Tensor(a, requires_grad=True) for a in (x_d, g_d, b_d))
        with Tape() as tape:
            loss = sum_all(mul(layer_norm(x, gamma, beta), Tensor(up)))
        tape.backward(loss)
        d, eps = 7, 1e-5
        mu = x_d.sum(axis=-1, keepdims=True) / d
        xc = x_d - mu
        var = (xc * xc).sum(axis=-1, keepdims=True) / d
        inv = 1.0 / np.sqrt(var + eps)
        xh = xc * inv
        dxh = up * g_d
        dx = inv * (dxh - dxh.sum(axis=-1, keepdims=True) / d
                    - xh * ((dxh * xh).sum(axis=-1, keepdims=True) / d))
        out = layer_norm(Tensor(x_d), Tensor(g_d), Tensor(b_d))
        assert out.data.tobytes() == (xh * g_d + b_d).tobytes()
        assert x.grad.tobytes() == dx.tobytes()
        assert gamma.grad.tobytes() == (up * xh).sum(axis=(0, 1)).tobytes()
        assert beta.grad.tobytes() == up.sum(axis=(0, 1)).tobytes()


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_large_positive(self):
        assert abs(gelu(Tensor([10.0])).data[0] - 10.0) < 1e-9

    def test_erf_oracle_at_one(self):
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        np.testing.assert_allclose(gelu(Tensor([1.0])).data[0], expected, atol=1e-12)
        np.testing.assert_allclose(gelu(Tensor([1.0])).data[0], 0.8413447, atol=1e-7)

    def test_bytes_match_the_textbook_formula(self):
        rng = np.random.default_rng(10)
        x_d = rng.standard_normal((4, 9)) * 3
        x_d[:, :3] = [-40.0, -1e3, -1e150]
        x_d[:, -3:] = [40.0, 1e3, 1e150]
        up = rng.standard_normal((4, 9))
        x = Tensor(x_d, requires_grad=True)
        with Tape() as tape:
            out = gelu(x)
            loss = sum_all(mul(out, Tensor(up)))
        tape.backward(loss)
        phi = 0.5 * (1.0 + erf(x_d * (1.0 / math.sqrt(2.0))))
        pdf = np.exp(-0.5 * x_d * x_d) * (1.0 / math.sqrt(2.0 * math.pi))
        assert out.data.tobytes() == (x_d * phi).tobytes()
        assert x.grad.tobytes() == (up * (phi + x_d * pdf)).tobytes()
        # far from zero Phi is exactly 0 or 1 and the density exactly 0
        assert np.all(x.grad[:, -3:] == up[:, -3:])
        assert np.all(x.grad[:, :3] == 0.0)

    def test_recorded_call_keeps_its_slope_alone(self):
        """A recorded call keeps one array the size of its input, and its
        input and ``Phi(x)`` are freed once the forward code drops them."""
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((6, 5)), requires_grad=True)
        with Tape() as tape:
            h = scale(x, 2.0)  # its backward keeps no array
            out = gelu(h)
        h_refs = _weakrefs(h.data)
        del h
        assert all(r() is None for r in h_refs)
        (slope,) = kept_arrays(tape, skip=(x,))
        assert slope.shape == out.shape and slope.dtype == np.float64

    @pytest.mark.parametrize("recorded", ["no_tape", "frozen_input"])
    def test_unrecorded_call_keeps_nothing_and_computes_no_slope(
            self, recorded, monkeypatch):
        """The slope's ``exp`` is the only one GELU runs, so a call that
        no tape records, for want of a tape or of an input that needs a
        gradient, never reaches it."""
        exps, exp = [], np.exp

        def counted_exp(x, *args, **kw):
            exps.append(x.shape)
            return exp(x, *args, **kw)

        monkeypatch.setattr(np, "exp", counted_exp)
        x_d = np.random.default_rng(12).standard_normal((3, 4))
        with Tape() as tape:
            gelu(Tensor(x_d, requires_grad=True))
        assert exps == [(3, 4)] and len(tape) == 1
        exps.clear()
        if recorded == "no_tape":
            out = gelu(Tensor(x_d, requires_grad=True))
        else:
            with Tape() as tape:
                out = gelu(Tensor(x_d))
            assert len(tape) == 0
        assert exps == [] and out.node is None and not out.requires_grad


class TestCrossEntropyLastToken:
    """The loss on final-position logits [B, V]; with ``take_rows`` in
    front it reads one position of [B, L, V] logits, as the last layer of
    a stack given ``last`` does."""

    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = cross_entropy_last_token(logits, targets=np.array([1, 3]))
        np.testing.assert_allclose(loss.item(), math.log(4.0), atol=1e-12)

    def test_saturated(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1000.0
        loss = cross_entropy_last_token(Tensor(logits), targets=np.array([2]))
        assert loss.item() < 1e-12

    def test_non_final_positions_ignored_bitwise(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((8, 6))  # packed rows of lengths 3 and 5
        targets = np.array([1, 4])
        final = np.array([3, 8]) - 1

        def loss(logits):
            return cross_entropy_last_token(
                take_rows(Tensor(logits), final), targets).item()

        perturbed = base.copy()
        perturbed[0, :] += 100.0
        perturbed[5, 3] = -17.0
        assert loss(perturbed) == loss(base)

    def test_gradient_zero_at_non_final_positions(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((12, 5)), requires_grad=True)
        final = np.cumsum([2, 6, 4]) - 1
        with Tape() as tape:
            loss = cross_entropy_last_token(take_rows(logits, final),
                                            np.array([0, 2, 4]))
        tape.backward(loss)
        g = logits.grad
        assert np.all(np.delete(g, final, axis=0) == 0.0)
        assert np.all(np.any(g[final] != 0.0, axis=1))

    def test_gradient_is_softmax_minus_one_hot_over_batch(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((3, 5))
        targets = np.array([4, 0, 2])
        logits = Tensor(data, requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy_last_token(logits, targets)
        tape.backward(loss)
        p = np.exp(data - data.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(3), targets] -= 1.0
        np.testing.assert_allclose(logits.grad, p / 3, rtol=1e-12, atol=1e-15)
        fd = finite_diff_grad(
            lambda: cross_entropy_last_token(logits, targets).item(), [logits])
        assert max_relative_error(logits.grad, fd[0]) < 1e-6

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_last_token(Tensor(np.zeros((1, 3))), np.array([3]))

    def test_logits_of_every_position_are_refused(self):
        with pytest.raises(ShapeError, match=r"\[rows, vocab\]"):
            cross_entropy_last_token(Tensor(np.zeros((2, 3, 4))),
                                     np.array([0, 1]))


class TestTakeRows:
    def test_forward_picks_one_row_per_batch_element(self):
        data = np.arange(24.0).reshape(6, 4)
        out = take_rows(Tensor(data), np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [data[2], data[0]])

    def test_against_finite_differences(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((12, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)))
        rows = np.array([1, 7, 9])

        def loss():
            return sum_all(mul(gelu(take_rows(x, rows)), w))

        with Tape() as tape:
            value = loss()
        tape.backward(value)
        fd = finite_diff_grad(lambda: loss().item(), [x])
        assert max_relative_error(x.grad, fd[0]) < 1e-6
        assert np.all(np.delete(x.grad, rows, axis=0) == 0.0)

    def test_frozen_operand_records_nothing(self):
        x = Tensor(np.ones((6, 4)))
        with Tape() as tape:
            out = take_rows(x, np.array([0, 2]))
        assert len(tape) == 0 and not out.requires_grad

    def test_bad_rows_are_refused(self):
        x = Tensor(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            take_rows(x, np.array([[0, 1]]))
        with pytest.raises(IndexError):
            take_rows(x, np.array([0, 3]))
        with pytest.raises(IndexError):
            take_rows(x, np.array([-1, 0]))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        with Tape() as tape:
            loss = scale(sum_all(mul(x, x)), 0.5)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, x.data)

    def test_frozen_tensor_gets_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=False)
        with Tape() as tape:
            loss = sum_all(mul(x, w))
        tape.backward(loss)
        assert w.grad is None
        assert x.grad is not None

    @pytest.mark.usefixtures("reference_kernel")
    def test_matmul_backward_skips_frozen_weight(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=False)
        with Tape() as tape:
            y = matmul(x, w)
        [(slot, routes, backward_fn)] = tape._nodes
        assert slot is y.node and routes == (x, None)
        gx, gw = backward_fn(np.ones(y.shape))
        assert gw is None
        # the reference kernel sums over a C-order copy of w.T
        np.testing.assert_array_equal(
            gx, np.einsum("bij,jk->bik", np.ones(y.shape),
                          np.ascontiguousarray(w.data.T)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ContractError):
            tape.backward(y)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        with Tape() as tape2:
            loss2 = sum_all(mul(x, x))
        tape2.backward(loss2)
        np.testing.assert_array_equal(x.grad, 2 * first)

    def test_only_leaves_keep_grad(self):
        rng = np.random.default_rng(27)
        x = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            h = T.linear(x, w, b)
            y = gelu(h)
            loss = mean_all(mul(y, y))
        slots = [slot for slot, _, _ in tape._nodes]
        tape.backward(loss)
        assert all(t.grad is not None for t in (x, w, b))
        assert len(slots) == len(tape) and all(s.grad is None for s in slots)
        assert h.grad is None and y.grad is None and loss.grad is None

    def test_leaf_accumulates_across_two_tapes_of_fused_nodes(self):
        rng = np.random.default_rng(28)
        arrays, g, masks = _attention_operands(29)
        w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)

        def loss():
            q = T.linear(Tensor(arrays[0]), w, b)
            return sum_all(mul(T.attention(q, *arrays[1:], 2, *masks),
                               Tensor(g)))

        with Tape() as tape:
            first_loss = loss()
        tape.backward(first_loss)
        first = w.grad.copy(), b.grad.copy()
        with Tape() as tape2:
            second_loss = loss()
        tape2.backward(second_loss)
        np.testing.assert_array_equal(w.grad, 2 * first[0])
        np.testing.assert_array_equal(b.grad, 2 * first[1])

    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(mul(x, x), x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_tape_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, x)
        assert not y.requires_grad

    def test_composite_against_finite_differences(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        x = rng.standard_normal((2, 4))

        def forward():
            h = add(matmul(Tensor(x), w), b)
            return mean_all(gelu(h)).item()

        with Tape() as tape:
            h = add(matmul(Tensor(x), w), b)
            loss = mean_all(gelu(h))
        tape.backward(loss)
        fd = finite_diff_grad(forward, [w, b], eps=1e-5)
        assert max_relative_error(w.grad, fd[0]) < 1e-4
        assert max_relative_error(b.grad, fd[1]) < 1e-4

    def test_replay_determinism(self):
        def run():
            rng = np.random.default_rng(99)
            w = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
            x = rng.standard_normal((3, 5))
            with Tape() as tape:
                h = gelu(matmul(Tensor(x), w))
                s = softmax(h, axis=-1)
                loss = mean_all(mul(s, s))
            tape.backward(loss)
            return loss.item(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_a_second_backward_on_one_tape_is_refused(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        with pytest.raises(ContractError, match="already ran on this tape"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, first)
        assert len(tape) == 2


def _weakrefs(arr: np.ndarray) -> list:
    """Weak references to ``arr`` and to every array it is a view of."""
    refs = []
    while arr is not None:
        refs.append(weakref.ref(arr))
        arr = arr.base
    return refs


class TestTapeMemory:
    """The tape keeps only what backward reads (``Tape``'s node layout):
    an activation no backward reads is freed as soon as the forward code
    drops it, and backward releases the rest."""

    @staticmethod
    def frozen_residual_stack(seed, drop):
        """A trainable linear, then two residual blocks of a frozen
        linear and an ``add``, and a loss that keeps its own array.  With
        ``drop`` the forward keeps no reference to the residual stream
        or the frozen linears' outputs and returns weak references to
        them.  Returns (tape, loss, refs, trainable leaves)."""
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((5, 4)))
        w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
                for s in ((4, 4), (4,)))
        frozen = [(Tensor(rng.standard_normal((4, 4))),
                   Tensor(rng.standard_normal(4))) for _ in range(2)]
        refs = []
        with Tape() as tape:
            h = T.linear(x, w, b)
            for fw, fb in frozen:
                lin = T.linear(h, fw, fb)
                nxt = add(lin, h)
                if drop:
                    refs += _weakrefs(h.data) + _weakrefs(lin.data)
                h = nxt
                del lin
            loss, _ = cross_entropy_sum(h, np.zeros(5, dtype=int))
            if drop:
                refs += _weakrefs(h.data)
                del h, nxt
        return tape, loss, refs, (w, b)

    def test_what_only_frozen_linears_and_adds_read_is_freed(self):
        tape, loss, refs, leaves = self.frozen_residual_stack(30, drop=True)
        assert len(tape) == 6 and len(refs) >= 5
        # the tape is alive, yet no node holds the residual stream
        assert all(r() is None for r in refs)
        tape.backward(loss)
        kept_tape, kept_loss, _, kept = self.frozen_residual_stack(
            30, drop=False)
        kept_tape.backward(kept_loss)
        for got, want in zip(leaves, kept):
            assert got.grad.tobytes() == want.grad.tobytes()

    def test_backward_releases_every_activation(self):
        """Also what the rebuild of an output the test still holds reads:
        the layer norm's ``xh``."""
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((3, 4)))
        params = [Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in ((4, 6), (6,), (6,), (6,), (6, 2), (2,))]
        w, b, gamma, beta, w_out, b_out = params
        with Tape() as tape:
            h = T.linear(x, w, b)
            a = gelu(h)
            n = layer_norm(a, gamma, beta)
            o = T.linear(n, w_out, b_out)
            loss = mean_all(mul(o, o))
        [xh] = [c.cell_contents for c in n.node.rebuild.__closure__
                if getattr(c.cell_contents, "shape", None) == n.shape]
        refs = [_weakrefs(t.data) for t in (h, a, o)] + [_weakrefs(xh)]
        del h, a, o, xh
        recorded = len(tape)
        slots = [slot for slot, _, _ in tape._nodes]
        # gelu keeps its slope, layer norm its xh and the test's product
        # its operands, but no backward reads the linear's or gelu's
        # output, and the last linear reads n's rebuild, not n
        assert refs[2][0]() is not None and refs[3][0]() is not None
        assert all(r() is None for rs in refs[:2] for r in rs)
        tape.backward(loss)
        assert all(p.grad is not None for p in params)
        assert n.node.rebuild is None
        assert all(slot.cache is None for slot in slots)
        assert all(r() is None for rs in refs for r in rs)
        assert len(tape) == recorded == 7


class TestFiniteDiff:
    def test_square(self):
        theta = Tensor(np.array([3.0]))

        def f():
            return float(theta.data[0] ** 2)

        (g,) = finite_diff_grad(f, [theta], eps=1e-5)
        assert abs(g[0] - 6.0) < 1e-8

    def test_sine_at_zero(self):
        theta = Tensor(np.array([0.0]))

        def f():
            return math.sin(float(theta.data[0]))

        (g,) = finite_diff_grad(f, [theta], eps=1e-5)
        assert abs(g[0] - 1.0) < 1e-9


class TestStructuralOps:
    def test_reshape_swapaxes_roundtrip_grad(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        with Tape() as tape:
            y = swapaxes(reshape(x, (2, 4, 3)), 1, 2)
            loss = sum_all(mul(y, y))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_embedding_gradient_scatters(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        ids = np.array([[1, 1], [3, 0]])
        with Tape() as tape:
            out = embedding(table, ids)
            loss = sum_all(out)
        tape.backward(loss)
        np.testing.assert_array_equal(
            table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]
        )

    def test_embedding_rejects_bad_ids(self):
        with pytest.raises(IndexError):
            embedding(Tensor(np.zeros((4, 2))), np.array([4]))


class TestCrossEntropySum:
    def test_matches_manual(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((2, 3, 5))
        targets = rng.integers(0, 5, size=(2, 3))
        mask = np.array([[True, True, False], [True, False, False]])
        loss, n = cross_entropy_sum(Tensor(logits[mask]), targets[mask])
        assert n == 3
        manual = 0.0
        for i in range(2):
            for j in range(3):
                if mask[i, j]:
                    row = logits[i, j]
                    manual -= row[targets[i, j]] - math.log(np.exp(row - row.max()).sum()) - row.max()
        np.testing.assert_allclose(loss.item(), manual, atol=1e-9)

    def test_no_rows_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy_sum(Tensor(np.zeros((0, 3))),
                              np.zeros(0, dtype=int))

    def test_rows_and_targets_must_agree(self):
        with pytest.raises(ShapeError):
            cross_entropy_sum(Tensor(np.zeros((2, 3, 4))),
                              np.zeros((2, 3), dtype=int))
        with pytest.raises(ShapeError):
            cross_entropy_sum(Tensor(np.zeros((2, 4))), np.zeros(3, dtype=int))
