import math

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
    concat,
    cross_entropy_last_token,
    cross_entropy_sum,
    embedding,
    gelu,
    layer_norm,
    matmul,
    reshape,
    scale,
    softmax,
    swapaxes,
    take_rows,
)

from conftest import (
    composed_attention,
    composed_linear,
    finite_diff_grad,
    max_relative_error,
    mean_all,
    mul,
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

    @pytest.mark.usefixtures("reference_kernel")
    def test_batched_matches_per_slice(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal((4, 5, 2))
        out = matmul(Tensor(a), Tensor(b)).data
        for i in range(4):
            np.testing.assert_array_equal(out[i], naive_matmul(a[i], b[i]))


MATMUL_SHAPES = {
    "2d_at_2d": ((5, 7), (7, 3)),
    "3d_at_weight": ((4, 6, 7), (7, 3)),
    "4d_attention": ((2, 3, 5, 4), (2, 3, 4, 6)),
}


def _product_and_grads(a, b, g):
    """matmul's output and both operand gradients for upstream ``g``."""
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        out = matmul(ta, tb)
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

    @pytest.mark.parametrize("shapes", MATMUL_SHAPES.values(),
                             ids=MATMUL_SHAPES.keys())
    def test_forward_and_backward_match_reference(
            self, shapes, monkeypatch, einsum_reference):
        a, b, g = _operands(shapes, seed=11)
        shipped = _product_and_grads(a, b, g)
        monkeypatch.setattr(T, "_product", einsum_reference)
        reference = _product_and_grads(a, b, g)
        for got, want in zip(shipped, reference):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shapes", MATMUL_SHAPES.values(),
                             ids=MATMUL_SHAPES.keys())
    def test_bytes_do_not_depend_on_buffer_offset(self, shapes):
        def at_offset(x, offset):
            buf = np.zeros(x.nbytes + 32, dtype=np.uint8)
            view = buf[offset:offset + x.nbytes].view(np.float64).reshape(x.shape)
            view[...] = x
            return view

        a, b, g = _operands(shapes, seed=12)
        runs = []
        for offset in (0, 8, 16, 24):
            a_o, b_o, g_o = (at_offset(x, offset) for x in (a, b, g))
            runs.append([x.tobytes() for x in _product_and_grads(a_o, b_o, g_o)])
        assert all(run == runs[0] for run in runs[1:])


def _attention_operands(seed, b=2, lq=3, lkv=5, d=8, causal=False):
    """Projected q, k, v, an upstream gradient and a logits bias whose
    every query row keeps at least one key."""
    rng = np.random.default_rng(seed)
    q, g = rng.standard_normal((2, b, lq, d))
    k, v = rng.standard_normal((2, b, lkv, d))
    if causal:
        mask = np.tril(np.ones((lq, lkv), dtype=bool))[None, None]
    else:
        mask = rng.random((b, 1, lq, lkv)) < 0.7
        mask[..., 0] = True
    return [q, k, v], g, np.where(mask, 0.0, -1e9)


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
        arrays, g, bias = _attention_operands(22, **case)

        def fused(q, k, v):
            return T.attention(q, k, v, bias, 2)

        def composed(q, k, v):
            return composed_attention(q, k, v, bias, 2)

        for got, want in zip(_output_and_grads(fused, arrays, g),
                             _output_and_grads(composed, arrays, g)):
            assert got.shape == want.shape
            if kernel == "reference":
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_one_query_per_row_is_a_length_one_query(self):
        arrays, g, bias = _attention_operands(27, lq=1)

        def attend(q, k, v):
            return T.attention(q, k, v, bias, 2)

        rows = [arrays[0][:, 0]] + arrays[1:]
        one = _output_and_grads(attend, rows, g[:, 0])
        full = _output_and_grads(attend, arrays, g)
        assert one[0].shape == (2, 8) and one[1].shape == (2, 8)
        for got, want in zip(one, full):
            np.testing.assert_array_equal(got, want.reshape(got.shape))

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
        arrays, g, bias = _attention_operands(24, **case)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]

        def loss():
            return sum_all(mul(T.attention(*leaves, bias, 2), Tensor(g)))

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
        [(node_out, inputs, backward_fn)] = tape._nodes
        assert node_out is out and inputs == (x, w, b)
        gx, gw, gb = backward_fn(g)
        assert gw is None and gb is None
        np.testing.assert_array_equal(
            gx, _output_and_grads(composed_linear, arrays, g,
                                  [True, False, False])[1])

    def test_frozen_keys_and_values_get_no_gradient(self):
        arrays, g, bias = _attention_operands(26)
        q, k, v = (Tensor(a, requires_grad=t)
                   for a, t in zip(arrays, (True, False, False)))
        with Tape() as tape:
            out = T.attention(q, k, v, bias, 2)
        [(node_out, inputs, backward_fn)] = tape._nodes
        assert node_out is out and inputs == (q, k, v)
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
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4))),
                        Tensor(np.zeros((3, 4))), np.zeros((1, 1, 3, 3)), 2)
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((1, 3, 4))), Tensor(np.zeros((1, 3, 4))),
                        Tensor(np.zeros((1, 3, 4))), np.zeros((1, 1, 3, 3)), 3)


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


class TestCrossEntropyLastToken:
    """The loss on final-position logits [B, V]; with ``take_rows`` in
    front it reads one position of [B, L, V] logits, as the last layer of
    a stack given ``read`` does."""

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
        base = rng.standard_normal((2, 5, 6))
        targets = np.array([1, 4])
        final = np.array([3, 5]) - 1

        def loss(logits):
            return cross_entropy_last_token(
                take_rows(Tensor(logits), final), targets).item()

        perturbed = base.copy()
        perturbed[0, 0, :] += 100.0
        perturbed[1, 2, 3] = -17.0
        assert loss(perturbed) == loss(base)

    def test_gradient_zero_at_non_final_positions(self):
        rng = np.random.default_rng(5)
        logits = Tensor(rng.standard_normal((3, 6, 5)), requires_grad=True)
        lengths = np.array([2, 6, 4])
        with Tape() as tape:
            loss = cross_entropy_last_token(take_rows(logits, lengths - 1),
                                            np.array([0, 2, 4]))
        tape.backward(loss)
        g = logits.grad
        for i, n in enumerate(lengths):
            rest = np.delete(g[i], n - 1, axis=0)
            assert np.all(rest == 0.0)
            assert np.any(g[i, n - 1] != 0.0)

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
        with pytest.raises(ShapeError, match=r"\[batch, vocab\]"):
            cross_entropy_last_token(Tensor(np.zeros((2, 3, 4))),
                                     np.array([0, 1]))


class TestTakeRows:
    def test_forward_picks_one_row_per_batch_element(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        out = take_rows(Tensor(data), np.array([2, 0]))
        np.testing.assert_array_equal(out.data, [data[0, 2], data[1, 0]])

    def test_against_finite_differences(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)))
        rows = np.array([1, 3, 1])

        def loss():
            return sum_all(mul(gelu(take_rows(x, rows)), w))

        with Tape() as tape:
            value = loss()
        tape.backward(value)
        fd = finite_diff_grad(lambda: loss().item(), [x])
        assert max_relative_error(x.grad, fd[0]) < 1e-6
        assert np.all(np.delete(x.grad, 1, axis=1)[[0, 2]] == 0.0)

    def test_frozen_operand_records_nothing(self):
        x = Tensor(np.ones((2, 3, 4)))
        with Tape() as tape:
            out = take_rows(x, np.array([0, 2]))
        assert len(tape) == 0 and not out.requires_grad

    def test_bad_rows_are_refused(self):
        x = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            take_rows(x, np.array([0, 1, 2]))
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
        [(out, inputs, backward_fn)] = tape._nodes
        assert out is y and inputs == (x, w)
        gx, gw = backward_fn(np.ones(y.shape))
        assert gw is None
        np.testing.assert_array_equal(
            gx, np.einsum("bij,kj->bik", np.ones(y.shape), w.data))

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
        tape.backward(loss)
        assert all(t.grad is not None for t in (x, w, b))
        assert all(out.grad is None for out, _, _ in tape._nodes)
        assert h.grad is None and y.grad is None and loss.grad is None

    def test_leaf_accumulates_across_two_tapes_of_fused_nodes(self):
        rng = np.random.default_rng(28)
        arrays, g, bias = _attention_operands(29)
        w = Tensor(rng.standard_normal((8, 8)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)

        def loss():
            q = T.linear(Tensor(arrays[0]), w, b)
            return sum_all(mul(T.attention(q, *arrays[1:], bias, 2), Tensor(g)))

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

    def test_concat_backward_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            c = concat([a, b], axis=1)
            loss = sum_all(mul(c, Tensor(np.arange(10.0).reshape(2, 5))))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, [[0.0, 1.0], [5.0, 6.0]])
        np.testing.assert_array_equal(b.grad, [[2.0, 3.0, 4.0], [7.0, 8.0, 9.0]])

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
        loss, n = cross_entropy_sum(Tensor(logits), targets, mask)
        assert n == 3
        manual = 0.0
        for i in range(2):
            for j in range(3):
                if mask[i, j]:
                    row = logits[i, j]
                    manual -= row[targets[i, j]] - math.log(np.exp(row - row.max()).sum()) - row.max()
        np.testing.assert_allclose(loss.item(), manual, atol=1e-9)

    def test_empty_mask_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy_sum(
                Tensor(np.zeros((1, 2, 3))),
                np.zeros((1, 2), dtype=int),
                np.zeros((1, 2), dtype=bool),
            )
