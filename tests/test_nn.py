import numpy as np
import pytest

from tall.nn import (
    AdapterSpec,
    LayerConfig,
    ParamStore,
    adapter_forward,
    adapter_param_count,
    init_adapter,
    init_attention,
    init_transformer_layer,
    multi_head_attention,
    transformer_layer_forward,
)
from tall import tensor as T
from tall.optim import AdamW
from tall.tensor import ContractError, Packing, ShapeError, Tape, Tensor

from conftest import (finite_diff_grad, max_relative_error, mean_all, mul,
                      trainable_param_count)


def zero_params(store, prefix=""):
    for name, t in store.items():
        if name.startswith(prefix):
            t.data[:] = 0.0


class TestAdapter:
    def test_zero_weights_zero_output(self):
        spec = AdapterSpec(4, 8, 4)
        store = ParamStore()
        init_adapter(store, "a", spec, np.random.default_rng(0))
        zero_params(store)
        x = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        out = adapter_forward(x, spec, store, "a")
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_final_layer_norm_contract(self):
        spec = AdapterSpec(4, 8, 4)
        store = ParamStore()
        init_adapter(store, "a", spec, np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).standard_normal((5, 4)))
        out = adapter_forward(x, spec, store, "a")
        # final LN initialized with gamma=1, beta=0
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-9

    def test_gradient_vs_finite_differences(self):
        spec = AdapterSpec(3, 5, 2)
        store = ParamStore()
        rng = np.random.default_rng(4)
        init_adapter(store, "a", spec, rng)
        x = rng.standard_normal((2, 3))
        params = [t for _, t in store.trainable_items()]

        def forward():
            return mean_all(
                mul(adapter_forward(Tensor(x), spec, store, "a"),
                    adapter_forward(Tensor(x), spec, store, "a"))
            ).item()

        with Tape() as tape:
            out = adapter_forward(Tensor(x), spec, store, "a")
            loss = mean_all(mul(out, out))
        tape.backward(loss)
        fd = finite_diff_grad(forward, params, eps=1e-5)
        for p, g in zip(params, fd):
            assert max_relative_error(p.grad, g) < 1e-4

    def test_shape_mismatch(self):
        spec = AdapterSpec(4, 8, 4)
        store = ParamStore()
        init_adapter(store, "a", spec, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            adapter_forward(Tensor(np.zeros((2, 5))), spec, store, "a")


class TestAdapterParamCount:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            (AdapterSpec(1024, 2048, 1024), 4_203_520),
            (AdapterSpec(1024, 1024, 512), 1_577_472),
            (AdapterSpec(1024, 1792, 896), 3_448_704),
            (AdapterSpec(896, 1024, 512), 1_446_400),
        ],
    )
    def test_published_counts(self, spec, expected):
        assert adapter_param_count(spec) == expected

    def test_matches_live_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = AdapterSpec(*rng.integers(1, 12, size=3))
            store = ParamStore()
            init_adapter(store, "a", spec, rng)
            total, trainable = trainable_param_count(store)
            assert total == trainable == adapter_param_count(spec)


def identity_attention(d):
    """A one-head attention block of width ``d`` whose four projections
    are the identity; returns the store and the head count."""
    store = ParamStore()
    init_attention(store, "attn", d, d, np.random.default_rng(0))
    for proj in ("q", "k", "v", "out"):
        store[f"attn.{proj}.weight"].data[:] = np.eye(d)
        store[f"attn.{proj}.bias"].data[:] = 0.0
    return store, 1


def sequence(n):
    """The packing of one sequence of ``n`` real positions."""
    return Packing(1, n, lengths=np.array([n]))


class TestAttention:
    def test_single_key_returns_value(self):
        d = 3
        store, n_heads = identity_attention(d)
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((4, d)))
        kv = Tensor(rng.standard_normal((1, d)))
        out = multi_head_attention(q, kv, n_heads, store, "attn", sequence(4),
                                   sequence(1))
        np.testing.assert_allclose(out.data, np.broadcast_to(kv.data, (4, d)),
                                   atol=1e-12)

    def test_causal_perturbation(self):
        d, n = 8, 6
        store = ParamStore()
        rng = np.random.default_rng(2)
        init_attention(store, "attn", d, d, rng)
        x = rng.standard_normal((n, d))
        rows = sequence(n)
        base = multi_head_attention(Tensor(x), Tensor(x), 2, store, "attn",
                                    rows, rows, causal=True).data
        j = 3
        x2 = x.copy()
        x2[j] += 10.0
        pert = multi_head_attention(Tensor(x2), Tensor(x2), 2, store, "attn",
                                    rows, rows, causal=True).data
        np.testing.assert_array_equal(base[:j], pert[:j])
        assert np.any(base[j:] != pert[j:])

    def test_uniform_logits_average_allowed_values(self):
        d, n = 4, 5
        store, n_heads = identity_attention(d)
        store["attn.q.weight"].data[:] = 0.0
        store["attn.k.weight"].data[:] = 0.0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((n, d))
        rows = sequence(n)
        out = multi_head_attention(Tensor(x), Tensor(x), n_heads, store,
                                   "attn", rows, rows, causal=True).data
        for i in range(n):
            np.testing.assert_allclose(out[i], x[: i + 1].mean(axis=0),
                                       atol=1e-12)

    def test_fully_masked_row_rejected(self):
        d = 2
        store, n_heads = identity_attention(d)
        no_keys = Packing(1, 2, lengths=np.array([0]))
        with pytest.raises(ContractError):
            multi_head_attention(Tensor(np.zeros((2, d))),
                                 Tensor(np.zeros((2, d))), n_heads, store,
                                 "attn", sequence(2), no_keys)

    def test_unbatched_input_rejected(self):
        """An input without a row axis, or with other rows than its
        packing, is refused."""
        store, n_heads = identity_attention(2)
        for x in (np.zeros(2), np.zeros((3, 2))):
            with pytest.raises(ShapeError, match="rows of a packing"):
                multi_head_attention(Tensor(x), Tensor(x), n_heads, store,
                                     "attn", sequence(2), sequence(2))


def causal_weights(n):
    """Attention weights [n, n] of one causal sequence of ``n`` positions
    under uniform scores: with q = k = 0 and v = I, output row i holds
    query i's weights over the keys."""
    zeros = Tensor(np.zeros((n, n)))
    return T.attention(zeros, zeros, Tensor(np.eye(n)), 1, sequence(n),
                       sequence(n), causal=True).data


class TestCausalMask:
    """``tensor.attention``'s causal flag: query i sees keys 0 .. i."""

    def test_n1(self):
        np.testing.assert_array_equal(causal_weights(1), [[1.0]])

    def test_n3(self):
        m = causal_weights(3) > 0
        assert m.sum() == 6
        assert m[0, 1] == False  # noqa: E712

    def test_row_counts_up_to_64(self):
        for n in range(1, 65):
            m = causal_weights(n) > 0
            np.testing.assert_array_equal(m.sum(axis=1), np.arange(1, n + 1))


class TestTransformerLayer:
    def test_zeroed_output_projections_identity(self):
        cfg = LayerConfig(d_model=8, n_heads=2, d_ff=16, causal=True)
        store = ParamStore()
        rng = np.random.default_rng(6)
        init_transformer_layer(store, "layer", cfg, rng, cross_kv_dim=8)
        zero_params(store, "layer.self_attn.out")
        zero_params(store, "layer.cross_attn.out")
        zero_params(store, "layer.ffn.down")
        x = rng.standard_normal((3, 8))
        kv = Tensor(rng.standard_normal((4, 8)))
        out = transformer_layer_forward(Tensor(x), kv, cfg, store, "layer",
                                        sequence(3), sequence(4))
        np.testing.assert_array_equal(out.data, x)

    def test_output_shape(self):
        cfg = LayerConfig(d_model=6, n_heads=3, d_ff=10)
        store = ParamStore()
        rng = np.random.default_rng(7)
        init_transformer_layer(store, "layer", cfg, rng)
        for length in (1, 4, 9):
            x = Tensor(rng.standard_normal((length, 6)))
            out = transformer_layer_forward(x, None, cfg, store, "layer",
                                            sequence(length))
            assert out.shape == (length, 6)

    def test_two_layer_stack_gradcheck(self):
        cfg = LayerConfig(d_model=6, n_heads=2, d_ff=8, causal=True)
        store = ParamStore()
        rng = np.random.default_rng(8)
        init_transformer_layer(store, "l0", cfg, rng, cross_kv_dim=4)
        init_transformer_layer(store, "l1", cfg, rng)
        x = rng.standard_normal((3, 6))
        kv = rng.standard_normal((2, 4))

        def compute():
            h = transformer_layer_forward(Tensor(x), Tensor(kv), cfg, store,
                                          "l0", sequence(3), sequence(2))
            h = transformer_layer_forward(h, None, cfg, store, "l1",
                                          sequence(3))
            return mean_all(mul(h, h))

        params = [t for _, t in store.trainable_items()]
        with Tape() as tape:
            loss = compute()
        tape.backward(loss)
        fd = finite_diff_grad(lambda: compute().item(), params, eps=1e-5)
        worst = max(
            max_relative_error(p.grad, g) for p, g in zip(params, fd)
        )
        assert worst < 1e-4


class TestFreezing:
    def test_freeze_everything(self):
        store = ParamStore()
        rng = np.random.default_rng(9)
        init_adapter(store, "a", AdapterSpec(3, 4, 3), rng)
        store.freeze("a")
        total, trainable = trainable_param_count(store)
        assert trainable == 0
        assert total == adapter_param_count(AdapterSpec(3, 4, 3))

    def test_unknown_prefix(self):
        store = ParamStore()
        store.add("x", np.zeros(2))
        with pytest.raises(KeyError):
            store.freeze("nope")

    def test_frozen_bytes_survive_optimizer_steps(self):
        spec = AdapterSpec(3, 4, 3)
        store = ParamStore()
        rng = np.random.default_rng(10)
        init_adapter(store, "frozen", spec, rng)
        init_adapter(store, "live", spec, rng)
        store.freeze("frozen")
        frozen_before = store.snapshot_bytes("frozen")
        live_before = store.snapshot_bytes("live")
        opt = AdamW(store, weight_decay=0.0)
        for _ in range(5):
            with Tape() as tape:
                x = Tensor(rng.standard_normal((2, 3)))
                out = adapter_forward(adapter_forward(x, spec, store, "frozen"),
                                      spec, store, "live")
                loss = mean_all(mul(out, out))
            tape.backward(loss)
            opt.step(0.1)
            opt.zero_grad()
        assert store.snapshot_bytes("frozen") == frozen_before
        assert store.snapshot_bytes("live") != live_before

    def test_adamw_update_keeps_the_bytes_of_the_textbook_expressions(self):
        """The in-place update equals, byte for byte, the expressions it
        replaced, also for a gradient held as a transposed view."""
        rng = np.random.default_rng(12)
        store = ParamStore()
        store.add("w", rng.standard_normal((3, 4)))
        store.add("b", rng.standard_normal(4))
        want = {n: t.data.copy() for n, t in store.items()}
        m = {n: np.zeros_like(a) for n, a in want.items()}
        v = {n: np.zeros_like(a) for n, a in want.items()}
        opt = AdamW(store, weight_decay=0.01)
        for t in range(1, 4):
            lr = 1e-2 / t
            for n, p in store.items():
                p.grad = rng.standard_normal(p.shape[::-1]).T
                g = p.grad
                want[n] -= lr * 0.01 * want[n]
                m[n] = 0.9 * m[n] + (1.0 - 0.9) * g
                v[n] = 0.999 * v[n] + (1.0 - 0.999) * (g * g)
                m_hat = m[n] / (1.0 - 0.9 ** t)
                v_hat = v[n] / (1.0 - 0.999 ** t)
                want[n] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            opt.step(lr)
        for n, p in store.items():
            assert p.data.tobytes() == want[n].tobytes(), n

    def test_frozen_is_the_requires_grad_flag(self):
        store = ParamStore()
        store.add("a", np.zeros(2))
        store.add("b.w", np.zeros(2), trainable=False)
        store["a"].requires_grad = False
        store["b.w"].requires_grad = True
        assert [store.is_frozen(n) for n in ("a", "b.w")] == [True, False]
        assert [n for n, _ in store.trainable_items()] == ["b.w"]
        with store.frozen():
            assert store.trainable_items() == []
        assert [n for n, _ in store.trainable_items()] == ["b.w"]

    def test_adopt_re_roots_read_only_frozen_views(self):
        source = ParamStore()
        source.add("encoder.w", np.arange(3.0))
        source.add("encoder.b", np.ones(2), trainable=False)
        source.add("decoder.w", np.zeros(2))
        store = ParamStore()
        store.adopt("stage1", source, "encoder")
        store.adopt("all", source)
        assert store.names() == ["stage1.w", "stage1.b", "all.encoder.w",
                                 "all.encoder.b", "all.decoder.w"]
        assert all(store.is_frozen(n) for n in store.names())
        for name, src in (("stage1.w", "encoder.w"), ("all.decoder.w",
                                                      "decoder.w")):
            assert store[name].data.tobytes() == source[src].data.tobytes()
            assert np.shares_memory(store[name].data, source[src].data)
            with pytest.raises(ValueError, match="read-only"):
                store[name].data[0] = 1.0
        source["encoder.w"].data[0] = 7.0
        assert store["stage1.w"].data[0] == 7.0
        with pytest.raises(KeyError, match="no parameter matches prefix "
                                           "'enc'"):
            store.adopt("x", source, "enc")

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(KeyError):
            store.add("w", np.zeros(2))
