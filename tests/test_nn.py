import numpy as np
import pytest

from tall.nn import (
    AdapterSpec,
    AttentionConfig,
    LayerConfig,
    ParamStore,
    adapter_forward,
    adapter_param_count,
    causal_mask,
    init_adapter,
    init_attention,
    init_transformer_layer,
    multi_head_attention,
    transformer_layer_forward,
)
from tall.optim import AdamW
from tall.tensor import ContractError, ShapeError, Tape, Tensor

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
    store = ParamStore()
    cfg = AttentionConfig(d_model=d, n_heads=1)
    init_attention(store, "attn", cfg, np.random.default_rng(0))
    for proj in ("q", "k", "v", "out"):
        store[f"attn.{proj}.weight"].data[:] = np.eye(d)
        store[f"attn.{proj}.bias"].data[:] = 0.0
    return store, cfg


class TestAttention:
    def test_single_key_returns_value(self):
        d = 3
        store, cfg = identity_attention(d)
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((1, 4, d)))
        kv = Tensor(rng.standard_normal((1, 1, d)))
        out = multi_head_attention(q, kv, np.ones((4, 1), dtype=bool), cfg,
                                   store, "attn")
        np.testing.assert_allclose(out.data,
                                   np.broadcast_to(kv.data, (1, 4, d)),
                                   atol=1e-12)

    def test_causal_perturbation(self):
        d, n = 8, 6
        store = ParamStore()
        cfg = AttentionConfig(d_model=d, n_heads=2)
        rng = np.random.default_rng(2)
        init_attention(store, "attn", cfg, rng)
        x = rng.standard_normal((1, n, d))
        mask = causal_mask(n)
        base = multi_head_attention(Tensor(x), Tensor(x), mask, cfg, store,
                                    "attn").data[0]
        j = 3
        x2 = x.copy()
        x2[0, j] += 10.0
        pert = multi_head_attention(Tensor(x2), Tensor(x2), mask, cfg, store,
                                    "attn").data[0]
        np.testing.assert_array_equal(base[:j], pert[:j])
        assert np.any(base[j:] != pert[j:])

    def test_uniform_logits_average_allowed_values(self):
        d, n = 4, 5
        store, cfg = identity_attention(d)
        store["attn.q.weight"].data[:] = 0.0
        store["attn.k.weight"].data[:] = 0.0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, n, d))
        mask = causal_mask(n)
        out = multi_head_attention(Tensor(x), Tensor(x), mask, cfg, store,
                                   "attn").data
        for i in range(n):
            np.testing.assert_allclose(out[0, i], x[0, : i + 1].mean(axis=0),
                                       atol=1e-12)

    def test_fully_masked_row_rejected(self):
        d = 2
        store, cfg = identity_attention(d)
        mask = np.array([[True, True], [False, False]])
        with pytest.raises(ContractError):
            multi_head_attention(Tensor(np.zeros((1, 2, d))),
                                 Tensor(np.zeros((1, 2, d))), mask, cfg, store,
                                 "attn")

    def test_unbatched_input_rejected(self):
        store, cfg = identity_attention(2)
        with pytest.raises(ShapeError, match=r"\[B, L, d\]"):
            multi_head_attention(Tensor(np.zeros((2, 2))),
                                 Tensor(np.zeros((2, 2))),
                                 np.ones((2, 2), dtype=bool), cfg, store,
                                 "attn")


class TestCausalMask:
    def test_n1(self):
        np.testing.assert_array_equal(causal_mask(1), [[True]])

    def test_n3(self):
        m = causal_mask(3)
        assert m.sum() == 6
        assert m[0, 1] == False  # noqa: E712

    def test_row_counts_up_to_64(self):
        for n in range(1, 65):
            m = causal_mask(n)
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
        x = rng.standard_normal((1, 3, 8))
        kv = Tensor(rng.standard_normal((1, 4, 8)))
        out = transformer_layer_forward(
            Tensor(x), kv, cfg, store, "layer",
            self_mask=causal_mask(3), cross_mask=np.ones((3, 4), dtype=bool))
        np.testing.assert_array_equal(out.data, x)

    def test_output_shape(self):
        cfg = LayerConfig(d_model=6, n_heads=3, d_ff=10)
        store = ParamStore()
        rng = np.random.default_rng(7)
        init_transformer_layer(store, "layer", cfg, rng)
        for length in (1, 4, 9):
            x = Tensor(rng.standard_normal((1, length, 6)))
            out = transformer_layer_forward(
                x, None, cfg, store, "layer",
                self_mask=np.ones((length, length), dtype=bool))
            assert out.shape == (1, length, 6)

    def test_two_layer_stack_gradcheck(self):
        cfg = LayerConfig(d_model=6, n_heads=2, d_ff=8, causal=True)
        store = ParamStore()
        rng = np.random.default_rng(8)
        init_transformer_layer(store, "l0", cfg, rng, cross_kv_dim=4)
        init_transformer_layer(store, "l1", cfg, rng)
        x = rng.standard_normal((1, 3, 6))
        kv = rng.standard_normal((1, 2, 4))
        self_mask = causal_mask(3)
        cross_mask = np.ones((3, 2), dtype=bool)

        def compute():
            h = transformer_layer_forward(Tensor(x), Tensor(kv), cfg, store,
                                          "l0", self_mask, cross_mask)
            h = transformer_layer_forward(h, None, cfg, store, "l1", self_mask)
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
        opt = AdamW(store, lr=0.1)
        for _ in range(5):
            with Tape() as tape:
                x = Tensor(rng.standard_normal((2, 3)))
                out = adapter_forward(adapter_forward(x, spec, store, "frozen"),
                                      spec, store, "live")
                loss = mean_all(mul(out, out))
            tape.backward(loss)
            opt.step()
            opt.zero_grad()
        assert store.snapshot_bytes("frozen") == frozen_before
        assert store.snapshot_bytes("live") != live_before

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(KeyError):
            store.add("w", np.zeros(2))
