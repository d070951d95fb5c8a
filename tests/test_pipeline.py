import numpy as np
import pytest

from tall import tensor as T
from tall.evaluation import SamplerConfig, example_rng, sample_token
from tall.models import CausalLM, CausalLMConfig, Seq2SeqConfig, Translator
from tall.nn import AdapterSpec
from tall.optim import cosine_lr
from tall.pipeline import (
    FROZEN_PARTS,
    TRAINABLE_PARTS,
    BridgeConfig,
    StageDimensionError,
    TallConfig,
    TallModel,
    evaluate_tall,
    train_tall,
)
from tall.pretrain import TrainConfig
from tall.tensor import ShapeError, Tape
from tall.world import ToyGrammar, World, generate_corpus


def tiny_setup(vocab=16, seed=0, d_enc=12, d_lm=18, d_dec=12, lm_max_len=24):
    grammar = ToyGrammar(hr_vocab_size=vocab, min_len=4, max_len=7, seed=seed)
    world = World(hr_vocab_size=vocab, seed=seed)
    s2s = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, d_model=d_enc,
                        n_heads=2, d_ff=24, enc_layers=1, dec_layers=1,
                        max_len=16)
    s2s_rev = Seq2SeqConfig(world.vocab_hr, world.vocab_lr, d_model=d_dec,
                            n_heads=2, d_ff=24, enc_layers=1, dec_layers=1,
                            max_len=16)
    lm = CausalLMConfig(world.vocab_lm, d_model=d_lm, n_heads=2, d_ff=24,
                        n_layers=1, max_len=lm_max_len)
    cfg = TallConfig(encoder_cfg=s2s, llm_cfg=lm, decoder_cfg=s2s_rev,
                     bridge1=BridgeConfig(1, 2, 24),
                     bridge2=BridgeConfig(1, 2, 24))
    model = TallModel.assemble(
        cfg, world,
        Translator.init(s2s, seed), Translator.init(s2s_rev, seed + 1),
        CausalLM.init(lm, seed + 2), seed=seed + 3)
    corpus = generate_corpus(seed, 24, grammar, world)
    return model, corpus, world


class TestSampler:
    def test_temperature_zero_is_argmax(self):
        logits = np.array([0.1, 3.0, -1.0, 2.9])
        s = SamplerConfig(temperature=0.0, top_k=50, top_p=0.95, seed=1)
        rng = np.random.default_rng(0)
        assert all(sample_token(logits, s, rng) == 1 for _ in range(5))

    def test_temperature_zero_tie_lowest_index(self):
        logits = np.array([2.0, 5.0, 5.0])
        s = SamplerConfig(temperature=0.0)
        assert sample_token(logits, s, np.random.default_rng(0)) == 1

    def test_top_k_one_is_argmax(self):
        logits = np.array([0.5, 0.1, 2.0, 1.9])
        s = SamplerConfig(temperature=1.3, top_k=1, top_p=1.0, seed=0)
        rng = np.random.default_rng(0)
        assert all(sample_token(logits, s, rng) == 2 for _ in range(20))

    def test_nucleus_support_and_frequencies(self):
        probs = np.array([0.7, 0.2, 0.1])
        logits = np.log(probs)
        s = SamplerConfig(temperature=1.0, top_k=3, top_p=0.75, seed=0)
        rng = np.random.default_rng(123)
        n = 100_000
        draws = np.array([sample_token(logits, s, rng) for _ in range(n)])
        assert set(np.unique(draws)) == {0, 1}
        freq0 = np.mean(draws == 0)
        assert abs(freq0 - 7 / 9) < 0.01
        assert abs(np.mean(draws == 1) - 2 / 9) < 0.01

    def test_top_p_exact_boundary_keeps_smallest_prefix(self):
        probs = np.array([0.7, 0.2, 0.1])
        s = SamplerConfig(temperature=1.0, top_k=3, top_p=0.7, seed=0)
        rng = np.random.default_rng(7)
        draws = {sample_token(np.log(probs), s, rng) for _ in range(500)}
        assert draws == {0}

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(temperature=-0.1)
        with pytest.raises(ValueError):
            SamplerConfig(top_k=0)
        with pytest.raises(ValueError):
            SamplerConfig(top_p=0.0)

    def test_example_rng_reproducible(self):
        a = example_rng(5, 17).random(3)
        b = example_rng(5, 17).random(3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, example_rng(5, 18).random(3))


class TestConfigValidation:
    def test_adapter_widths_must_bridge_the_stages(self):
        s2s = Seq2SeqConfig(20, 20, d_model=12, n_heads=2, d_ff=24,
                            enc_layers=1, dec_layers=1)
        lm = CausalLMConfig(40, d_model=18, n_heads=2, d_ff=24, n_layers=1)
        with pytest.raises(StageDimensionError, match="stage 3"):
            TallConfig(encoder_cfg=s2s, llm_cfg=lm, decoder_cfg=s2s,
                       adapter1=AdapterSpec(12, 24, 17))
        with pytest.raises(StageDimensionError, match="stage 5"):
            TallConfig(encoder_cfg=s2s, llm_cfg=lm, decoder_cfg=s2s,
                       adapter2=AdapterSpec(17, 24, 12))

    def test_default_adapters_derived_from_widths(self):
        s2s = Seq2SeqConfig(20, 20, d_model=12, n_heads=2, d_ff=24,
                            enc_layers=1, dec_layers=1)
        lm = CausalLMConfig(40, d_model=18, n_heads=2, d_ff=24, n_layers=1)
        cfg = TallConfig(encoder_cfg=s2s, llm_cfg=lm, decoder_cfg=s2s)
        assert cfg.adapter1 == AdapterSpec(12, 36, 18)
        assert cfg.adapter2 == AdapterSpec(18, 24, 12)


class TestAssembly:
    def test_trainable_set_identity(self):
        model, _, _ = tiny_setup()
        model.check_frozen()
        parts = {n.split(".", 1)[0] for n, _ in model.store.trainable_items()}
        assert parts == set(TRAINABLE_PARTS)
        frozen = {n.split(".", 1)[0] for n in model.store.names()
                  if model.store.is_frozen(n)}
        assert frozen == set(FROZEN_PARTS)

    def test_forward_shape_and_finiteness(self):
        model, corpus, _ = tiny_setup()
        teachers = [list(p.lr_tokens) for p in corpus[:5]]
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        logits = model.forward(batch)
        assert logits.shape == (5, batch.dec_ids.shape[1],
                                model.cfg.decoder_cfg.vocab_tgt)
        assert np.all(np.isfinite(logits.data))

    def test_mismatched_backbone_raises_stage_error(self):
        model, _, world = tiny_setup()
        wrong = Translator.init(
            Seq2SeqConfig(world.vocab_lr, world.vocab_hr, d_model=8,
                          n_heads=2, d_ff=16, enc_layers=1, dec_layers=1), 0)
        with pytest.raises(StageDimensionError, match="stage 1"):
            TallModel.assemble(model.cfg, world, wrong, wrong,
                               CausalLM.init(model.cfg.llm_cfg, 0), 0)


class TestGradientFlow:
    def test_frozen_parts_get_no_grads_trainables_do(self):
        model, corpus, _ = tiny_setup(seed=3)
        teachers = [list(p.lr_tokens) for p in corpus[:4]]
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        with Tape() as tape:
            loss = model.loss(batch)
        tape.backward(loss)
        for name, t in model.store.items():
            part = name.split(".", 1)[0]
            if part in FROZEN_PARTS:
                assert t.grad is None, name
            else:
                assert t.grad is not None, name
                assert np.any(t.grad != 0.0), name

    def test_frozen_backbones_leave_trainable_grads_unchanged(self):
        """Skipping frozen-weight gradients changes no trainable byte."""
        runs = []
        for unfreeze in (False, True):
            model, corpus, _ = tiny_setup(seed=5)
            if unfreeze:
                for _, t in model.store.items():
                    t.requires_grad = True
            teachers = [list(p.lr_tokens) for p in corpus[:6]]
            batch = model.make_batch(
                teachers, model.translate_prefixes([t[:-1] for t in teachers]))
            with Tape() as tape:
                loss = model.loss(batch)
            tape.backward(loss)
            grads = {n: t.grad.tobytes()
                     for n, t in model.store.trainable_items()}
            frozen_grads = [model.store[n].grad for n in model.store.names()
                            if n.split(".", 1)[0] in FROZEN_PARTS]
            runs.append((loss.data.tobytes(), grads, len(tape), frozen_grads))
        (loss_f, grads_f, nodes_f, frozen_f), (loss_u, grads_u, nodes_u,
                                               frozen_u) = runs
        assert all(g is None for g in frozen_f)
        assert all(g is not None for g in frozen_u)
        assert loss_f == loss_u
        assert grads_f == grads_u
        assert nodes_f < nodes_u

    def test_one_loss_records_a_pinned_number_of_nodes(self):
        """One node per projection and per attention core; the primitive
        composition they replace recorded 168 nodes for this loss."""
        model, corpus, _ = tiny_setup(seed=3)
        teachers = [list(p.lr_tokens) for p in corpus[:4]]
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        with Tape() as tape:
            model.loss(batch)
        assert len(tape) == 74

    def test_final_token_loss_masks_all_other_positions(self):
        model, corpus, _ = tiny_setup(seed=4)
        # heterogeneous lengths by construction of the corpus
        teachers = [list(p.lr_tokens) for p in corpus[:6]]
        lengths = {len(t) for t in teachers}
        assert len(lengths) > 1
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        # backward keeps grad on leaves only, so the loss is taken on a
        # leaf copy of the logits under a second tape
        with Tape():
            logits = model.forward(batch)
        leaf = T.Tensor(logits.data, requires_grad=True)
        with Tape() as tape:
            loss = T.cross_entropy_last_token(leaf, batch.targets,
                                              batch.dec_lengths)
        tape.backward(loss)
        g = leaf.grad
        for i, t in enumerate(teachers):
            final = len(t) - 1
            others = np.delete(g[i], final, axis=0)
            assert np.all(others == 0.0)
            assert np.any(g[i, final] != 0.0)


class TestCausalityAndIsolation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bridge1_causality(self, seed):
        model, corpus, world = tiny_setup(seed=seed)
        rng = np.random.default_rng(seed)
        l_hr, l_lr = 6, 5
        hr_ids = rng.integers(4, world.vocab_lm, size=(1, l_hr))
        hr_lengths = np.array([l_hr])
        h_a1 = T.Tensor(rng.standard_normal((1, l_lr,
                                             model.cfg.llm_cfg.d_model)))
        a1_lengths = np.array([l_lr])
        base = model.bridge1_forward(hr_ids, hr_lengths, h_a1, a1_lengths).data
        j = 3
        perturbed = hr_ids.copy()
        perturbed[0, j] = 4 + (perturbed[0, j] - 4 + 1) % (world.vocab_lm - 4)
        out = model.bridge1_forward(perturbed, hr_lengths, h_a1,
                                    a1_lengths).data
        np.testing.assert_array_equal(base[0, :j], out[0, :j])
        assert np.any(base[0, j:] != out[0, j:])

    @pytest.mark.parametrize("seed", [0, 5])
    def test_adapter1_zeroing_cuts_the_lr_channel(self, seed):
        model, corpus, world = tiny_setup(seed=seed)
        model.store["adapter1.ln2.gamma"].data[:] = 0.0
        model.store["adapter1.ln2.beta"].data[:] = 0.0
        rng = np.random.default_rng(seed + 10)
        # same length, different LR content; identical translated context
        prefix_a = rng.integers(4, world.vocab_lr, size=6).tolist()
        prefix_b = rng.integers(4, world.vocab_lr, size=6).tolist()
        assert prefix_a != prefix_b
        hr_lm = [[1, 5, 6, 7]]
        batch_a = model.make_batch([prefix_a + [4]], hr_lm)
        batch_b = model.make_batch([prefix_b + [4]], hr_lm)
        # decoder context must also match for a pure stage-1..6 channel test
        batch_b.dec_ids = batch_a.dec_ids
        out_a = model.forward(batch_a).data
        out_b = model.forward(batch_b).data
        np.testing.assert_array_equal(out_a, out_b)

    def test_without_zeroing_lr_input_matters(self):
        model, corpus, world = tiny_setup(seed=6)
        rng = np.random.default_rng(16)
        prefix_a = rng.integers(4, world.vocab_lr, size=6).tolist()
        prefix_b = rng.integers(4, world.vocab_lr, size=6).tolist()
        hr_lm = [[1, 5, 6, 7]]
        batch_a = model.make_batch([prefix_a + [4]], hr_lm)
        batch_b = model.make_batch([prefix_b + [4]], hr_lm)
        batch_b.dec_ids = batch_a.dec_ids
        assert np.any(model.forward(batch_a).data
                      != model.forward(batch_b).data)


class TestTraining:
    def test_cosine_schedule_trace(self):
        model, corpus, _ = tiny_setup(seed=7)
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=2,
                         eval_fraction=0.0)
        _, metrics = train_tall(model, corpus, tc)
        train = [m for m in metrics if m["split"] == "train"]
        total = len(train)
        for step in [0, total // 4, total // 2, 3 * total // 4, total - 1]:
            expected = 1e-3 * 0.5 * (1.0 + np.cos(np.pi * step / total))
            assert abs(train[step]["lr"] - expected) < 1e-12

    def test_warmup_ramp(self):
        assert cosine_lr(0, 100, 1.0, warmup_steps=4) == 0.25
        assert cosine_lr(3, 100, 1.0, warmup_steps=4) == 1.0
        after = cosine_lr(10, 100, 1.0, warmup_steps=4)
        assert abs(after - 0.5 * (1 + np.cos(np.pi * 0.1))) < 1e-15

    def test_frozen_bytes_unchanged_by_training(self):
        model, corpus, _ = tiny_setup(seed=8)
        before = {
            part: model.store.snapshot_bytes(part) for part in FROZEN_PARTS
        }
        tc = TrainConfig(learning_rate=2e-3, epochs=1, batch_size=8, seed=3,
                         eval_fraction=0.0)
        train_tall(model, corpus, tc)
        for part in FROZEN_PARTS:
            assert model.store.snapshot_bytes(part) == before[part]

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            model, corpus, _ = tiny_setup(seed=9)
            tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8,
                             seed=4, eval_fraction=0.1)
            meta, metrics = train_tall(model, corpus, tc)
            runs.append((
                [m["loss"] for m in metrics if m["split"] == "train"],
                {n: t.data.tobytes() for n, t in model.store.trainable_items()},
                meta["best_eval_loss"],
            ))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert runs[0][2] == runs[1][2]

    def test_best_checkpoint_restored(self):
        model, corpus, _ = tiny_setup(seed=10)
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=5,
                         eval_fraction=0.2)
        meta, metrics = train_tall(model, corpus, tc)
        evals = [m for m in metrics if m["split"] == "eval"]
        assert meta["best_eval_loss"] == min(e["loss"] for e in evals)
        teachers = [list(p.lr_tokens) for p in corpus]
        hr = model.translate_prefixes([t[:-1] for t in teachers])
        from tall.pretrain import split_train_eval

        _, heldout = split_train_eval(list(zip(teachers, hr)),
                                      tc.eval_fraction, tc.seed)
        stats = evaluate_tall(model, heldout, batch_size=8)
        assert stats["loss"] == meta["best_eval_loss"]

    def test_accumulation_flushes_each_epoch(self):
        # 24 pairs in batches of 8 are 3 micro-batches per epoch; at
        # accumulation 2 each epoch makes a full and a short update
        model, corpus, _ = tiny_setup(seed=14)
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8,
                         grad_accum_steps=2, seed=6, eval_fraction=0.0)
        meta, metrics = train_tall(model, corpus, tc)
        train = [m for m in metrics if m["split"] == "train"]
        assert meta["step"] == len(train) == 4
        assert [m["step"] for m in train] == [0, 1, 2, 3]
        assert train[-1]["lr"] == cosine_lr(3, 4, 1e-3)
        assert all(t.grad is None for _, t in model.store.trainable_items())

    def test_refuses_unfrozen_backbone(self):
        model, corpus, _ = tiny_setup(seed=11)
        model.store["llm.tok_embed"].requires_grad = True
        with pytest.raises(RuntimeError, match="not frozen"):
            train_tall(model, corpus, TrainConfig())


class TestPrediction:
    def test_greedy_prediction_repeatable(self):
        model, corpus, world = tiny_setup(seed=12)
        prefix = list(corpus[0].lr_tokens[:-1])
        first = model.final_logits([prefix])
        assert first.shape == (1, world.vocab_lr)
        for _ in range(3):
            assert model.final_logits([prefix]).tobytes() == first.tobytes()
        assert 0 <= int(first[0].argmax()) < world.vocab_lr

    def test_empty_prefix_rejected(self):
        model, _, _ = tiny_setup(seed=13)
        with pytest.raises(ValueError):
            model.final_logits([[]])

    def test_translation_past_the_bridge1_table_is_refused(self):
        model, corpus, _ = tiny_setup(seed=12, lm_max_len=8)
        prefix = list(corpus[0].lr_tokens[:-1])
        assert len(model.translate_prefixes([prefix])[0]) > 8
        with pytest.raises(ShapeError, match=r"sequence length \d+ exceeds "
                           r"bridge1\.pos table \(8 positions\)"):
            model.final_logits([prefix])
