import contextlib

import numpy as np
import pytest

from tall import tensor as T
from tall.evaluation import example_rng, sample_token
from tall.models import CausalLM, CausalLMConfig, Seq2SeqConfig, Translator
from tall.nn import AdapterSpec
from tall.optim import cosine_lr
from tall.pipeline import (
    FROZEN_PARTS,
    TRAINABLE_PARTS,
    BridgeConfig,
    TallConfig,
    TallModel,
    evaluate_tall,
    train_tall,
)
from tall.tensor import ShapeError, Tape
from tall.world import generate_corpus

from conftest import (all_positions, assert_parity, kept_bytes,
                      read_only_outputs, sampler_config, toy_grammar,
                      toy_world, train_config, update_gradients)


def tiny_setup(vocab=16, seed=0, d_enc=12, d_lm=18, d_dec=12, lm_max_len=24,
               layers=1):
    """``layers`` backbone layers of each kind: with two, the last layer
    of the LM and of the decoder is not their first."""
    grammar = toy_grammar(hr_vocab_size=vocab, min_len=4, max_len=7, seed=seed)
    world = toy_world(hr_vocab_size=vocab, seed=seed)
    s2s = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, d_model=d_enc,
                        n_heads=2, d_ff=24, enc_layers=layers,
                        dec_layers=layers, max_len=16)
    s2s_rev = Seq2SeqConfig(world.vocab_hr, world.vocab_lr, d_model=d_dec,
                            n_heads=2, d_ff=24, enc_layers=layers,
                            dec_layers=layers, max_len=16)
    lm = CausalLMConfig(world.vocab_lm, d_model=d_lm, n_heads=2, d_ff=24,
                        n_layers=layers, max_len=lm_max_len)
    cfg = TallConfig(adapter1_hidden=2 * d_lm, adapter2_hidden=2 * d_dec,
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
        s = sampler_config(temperature=0.0, top_k=50, top_p=0.95, seed=1)
        rng = np.random.default_rng(0)
        assert all(sample_token(logits, s, rng) == 1 for _ in range(5))

    def test_temperature_zero_tie_lowest_index(self):
        logits = np.array([2.0, 5.0, 5.0])
        s = sampler_config(temperature=0.0)
        assert sample_token(logits, s, np.random.default_rng(0)) == 1

    def test_top_k_one_is_argmax(self):
        logits = np.array([0.5, 0.1, 2.0, 1.9])
        s = sampler_config(temperature=1.3, top_k=1, top_p=1.0, seed=0)
        rng = np.random.default_rng(0)
        assert all(sample_token(logits, s, rng) == 2 for _ in range(20))

    def test_nucleus_support_and_frequencies(self):
        probs = np.array([0.7, 0.2, 0.1])
        logits = np.log(probs)
        s = sampler_config(temperature=1.0, top_k=3, top_p=0.75, seed=0)
        rng = np.random.default_rng(123)
        n = 100_000
        draws = np.array([sample_token(logits, s, rng) for _ in range(n)])
        assert set(np.unique(draws)) == {0, 1}
        freq0 = np.mean(draws == 0)
        assert abs(freq0 - 7 / 9) < 0.01
        assert abs(np.mean(draws == 1) - 2 / 9) < 0.01

    def test_top_p_exact_boundary_keeps_smallest_prefix(self):
        probs = np.array([0.7, 0.2, 0.1])
        s = sampler_config(temperature=1.0, top_k=3, top_p=0.7, seed=0)
        rng = np.random.default_rng(7)
        draws = {sample_token(np.log(probs), s, rng) for _ in range(500)}
        assert draws == {0}

    def test_validation(self):
        with pytest.raises(ValueError):
            sampler_config(temperature=-0.1)
        with pytest.raises(ValueError):
            sampler_config(top_k=0)
        with pytest.raises(ValueError):
            sampler_config(top_p=0.0)

    def test_example_rng_reproducible(self):
        a = example_rng(5, 17).random(3)
        b = example_rng(5, 17).random(3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, example_rng(5, 18).random(3))


class TestAssembly:
    def test_trainable_set_identity(self):
        model, _, _ = tiny_setup()
        model.check_frozen()
        parts = {n.split(".", 1)[0] for n, _ in model.store.trainable_items()}
        assert parts == set(TRAINABLE_PARTS)
        frozen = {n.split(".", 1)[0] for n in model.store.names()
                  if model.store.is_frozen(n)}
        assert frozen == set(FROZEN_PARTS)

    def test_frozen_entries_are_read_only_views_of_the_backbones(
            self, monkeypatch):
        """The pipeline holds no second copy of a backbone: each frozen
        entry is a read-only view of its backbone's array, the trainable
        parts own theirs, and training writes into no backbone."""
        seen = {}
        assemble = TallModel.assemble.__func__

        def spy(cls, cfg, world, lr2hr, hr2lr, llm, seed):
            seen.update(encoder=lr2hr.store, llm=llm.store,
                        decoder=hr2lr.store)
            return assemble(cls, cfg, world, lr2hr, hr2lr, llm, seed)

        monkeypatch.setattr(TallModel, "assemble", classmethod(spy))
        model, corpus, _ = tiny_setup(seed=8)
        store = model.store
        for name, t in store.items():
            part, rest = name.split(".", 1)
            if part in FROZEN_PARTS:
                source = seen[part][rest if part == "llm" else name]
                assert np.shares_memory(t.data, source.data)
                assert not t.data.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    t.data[...] = 0.0
        assert model.lr2hr.store is seen["encoder"]
        assert np.shares_memory(store["encoder.src_embed"].data,
                                model.lr2hr.store["encoder.src_embed"].data)
        outside = [t.data for backbone in seen.values()
                   for _, t in backbone.items()]
        inside = [t.data for _, t in store.items()]
        for _, t in store.trainable_items():
            assert sum(np.shares_memory(t.data, a) for a in inside) == 1
            assert not any(np.shares_memory(t.data, a) for a in outside)
        before = {part: backbone.snapshot_bytes()
                  for part, backbone in seen.items()}
        train_tall(model, corpus, train_config(
            learning_rate=2e-3, epochs=1, batch_size=8, seed=3,
            eval_fraction=0.2))
        assert {part: backbone.snapshot_bytes()
                for part, backbone in seen.items()} == before

    def test_forward_shape_and_finiteness(self):
        model, corpus, _ = tiny_setup()
        teachers = [list(p.lr_tokens) for p in corpus[:5]]
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        logits = model.forward(batch)
        assert logits.shape == (5, model.decoder_cfg.vocab_tgt)
        assert np.all(np.isfinite(logits.data))

    def test_adapters_follow_the_backbone_widths(self):
        model, corpus, world = tiny_setup(d_enc=12, d_lm=18, d_dec=10)
        assert model.adapter1 == AdapterSpec(12, 36, 18)
        assert model.adapter2 == AdapterSpec(18, 20, 10)
        shapes = {n: t.shape for n, t in model.store.items()}
        assert shapes["adapter1.linear1.weight"] == (12, 36)
        assert shapes["adapter1.linear2.weight"] == (36, 18)
        assert shapes["bridge1.layers.0.cross_attn.k.weight"] == (18, 18)
        assert shapes["adapter2.linear1.weight"] == (18, 20)
        assert shapes["adapter2.linear2.weight"] == (20, 10)
        assert shapes["bridge2.layers.0.ffn.up.weight"] == (10, 24)
        teachers = [list(p.lr_tokens) for p in corpus[:3]]
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        logits = model.forward(batch)
        assert logits.shape == (3, world.vocab_lr)
        assert np.all(np.isfinite(logits.data))


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
            # the pipeline's trainable parts, named before any unfreezing
            trainable = model.store.trainable_items()
            if unfreeze:
                for _, t in model.store.items():
                    t.requires_grad = True
            teachers = [list(p.lr_tokens) for p in corpus[:6]]
            batch = model.make_batch(
                teachers, model.translate_prefixes([t[:-1] for t in teachers]))
            with Tape() as tape:
                loss = model.loss(batch)
            tape.backward(loss)
            grads = {n: t.grad.tobytes() for n, t in trainable}
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

    def test_read_only_operands_give_the_same_gradients(self):
        """No kernel writes into its operands: with every parameter, batch
        array and op output read-only, a loss and its backward give the
        bytes of the writable run."""
        runs = []
        for writeable, outputs in ((True, contextlib.nullcontext),
                                   (False, read_only_outputs)):
            model, corpus, _ = tiny_setup(seed=6)
            teachers = [list(p.lr_tokens) for p in corpus[:5]]
            batch = model.make_batch(
                teachers, model.translate_prefixes([t[:-1] for t in teachers]))
            arrays = ([t.data for _, t in model.store.items()]
                      + list(vars(batch).values()))
            for arr in arrays:
                arr.flags.writeable = writeable
            with outputs(), Tape() as tape:
                loss = model.loss(batch)
            tape.backward(loss)
            runs.append((loss.data.tobytes(), {
                n: t.grad.tobytes() for n, t in model.store.trainable_items()}))
        assert runs[0] == runs[1]

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

    def test_one_loss_keeps_at_most_a_pinned_number_of_bytes(self):
        """The arrays the tape keeps for backward, weights left out: with
        GELU keeping its input and ``Phi(x)`` this loss kept 307,472
        bytes; with its slope alone, 274,640 in 87 arrays; with layer-norm
        outputs and attention contexts rebuilt for the trainable
        projections that read them, 234,032 in 77."""
        model, corpus, _ = tiny_setup(seed=3)
        teachers = [list(p.lr_tokens) for p in corpus[:4]]
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        with Tape() as tape:
            model.loss(batch)
        weights = [t for _, t in model.store.items()]
        assert kept_bytes(tape, skip=weights) <= 234_032

    def test_one_translator_loss_keeps_at_most_a_pinned_number_of_bytes(
            self):
        """The same count on the path where every weight is trainable:
        keeping each layer-norm output and attention context beside what
        rebuilds it, this loss kept 118,672 bytes in 51 arrays; rebuilt,
        89,872 in 41."""
        _, corpus, world = tiny_setup(seed=3)
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, d_model=12,
                            n_heads=2, d_ff=24, enc_layers=1, dec_layers=1,
                            max_len=16)
        translator = Translator.init(cfg, 3)
        with Tape() as tape:
            T.cross_entropy_sum(*translator.teacher_logits(
                [p.lr_tokens for p in corpus[:4]],
                [p.hr_tokens for p in corpus[:4]]))
        weights = [t for _, t in translator.store.items()]
        assert kept_bytes(tape, skip=weights) <= 89_872



class TestReadRows:
    """The decoder's last layer and the tied head run on each example's
    final position alone; every position of the stacks gives the same
    rows and the same trainable gradients."""

    def test_forward_is_the_final_row_of_every_position(self, kernel):
        model, corpus, _ = tiny_setup(seed=4, layers=2)
        # heterogeneous lengths by construction of the corpus
        teachers = [list(p.lr_tokens) for p in corpus[:6]]
        assert len({len(t) for t in teachers}) > 1
        batch = model.make_batch(
            teachers, model.translate_prefixes([t[:-1] for t in teachers]))
        got = model.forward(batch).data
        with all_positions():
            want = model.forward(batch).data
        assert_parity(got, want, kernel)

    def test_one_update_leaves_the_same_gradients(self, kernel):
        tc = train_config(learning_rate=1e-3, epochs=1, batch_size=24, seed=2,
                          eval_fraction=0.0)
        runs = []
        for oracle in (contextlib.nullcontext, all_positions):
            model, corpus, _ = tiny_setup(seed=15, layers=2)
            with oracle(), update_gradients() as grads:
                _, metrics = train_tall(model, corpus, tc)
            runs.append((grads, metrics[0]["loss"]))
        (got, got_loss), (want, want_loss) = runs
        assert len(got) == len(want) == 1
        assert_parity(got_loss, want_loss, kernel)
        assert_parity(np.concatenate([g.ravel() for g in got[0]]),
                      np.concatenate([w.ravel() for w in want[0]]), kernel)


class TestCausalityAndIsolation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bridge1_causality(self, seed):
        model, corpus, world = tiny_setup(seed=seed)
        rng = np.random.default_rng(seed)
        l_hr, l_lr = 6, 5
        hr_ids = rng.integers(4, world.vocab_lm, size=(1, l_hr))
        hr_lengths = np.array([l_hr])
        h_a1 = T.Tensor(rng.standard_normal((l_lr, model.llm_cfg.d_model)))
        a1_lengths = np.array([l_lr])
        base = model.bridge1_forward(hr_ids, hr_lengths, h_a1, a1_lengths).data
        j = 3
        perturbed = hr_ids.copy()
        perturbed[0, j] = 4 + (perturbed[0, j] - 4 + 1) % (world.vocab_lm - 4)
        out = model.bridge1_forward(perturbed, hr_lengths, h_a1,
                                    a1_lengths).data
        np.testing.assert_array_equal(base[:j], out[:j])
        assert np.any(base[j:] != out[j:])

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
        tc = train_config(learning_rate=1e-3, epochs=2, batch_size=8, seed=2,
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
        tc = train_config(learning_rate=2e-3, epochs=1, batch_size=8, seed=3,
                          eval_fraction=0.0)
        train_tall(model, corpus, tc)
        for part in FROZEN_PARTS:
            assert model.store.snapshot_bytes(part) == before[part]

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            model, corpus, _ = tiny_setup(seed=9)
            tc = train_config(learning_rate=1e-3, epochs=1, batch_size=8,
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
        tc = train_config(learning_rate=1e-3, epochs=2, batch_size=8, seed=5,
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

    def test_resume_keeps_the_resumed_weights_when_no_epoch_beats_them(
            self, monkeypatch):
        """Resumed from update ``k``, the weights as given are the first
        candidate for the best snapshot: when training only makes them
        worse on held out, they are the ones returned, kept at ``k``.  At
        this seed the +1.0 shift raises the held-out loss by about 0.1."""
        model, corpus, _ = tiny_setup(seed=0)
        given = {n: t.data.tobytes() for n, t in model.store.trainable_items()}

        def worse(store, train_cfg, n_train, loss_fn, evaluate=None):
            for _, t in store.trainable_items():
                t.data += 1.0
            return [{"step": 0, "split": "train", "loss": 0.0},
                    {"step": 1, "split": "eval", **evaluate(1)}]

        monkeypatch.setattr("tall.pipeline.fit", worse)
        tc = train_config(epochs=1, batch_size=8, seed=5, eval_fraction=0.2)
        meta, metrics = train_tall(model, corpus, tc, start_step=7)
        first, _, last = metrics
        assert first["step"] == 0 and first["split"] == "eval"
        assert last["loss"] > first["loss"]
        assert meta["best_step"] == 7 and meta["step"] == 8
        assert meta["best_eval_loss"] == first["loss"]
        assert {n: t.data.tobytes()
                for n, t in model.store.trainable_items()} == given

    def test_accumulation_flushes_each_epoch(self):
        # 24 pairs in batches of 8 are 3 micro-batches per epoch; at
        # accumulation 2 each epoch makes a full and a short update
        model, corpus, _ = tiny_setup(seed=14)
        tc = train_config(learning_rate=1e-3, epochs=2, batch_size=8,
                          grad_accum_steps=2, seed=6, eval_fraction=0.0)
        meta, metrics = train_tall(model, corpus, tc)
        train = [m for m in metrics if m["split"] == "train"]
        assert meta["step"] == len(train) == 4
        assert [m["step"] for m in train] == [0, 1, 2, 3]
        assert train[-1]["lr"] == cosine_lr(3, 4, 1e-3, 0)
        assert all(t.grad is None for _, t in model.store.trainable_items())

    def test_refuses_unfrozen_backbone(self):
        model, corpus, _ = tiny_setup(seed=11)
        model.store["llm.tok_embed"].requires_grad = True
        with pytest.raises(RuntimeError, match="not frozen"):
            train_tall(model, corpus, train_config())

    def test_one_pair_with_a_held_out_split_raises_before_translating(
            self, monkeypatch):
        model, corpus, _ = tiny_setup(seed=11)

        def translate(prefixes):
            raise AssertionError("translated before the split was checked")

        monkeypatch.setattr(model, "translate_prefixes", translate)
        with pytest.raises(ValueError, match=r"0\.02 holds out 1 of n=1"):
            train_tall(model, corpus[:1], train_config(eval_fraction=0.02))

    def test_evaluate_tall_refuses_an_empty_held_out_set(self):
        model, _, _ = tiny_setup(seed=11)
        with pytest.raises(ValueError, match="held-out set is empty"):
            evaluate_tall(model, [], batch_size=8)


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
