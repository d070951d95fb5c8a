import numpy as np
import pytest

from tall import tensor as T
from tall.checkpoint import load_checkpoint, save_checkpoint
from tall.models import CausalLM, CausalLMConfig, Seq2SeqConfig
from tall.nn import ParamStore
from tall.optim import clip_grad_norm, cosine_lr
from tall.pretrain import (
    _epoch_batches,
    fit,
    llm_perplexity,
    split_train_eval,
    train_llm,
    train_translator,
    translator_exact_match,
)
from tall.tensor import NumericalError, Tape
from tall.world import generate_corpus

from conftest import toy_grammar, toy_world, train_config


@pytest.fixture(scope="module")
def small_world():
    grammar = toy_grammar(hr_vocab_size=24, min_len=4, max_len=7, seed=2)
    world = toy_world(hr_vocab_size=24, seed=2)
    corpus = generate_corpus(2, 256, grammar, world)
    return grammar, world, corpus


SMALL_S2S = dict(d_model=32, n_heads=2, d_ff=64, enc_layers=1, dec_layers=1,
                 max_len=16)
SMALL_LM = dict(d_model=32, n_heads=2, d_ff=64, n_layers=1, max_len=16)


class TestTranslatorTraining:
    def test_first_update_descends(self, small_world):
        _, world, corpus = small_world
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, **SMALL_S2S)
        # single repeating batch isolates pure descent on that batch
        tc = train_config(learning_rate=1e-3, epochs=2, batch_size=32, seed=1,
                          eval_fraction=0.0)
        _, _, metrics = train_translator("lr2hr", cfg, corpus[:32], tc)
        train = [m for m in metrics if m["split"] == "train"]
        assert train[1]["loss"] < train[0]["loss"]

    def test_same_seed_bit_identical_checkpoints(self, small_world, tmp_path):
        _, world, corpus = small_world
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, **SMALL_S2S)
        tc = train_config(learning_rate=1e-3, epochs=1, batch_size=32, seed=5)
        paths = []
        for name in ("a", "b"):
            model, meta, _ = train_translator("lr2hr", cfg, corpus, tc)
            path = tmp_path / f"{name}.tlcp"
            save_checkpoint(model.store, {"seed": tc.seed}, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_direction_swaps_vocabularies(self, small_world):
        _, world, corpus = small_world
        cfg = Seq2SeqConfig(world.vocab_hr, world.vocab_lr, **SMALL_S2S)
        tc = train_config(learning_rate=1e-3, epochs=1, batch_size=64, seed=1)
        model, meta, _ = train_translator("hr2lr", cfg, corpus, tc)
        assert meta["kind"] == "translator-hr2lr"
        out = model.greedy_translate([list(corpus[0].hr_tokens)])
        assert all(tok >= 4 for tok in out[0])

    def test_rejects_empty_corpus(self, small_world):
        _, world, _ = small_world
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, **SMALL_S2S)
        with pytest.raises(ValueError):
            train_translator("lr2hr", cfg, [], train_config())

    def test_rejects_unknown_direction(self, small_world):
        _, world, corpus = small_world
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, **SMALL_S2S)
        with pytest.raises(ValueError):
            train_translator("sideways", cfg, corpus, train_config())


@pytest.mark.slow
def test_translator_learns_the_cipher_at_full_scale():
    """Default-scale run: 20k pairs, 5 epochs, held-out exact match >= 95%."""
    grammar = toy_grammar(hr_vocab_size=96, seed=11)
    world = toy_world(hr_vocab_size=96, seed=11)
    corpus = generate_corpus(11, 20000, grammar, world)
    cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, d_model=64, n_heads=4,
                        d_ff=128, enc_layers=2, dec_layers=2, max_len=32)
    tc = train_config(learning_rate=1.5e-3, epochs=5, batch_size=64, seed=11,
                      eval_fraction=0.02)
    model, meta, _ = train_translator("lr2hr", cfg, corpus, tc)
    assert meta["heldout_exact_match"] >= 0.95


class TestLlmTraining:
    def test_perplexity_beats_uniform(self, small_world):
        _, world, corpus = small_world
        seqs = [world.hr_to_lm(np.array(p.hr_tokens)).tolist() for p in corpus]
        cfg = CausalLMConfig(world.vocab_lm, **SMALL_LM)
        tc = train_config(learning_rate=1.5e-3, epochs=2, batch_size=16,
                          grad_accum_steps=2, seed=4, eval_fraction=0.05)
        _, meta, _ = train_llm(cfg, seqs, tc)
        assert meta["heldout_perplexity"] < world.vocab_lm

    def test_same_seed_identical_checkpoint(self, small_world, tmp_path):
        _, world, corpus = small_world
        seqs = [world.hr_to_lm(np.array(p.hr_tokens)).tolist()
                for p in corpus[:64]]
        cfg = CausalLMConfig(world.vocab_lm, **SMALL_LM)
        tc = train_config(learning_rate=1e-3, epochs=1, batch_size=8,
                          grad_accum_steps=2, seed=9)
        blobs = []
        for _ in range(2):
            model, _, _ = train_llm(cfg, seqs, tc)
            path = tmp_path / "m.tlcp"
            save_checkpoint(model.store, {}, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_divergence_aborts(self):
        store = ParamStore()
        store.add("w", np.ones(3))

        def nan_loss(batch_idx):
            return T.Tensor(np.array(np.nan)), len(batch_idx)

        with pytest.raises(NumericalError, match="not finite at update 0"):
            fit(store, train_config(), 10, nan_loss)
        assert store["w"].data.tolist() == [1.0, 1.0, 1.0]


class TestGradAccumulation:
    """Accumulated micro-batches must reproduce the one-big-batch update.

    Sum-reduction plus normalization by the update's token count makes
    the two mathematically identical; bitwise identity additionally
    requires the same reduction order, so the reference update is
    computed by accumulating the identical micro-batch partition."""

    def _manual_updates(self, cfg, seqs, tc, n_updates=2):
        model = CausalLM.init(cfg, tc.seed)
        m = {n: np.zeros_like(t.data) for n, t in model.store.trainable_items()}
        v = {n: np.zeros_like(t.data) for n, t in model.store.trainable_items()}
        names = [n for n, _ in model.store.trainable_items()]
        order = list(_epoch_batches(len(seqs), tc.batch_size, tc.seed, 0))
        total_updates = len(seqs) // (tc.batch_size * tc.grad_accum_steps)
        done = 0
        for u in range(n_updates):
            grads = {n: None for n in names}
            tokens = 0
            for micro in range(tc.grad_accum_steps):
                batch = [seqs[i] for i in order[u * tc.grad_accum_steps + micro]]
                with Tape() as tape:
                    loss_sum, n_tok = T.cross_entropy_sum(
                        *model.logits_for(batch))
                tape.backward(loss_sum)
                tokens += n_tok
            for n in names:
                p = model.store[n]
                grads[n] = p.grad / tokens
                p.grad = grads[n]
            clip_grad_norm([model.store[n] for n in names], tc.grad_clip_norm)
            lr = cosine_lr(u, total_updates * tc.epochs, tc.learning_rate,
                           tc.warmup_steps)
            t_step = u + 1
            beta1, beta2 = 0.9, 0.999
            for n in names:
                p = model.store[n]
                g = p.grad
                p.data -= lr * tc.weight_decay * p.data
                m[n] = beta1 * m[n] + (1.0 - beta1) * g
                v[n] = beta2 * v[n] + (1.0 - beta2) * (g * g)
                m_hat = m[n] / (1.0 - beta1 ** t_step)
                v_hat = v[n] / (1.0 - beta2 ** t_step)
                p.data -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
                p.grad = None
            done += 1
        return model

    def test_accumulation_matches_fixed_order_reference(self, small_world):
        _, world, corpus = small_world
        seqs = [world.hr_to_lm(np.array(p.hr_tokens)).tolist()
                for p in corpus[:64]]
        cfg = CausalLMConfig(world.vocab_lm, **SMALL_LM)
        tc = train_config(learning_rate=1e-3, epochs=1, batch_size=4,
                          grad_accum_steps=8, seed=21, eval_fraction=0.0)
        # 64 sequences = exactly 2 updates of 8 micro-batches of 4
        trained, meta, _ = train_llm(cfg, seqs, tc)
        assert meta["step"] == 2
        reference = self._manual_updates(cfg, seqs, tc, n_updates=2)
        for name, t in trained.store.items():
            assert t.data.tobytes() == reference.store[name].data.tobytes(), name

    def test_sum_reduction_matches_one_big_batch_value(self, small_world):
        """Micro-batch gradient sums equal the big-batch gradient up to
        reduction-order rounding."""
        _, world, corpus = small_world
        seqs = [world.hr_to_lm(np.array(p.hr_tokens)).tolist()
                for p in corpus[:16]]
        cfg = CausalLMConfig(world.vocab_lm, **SMALL_LM)
        model = CausalLM.init(cfg, 3)

        def grads_for(chunks):
            for p in [t for _, t in model.store.trainable_items()]:
                p.grad = None
            total_tokens = 0
            for chunk in chunks:
                with Tape() as tape:
                    loss_sum, n_tok = T.cross_entropy_sum(
                        *model.logits_for(chunk))
                tape.backward(loss_sum)
                total_tokens += n_tok
            return {n: t.grad / total_tokens
                    for n, t in model.store.trainable_items()}, total_tokens

        micro, n1 = grads_for([seqs[i : i + 2] for i in range(0, 16, 2)])
        big, n2 = grads_for([seqs])
        assert n1 == n2
        for name in micro:
            np.testing.assert_allclose(micro[name], big[name], rtol=0,
                                       atol=1e-12)


class TestSplitAndEval:
    def test_split_deterministic_and_disjoint(self):
        items = list(range(100))
        a_train, a_eval = split_train_eval(items, 0.1, 7)
        b_train, b_eval = split_train_eval(items, 0.1, 7)
        assert a_train == b_train and a_eval == b_eval
        assert len(a_eval) == 10
        assert set(a_train) | set(a_eval) == set(items)
        assert not set(a_train) & set(a_eval)

    def test_translator_on_one_pair_with_a_held_out_split_raises(
            self, small_world):
        _, world, corpus = small_world
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, **SMALL_S2S)
        tc = train_config(epochs=1, eval_fraction=0.02)
        with pytest.raises(ValueError, match=r"0\.02 holds out 1 of n=1"):
            train_translator("lr2hr", cfg, corpus[:1], tc)

    def test_exact_match_counts(self, small_world):
        _, world, corpus = small_world
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, **SMALL_S2S)
        from tall.models import Translator

        model = Translator.init(cfg, 0)
        examples = [(p.lr_tokens, p.hr_tokens) for p in corpus[:8]]
        rate = translator_exact_match(model, examples)
        assert 0.0 <= rate <= 1.0
