import contextlib

import numpy as np
import pytest

from tall.evaluation import (
    EvalExample,
    EvalRecord,
    SamplerConfig,
    SoftPromptParams,
    _soft_prompt_logits,
    accuracy,
    clone_llm,
    eval_direct,
    eval_naive,
    eval_soft_prompt,
    finetune_llm,
    make_eval_dataset,
    scored_id,
    train_soft_prompt,
)
from tall.models import CausalLM, CausalLMConfig, Seq2SeqConfig, Translator
from tall.nn import ParamStore
from tall.pretrain import TrainConfig, train_translator
from tall.tensor import NumericalError, ShapeError, Tensor
from tall.world import N_SPECIALS, ToyGrammar, World, generate_corpus

from conftest import (all_positions, assert_parity, trainable_param_count,
                      update_gradients)


class TestAccuracy:
    def test_all_correct(self):
        records = [EvalRecord(i, 5, 5, True, "direct") for i in range(4)]
        assert accuracy(records) == 1.0

    def test_one_of_four(self):
        records = [EvalRecord(0, 5, 5, True, "direct")] + [
            EvalRecord(i, 5, 6, False, "direct") for i in range(1, 4)
        ]
        assert accuracy(records) == 0.25

    def test_matches_recount_after_shuffle(self):
        rng = np.random.default_rng(0)
        records = [
            EvalRecord(i, 1, int(rng.integers(1, 3)), False, "naive")
            for i in range(50)
        ]
        records = [
            EvalRecord(r.example_id, r.gold, r.predicted,
                       r.gold == r.predicted, r.approach) for r in records
        ]
        base = accuracy(records)
        shuffled = list(records)
        rng.shuffle(shuffled)
        brute = sum(1 for r in shuffled if r.gold == r.predicted) / len(shuffled)
        assert accuracy(shuffled) == base == brute

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([])


@pytest.fixture(scope="module")
def tiny_world():
    grammar = ToyGrammar(hr_vocab_size=20, min_len=4, max_len=7, seed=5)
    world = World(hr_vocab_size=20, seed=5)
    corpus = generate_corpus(5, 200, grammar, world)
    examples, ds_hash = make_eval_dataset(world, grammar, seed=77, n=120)
    llm = CausalLM.init(
        CausalLMConfig(world.vocab_lm, d_model=24, n_heads=2, d_ff=48,
                       n_layers=1, max_len=48), seed=1)
    return grammar, world, corpus, examples, llm


class TestDirect:
    def test_untrained_lm_is_chance_level(self, tiny_world):
        _, world, _, examples, llm = tiny_world
        records = eval_direct(llm, world, examples, SamplerConfig(seed=3))
        # random logits over the union vocabulary rarely land on the gold
        assert accuracy(records) <= 2.0 / world.vocab_lr + 0.05

    def test_forced_correct_logits_give_perfect_accuracy(self, tiny_world):
        _, world, _, examples, llm = tiny_world

        class Oracle:
            cfg = llm.cfg
            store = llm.store

            def next_token_logits(self, prefixes):
                out = np.zeros((len(prefixes), world.vocab_lm))
                for i, _ in enumerate(prefixes):
                    gold_lm = world.lr_to_lm(np.array([golds[i]]))[0]
                    out[i, gold_lm] = 1000.0
                return out

        golds = [ex.gold for ex in examples[:10]]
        records = eval_direct(Oracle(), world, examples[:10],
                              SamplerConfig(seed=0))
        assert accuracy(records) == 1.0

    def test_deterministic_given_seed(self, tiny_world):
        _, world, _, examples, llm = tiny_world
        a = eval_direct(llm, world, examples, SamplerConfig(seed=9))
        b = eval_direct(llm, world, examples, SamplerConfig(seed=9))
        assert a == b

    def test_empty_dataset_rejected(self, tiny_world):
        _, world, _, _, llm = tiny_world
        with pytest.raises(ValueError):
            eval_direct(llm, world, [], SamplerConfig())


def exact_translator(world: World, direction: str):
    """Stub translator that applies the true world mapping.

    Like ``Translator.encode`` it refuses a source that, with EOS
    appended, does not fit its position table.
    """

    class Exact:
        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, d_model=8,
                            n_heads=2, d_ff=8, enc_layers=1, dec_layers=1)

        def greedy_translate(self, seqs, cap=None):
            longest = max((len(s) + 1 for s in seqs), default=0)
            if longest > self.cfg.max_len:
                raise ShapeError(f"sequence length {longest} exceeds "
                                 f"encoder.pos table ({self.cfg.max_len} "
                                 f"positions)")
            fn = world.lr_of_hr if direction == "hr2lr" else world.hr_of_lr
            return [fn(np.array(s, dtype=np.int64)).tolist() if len(s) else []
                    for s in seqs]

    return Exact()


def oracle_lm(world: World, examples: list[EvalExample], max_len: int = 64):
    """Stub LM whose row i always emits the true HR continuation of
    ``examples[i]``, so it expects the examples in one batch.  Like
    ``CausalLM`` it refuses a prefix that, after BOS, exceeds ``max_len``."""

    class OracleLM:
        cfg = CausalLMConfig(world.vocab_lm, d_model=8, n_heads=2,
                             d_ff=8, n_layers=1, max_len=max_len)

        def next_token_logits(self, prefixes):
            longest = max((len(p) + 1 for p in prefixes), default=0)
            if longest > self.cfg.max_len:
                raise ShapeError(f"sequence length {longest} exceeds pos "
                                 f"table ({self.cfg.max_len} positions)")
            out = np.zeros((len(prefixes), world.vocab_lm))
            for i, ex in enumerate(examples[: len(prefixes)]):
                hr_full = world.hr_of_lr(np.array(ex.lr_tokens))
                out[i, world.hr_to_lm(hr_full[-1:])[0]] = 1000.0
            return out

    return OracleLM()


class TestScoredId:
    def test_only_lr_content_ids_are_kept(self):
        world = World(hr_vocab_size=12, seed=3)
        for special in range(N_SPECIALS):
            assert scored_id(world.lm_to_lr(special)) == -1
        for hr_id in range(N_SPECIALS, world.vocab_hr):
            lm_id = int(world.hr_to_lm(np.array([hr_id]))[0])
            assert scored_id(world.lm_to_lr(lm_id)) == -1
        for lr_id in range(N_SPECIALS, world.vocab_lr):
            lm_id = int(world.lr_to_lm(np.array([lr_id]))[0])
            assert scored_id(world.lm_to_lr(lm_id)) == lr_id
        assert N_SPECIALS + 2 * world.hr_vocab_size == world.vocab_lm


class TestNaive:
    def test_oracle_lm_reaches_round_trip_fidelity(self):
        """No-swap world: with exact translators and an oracle LM that
        always emits the true continuation, naive is perfect; with real
        trained translators its accuracy is at least the fraction of
        examples whose round trip is exact."""
        grammar = ToyGrammar(hr_vocab_size=16, min_len=4, max_len=6, seed=8)
        world = World(hr_vocab_size=16, seed=8, pair_swap=False)
        corpus = generate_corpus(8, 400, grammar, world)
        examples, _ = make_eval_dataset(world, grammar, seed=31, n=80)
        lr2hr_exact = exact_translator(world, "lr2hr")
        hr2lr_exact = exact_translator(world, "hr2lr")
        records = eval_naive(lr2hr_exact, oracle_lm(world, examples),
                             hr2lr_exact, world, examples,
                             SamplerConfig(seed=2))
        assert accuracy(records) == 1.0

        cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, d_model=32,
                            n_heads=2, d_ff=64, enc_layers=1, dec_layers=1,
                            max_len=16)
        cfg_rev = Seq2SeqConfig(world.vocab_hr, world.vocab_lr, d_model=32,
                                n_heads=2, d_ff=64, enc_layers=1,
                                dec_layers=1, max_len=16)
        # 3 epochs at 2e-3 (39 updates) left both translators at exact
        # match 0.0; this budget gives fidelity 0.70-0.86 over training
        # seeds 0-6 (0.825 at seed 6).
        tc = TrainConfig(learning_rate=5e-3, epochs=20, batch_size=32, seed=6,
                         eval_fraction=0.02)
        lr2hr, _, _ = train_translator("lr2hr", cfg, corpus, tc)
        hr2lr, _, _ = train_translator("hr2lr", cfg_rev, corpus, tc)
        fidelity = 0
        for ex in examples:
            hr_true = world.hr_of_lr(np.array(ex.lr_tokens))
            prefix_ok = (lr2hr.greedy_translate([ex.prefix])[0]
                         == hr_true[:-1].tolist())
            back_ok = (hr2lr.greedy_translate([hr_true.tolist()])[0]
                       == list(ex.lr_tokens))
            fidelity += prefix_ok and back_ok
        fidelity /= len(examples)
        records = eval_naive(lr2hr, oracle_lm(world, examples), hr2lr, world,
                             examples, SamplerConfig(seed=2))
        assert accuracy(records) >= fidelity > 0.3

    @pytest.mark.parametrize("limit", ["hr2lr", "llm"])
    def test_overlong_round_trip_scores_sentinel(self, tiny_world, limit):
        """An HR translation too long for the next model (hr2lr: itself
        plus the LM's token and EOS; the LM: itself plus BOS) makes that
        example alone score -1; the others keep the exact round trip's
        answer."""
        _, world, _, examples, _ = tiny_world
        examples = examples[:20]
        exact = exact_translator(world, "lr2hr")
        hr2lr = exact_translator(world, "hr2lr")
        # the last row, so the oracle's rows stay aligned if it is dropped
        long_row = len(examples) - 1
        if limit == "hr2lr":
            lm = oracle_lm(world, examples)
            long_len = hr2lr.cfg.max_len - 1
            reason = "completion too long for hr2lr"
        else:
            lm = oracle_lm(world, examples, max_len=8)
            long_len = lm.cfg.max_len
            reason = "HR prefix too long for the LM"

        class Overlong:
            cfg = exact.cfg

            def greedy_translate(self, seqs, cap=None):
                out = exact.greedy_translate(seqs)
                out[long_row] = [N_SPECIALS] * long_len
                return out

        sampler, log = SamplerConfig(seed=3), []
        records = eval_naive(Overlong(), lm, hr2lr, world, examples, sampler,
                             log=log)
        exact_records = eval_naive(exact, lm, hr2lr, world, examples, sampler)
        assert len(records) == len(examples)
        assert [r.predicted for r in records] == [
            -1 if i == long_row else r.predicted
            for i, r in enumerate(exact_records)]
        assert -1 not in [r.predicted for r in exact_records]
        assert log == [f"example {long_row}: {reason}"]

    def test_identity_world_naive_equals_direct_modulo_remap(self):
        """Degenerate world (identity cipher, no swap): routing through
        exact translators is the identity, so naive and direct coincide
        once both feed the LM through the same tokenizer remap."""
        grammar = ToyGrammar(hr_vocab_size=16, min_len=4, max_len=6, seed=9)
        world = World(hr_vocab_size=16, seed=9, cipher="identity",
                      pair_swap=False)
        examples, _ = make_eval_dataset(world, grammar, seed=41, n=60)
        llm = CausalLM.init(
            CausalLMConfig(world.vocab_lm, d_model=24, n_heads=2, d_ff=48,
                           n_layers=1, max_len=32), seed=2)
        world.lr_to_lm = world.hr_to_lm
        world.lm_to_lr = world.lm_to_hr
        naive = eval_naive(exact_translator(world, "lr2hr"), llm,
                           exact_translator(world, "hr2lr"), world, examples,
                           SamplerConfig(seed=4))
        direct = eval_direct(llm, world, examples, SamplerConfig(seed=4))
        assert [r.predicted for r in naive] == [r.predicted for r in direct]

    def test_deterministic(self, tiny_world):
        grammar, world, corpus, examples, llm = tiny_world
        lr2hr = exact_translator(world, "lr2hr")
        hr2lr = exact_translator(world, "hr2lr")
        a = eval_naive(lr2hr, llm, hr2lr, world, examples[:30],
                       SamplerConfig(seed=5))
        b = eval_naive(lr2hr, llm, hr2lr, world, examples[:30],
                       SamplerConfig(seed=5))
        assert a == b


class TestSoftPrompt:
    def test_trainable_count_and_frozen_lm(self, tiny_world):
        _, world, corpus, examples, llm = tiny_world
        llm = clone_llm(llm)
        before = {n: t.data.tobytes() for n, t in llm.store.items()}
        corpus_lr = [list(p.lr_tokens) for p in corpus[:64]]
        tc = TrainConfig(learning_rate=5e-4, epochs=1, batch_size=16, seed=3,
                         warmup_steps=100)
        params, metrics = train_soft_prompt(llm, world, corpus_lr, tc,
                                            n_prompt=30)
        assert params.embeddings.shape == (30, llm.cfg.d_model)
        total, trainable = trainable_param_count(params.store)
        assert total == trainable == 30 * llm.cfg.d_model
        assert {n: t.data.tobytes() for n, t in llm.store.items()} == before
        records = eval_soft_prompt(llm, params, world, examples[:20],
                                   SamplerConfig(seed=1))
        assert len(records) == 20

    def test_grad_accumulation_sets_the_update_count(self, tiny_world):
        _, world, corpus, _, llm = tiny_world
        corpus_lr = [list(p.lr_tokens) for p in corpus[:40]]
        tc = TrainConfig(learning_rate=5e-4, epochs=2, batch_size=4,
                         grad_accum_steps=4, seed=3)
        params, metrics = train_soft_prompt(clone_llm(llm), world, corpus_lr,
                                            tc, n_prompt=2)
        # ceil(40 / (4 * 4)) = 3 updates per epoch
        assert len(metrics) == 6
        assert [m["step"] for m in metrics] == list(range(6))
        assert params.embeddings.grad is None

    def test_prompt_past_the_position_table_is_refused(self, tiny_world):
        _, world, corpus, _, llm = tiny_world
        corpus_lr = [list(p.lr_tokens) for p in corpus[:4]]
        tc = TrainConfig(epochs=1, batch_size=4, seed=3)
        with pytest.raises(ShapeError, match=r"sequence length \d+ exceeds "
                           r"pos table \(48 positions\)"):
            train_soft_prompt(clone_llm(llm), world, corpus_lr, tc,
                              n_prompt=llm.cfg.max_len)

    def test_divergence_aborts(self, tiny_world):
        _, world, corpus, _, llm = tiny_world
        llm = clone_llm(llm)
        llm.store["tok_embed"].data[0, 0] = np.nan
        corpus_lr = [list(p.lr_tokens) for p in corpus[:8]]
        tc = TrainConfig(epochs=1, batch_size=4, seed=3)
        with pytest.raises(NumericalError, match="not finite"):
            train_soft_prompt(llm, world, corpus_lr, tc, n_prompt=2)

    def test_empty_dataset_rejected(self, tiny_world):
        _, world, _, _, llm = tiny_world
        store = ParamStore()
        store.add("prompt", np.zeros((2, llm.cfg.d_model)))
        with pytest.raises(ValueError, match="evaluation dataset is empty"):
            eval_soft_prompt(llm, SoftPromptParams(store, 2), world, [],
                             SamplerConfig())

    def test_logits_are_the_final_rows_of_every_position(self, tiny_world,
                                                          kernel):
        _, world, corpus, _, _ = tiny_world
        llm = CausalLM.init(CausalLMConfig(world.vocab_lm, d_model=24,
                                           n_heads=2, d_ff=48, n_layers=2,
                                           max_len=48), seed=2)
        prompt = np.random.default_rng(2).normal(0.0, 0.1, size=(3, 24))
        prefixes = [world.lr_to_lm(np.array(p.lr_tokens[:-1])).tolist()
                    for p in corpus[:7]]
        assert len({len(p) for p in prefixes}) > 1
        got = _soft_prompt_logits(llm, Tensor(prompt), prefixes).data
        with all_positions():
            want = _soft_prompt_logits(llm, Tensor(prompt), prefixes).data
        assert_parity(got, want, kernel)

    def test_one_update_leaves_the_same_gradients(self, tiny_world, kernel):
        _, world, corpus, _, _ = tiny_world
        corpus_lr = [list(p.lr_tokens) for p in corpus[:16]]
        tc = TrainConfig(learning_rate=5e-4, epochs=1, batch_size=16, seed=3)
        runs = []
        for oracle in (contextlib.nullcontext, all_positions):
            llm = CausalLM.init(CausalLMConfig(
                world.vocab_lm, d_model=24, n_heads=2, d_ff=48, n_layers=2,
                max_len=48), seed=2)
            with oracle(), update_gradients() as grads:
                _, metrics = train_soft_prompt(llm, world, corpus_lr, tc,
                                               n_prompt=4)
            runs.append((grads, metrics[0]["loss"]))
        (got, got_loss), (want, want_loss) = runs
        assert len(got) == len(want) == 1
        assert_parity(got_loss, want_loss, kernel)
        [g], [w] = got[0], want[0]
        assert_parity(g, w, kernel)

    def test_published_prompt_size_arithmetic(self):
        assert 30 * 96 == 2880


class TestFinetune:
    def test_zero_epochs_equals_direct_exactly(self, tiny_world):
        _, world, corpus, examples, llm = tiny_world
        corpus_lr = [list(p.lr_tokens) for p in corpus[:32]]
        tc = TrainConfig.__new__(TrainConfig)
        tc.__dict__.update(TrainConfig().__dict__)
        tc.epochs = 0
        tuned, meta, _ = finetune_llm(llm, world, corpus_lr, tc)
        assert meta["step"] == 0
        direct = eval_direct(llm, world, examples, SamplerConfig(seed=6))
        via_tuned = eval_direct(tuned, world, examples, SamplerConfig(seed=6),
                                approach="finetuned")
        assert [r.predicted for r in direct] == [r.predicted for r in via_tuned]

    def test_finetuning_changes_a_clone_not_the_original(self, tiny_world):
        _, world, corpus, _, llm = tiny_world
        base = clone_llm(llm)
        before = {n: t.data.tobytes() for n, t in base.store.items()}
        corpus_lr = [list(p.lr_tokens) for p in corpus[:32]]
        tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=16, seed=7)
        tuned, _, _ = finetune_llm(base, world, corpus_lr, tc)
        assert {n: t.data.tobytes() for n, t in base.store.items()} == before
        assert any(tuned.store[n].data.tobytes() != before[n]
                   for n in tuned.store.names())


class TestDatasetPlumbing:
    def test_eval_dataset_hash_changes_with_seed(self, tiny_world):
        grammar, world, _, _, _ = tiny_world
        _, h1 = make_eval_dataset(world, grammar, seed=1, n=30)
        _, h2 = make_eval_dataset(world, grammar, seed=2, n=30)
        same, h1b = make_eval_dataset(world, grammar, seed=1, n=30)
        assert h1 != h2
        assert h1 == h1b

    def test_records_score_in_lr_space(self, tiny_world):
        _, world, _, examples, llm = tiny_world
        records = eval_direct(llm, world, examples[:40], SamplerConfig(seed=8))
        for r in records:
            assert r.correct == (r.gold == r.predicted)
            assert 4 <= r.gold < world.vocab_lr
