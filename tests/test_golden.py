"""Golden-run gate: tiny trainings whose bytes must not move.

Each case trains on the reference (einsum) kernel at a tiny size and
stores the sha256 of the trained tensors, of the metrics records and of
the eval records.  A refactor of the training or forward code keeps
these hashes; a deliberate behaviour change re-records them and says
why.  The cases cover the loop's edge paths: a held-out split, gradient
accumulation with a short last group, TALL's best-snapshot restore, a
warmup schedule and a partial last batch.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from tall.evaluation import (
    eval_soft_prompt,
    eval_tall,
    make_eval_dataset,
    train_soft_prompt,
)
from tall.models import CausalLMConfig, Seq2SeqConfig
from tall.pipeline import (
    BridgeConfig,
    SamplerConfig,
    TallConfig,
    TallModel,
    train_tall,
)
from tall.pretrain import TrainConfig, train_llm, train_translator
from tall.world import ToyGrammar, World, generate_corpus

GOLDEN = {
    "lr2hr.store":
        "74f978bc619561b01c6255b7d0aa2d2466277e596f339e3a6870b2cc35ef586e",
    "lr2hr.metrics":
        "b765537150b7bf1d75ef19d12d4a57d27a11a5ddd269f3abf7820f486463db86",
    "llm.store":
        "0725c9dcc267ce5e887d257e1164747fa9d76c48f08778033cd44d801ecf2c13",
    "llm.metrics":
        "44c66f18624897a129a11a7ec0148387a8dd75ef212683a49b5c18ee42738566",
    "tall.store":
        "a710c1163bc5075073888c0193b474d2fc54e5c05c0b757cbebe0658cd72db40",
    "tall.metrics":
        "744b5e7998baa749e914d1f1df596ab7c86c8d4d8176436322562d53e223a75b",
    "tall.eval":
        "2783ee9f335c28624f61f0335e27da52e4fdde488362f4700d4c500b5b508f93",
    "soft_prompt.store":
        "4466b9e415cbc7656896c4531c6018f9779536f80d5a6387d59d4bd9396fd200",
    "soft_prompt.metrics":
        "20a60670dac76950c9d10a7c1d67b16bdbc325301b6458788d6950f6ed851483",
    "soft_prompt.eval":
        "54feaa06e73730c447ff34fdb2e540ae81dea936f2d7373e04ad2fd5eb88a6e4",
}


def _store_hash(store) -> str:
    h = hashlib.sha256()
    for name, t in store.items():
        h.update(name.encode())
        h.update(t.data.tobytes())
    return h.hexdigest()


def _json_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(reference_kernel_module):
    grammar = ToyGrammar(hr_vocab_size=16, min_len=4, max_len=7, seed=4)
    world = World(hr_vocab_size=16, seed=4)
    corpus = generate_corpus(4, 40, grammar, world)
    examples, _ = make_eval_dataset(world, grammar, seed=44, n=12)
    s2s = dict(d_model=12, n_heads=2, d_ff=24, enc_layers=1, dec_layers=1,
               max_len=16)
    enc_cfg = Seq2SeqConfig(world.vocab_lr, world.vocab_hr, **s2s)
    dec_cfg = Seq2SeqConfig(world.vocab_hr, world.vocab_lr, **s2s)
    lm_cfg = CausalLMConfig(world.vocab_lm, d_model=18, n_heads=2, d_ff=24,
                            n_layers=1, max_len=24)
    out = {}

    # translators: held-out split, so the eval record is written too
    lr2hr, meta, metrics = train_translator(
        "lr2hr", enc_cfg, corpus,
        TrainConfig(learning_rate=2e-3, epochs=2, batch_size=8, seed=1,
                    eval_fraction=0.1))
    out["lr2hr.store"] = _store_hash(lr2hr.store)
    out["lr2hr.metrics"] = _json_hash([meta, metrics])
    hr2lr, _, _ = train_translator(
        "hr2lr", dec_cfg, corpus,
        TrainConfig(learning_rate=2e-3, epochs=1, batch_size=8, seed=2,
                    eval_fraction=0.0))

    # LM: 36 train sequences in micro-batches of 5 make 8 micro-batches
    # per epoch, so accumulation 3 leaves a short last group of 2
    seqs = [world.hr_to_lm(np.array(p.hr_tokens)).tolist() for p in corpus]
    llm, meta, metrics = train_llm(
        lm_cfg, seqs,
        TrainConfig(learning_rate=2e-3, epochs=2, batch_size=5,
                    grad_accum_steps=3, seed=3, eval_fraction=0.1))
    assert meta["step"] == 6
    out["llm.store"] = _store_hash(llm.store)
    out["llm.metrics"] = _json_hash([meta, metrics])

    # TALL: held-out split, so the best snapshot is restored at the end
    cfg = TallConfig(encoder_cfg=enc_cfg, llm_cfg=lm_cfg, decoder_cfg=dec_cfg,
                     bridge1=BridgeConfig(1, 2, 24),
                     bridge2=BridgeConfig(1, 2, 24))
    model = TallModel.assemble(cfg, world, lr2hr, hr2lr, llm, seed=5)
    meta, metrics = train_tall(
        model, corpus,
        TrainConfig(learning_rate=3e-3, epochs=3, batch_size=8, seed=6,
                    eval_fraction=0.2))
    out["tall.store"] = _store_hash(model.store)
    out["tall.metrics"] = _json_hash([meta, metrics])
    sampler = SamplerConfig(temperature=0.7, top_k=5, top_p=0.9, seed=8)
    out["tall.eval"] = _json_hash(
        [dataclasses.asdict(r) for r in eval_tall(model, examples, sampler)])

    # soft prompt: warmup, and 20 sentences in batches of 8 end in a 4
    corpus_lr = [list(p.lr_tokens) for p in corpus[:20]]
    params, metrics = train_soft_prompt(
        llm, world, corpus_lr,
        TrainConfig(learning_rate=5e-3, epochs=2, batch_size=8, seed=7,
                    warmup_steps=2),
        n_prompt=3)
    out["soft_prompt.store"] = _store_hash(params.store)
    out["soft_prompt.metrics"] = _json_hash(metrics)
    out["soft_prompt.eval"] = _json_hash(
        [dataclasses.asdict(r)
         for r in eval_soft_prompt(llm, params, world, examples, sampler)])
    return out


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_hash(golden_run, key):
    assert golden_run[key] == GOLDEN[key], key
