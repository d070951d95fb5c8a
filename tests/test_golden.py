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
    eval_direct,
    eval_naive,
    eval_soft_prompt,
    eval_tall,
    make_eval_dataset,
    train_soft_prompt,
)
from tall.models import CausalLMConfig, Seq2SeqConfig
from tall.pipeline import (
    BridgeConfig,
    TallConfig,
    TallModel,
    train_tall,
)
from tall.pretrain import train_llm, train_translator
from tall.world import generate_corpus

from conftest import sampler_config, toy_grammar, toy_world, train_config

GOLDEN = {
    "direct.eval":
        "6a81fc35c1b6af1ec14cdd0e204531f69ba7caa37cd36f9167f0730df47dddea",
    "naive.eval":
        "19f88599dad880cad53e0dbb3ea9bf746d990227b3eefc6ea3e6dae25df1eb84",
    "lr2hr.store":
        "507d6f26898d164de1a3e83eaf939ab95bf9f1450c230d1c1e3059d171d0b9a1",
    "lr2hr.metrics":
        "8b9b724cb4d47b0ed933d4e7cbfdf6167681105bebfb138ab5e67a1fed69c2f5",
    "llm.store":
        "f84fe27a263c0bb27a66be5ee681baf6bb337d81b534fa2d2953551249d5b727",
    "llm.metrics":
        "42f70d35ce25352835d9a4648069e829dbc1d79a9344224dfbf330a9267cb504",
    "tall.store":
        "6463bd51f2687739a8dd8aa590493192e0e76bd8e0288c82a93a0be0a3cc712d",
    "tall.metrics":
        "119993a83106c060b1ba087273887e2e04ff71379177ef906ed946e940739d57",
    "tall.eval":
        "86ee2014b9f958698ada91c70d2daf407eea84d53a6881c2ff8fcf7355550bd2",
    "soft_prompt.store":
        "ec9996e587c22e05787f7a9b378b09f3ae0090e5b99ae32a7dd1051c8853931c",
    "soft_prompt.metrics":
        "e89a4a051352446989fb2f77f0b4e9ebb6cfa78123b822891ce65c0f69be2fa7",
    "soft_prompt.eval":
        "66b9052d94827e153bc66b4844f286a786af8dba134bc649f34f00c6833333a8",
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
    grammar = toy_grammar(hr_vocab_size=16, min_len=4, max_len=7, seed=4)
    world = toy_world(hr_vocab_size=16, seed=4)
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
        train_config(learning_rate=2e-3, epochs=2, batch_size=8, seed=1,
                     eval_fraction=0.1))
    out["lr2hr.store"] = _store_hash(lr2hr.store)
    out["lr2hr.metrics"] = _json_hash([meta, metrics])
    hr2lr, _, _ = train_translator(
        "hr2lr", dec_cfg, corpus,
        train_config(learning_rate=2e-3, epochs=1, batch_size=8, seed=2,
                     eval_fraction=0.0))

    # LM: 36 train sequences in micro-batches of 5 make 8 micro-batches
    # per epoch, so accumulation 3 leaves a short last group of 2
    seqs = [world.hr_to_lm(np.array(p.hr_tokens)).tolist() for p in corpus]
    llm, meta, metrics = train_llm(
        lm_cfg, seqs,
        train_config(learning_rate=2e-3, epochs=2, batch_size=5,
                     grad_accum_steps=3, seed=3, eval_fraction=0.1))
    assert meta["step"] == 6
    out["llm.store"] = _store_hash(llm.store)
    out["llm.metrics"] = _json_hash([meta, metrics])

    # TALL: held-out split, so the best snapshot is restored at the end
    cfg = TallConfig(adapter1_hidden=36, adapter2_hidden=24,
                     bridge1=BridgeConfig(1, 2, 24),
                     bridge2=BridgeConfig(1, 2, 24))
    model = TallModel.assemble(cfg, world, lr2hr, hr2lr, llm, seed=5)
    meta, metrics = train_tall(
        model, corpus,
        train_config(learning_rate=3e-3, epochs=3, batch_size=8, seed=6,
                     eval_fraction=0.2))
    out["tall.store"] = _store_hash(model.store)
    out["tall.metrics"] = _json_hash([meta, metrics])
    sampler = sampler_config(temperature=0.7, top_k=5, top_p=0.9, seed=8)
    out["tall.eval"] = _json_hash(
        [dataclasses.asdict(r) for r in eval_tall(model, examples, sampler)])

    # direct (finetuned and from-scratch share its path) and the naive
    # round trip, on the same examples and sampler
    out["direct.eval"] = _json_hash(
        [dataclasses.asdict(r)
         for r in eval_direct(llm, world, examples, sampler)])
    out["naive.eval"] = _json_hash(
        [dataclasses.asdict(r)
         for r in eval_naive(lr2hr, llm, hr2lr, world, examples, sampler)])

    # soft prompt: warmup, and 20 sentences in batches of 8 end in a 4
    corpus_lr = [list(p.lr_tokens) for p in corpus[:20]]
    prompt, metrics = train_soft_prompt(
        llm, world, corpus_lr,
        train_config(learning_rate=5e-3, epochs=2, batch_size=8, seed=7,
                     warmup_steps=2),
        n_prompt=3)
    out["soft_prompt.store"] = _store_hash(prompt)
    out["soft_prompt.metrics"] = _json_hash(metrics)
    out["soft_prompt.eval"] = _json_hash(
        [dataclasses.asdict(r)
         for r in eval_soft_prompt(llm, prompt, world, examples, sampler)])
    return out


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_hash(golden_run, key):
    assert golden_run[key] == GOLDEN[key], key
