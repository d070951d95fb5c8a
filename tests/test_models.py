"""Cached greedy decoding against a full-recompute oracle, the stacks'
``last`` rows against every position, and a prefix cache shared by
every row of a call against the prefix copied into every row.

``Translator.greedy_translate`` runs the decoder one token per step with
per-layer key/value caches.  The oracle below is the plain loop: at every
step it reruns the uncached ``decoder_forward`` over the whole prefix and
reads the last position.  Both must pick the same tokens, and the logits
each step reads must agree to 1e-12 (the cached path sums over the same
keys in a different einsum shape, so the last bits may differ).
"""

import hashlib

import numpy as np
import pytest

from tall import models
from tall import tensor as T
from tall.models import (CausalLM, CausalLMConfig, Seq2SeqConfig, Translator,
                         decoder_forward, pad_batch, tied_logits)
from tall.nn import LayerCache
from tall.tensor import ShapeError, Tape, Tensor
from tall.world import BOS, EOS, N_SPECIALS, PAD

from conftest import (assert_close, assert_parity, broadcast_to, concat, mul,
                      reshape, sum_all)

CFG = Seq2SeqConfig(vocab_src=20, vocab_tgt=18, d_model=16, n_heads=2,
                    d_ff=32, enc_layers=2, dec_layers=2, max_len=12)
SOURCE_LENGTHS = (1, 3, 5, 8, 10, 2)


def ragged_sources(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.integers(N_SPECIALS, CFG.vocab_src, size=n).tolist()
            for n in SOURCE_LENGTHS]


def full_recompute_greedy(tr: Translator, src_seqs: list, cap=None):
    """(tokens, last-position logits of every step), recomputing each step."""
    cap = cap if cap is not None else tr.cfg.max_len - 1
    memory, mem_lengths = tr.encode(src_seqs)
    b = len(src_seqs)
    ys = [[BOS] for _ in range(b)]
    done = np.zeros(b, dtype=bool)
    step_logits = []
    for _ in range(cap):
        dec_ids, dec_lengths = pad_batch(ys)
        hidden = decoder_forward(tr.store, "decoder", tr.cfg, dec_ids,
                                 dec_lengths, memory, mem_lengths)
        logits = tied_logits(hidden, tr.store["decoder.tgt_embed"]).data
        last = logits[np.cumsum(dec_lengths) - 1]
        step_logits.append(last)
        nxt = last.argmax(axis=1)
        for i in range(b):
            if done[i]:
                ys[i].append(PAD)
            elif nxt[i] == EOS:
                done[i] = True
                ys[i].append(PAD)
            else:
                ys[i].append(int(nxt[i]))
        if done.all():
            break
    return [[t for t in y[1:] if t != PAD] for y in ys], step_logits


def cached_greedy(tr: Translator, src_seqs: list, monkeypatch, cap=None):
    """(tokens, last-position logits of every step) from greedy_translate."""
    step_logits = []

    def recording(*args, **kwargs):
        hidden = decoder_forward(*args, **kwargs)
        step_logits.append(
            tied_logits(hidden, tr.store["decoder.tgt_embed"]).data)
        return hidden

    monkeypatch.setattr(models, "decoder_forward", recording)
    return tr.greedy_translate(src_seqs, cap=cap), step_logits


def assert_same_decode(tr, src_seqs, monkeypatch, cap=None):
    want, want_logits = full_recompute_greedy(tr, src_seqs, cap)
    got, got_logits = cached_greedy(tr, src_seqs, monkeypatch, cap)
    assert got == want
    assert len(got_logits) == len(want_logits)
    for step, (g, w) in enumerate(zip(got_logits, want_logits)):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12, f"step {step}"
    return got, got_logits


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
def test_cached_decode_matches_full_recompute(seed, monkeypatch):
    tr = Translator.init(CFG, seed)
    assert_same_decode(tr, ragged_sources(seed), monkeypatch)


@pytest.mark.parametrize("seed,scale", [(1, 2.0), (2, 3.0)])
def test_rows_that_finish_early(seed, scale, monkeypatch):
    tr = Translator.init(CFG, seed)
    tr.store["decoder.tgt_embed"].data[EOS] *= scale
    got, step_logits = assert_same_decode(tr, ragged_sources(seed),
                                          monkeypatch)
    # Some row emits EOS before the last step, and decoding runs on to
    # the cap for the rows that have not.
    first_eos = [step for step, logits in enumerate(step_logits)
                 if (logits.argmax(axis=1) == EOS).any()]
    assert first_eos and first_eos[0] < len(step_logits) - 1
    assert max(len(toks) for toks in got) == CFG.max_len - 1


def test_cap_one(monkeypatch):
    tr = Translator.init(CFG, 5)
    got, _ = assert_same_decode(tr, ragged_sources(5), monkeypatch, cap=1)
    assert all(len(toks) <= 1 for toks in got)


def test_empty_input():
    assert Translator.init(CFG, 0).greedy_translate([]) == []


def test_cap_past_the_position_table_is_refused():
    tr = Translator.init(CFG, 0)
    with pytest.raises(ShapeError, match="decoder.pos"):
        tr.greedy_translate([[N_SPECIALS]], cap=CFG.max_len + 1)


def test_greedy_decoding_keeps_its_bytes(reference_kernel, monkeypatch):
    """The tokens and every step's logits of four decodes, pinned: a
    decode buffer holds the keys and values the cache grids held."""
    digest = hashlib.sha256()
    for seed in (0, 3, 7, 11):
        tokens, step_logits = cached_greedy(Translator.init(CFG, seed),
                                            ragged_sources(seed), monkeypatch)
        digest.update(repr(tokens).encode())
        for logits in step_logits:
            digest.update(logits.tobytes())
    assert digest.hexdigest() == (
        "8a3d5dab36a48d173b1115301bbf2e53d801b0fcc1625e6d371409de7a294e53")


def test_each_decode_buffer_is_allocated_once_per_call(monkeypatch):
    """Every step writes into the same [B, cap, d] key and value buffers
    of each layer, and attends to a view of their filled columns."""
    seen = []

    def recording(*args, **kwargs):
        hidden = decoder_forward(*args, **kwargs)
        cache = args[7]
        seen.append([(c.self_attn.keys, c.self_attn.values, c.self_attn.length)
                     for c in cache])
        return hidden

    monkeypatch.setattr(models, "decoder_forward", recording)
    sources = ragged_sources(4)
    Translator.init(CFG, 4).greedy_translate(sources, cap=6)
    assert len(seen) == 6
    for step, layers in enumerate(seen):
        assert len(layers) == CFG.dec_layers
        for (k, v, length), (k0, v0, _) in zip(layers, seen[0]):
            assert k is k0 and v is v0 and length == step + 1
            assert k.shape == v.shape == (len(sources), 6, CFG.d_model)


def test_a_decode_cache_is_refused_under_a_tape():
    lm = CausalLM.init(LM_CFG, 0)
    ids, lengths = lm_tokens(0, (2, 3))
    cache = [LayerCache.decode(LM_CFG.max_len) for _ in range(LM_CFG.n_layers)]
    with Tape(), pytest.raises(T.ContractError, match="under a tape"):
        lm.hidden_from_ids(ids, lengths, cache=cache)


def test_a_decode_cache_holds_at_most_its_capacity():
    lm = CausalLM.init(LM_CFG, 0)
    ids, lengths = lm_tokens(0, (2, 3))
    cache = [LayerCache.decode(4) for _ in range(LM_CFG.n_layers)]
    lm.hidden_from_ids(ids, lengths, cache=cache)
    with pytest.raises(T.ContractError, match="4 positions cannot take 6"):
        lm.hidden_from_ids(ids, lengths + 3, cache=cache)


# ---------------------------------------------------------------------------
# read: the last layer and the head run on the positions a caller reads

LM_CFG = CausalLMConfig(vocab_size=30, d_model=16, n_heads=2, d_ff=32,
                        n_layers=2, max_len=16)


def test_next_token_logits_are_the_final_rows_of_every_position(kernel):
    lm = CausalLM.init(LM_CFG, 3)
    rng = np.random.default_rng(3)
    prefixes = [rng.integers(N_SPECIALS, LM_CFG.vocab_size, size=n).tolist()
                for n in (1, 4, 9, 2, 14)]
    ids, lengths = pad_batch([[BOS] + p for p in prefixes])
    full = tied_logits(lm.hidden_from_ids(ids, lengths),
                       lm.store["tok_embed"]).data
    assert_parity(lm.next_token_logits(prefixes),
                  full[np.cumsum(lengths) - 1], kernel)


def lm_tokens(seed: int, lengths) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return pad_batch([rng.integers(N_SPECIALS, LM_CFG.vocab_size,
                                   size=n).tolist() for n in lengths])


def test_read_with_a_cache_takes_the_rows_of_the_same_call(reference_kernel):
    lm = CausalLM.init(LM_CFG, 4)
    first, first_lengths = lm_tokens(4, (4, 4, 4))
    ids, lengths = lm_tokens(5, (1, 5, 3))

    def continued(last):
        cache = [LayerCache.decode(LM_CFG.max_len)
                 for _ in range(LM_CFG.n_layers)]
        lm.hidden_from_ids(first, first_lengths, cache=cache)
        return lm.hidden_from_ids(ids, first_lengths + lengths, last, cache)

    got = continued(True)
    want = T.take_rows(continued(False), np.cumsum(lengths) - 1)
    assert got.data.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# a prefix cache: one prefix every row of the next call shares

N_SHARED = 3


def prefix_then_rows(lm: CausalLM, prefix: np.ndarray,
                     tiled: bool) -> tuple[np.ndarray, dict]:
    """(hidden states, gradients) of four token rows that follow
    ``prefix`` [P, d]: through prefix caches, or with the prefix copied
    into every row and the stack run over all P + L positions of each."""
    ids, lengths = lm_tokens(6, (2, 6, 1, 4))
    b, d = len(lengths), LM_CFG.d_model
    weights = models.packing(lengths, ids.shape[1]).rows(
        np.random.default_rng(7).normal(size=ids.shape + (d,)))
    p = Tensor(prefix, requires_grad=True)
    with Tape() as tape:
        if tiled:
            block = broadcast_to(reshape(p, (1,) + prefix.shape),
                                 (b,) + prefix.shape)
            grid = concat([block, T.embedding(lm.store["tok_embed"], ids)],
                          axis=1)
            full = lengths + N_SHARED
            rows = models.packing(full, grid.shape[1]).rows(
                np.arange(grid.shape[0] * grid.shape[1]).reshape(grid.shape[:2]))
            hidden = lm.hidden_from_embeddings(
                T.take_rows(reshape(grid, (-1, d)), rows), full)
            ends = np.cumsum(full)
            hidden = T.take_rows(hidden, np.concatenate(
                [np.arange(e - n, e) for e, n in zip(ends, lengths)]))
        else:
            cache = [LayerCache.prefix() for _ in range(LM_CFG.n_layers)]
            lm.hidden_from_embeddings(p, np.array([N_SHARED]), cache=cache)
            hidden = lm.hidden_from_ids(ids, lengths + N_SHARED, cache=cache)
        loss = sum_all(mul(hidden, weights))
    tape.backward(loss)
    grads = {"prefix": p.grad}
    for name, t in lm.store.items():
        grads[name], t.grad = t.grad, None
    return hidden.data, grads


def test_a_one_row_cache_is_the_same_cache_tiled(kernel):
    lm = CausalLM.init(LM_CFG, 8)
    prefix = np.random.default_rng(8).normal(
        0.0, 0.1, size=(N_SHARED, LM_CFG.d_model))
    got, got_grads = prefix_then_rows(lm, prefix, tiled=False)
    want, want_grads = prefix_then_rows(lm, prefix, tiled=True)
    # the block's keys and the row keys sum in another order: close, not
    # equal, on either kernel
    assert_close(got, want)
    assert got_grads.keys() == want_grads.keys()
    largest = max(np.max(np.abs(g)) for g in want_grads.values())
    for name, g in got_grads.items():
        if name.endswith(".k.bias"):
            # a key bias shifts each query's scores by one constant, so
            # its true gradient is zero and both hold rounding noise
            assert np.max(np.abs(g - want_grads[name])) <= 1e-12 * largest
        else:
            assert_close(g, want_grads[name])


def test_a_prefix_cache_does_not_grow():
    """A second token call on the same prefix caches gives the bytes of
    the first, and a prefix is filled by one row."""
    lm = CausalLM.init(LM_CFG, 9)
    prefix = Tensor(np.random.default_rng(9).normal(
        0.0, 0.1, size=(N_SHARED, LM_CFG.d_model)))
    ids, lengths = lm_tokens(9, (3, 1, 5))
    cache = [LayerCache.prefix() for _ in range(LM_CFG.n_layers)]
    lm.hidden_from_embeddings(prefix, np.array([N_SHARED]), cache=cache)
    first = lm.hidden_from_ids(ids, lengths + N_SHARED, cache=cache).data
    assert all(c.self_attn.length == N_SHARED for c in cache)
    second = lm.hidden_from_ids(ids, lengths + N_SHARED, cache=cache).data
    assert first.tobytes() == second.tobytes()
    with pytest.raises(ShapeError, match="filled by one row, got 2"):
        lm.hidden_from_embeddings(
            Tensor(np.zeros((2 * N_SHARED, LM_CFG.d_model))),
            np.full(2, N_SHARED),
            cache=[LayerCache.prefix() for _ in range(LM_CFG.n_layers)])


def test_a_cache_of_neither_one_row_nor_every_row_is_refused():
    lm = CausalLM.init(LM_CFG, 0)
    first, first_lengths = lm_tokens(0, (2, 2))
    ids, lengths = lm_tokens(1, (1, 3, 2))
    cache = [LayerCache.decode(LM_CFG.max_len) for _ in range(LM_CFG.n_layers)]
    lm.hidden_from_ids(first, first_lengths, cache=cache)
    with pytest.raises(ShapeError, match="attention 'layers.0.self_attn' "
                                         "got 3 rows against a cache of 2"):
        lm.hidden_from_ids(ids, lengths + 2, cache=cache)
