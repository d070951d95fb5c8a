"""Cached greedy decoding against a full-recompute oracle.

``Translator.greedy_translate`` runs the decoder one token per step with
per-layer key/value caches.  The oracle below is the plain loop: at every
step it reruns the uncached ``decoder_forward`` over the whole prefix and
reads the last position.  Both must pick the same tokens, and the logits
each step reads must agree to 1e-12 (the cached path sums over the same
keys in a different einsum shape, so the last bits may differ).
"""

import numpy as np
import pytest

from tall import models
from tall.models import (Seq2SeqConfig, Translator, decoder_forward,
                         pad_batch, tied_logits)
from tall.tensor import ShapeError
from tall.world import BOS, EOS, N_SPECIALS, PAD

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
        last = logits[np.arange(b), dec_lengths - 1]
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
        logits = tied_logits(hidden, tr.store["decoder.tgt_embed"]).data
        step_logits.append(logits[:, -1])
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
