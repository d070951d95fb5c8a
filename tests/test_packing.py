"""Packed token rows against the padded composition they replace.

Every transformer stack runs its position-wise ops on the real tokens of
a batch alone, packed into [N, d] rows; attention alone sees the [B, L]
grid.  The oracle is ``conftest.padded_rows``: the same stacks made to
compute every grid position, pad rows included, with the loss masking
the pad rows out afterwards (``masked_cross_entropy_sum``).  Pad rows
only ever receive exact-zero gradients and every sum over rows runs in
row order, so on the reference kernel the packed logits, loss and every
leaf gradient are the oracle's bytes; on BLAS, whose bytes depend on the
shape of each product, they agree to 1e-12.

Also here: a row gives the same bytes alone and in a mixed batch, a
batch whose every position is real packs by reshaping, with the tape of
the padded composition, and the masks ``tensor.attention`` derives from
the packings it is handed equal the entry-by-entry oracle
``conftest.reference_attention_bias`` at every call a model makes.
"""

import numpy as np
import pytest

from tall import evaluation, models
from tall import tensor as T
from tall.models import (CausalLM, CausalLMConfig, Seq2SeqConfig, Translator,
                         decoder_forward, pad_batch)
from tall.nn import LayerCache
from tall.pipeline import BridgeConfig, TallConfig, TallModel
from tall.tensor import Tape, Tensor
from tall.world import BOS, N_SPECIALS, PAD

from conftest import (assert_close, assert_parity, composed_attention,
                      padded_rows, padded_teacher_loss,
                      reference_attention_bias, toy_world)

S2S = Seq2SeqConfig(vocab_src=20, vocab_tgt=18, d_model=16, n_heads=2,
                    d_ff=32, enc_layers=2, dec_layers=2, max_len=12)
LM = CausalLMConfig(vocab_size=30, d_model=16, n_heads=2, d_ff=32,
                    n_layers=2, max_len=16)
# token counts before BOS or EOS: a 1-position row, a row at max_len and
# rows in between; sources and targets differ, so the decoder's memory
# lengths differ from its query lengths
SRC_LENGTHS = (4, 0, 11, 6, 2)
TGT_LENGTHS = (7, 11, 0, 3, 9)
LM_LENGTHS = (5, 0, 15, 9, 1)


def token_seqs(seed: int, lengths, vocab: int) -> list:
    rng = np.random.default_rng(seed)
    return [rng.integers(N_SPECIALS, vocab, size=n).tolist() for n in lengths]


def run(store, fn):
    """(outputs, leaf gradients of ``store``) of ``fn()``, whose first
    output is the loss; the gradients are cleared after."""
    with Tape() as tape:
        out = fn()
    tape.backward(out[0])
    grads = {}
    for name, t in store.items():
        grads[name], t.grad = t.grad, None
    return out, grads


def assert_same_grads(got: dict, want: dict, kernel: str) -> None:
    assert got.keys() == want.keys()
    largest = max(np.max(np.abs(g)) for g in want.values() if g is not None)
    for name, g in got.items():
        assert (g is None) == (want[name] is None), name
        if g is None:
            continue
        if kernel == "blas" and name.endswith(".k.bias"):
            # a key bias shifts each query's scores by one constant, so
            # its true gradient is zero and both hold rounding noise
            assert np.max(np.abs(g - want[name])) <= 1e-12 * largest, name
        else:
            assert_parity(g, want[name], kernel)


def assert_matches_padded(logits_fn, store, targets: list, kernel: str):
    """``logits_fn()``'s packed logits, summed loss and leaf gradients
    against the padded composition's; ``targets`` are the sequences
    whose labels ``logits_fn`` scores."""
    def packed():
        logits, labels = logits_fn()
        return T.cross_entropy_sum(logits, labels) + (logits,)

    (loss, n, logits), got = run(store, packed)
    (want_loss, want_n, grid, mask), want = run(
        store, lambda: padded_teacher_loss(logits_fn, targets))
    assert n == want_n == sum(len(t) + 1 for t in targets)
    assert_parity(logits.data, grid.data[mask], kernel)
    assert_parity(loss.data, want_loss.data, kernel)
    assert_same_grads(got, want, kernel)


class TestPackedMatchesPadded:
    def test_translator(self, kernel):
        tr = Translator.init(S2S, 1)
        src = token_seqs(1, SRC_LENGTHS, S2S.vocab_src)
        tgt = token_seqs(2, TGT_LENGTHS, S2S.vocab_tgt)
        assert_matches_padded(lambda: tr.teacher_logits(src, tgt), tr.store,
                              tgt, kernel)

    def test_lm(self, kernel):
        lm = CausalLM.init(LM, 2)
        seqs = token_seqs(3, LM_LENGTHS, LM.vocab_size)
        assert_matches_padded(lambda: lm.logits_for(seqs), lm.store, seqs,
                              kernel)

    def test_tall_loss(self, kernel):
        """Every stage packs: the LR prefixes, the translations (ragged
        here, where random translators would give full rows) and the
        teacher tokens each have lengths of their own."""
        world = toy_world(hr_vocab_size=16, seed=3)
        s2s = dict(n_heads=2, d_ff=24, enc_layers=2, dec_layers=2, max_len=16)
        model = TallModel.assemble(
            TallConfig(adapter1_hidden=24, adapter2_hidden=20,
                       bridge1=BridgeConfig(2, 2, 24),
                       bridge2=BridgeConfig(2, 2, 24)),
            world,
            Translator.init(Seq2SeqConfig(world.vocab_lr, world.vocab_hr,
                                          d_model=12, **s2s), 3),
            Translator.init(Seq2SeqConfig(world.vocab_hr, world.vocab_lr,
                                          d_model=12, **s2s), 4),
            CausalLM.init(CausalLMConfig(world.vocab_lm, d_model=18,
                                         n_heads=2, d_ff=24, n_layers=2,
                                         max_len=24), 5), seed=6)
        teachers = token_seqs(7, (2, 9, 5, 3, 12), world.vocab_lr)
        translations = [[BOS] + t for t in
                        token_seqs(8, (3, 0, 14, 6, 8), world.vocab_lm)]
        batch = model.make_batch(teachers, translations)

        def loss():
            logits = model.forward(batch)
            return T.cross_entropy_last_token(logits, batch.targets), logits

        (value, logits), got = run(model.store, loss)
        with padded_rows():
            (want_value, want_logits), want = run(model.store, loss)
        assert_parity(logits.data, want_logits.data, kernel)
        assert_parity(value.data, want_value.data, kernel)
        assert_same_grads(got, want, kernel)
        assert {n.split(".")[0] for n, g in got.items() if g is not None} == {
            "adapter1", "bridge1", "adapter2", "bridge2"}

    def test_soft_prompt_step(self, kernel):
        lm = CausalLM.init(LM, 4)
        prompt = Tensor(np.random.default_rng(4).normal(
            0.0, 0.1, size=(3, LM.d_model)), requires_grad=True)
        prefixes = token_seqs(5, (4, 0, 12, 7), LM.vocab_size)
        targets = np.array([5, 6, 7, 8])

        def step():
            logits = evaluation._soft_prompt_logits(lm, prompt, prefixes)
            return T.cross_entropy_last_token(logits, targets), logits

        with lm.store.frozen():
            (value, logits), _ = run(lm.store, step)
            got, prompt.grad = prompt.grad, None
            with padded_rows():
                (want_value, want_logits), _ = run(lm.store, step)
            want, prompt.grad = prompt.grad, None
        assert_parity(logits.data, want_logits.data, kernel)
        assert_parity(value.data, want_value.data, kernel)
        assert_parity(got, want, kernel)


class TestRowIndependence:
    """On the reference kernel a row's teacher-forced logits alone and in
    a mixed batch: byte-equal for the 1-token row and for the row at
    ``max_len``, within 1e-12 for the rows in between.

    Every position-wise op now runs on the row's own tokens, but
    attention normalises each query's probabilities with numpy's sum over
    the batch's grid width, and numpy adds the pad keys' exact zeros in
    8-wide blocks, so the association (not the value) of a row's sum
    depends on the width once it reaches 8.  A row with one key, or one
    whose keys span the whole grid, sums the same elements either way.
    The padded composition summed the same way, and the golden hashes
    pin it."""

    @staticmethod
    def assert_rows_alone(logits_fn, batch: list, exact: set) -> None:
        mixed = logits_fn(batch).data
        ends = np.cumsum([len(item[-1]) + 1 for item in batch])
        for i, (item, end) in enumerate(zip(batch, ends)):
            alone = logits_fn([item]).data
            in_batch = mixed[end - len(alone):end]
            if i in exact:
                assert alone.tobytes() == in_batch.tobytes(), i
            assert_close(alone, in_batch)

    def test_lm_rows(self, reference_kernel):
        """Row 4 has two positions: fewer than four keys sum the same at
        any width."""
        lm = CausalLM.init(LM, 6)
        seqs = token_seqs(6, LM_LENGTHS, LM.vocab_size)
        assert max(LM_LENGTHS) + 1 == LM.max_len and min(LM_LENGTHS) == 0
        self.assert_rows_alone(
            lambda batch: lm.logits_for([s for (s,) in batch])[0],
            [(s,) for s in seqs], exact={1, 2, 4})

    def test_translator_rows_over_memories_of_other_lengths(self,
                                                            reference_kernel):
        """Row 1 has a 1-token source and the longest target, row 2 the
        longest source and a 1-token target."""
        tr = Translator.init(S2S, 7)
        src = token_seqs(7, SRC_LENGTHS, S2S.vocab_src)
        tgt = token_seqs(8, TGT_LENGTHS, S2S.vocab_tgt)
        assert max(SRC_LENGTHS) + 1 == max(TGT_LENGTHS) + 1 == S2S.max_len
        self.assert_rows_alone(
            lambda batch: tr.teacher_logits(*zip(*batch))[0],
            list(zip(src, tgt)), exact={1, 2})


def recording_packings(monkeypatch) -> list:
    """Every packing a stack builds, as it builds it."""
    built = []
    build = models.packing

    def record(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(models, "packing", record)
    return built


class TestFullBatches:
    def test_a_full_batch_records_the_padded_tape(self, monkeypatch):
        """Rows of one length pack by reshaping, and the tape holds the
        nodes of the padded composition: per stack the token and position
        embeddings and their sum, 12 nodes per layer (19 with
        cross-attention), the final norm; then the tied head (transpose
        and product) and the loss."""
        built = recording_packings(monkeypatch)
        tr = Translator.init(S2S, 9)
        src = token_seqs(9, (5,) * 4, S2S.vocab_src)
        tgt = token_seqs(10, (7,) * 4, S2S.vocab_tgt)
        with Tape() as tape:
            T.cross_entropy_sum(*tr.teacher_logits(src, tgt))
        encoder = 3 + 12 * S2S.enc_layers + 1
        decoder = 3 + 19 * S2S.dec_layers + 1
        assert len(tape) == encoder + decoder + 2 + 1
        lm = CausalLM.init(LM, 9)
        with Tape() as tape:
            T.cross_entropy_sum(*lm.logits_for(
                token_seqs(11, (6,) * 3, LM.vocab_size)))
        assert len(tape) == 3 + 12 * LM.n_layers + 1 + 2 + 1
        assert built and all(p.index is None for p in built)

    def test_a_ragged_batch_records_the_same_tape(self):
        tr = Translator.init(S2S, 9)
        counts = []
        for lengths in ((5,) * 5, SRC_LENGTHS):
            src = token_seqs(9, lengths, S2S.vocab_src)
            tgt = token_seqs(10, lengths[::-1], S2S.vocab_tgt)
            with Tape() as tape:
                T.cross_entropy_sum(*tr.teacher_logits(src, tgt))
            counts.append(len(tape))
        assert counts[0] == counts[1]

    def test_greedy_decode_steps_are_full_batches(self, monkeypatch):
        """Each step's own packing (one new token per row, width 1) is a
        reshape; the ragged sources pack the encoder and its memory."""
        built = recording_packings(monkeypatch)
        tr = Translator.init(S2S, 10)
        tr.greedy_translate(token_seqs(10, SRC_LENGTHS, S2S.vocab_src), cap=4)
        steps = [p for p in built if p.width == 1]
        assert len(steps) == 4 and all(p.index is None for p in steps)
        assert all(p.index is not None for p in built if p.width != 1)


def test_read_past_a_real_position_is_refused():
    """A stack read at each row's last real token refuses a row with no
    real position in the call, rather than answer from the row before:
    an empty row, or a cached call's row that adds no token."""
    lm = CausalLM.init(LM, 0)
    ids, lengths = pad_batch([[BOS, 5], []])
    with pytest.raises(IndexError, match=r"rows \[1\] have no real position"):
        lm.hidden_from_ids(ids, lengths, last=True)
    cache = [LayerCache.decode(LM.max_len) for _ in range(LM.n_layers)]
    lm.hidden_from_ids(*pad_batch([[BOS, 5], [BOS, 6]]), cache=cache)
    step = np.array([[7], [PAD]])
    with pytest.raises(IndexError, match=r"rows \[1\] have no real position"):
        lm.hidden_from_ids(step, np.array([3, 2]), last=True, cache=cache)


def test_packed_input_must_match_its_lengths():
    lm = CausalLM.init(LM, 0)
    with pytest.raises(T.ShapeError, match="input has 4 rows"):
        lm.hidden_from_embeddings(Tensor(np.zeros((4, LM.d_model))),
                                  np.array([2, 3]))


def test_packing_is_row_major_over_real_positions():
    rows = models.packing(np.array([2, 0, 3]), 3)
    np.testing.assert_array_equal(rows.index, [0, 1, 6, 7, 8])
    assert rows.n == 5
    data = np.arange(1.0, 11.0).reshape(5, 2)
    grid = rows.grid(data)
    np.testing.assert_array_equal(grid[0], [[1, 2], [3, 4], [0, 0]])
    np.testing.assert_array_equal(grid[1], np.zeros((3, 2)))
    np.testing.assert_array_equal(grid[2], data[2:])
    np.testing.assert_array_equal(rows.rows(grid), data)
    cached = models.packing(np.array([4, 5]), 2, start=3)
    np.testing.assert_array_equal(cached.index, [0, 2, 3])
    assert models.packing(np.array([3, 3]), 3).index is None


def test_each_bias_is_built_once_per_stack_call(monkeypatch):
    """A two-layer decoder forward over ragged rows builds one causal
    self-attention bias and one cross-attention bias, which both layers
    use; a second forward builds its own."""
    built = []
    build = T._attention_bias

    def counting(q_rows, kv_rows, causal):
        built.append(causal)
        return build(q_rows, kv_rows, causal)

    monkeypatch.setattr(T, "_attention_bias", counting)
    tr = Translator.init(S2S, 16)
    memory, mem_lengths = tr.encode(token_seqs(16, SRC_LENGTHS, S2S.vocab_src))
    assert S2S.enc_layers == S2S.dec_layers == 2 and built == [False]
    ids, lengths = pad_batch([[BOS] + t for t in
                              token_seqs(17, TGT_LENGTHS, S2S.vocab_tgt)])
    for _ in range(2):
        built.clear()
        decoder_forward(tr.store, "decoder", S2S, ids, lengths, memory,
                        mem_lengths)
        assert sorted(built) == [False, True]


def recording_attention(monkeypatch) -> list:
    """Every ``tensor.attention`` call: its operands' data (the shared
    block's keys and values, or None), head count, packings and causal
    flag, and its output's data."""
    calls = []
    attend = T.attention

    def record(q, k, v, n_heads, q_rows, kv_rows, causal=False, shared=None):
        out = attend(q, k, v, n_heads, q_rows, kv_rows, causal, shared)
        block = None if shared is None else [T._data(x) for x in shared]
        calls.append((T._data(q), T._data(k), T._data(v), block, n_heads,
                      q_rows, kv_rows, causal, out.data))
        return out

    monkeypatch.setattr(T, "attention", record)
    return calls


def _decoder_reading_the_last_positions():
    tr = Translator.init(S2S, 11)
    memory, mem_lengths = tr.encode(token_seqs(11, SRC_LENGTHS, S2S.vocab_src))
    ids, lengths = pad_batch([[BOS] + t for t in
                              token_seqs(12, TGT_LENGTHS, S2S.vocab_tgt)])
    decoder_forward(tr.store, "decoder", S2S, ids, lengths, memory,
                    mem_lengths, last=True)


def _soft_prompt():
    prompt = Tensor(np.random.default_rng(13).normal(0.0, 0.1,
                                                      size=(3, LM.d_model)))
    evaluation._soft_prompt_logits(CausalLM.init(LM, 13), prompt,
                                   token_seqs(13, (4, 0, 12, 7), LM.vocab_size))


# each shape: a run, and the calls of that run that show the shape
MASK_SHAPES = {
    "padded_encoder": (
        lambda: Translator.init(S2S, 10).encode(
            token_seqs(10, SRC_LENGTHS, S2S.vocab_src)),
        lambda q, kv, causal: not causal and kv.index is not None),
    "causal_decoder_with_read": (
        _decoder_reading_the_last_positions,
        lambda q, kv, causal: causal and np.ndim(q.start) == 1),
    "cached_greedy_step": (
        lambda: Translator.init(S2S, 12).greedy_translate(
            token_seqs(12, SRC_LENGTHS, S2S.vocab_src), cap=3),
        lambda q, kv, causal: causal and q.width == 1 and np.all(q.start > 0)),
    "cross_attention_to_a_padded_memory": (
        lambda: Translator.init(S2S, 14).teacher_logits(
            token_seqs(14, SRC_LENGTHS, S2S.vocab_src),
            token_seqs(15, TGT_LENGTHS, S2S.vocab_tgt)),
        lambda q, kv, causal: (not causal and kv is not q
                               and np.any(kv.lengths < kv.width))),
    "shared_prompt_block": (
        _soft_prompt,
        lambda q, kv, causal: causal and kv.batch > 1 and kv.start == 3),
}


@pytest.mark.parametrize("shape", MASK_SHAPES)
def test_attention_masks_match_the_oracle(shape, reference_kernel,
                                          monkeypatch):
    """At every attention call of the run, the bias ``attention`` builds
    is the oracle's (None: every entry 0), and its output is the bytes of
    the primitive composition over the grids with the oracle's bias.  The
    key columns past each row's length are its pad columns: the key grid
    holds exact zeros there and nowhere else.  A call with a shared block
    matches the composition over the block copied in front of every
    row's keys, with every block key visible, within 1e-12: the two sum
    the block's keys and the row keys in another order."""
    run_model, shows_shape = MASK_SHAPES[shape]
    calls = recording_attention(monkeypatch)
    run_model()
    assert any(shows_shape(call[5], call[6], call[7]) for call in calls)
    hidden = 0
    for q, k, v, block, n_heads, q_rows, kv_rows, causal, out in calls:
        want = reference_attention_bias(q_rows, kv_rows, causal)
        got = T._attention_bias(q_rows, kv_rows, causal)
        np.testing.assert_array_equal(
            np.broadcast_to(0.0 if got is None else got[:, None], want.shape),
            want)
        grids = [q_rows.grid(q)] + [kv_rows.grid(a) for a in (k, v)]
        np.testing.assert_array_equal(
            np.all(grids[1] == 0, axis=-1),
            kv_rows.start + np.arange(kv_rows.width)
            >= kv_rows.lengths[:, None])
        hidden += int(np.any(want != 0))
        if block is None:
            composed = composed_attention(*map(Tensor, grids), want, n_heads)
            assert q_rows.rows(composed.data).tobytes() == out.tobytes()
            continue
        b, n_shared = q_rows.batch, len(block[0])
        keys, values = (np.concatenate(
            [np.broadcast_to(x, (b,) + x.shape), grid], axis=1)
            for x, grid in zip(block, grids[1:]))
        want = np.concatenate([np.zeros(want.shape[:3] + (n_shared,)), want],
                              axis=-1)
        composed = composed_attention(Tensor(grids[0]), Tensor(keys),
                                      Tensor(values), want, n_heads)
        assert_close(out, q_rows.rows(composed.data))
    assert hidden > 0
