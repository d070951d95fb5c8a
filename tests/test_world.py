import itertools

import numpy as np
import pytest
from conftest import (reference_sentence, reference_transition, toy_grammar,
                      toy_world)

from tall.world import (
    BOS,
    EOS,
    N_SPECIALS,
    PAD,
    UNK,
    BilingualPair,
    VocabError,
    corpus_hash,
    generate_corpus,
)


@pytest.fixture(scope="module")
def grammar():
    return toy_grammar(hr_vocab_size=96, seed=11)


@pytest.fixture(scope="module")
def world():
    return toy_world(hr_vocab_size=96, seed=11)


class TestGrammar:
    def test_rows_are_distributions(self, grammar):
        sums = grammar.rows.sum(axis=1)
        assert grammar.rows.shape == (16, 96)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert grammar.row_of.shape == (97, 97)
        assert set(np.unique(grammar.row_of)) == set(range(16))

    def test_sampling_deterministic(self, grammar):
        a = grammar.sample_sentence(np.random.default_rng(3))
        b = grammar.sample_sentence(np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_perturbed_still_distribution(self, grammar):
        shifted = grammar.perturbed(noise_seed=99, alpha=0.25)
        sums = shifted.rows.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert np.any(shifted.rows[shifted.row_of]
                      != grammar.rows[grammar.row_of])
        # one mixed row per (own row, noise row) pair, nothing per symbol pair
        assert shifted.rows.shape == (16 * 16, 96)
        assert all(np.ndim(x) < 3 for x in vars(shifted).values())

    def test_full_shift_of_a_two_class_grammar_is_its_noise_grammar(self):
        two = toy_grammar(seed=5, n_classes=2)
        shifted = two.perturbed(77, 1.0)
        noise = toy_grammar(seed=77, n_classes=2)
        for i in range(200):
            np.testing.assert_array_equal(
                shifted.sample_sentence(np.random.default_rng(i)),
                noise.sample_sentence(np.random.default_rng(i)))

    def test_bad_alpha(self, grammar):
        with pytest.raises(ValueError):
            grammar.perturbed(1, alpha=1.5)


@pytest.mark.parametrize("seed, n_classes, branching, alpha", list(
    itertools.product((0, 3, 7), (1, 2, 4), (1, 4), (None, 0.25, 0.6, 1.0))))
def test_grammar_matches_the_materialized_table(seed, n_classes, branching,
                                                alpha):
    """Rows and row map reproduce every entry of the [V+1, V+1, V] table,
    shifted by ``alpha`` toward noise seed 901, and sample the same
    sentences as its ``np.searchsorted`` walk."""
    grammar = toy_grammar(seed=seed, n_classes=n_classes, branching=branching)
    shift = None if alpha is None else (901, alpha)
    if shift is not None:
        grammar = grammar.perturbed(*shift)
    cum = reference_transition(96, seed, branching, n_classes, shift)
    assert np.cumsum(grammar.rows, axis=1)[grammar.row_of].tobytes() \
        == cum.tobytes()
    for i in range(100):
        rng = np.random.SeedSequence([seed, i])
        np.testing.assert_array_equal(
            grammar.sample_sentence(np.random.default_rng(rng)),
            reference_sentence(cum, grammar.min_len, grammar.max_len,
                               np.random.default_rng(rng)))


class TestCipher:
    def test_empty(self, world):
        assert world.lr_of_hr(np.array([], dtype=np.int64)).size == 0

    def test_pair_swap_definition(self, world):
        hr = np.array([4, 5, 6, 7])
        lr = world.lr_of_hr(hr)
        pi = lambda x: world.cipher_perm[x - N_SPECIALS] + N_SPECIALS
        np.testing.assert_array_equal(lr, [pi(5), pi(4), pi(7), pi(6)])

    def test_odd_length_keeps_tail(self, world):
        hr = np.array([4, 5, 6])
        lr = world.lr_of_hr(hr)
        pi = lambda x: world.cipher_perm[x - N_SPECIALS] + N_SPECIALS
        np.testing.assert_array_equal(lr, [pi(5), pi(4), pi(6)])

    def test_inverse_composition(self, world):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(1, 15))
            hr = rng.integers(N_SPECIALS, world.vocab_hr, size=n)
            np.testing.assert_array_equal(world.hr_of_lr(world.lr_of_hr(hr)), hr)

    def test_out_of_vocab(self, world):
        with pytest.raises(VocabError):
            world.lr_of_hr(np.array([world.vocab_hr]))
        with pytest.raises(VocabError):
            world.lr_of_hr(np.array([PAD]))

    def test_identity_cipher_no_swap(self):
        w = toy_world(hr_vocab_size=8, seed=0, cipher="identity",
                      pair_swap=False)
        hr = np.array([4, 9, 6])
        np.testing.assert_array_equal(w.lr_of_hr(hr), hr)


class TestLmRemap:
    def test_specials_fixed(self, world):
        for sid in (PAD, BOS, EOS, UNK):
            assert world.hr_to_lm(np.array([sid]))[0] == sid
            assert world.lr_to_lm(np.array([sid]))[0] == sid

    def test_roundtrip_hr(self, world):
        ids = np.arange(N_SPECIALS, world.vocab_hr)
        lm = world.hr_to_lm(ids)
        back = np.array([world.lm_to_hr(int(i)) for i in lm])
        np.testing.assert_array_equal(back, ids)

    def test_roundtrip_lr(self, world):
        ids = np.arange(N_SPECIALS, world.vocab_lr)
        lm = world.lr_to_lm(ids)
        back = np.array([world.lm_to_lr(int(i)) for i in lm])
        np.testing.assert_array_equal(back, ids)

    def test_hr_and_lr_images_disjoint(self, world):
        hr_img = set(world.hr_to_lm(np.arange(N_SPECIALS, world.vocab_hr)).tolist())
        lr_img = set(world.lr_to_lm(np.arange(N_SPECIALS, world.vocab_lr)).tolist())
        assert not hr_img & lr_img
        assert len(hr_img | lr_img) == world.vocab_lm - N_SPECIALS

    def test_partial_inverse_is_none_across_languages(self, world):
        lr_lm_id = int(world.lr_to_lm(np.array([7]))[0])
        assert world.lm_to_hr(lr_lm_id) is None

    def test_unknown_id_maps_to_unk(self, world):
        assert world.hr_to_lm(np.array([world.vocab_hr + 5]))[0] == UNK


class TestCorpus:
    def test_deterministic(self, grammar, world):
        a = generate_corpus(7, 50, grammar, world)
        b = generate_corpus(7, 50, grammar, world)
        assert a == b

    def test_lengths_within_bounds(self, grammar, world):
        pairs = generate_corpus(7, 1000, grammar, world)
        lengths = [len(p.hr_tokens) for p in pairs]
        assert min(lengths) >= grammar.min_len
        assert max(lengths) <= grammar.max_len

    def test_no_duplicates(self, grammar, world):
        pairs = generate_corpus(7, 1000, grammar, world)
        assert len({p.hr_tokens for p in pairs}) == len(pairs)

    def test_pairs_consistent_with_cipher(self, grammar, world):
        for p in generate_corpus(3, 20, grammar, world):
            np.testing.assert_array_equal(
                world.lr_of_hr(np.array(p.hr_tokens)), np.array(p.lr_tokens)
            )

    def test_retry_budget_error(self, world):
        tiny = toy_grammar(hr_vocab_size=4, min_len=2, max_len=2, seed=0,
                           branching=1)
        with pytest.raises(ValueError, match="could not reach 40 unique"):
            generate_corpus(0, 40, tiny, toy_world(hr_vocab_size=4, seed=0))

    def test_corpus_hash_stable(self, grammar, world):
        pairs = generate_corpus(1, 10, grammar, world)
        h1 = corpus_hash([p.lr_tokens for p in pairs])
        h2 = corpus_hash([p.lr_tokens for p in pairs])
        assert h1 == h2
        h3 = corpus_hash([p.hr_tokens for p in pairs])
        assert h1 != h3
