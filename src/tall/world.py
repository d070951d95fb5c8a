"""Synthetic bilingual world with a known ground-truth translation.

Two languages over disjoint surface vocabularies:

* HR ("high-resource") sentences are walks of a seeded order-2 Markov
  chain over ``hr_vocab_size`` symbols, stored as a few continuation
  rows and a map from each symbol pair to its row.
* The LR ("low-resource") translation of an HR sentence applies a
  seeded substitution cipher and then swaps each adjacent token pair
  (positions 2i and 2i+1; a trailing odd token stays put).  The map is
  deterministic and exactly invertible.

Three tokenizer id spaces share the special ids PAD=0 BOS=1 EOS=2 UNK=3:

* HR space: specials + HR tokens at 4 .. 4+V-1 (translator HR side).
* LR space: specials + LR tokens at 4 .. 4+V-1 (translator LR side).
* LM space: specials + all HR and LR surface tokens under a seeded
  permutation, so moving between translator ids and LM ids is a fixed,
  nontrivial remap (ids that do not survive a partial inverse map fall
  back to UNK).

Corpus generation is a pure function of (seed, index): sentence i is
drawn from its own child RNG, so regeneration and parallel sharding are
exact.
"""

from __future__ import annotations

import bisect
import copy
import hashlib
from dataclasses import dataclass, field

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
N_SPECIALS = 4


class VocabError(ValueError):
    """Token id outside the vocabulary it is being interpreted in."""


@dataclass
class ToyGrammar:
    """Order-2 Markov source over HR surface symbols.

    ``rows[row_of[a, b]]`` is the distribution of the next symbol after
    the symbol pair (a, b); index ``hr_vocab_size`` is the start state.

    The chain is structured rather than fully random: each symbol gets
    two seeded class labels (one as second-back context, one as
    previous), and the class pair selects one of the ``n_classes ** 2``
    sparse continuation ``rows`` [R, V]; ``row_of`` [V+1, V+1] holds
    that selection.  A fully random order-2 table over ~100 symbols has
    ~10k independent contexts, which no desk-scale corpus covers; the
    class structure keeps the chain genuinely order-2 while giving
    models something learnable.
    """

    hr_vocab_size: int
    min_len: int
    max_len: int
    seed: int
    branching: int
    n_classes: int
    rows: np.ndarray = field(init=False, repr=False)
    row_of: np.ndarray = field(init=False, repr=False)

    _WEIGHTS = np.array([0.55, 0.25, 0.12, 0.08])

    def __post_init__(self):
        if not 2 <= self.min_len <= self.max_len:
            raise ValueError(f"bad length bounds [{self.min_len}, {self.max_len}]")
        if not 1 <= self.branching <= len(self._WEIGHTS):
            raise ValueError(f"branching must lie in [1, {len(self._WEIGHTS)}], "
                             f"got {self.branching}")
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        v, s = self.hr_vocab_size, self.hr_vocab_size + 1
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x6772]))
        weights = self._WEIGHTS[: self.branching]
        weights = weights / weights.sum()
        c = self.n_classes
        class2 = rng.permutation(s) % c        # class of the second-back symbol
        class1 = rng.permutation(s) % c        # class of the previous symbol
        rows = np.zeros((c * c, v))
        choices = np.argsort(rng.random((c * c, v)), axis=1)[:, : self.branching]
        np.put_along_axis(rows, choices, weights[None, :], axis=1)
        self._set_rows(rows, class2[:, None] * c + class1[None, :])

    def _set_rows(self, rows: np.ndarray, row_of: np.ndarray) -> None:
        self.rows, self.row_of = rows, row_of
        # bisect on a list makes np.searchsorted's comparisons, ~10x faster
        self._cum = rows.cumsum(axis=1).tolist()
        self._row_of = row_of.tolist()

    def sample_sentence(self, rng: np.random.Generator) -> np.ndarray:
        """One sentence of HR surface symbols (0 .. hr_vocab_size-1)."""
        length = int(rng.integers(self.min_len, self.max_len + 1))
        prev2 = prev1 = self.hr_vocab_size     # the start state
        out = np.empty(length, dtype=np.int64)
        cum, row_of = self._cum, self._row_of
        for i, draw in enumerate(rng.random(length).tolist()):
            nxt = min(bisect.bisect_right(cum[row_of[prev2][prev1]], draw),
                      self.hr_vocab_size - 1)
            out[i] = nxt
            prev2, prev1 = prev1, nxt
        return out

    def perturbed(self, noise_seed: int, alpha: float) -> "ToyGrammar":
        """Domain-shifted copy: rows mixed with an independent grammar's."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"shift alpha must be in [0, 1], got {alpha}")
        noise = ToyGrammar(self.hr_vocab_size, self.min_len, self.max_len,
                           seed=noise_seed, branching=self.branching,
                           n_classes=self.n_classes)
        # mixed row i * R' + j is own row i mixed with noise row j
        mixed = (1.0 - alpha) * self.rows[:, None] + alpha * noise.rows[None]
        shifted = copy.copy(self)
        shifted._set_rows(mixed.reshape(-1, self.hr_vocab_size),
                          self.row_of * len(noise.rows) + noise.row_of)
        return shifted


@dataclass(frozen=True)
class BilingualPair:
    """Aligned sentence pair as content token ids (no specials)."""

    hr_tokens: tuple
    lr_tokens: tuple


class World:
    """Vocabularies, the cipher, and every fixed id remap."""

    def __init__(self, hr_vocab_size: int, seed: int, cipher: str,
                 pair_swap: bool):
        if cipher not in ("seeded", "identity"):
            raise ValueError(f"unknown cipher mode {cipher!r}")
        self.hr_vocab_size = hr_vocab_size
        self.seed = seed
        self.pair_swap = pair_swap
        self.vocab_hr = N_SPECIALS + hr_vocab_size
        self.vocab_lr = N_SPECIALS + hr_vocab_size
        self.vocab_lm = N_SPECIALS + 2 * hr_vocab_size
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1F3]))
        if cipher == "seeded":
            self.cipher_perm = rng.permutation(hr_vocab_size)
        else:
            self.cipher_perm = np.arange(hr_vocab_size)
        self.cipher_inv = np.argsort(self.cipher_perm)
        # LM tokenizer: specials fixed, every surface token shuffled.
        lm_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E11]))
        body = lm_rng.permutation(2 * hr_vocab_size) + N_SPECIALS
        self._union_to_lm = np.concatenate([np.arange(N_SPECIALS), body])
        self._lm_to_union = np.argsort(self._union_to_lm)

    # -- surface helpers ---------------------------------------------------

    def _check_tokens(self, ids: np.ndarray, vocab: int, space: str) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < N_SPECIALS or ids.max() >= vocab):
            raise VocabError(
                f"token id outside {space} content range "
                f"[{N_SPECIALS}, {vocab}): min {ids.min()}, max {ids.max()}"
            )
        return ids

    @staticmethod
    def _swap_pairs(ids: np.ndarray) -> np.ndarray:
        out = ids.copy()
        even = (len(ids) // 2) * 2
        out[0:even:2], out[1:even:2] = ids[1:even:2], ids[0:even:2]
        return out

    def lr_of_hr(self, hr_tokens) -> np.ndarray:
        """Cipher then adjacent-pair swap; exact inverse is hr_of_lr."""
        ids = self._check_tokens(hr_tokens, self.vocab_hr, "HR")
        lr = self.cipher_perm[ids - N_SPECIALS] + N_SPECIALS
        return self._swap_pairs(lr) if self.pair_swap else lr

    def hr_of_lr(self, lr_tokens) -> np.ndarray:
        ids = self._check_tokens(lr_tokens, self.vocab_lr, "LR")
        if self.pair_swap:
            ids = self._swap_pairs(ids)
        return self.cipher_inv[ids - N_SPECIALS] + N_SPECIALS

    # -- fixed tokenizer remaps ---------------------------------------------

    # The union vocabulary holds the HR content ids, then the LR content
    # ids shifted up by hr_vocab_size; HR and LR share one id range.

    def _to_lm(self, ids, offset: int) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        out = np.full(ids.shape, UNK, dtype=np.int64)
        special = ids < N_SPECIALS
        out[special] = ids[special]
        content = (ids >= N_SPECIALS) & (ids < self.vocab_hr)
        out[content] = self._union_to_lm[ids[content] + offset]
        return out

    def _from_lm(self, lm_id: int, offset: int) -> int | None:
        if 0 <= lm_id < N_SPECIALS:
            return int(lm_id)
        own = int(self._lm_to_union[lm_id]) - offset
        return own if N_SPECIALS <= own < self.vocab_hr else None

    def hr_to_lm(self, ids) -> np.ndarray:
        return self._to_lm(ids, 0)

    def lr_to_lm(self, ids) -> np.ndarray:
        return self._to_lm(ids, self.hr_vocab_size)

    def lm_to_hr(self, lm_id: int) -> int | None:
        return self._from_lm(lm_id, 0)

    def lm_to_lr(self, lm_id: int) -> int | None:
        return self._from_lm(lm_id, self.hr_vocab_size)


def generate_corpus(seed: int, n: int, grammar: ToyGrammar,
                    world: World) -> list[BilingualPair]:
    """n unique bilingual pairs, deterministic in (seed, n, grammar).

    Sentence candidates come from per-index child RNGs; duplicates are
    skipped, and running out of the retry budget is a ``ValueError``: the
    grammar cannot emit n distinct sentences often enough.
    """
    if n < 1:
        raise ValueError(f"corpus size must be >= 1, got {n}")
    pairs: list[BilingualPair] = []
    seen: set[tuple] = set()
    budget = 50 * n + 1000
    index = 0
    while len(pairs) < n:
        if index >= budget:
            raise ValueError(
                f"could not reach {n} unique sentences within {budget} draws"
            )
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        index += 1
        hr = grammar.sample_sentence(rng) + N_SPECIALS
        key = tuple(hr.tolist())
        if key in seen:
            continue
        seen.add(key)
        pairs.append(BilingualPair(key, tuple(world.lr_of_hr(hr).tolist())))
    return pairs


def corpus_hash(sentences) -> str:
    """Stable content hash used to stamp evaluation results."""
    h = hashlib.sha256()
    for sent in sentences:
        h.update(np.asarray(sent, dtype=np.int64).tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]
