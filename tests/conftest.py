"""Shared test helpers and oracles.

Helpers: ``train_config``, ``sampler_config``, ``toy_world`` and
``toy_grammar`` build ``TrainConfig``, ``SamplerConfig``, ``World`` and
``ToyGrammar``, which have no defaults of their own, from the defaults
of their ``config`` sections with the keywords a test names replaced;
so a test's bare config is the shipped one.  ``read_only_outputs`` makes
every op's output read-only, to show that no kernel writes into its
operands.  ``kept_arrays`` and ``kept_bytes`` find the arrays a tape's
backward closures keep alive.

Oracles: the einsum reference kernel, the primitive compositions the
fused tape nodes replace (with ``batched_matmul``, the batched product
only ``composed_attention`` needs), the attention masks written out
entry by entry (``reference_attention_bias``), the all-positions stack that
``last`` replaces, the padded stacks and masked loss that packed rows
replace (``padded_rows``, ``masked_cross_entropy_sum``,
``padded_teacher_loss``), the per-row soft prompt that the shared prompt
cache replaces, the finite-difference gradient check, and the tape ops
and parameter count that only tests use (``mul``, ``scale``, ``reshape``,
``broadcast_to``, ``concat``, ``sum_all``, ``mean_all``,
``trainable_param_count``), the grammar as a
materialized [V+1, V+1, V] transition table with its ``np.searchsorted``
sampler, and
the benchmark configuration built by hand, field by field.

``tensor.matmul`` and ``batched_matmul`` compute every product with one
private kernel, ``tensor._product`` (BLAS).  BLAS results are
deterministic for fixed shapes but not bit-identical to a sequential
triple loop, and a row's bytes depend on the shape of the whole product.
Tests that pin exact bytes (the golden hashes, the triple-loop and
per-slice checks) run with the reference swapped in for that kernel.
"""

import contextlib
import dataclasses
import inspect

import numpy as np
import pytest

from tall import config, evaluation, models, pipeline, pretrain, tensor
from tall.config import (RunConfig, SamplerSection, SoftPromptSection,
                         TrainSection, WorldSection)
from tall.evaluation import SamplerConfig
from tall.pretrain import TrainConfig
from tall.world import BOS, EOS, ToyGrammar, World


def train_config(**kw) -> TrainConfig:
    """``TrainSection()``'s schedule at seed 0, with ``kw`` replaced."""
    return dataclasses.replace(TrainSection().to_train_config(0), **kw)


def sampler_config(**kw) -> SamplerConfig:
    """``SamplerSection()``'s sampler at seed 0, with ``kw`` replaced."""
    return dataclasses.replace(SamplerSection().to_sampler(0), **kw)


def _with_world(kw) -> RunConfig:
    return RunConfig(world=dataclasses.replace(WorldSection(), **kw))


def toy_world(**kw) -> World:
    """The world ``WorldSection()`` builds, with ``kw`` replaced."""
    return config.build_world(_with_world(kw))


def toy_grammar(**kw) -> ToyGrammar:
    """The grammar ``WorldSection()`` builds, with ``kw`` replaced."""
    return config.build_grammar(_with_world(kw))


def reference_product(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """``[..., m, k] @ [..., k, n]``, accumulated over k in order.

    ``np.einsum`` sums in another order on strided operands, so both are
    first copied to C order: the bytes depend only on the operands'
    values and shapes, not on the views the kernel hands in.  With
    ``out`` the product is copied into it, as ``np.matmul`` writes it.
    """
    prod = np.einsum("...ik,...kj->...ij", np.ascontiguousarray(a),
                     np.ascontiguousarray(b))
    if out is None:
        return prod
    out[...] = prod
    return out


def mul(a, b):
    """Elementwise product with broadcasting, one tape node."""
    a_d, b_d = tensor._data(a), tensor._data(b)
    out = tensor.Tensor(a_d * b_d)

    def bwd(g):
        ga = (tensor._unbroadcast(g * b_d, a_d.shape)
              if tensor._needs_grad(a) else None)
        gb = (tensor._unbroadcast(g * a_d, b_d.shape)
              if tensor._needs_grad(b) else None)
        return ga, gb

    return tensor._register(out, (a, b), bwd)


def scale(a, c: float):
    """``a`` times the constant ``c``, one tape node."""
    out = tensor.Tensor(a.data * c)

    def bwd(g):
        return (g * c,)

    return tensor._register(out, (a,), bwd)


def sum_all(a):
    """The sum of every entry, as a scalar tensor."""
    out = tensor.Tensor(a.data.sum())

    def bwd(g):
        return (np.full_like(a.data, float(g)),)

    return tensor._register(out, (a,), bwd)


def reshape(a, shape):
    """``a`` in another shape, one tape node."""
    out = tensor.Tensor(a.data.reshape(shape))

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return tensor._register(out, (a,), bwd)


def broadcast_to(a, shape):
    """A read-only view of ``a`` in ``shape``; backward sums the broadcast
    axes, one tape node."""
    out = tensor.Tensor(np.broadcast_to(a.data, shape))

    def bwd(g):
        return (tensor._unbroadcast(g, a.data.shape),)

    return tensor._register(out, (a,), bwd)


def concat(parts: list, axis: int):
    """``parts`` joined along ``axis``; backward splits the gradient, one
    tape node."""
    datas = [tensor._data(p) for p in parts]
    out = tensor.Tensor(np.concatenate(datas, axis=axis))
    splits = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def bwd(g):
        return [piece if tensor._needs_grad(p) else None
                for p, piece in zip(parts, np.split(g, splits, axis=axis))]

    return tensor._register(out, tuple(parts), bwd)


def mean_all(a):
    return scale(sum_all(a), 1.0 / a.size)


def trainable_param_count(store) -> tuple[int, int]:
    """(total, trainable) element counts of a ``ParamStore``."""
    total = sum(t.size for _, t in store.items())
    trainable = sum(t.size for _, t in store.trainable_items())
    return total, trainable


def reference_transition(hr_vocab_size=96, seed=0, branching=4,
                         n_classes=4, shift=None) -> np.ndarray:
    """The grammar's cumulative transition table [V+1, V+1, V], built by
    materializing one continuation row per symbol pair; ``shift`` =
    (noise_seed, alpha) first mixes in, entry by entry, the table of a
    grammar of the same shape seeded with noise_seed."""
    def table(seed):
        v, s, c = hr_vocab_size, hr_vocab_size + 1, n_classes
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6772]))
        weights = np.array([0.55, 0.25, 0.12, 0.08])[:branching]
        weights = weights / weights.sum()
        class2 = rng.permutation(s) % c
        class1 = rng.permutation(s) % c
        bucket_rows = np.zeros((c * c, v))
        choices = np.argsort(rng.random((c * c, v)), axis=1)[:, :branching]
        np.put_along_axis(bucket_rows, choices, weights[None, :], axis=1)
        return bucket_rows[class2[:, None] * c + class1[None, :]]

    transition = table(seed)
    if shift is not None:
        noise_seed, alpha = shift
        transition = (1.0 - alpha) * transition + alpha * table(noise_seed)
    return transition.cumsum(axis=2)


def reference_sentence(cum: np.ndarray, min_len: int, max_len: int,
                       rng: np.random.Generator) -> np.ndarray:
    """One sentence drawn from the cumulative table ``cum`` [V+1, V+1, V]."""
    v = cum.shape[-1]
    length = int(rng.integers(min_len, max_len + 1))
    prev2 = prev1 = v
    out = np.empty(length, dtype=np.int64)
    draws = rng.random(length)
    for i in range(length):
        nxt = min(int(np.searchsorted(cum[prev2, prev1], draws[i],
                                      side="right")), v - 1)
        out[i] = nxt
        prev2, prev1 = prev1, nxt
    return out


def reference_benchmark_config(seed: int) -> RunConfig:
    """The benchmark scale, built by assigning each field it sets."""
    cfg = RunConfig()
    cfg.world.seed = seed
    cfg.world.train_pairs = 6000
    cfg.world.eval_size = 2000
    cfg.world.eval_seed = 9000 + seed
    cfg.train.translator = TrainSection(learning_rate=1.5e-3, epochs=3)
    cfg.train.llm = TrainSection(learning_rate=1.2e-3, epochs=4,
                                 batch_size=8, grad_accum_steps=8)
    cfg.train.tall = TrainSection(learning_rate=1.5e-3, epochs=4,
                                  eval_fraction=0.03)
    cfg.train.soft_prompt = SoftPromptSection(epochs=2)
    return cfg


def composed_linear(x, w, b):
    """``tensor.linear`` as the primitives it fuses: matmul, then add."""
    return tensor.add(tensor.matmul(x, w), b)


def batched_matmul(a, b):
    """``[..., m, k] @ [..., k, n]`` with equal leading dimensions, one
    tape node on ``tensor._product`` (so the reference kernel swaps it)."""
    a_d, b_d = tensor._data(a), tensor._data(b)
    if a_d.shape[:-2] != b_d.shape[:-2] or a_d.shape[-1] != b_d.shape[-2]:
        raise tensor.ShapeError(f"batched_matmul shapes disagree: "
                                f"{a_d.shape} x {b_d.shape}")
    out = tensor.Tensor(tensor._product(a_d, b_d))

    def bwd(g):
        ga = (tensor._product(g, np.swapaxes(b_d, -1, -2))
              if tensor._needs_grad(a) else None)
        gb = (tensor._product(np.swapaxes(a_d, -1, -2), g)
              if tensor._needs_grad(b) else None)
        return ga, gb

    return tensor._register(out, (a, b), bwd)


def composed_attention(q, k, v, bias, n_heads: int):
    """``tensor.attention`` as the primitives it fuses: head split,
    scaled scores, bias, softmax, context and head merge, one node each."""
    b, lq, d = q.shape
    lkv = k.shape[1]
    hd = d // n_heads

    def split(x, length):
        return tensor.swapaxes(reshape(x, (b, length, n_heads, hd)), 1, 2)

    scores = scale(
        batched_matmul(split(q, lq), tensor.swapaxes(split(k, lkv), 2, 3)),
        hd ** -0.5)
    weights = tensor.softmax(tensor.add(scores, bias), axis=-1)
    ctx = batched_matmul(weights, split(v, lkv))
    return reshape(tensor.swapaxes(ctx, 1, 2), (b, lq, d))


def reference_attention_bias(q_rows, kv_rows, causal: bool) -> np.ndarray:
    """The logits bias [B, 1, Lq, Lkv] that ``tensor.attention`` adds to
    its row keys' scores, entry by entry: 0 where key column j of row b,
    at position p = ``kv_rows.start`` + j, is visible to query column i
    (p < ``kv_rows.lengths[b]`` and, when ``causal``, p at most the
    query's position ``q_rows.start[b] + i``), -1e9 elsewhere."""
    b, lq, lkv = q_rows.batch, q_rows.width, kv_rows.width
    starts = np.broadcast_to(q_rows.start, (b,))
    bias = np.zeros((b, 1, lq, lkv))
    for row in range(b):
        for i in range(lq):
            for j in range(lkv):
                p = kv_rows.start + j
                visible = (p < kv_rows.lengths[row]
                           and (not causal or p <= starts[row] + i))
                bias[row, 0, i, j] = 0.0 if visible else -1e9
    return bias


def _stacks_reading_every_position(mp, last_rows) -> None:
    """Make every transformer stack run all its positions, and one asked
    for ``last`` return the rows ``last_rows(lengths, start, n)`` of its
    n output rows: ``start`` is the cache length the call starts from,
    taken before the call grows the cache."""
    stack = models._stack_forward
    signature = inspect.signature(stack)

    def run(*args, last=False, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        cache = bound.get("cache")
        start = 0 if cache is None else cache[0].self_attn.length
        hidden = stack(*args, **kwargs)
        if not last:
            return hidden
        return tensor.take_rows(hidden, last_rows(
            np.asarray(bound["lengths"]), start, hidden.shape[0]))

    mp.setattr(models, "_stack_forward", run)
    mp.setattr(pipeline, "_stack_forward", run)


@contextlib.contextmanager
def all_positions():
    """The path ``last`` replaces: every transformer stack runs all its
    positions, and a stack asked for ``last`` returns the final real row
    of each sequence, position ``lengths - 1``.  A cached call's rows are
    its new positions, ``lengths - start`` of them in row i."""
    with pytest.MonkeyPatch.context() as mp:
        _stacks_reading_every_position(
            mp, lambda lengths, start, n: np.cumsum(lengths - start) - 1)
        yield


@contextlib.contextmanager
def padded_rows():
    """The composition packing replaces: every transformer stack computes
    every position of its [B, L] grid, pad positions included, and its
    output holds B * L rows.  Pad positions stay out of every real row
    only through the attention masks, and a loss must mask them out
    afterwards (``padded_teacher_loss``).  A stack asked for ``last``
    runs every position too, then returns row i's grid position
    ``lengths[i] - 1 - start``."""
    def every_position(lengths, width, start=0):
        return tensor.Packing(len(lengths), width, lengths=np.asarray(lengths),
                              start=start)

    def last_rows(lengths, start, n):
        width = n // len(lengths)
        return np.arange(len(lengths)) * width + lengths - 1 - start

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "packing", every_position)
        _stacks_reading_every_position(mp, last_rows)
        yield


def masked_cross_entropy_sum(logits, targets, mask):
    """``tensor.cross_entropy_sum`` as it was on padded logits [B, L, V]:
    summed over the positions ``mask`` keeps, with an exact-zero gradient
    at every other position.  Returns (loss_sum, n_positions)."""
    mask = np.asarray(mask, dtype=bool)
    valid = np.asarray(targets, dtype=np.int64)[mask]
    rows = logits.data[mask]
    logp = tensor._log_softmax_rows(rows)
    n = rows.shape[0]
    out = tensor.Tensor(-logp[np.arange(n), valid].sum())

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), valid] -= 1.0
        dl = np.zeros_like(logits.data)
        dl[mask] = p * float(g)
        return (dl,)

    return tensor._register(out, (logits,), bwd), n


def padded_teacher_loss(logits_fn, seqs: list):
    """(loss_sum, n, logits [B, L, V], mask [B, L]) of the teacher-forced
    ``logits_fn()`` (``Translator.teacher_logits`` or
    ``CausalLM.logits_for``) run under ``padded_rows``; ``seqs`` are its
    target sequences, whose labels ``seq + [EOS]`` the mask keeps."""
    with padded_rows():
        logits, _ = logits_fn()
    labels, lengths = models.pad_batch([list(s) + [EOS] for s in seqs])
    mask = np.arange(labels.shape[1])[None, :] < lengths[:, None]
    grid = reshape(logits, labels.shape + (logits.shape[-1],))
    return masked_cross_entropy_sum(grid, labels, mask) + (grid, mask)


def per_row_soft_prompt_logits(llm, prompt, lm_prefixes):
    """``evaluation._soft_prompt_logits`` as it ran before the prompt got
    its shared cache: the prompt block copied into every row, and the
    whole LM run over [B, P + L] positions, packed by their lengths."""
    ids, lengths = models.pad_batch([[BOS] + list(p) for p in lm_prefixes])
    tok = tensor.embedding(llm.store["tok_embed"], ids)
    block = broadcast_to(reshape(prompt, (1,) + prompt.shape),
                         (len(lm_prefixes),) + prompt.shape)
    grid = concat([block, tok], axis=1)
    b, width, d = grid.shape
    full_lengths = lengths + prompt.shape[0]
    positions = models.packing(full_lengths, width).rows(
        np.arange(b * width).reshape(b, width))
    packed = tensor.take_rows(reshape(grid, (b * width, d)), positions)
    hidden = llm.hidden_from_embeddings(packed, full_lengths, last=True)
    return models.tied_logits(hidden, llm.store["tok_embed"])


@contextlib.contextmanager
def prompt_in_every_row():
    """Soft-prompt training and eval on ``per_row_soft_prompt_logits``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_soft_prompt_logits",
                   per_row_soft_prompt_logits)
        yield


@contextlib.contextmanager
def read_only_outputs():
    """Mark every op's output read-only as the op returns it, so a kernel
    that writes into an activation it was handed raises."""
    register = tensor._register

    def run(out, inputs, backward_fn, rebuild=None):
        out.data.flags.writeable = False
        return register(out, inputs, backward_fn, rebuild)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_register", run)
        yield


def _buffer(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s memory, following views to their base."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def kept_arrays(tape, skip=()) -> list:
    """The distinct array buffers ``tape``'s backward closures hold, each
    once, leaving out those of the tensors in ``skip`` (a ``ParamStore``'s
    weights, say).  It walks each closure's cells and, through them, the
    closures, containers and objects (a ``Packing``) they hold."""
    skipped = {id(_buffer(t.data)) for t in skip}
    found, seen = {}, set()
    stack = [fn for _, _, fn in tape._nodes]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            buf = _buffer(obj)
            if id(buf) not in skipped:
                found[id(buf)] = buf
        elif inspect.isfunction(obj):
            stack += [c.cell_contents for c in obj.__closure__ or ()]
        elif isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack += vars(obj).values()
    return list(found.values())


def kept_bytes(tape, skip=()) -> int:
    """Bytes of :func:`kept_arrays`: what the tape keeps alive for backward."""
    return sum(a.nbytes for a in kept_arrays(tape, skip))


@contextlib.contextmanager
def update_gradients():
    """Collect, for each update ``pretrain.fit`` makes, copies of the
    trainable gradients it is about to clip."""
    grads = []
    clip = pretrain.clip_grad_norm

    def record(params, max_norm):
        grads.append([p.grad.copy() for p in params])
        return clip(params, max_norm)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pretrain, "clip_grad_norm", record)
        yield grads


def assert_close(got, want) -> None:
    """Within 1e-12 of the largest magnitude in ``want`` (a
    mathematically zero entry, such as an attention key bias's gradient,
    carries only rounding noise)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def assert_parity(got, want, kernel: str) -> None:
    """Byte-equal on the reference kernel; on BLAS, whose row bytes
    depend on the shape of the whole product, ``assert_close``."""
    if kernel == "reference":
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        assert_close(got, want)


def finite_diff_grad(f, params: list, eps: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient estimate, one coordinate at a time.

    ``f`` takes no arguments, reads the current parameter values, and
    returns a scalar float.  Independent of the tape machinery by
    construction; used to cross-check :meth:`tall.tensor.Tape.backward`.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f())
            flat[i] = orig - eps
            f_minus = float(f())
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-6) -> float:
    """max_i |a_i - n_i| / max(|a_i|, |n_i|, floor), 0.0 for empty input."""
    a = np.asarray(analytic).reshape(-1)
    n = np.asarray(numeric).reshape(-1)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


@pytest.fixture
def einsum_reference():
    """The reference kernel itself, for tests that compare against it."""
    return reference_product


@contextlib.contextmanager
def _reference_product_swapped_in():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tensor, "_product", reference_product)
        yield


@pytest.fixture(params=["blas", "reference"])
def kernel(request):
    """Run one test on each matmul kernel; the value names it."""
    if request.param == "blas":
        yield request.param
    else:
        with _reference_product_swapped_in():
            yield request.param


@pytest.fixture
def reference_kernel():
    """Run one test with the einsum reference as the matmul kernel."""
    with _reference_product_swapped_in():
        yield


@pytest.fixture(scope="module")
def reference_kernel_module():
    """The same swap, held for a module-scoped fixture's lifetime."""
    with _reference_product_swapped_in():
        yield
