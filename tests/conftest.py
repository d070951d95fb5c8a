"""Shared oracles: the einsum reference kernel, the primitive
compositions the fused tape nodes replace, the all-positions stack that
``read`` replaces, the finite-difference gradient check, and the tape
ops and parameter count that only tests use (``mul``, ``sum_all``,
``mean_all``, ``trainable_param_count``).

``tensor.matmul`` computes every product with one private kernel,
``tensor._product`` (BLAS).  BLAS results are deterministic for fixed
shapes but not bit-identical to a sequential triple loop, and a row's
bytes depend on the shape of the whole product.  Tests that pin exact
bytes (the golden hashes, the triple-loop and per-slice checks) run
with the reference swapped in for that kernel.
"""

import contextlib
import inspect

import numpy as np
import pytest

from tall import models, pipeline, pretrain, tensor


def reference_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[..., m, k] @ [..., k, n]``, accumulated over k in order."""
    return np.einsum("...ik,...kj->...ij", a, b)


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


def sum_all(a):
    """The sum of every entry, as a scalar tensor."""
    out = tensor.Tensor(a.data.sum())

    def bwd(g):
        return (np.full_like(a.data, float(g)),)

    return tensor._register(out, (a,), bwd)


def mean_all(a):
    return tensor.scale(sum_all(a), 1.0 / a.size)


def trainable_param_count(store) -> tuple[int, int]:
    """(total, trainable) element counts of a ``ParamStore``."""
    total = sum(t.size for _, t in store.items())
    trainable = sum(t.size for _, t in store.trainable_items())
    return total, trainable


def composed_linear(x, w, b):
    """``tensor.linear`` as the primitives it fuses: matmul, then add."""
    return tensor.add(tensor.matmul(x, w), b)


def composed_attention(q, k, v, bias, n_heads: int):
    """``tensor.attention`` as the primitives it fuses: head split,
    scaled scores, bias, softmax, context and head merge, one node each."""
    b, lq, d = q.shape
    lkv = k.shape[1]
    hd = d // n_heads

    def split(x, length):
        return tensor.swapaxes(tensor.reshape(x, (b, length, n_heads, hd)), 1, 2)

    scores = tensor.scale(
        tensor.matmul(split(q, lq), tensor.swapaxes(split(k, lkv), 2, 3)),
        hd ** -0.5)
    weights = tensor.softmax(tensor.add(scores, bias), axis=-1)
    ctx = tensor.matmul(weights, split(v, lkv))
    return tensor.reshape(tensor.swapaxes(ctx, 1, 2), (b, lq, d))


@contextlib.contextmanager
def all_positions():
    """The path ``read`` replaces: every transformer stack runs all its
    positions, and a stack asked for rows returns the final valid row of
    each sequence, ``lengths - 1``, whatever ``read`` says (every caller
    that passes ``read`` reads the final position)."""
    stack = models._stack_forward
    signature = inspect.signature(stack)

    def run(*args, read=None, **kwargs):
        hidden = stack(*args, **kwargs)
        if read is None:
            return hidden
        lengths = signature.bind(*args, **kwargs).arguments["lengths"]
        return tensor.take_rows(hidden, lengths - 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_stack_forward", run)
        mp.setattr(pipeline, "_stack_forward", run)
        yield


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


def assert_parity(got, want, kernel: str) -> None:
    """Byte-equal on the reference kernel; on BLAS, whose row bytes
    depend on the shape of the whole product, within 1e-12 of the
    largest magnitude in ``want`` (a mathematically zero entry, such as
    an attention key bias's gradient, carries only rounding noise)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    if kernel == "reference":
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
