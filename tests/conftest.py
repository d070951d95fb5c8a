"""Shared oracles: the einsum reference kernel and the finite-difference
gradient check.

``tensor.matmul`` computes every product with one private kernel,
``tensor._product`` (BLAS).  BLAS results are deterministic for fixed
shapes but not bit-identical to a sequential triple loop, and a row's
bytes depend on the shape of the whole product.  Tests that pin exact
bytes (the golden hashes, the triple-loop and per-slice checks) run
with the reference swapped in for that kernel.
"""

import contextlib

import numpy as np
import pytest

from tall import tensor


def reference_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[..., m, k] @ [..., k, n]``, accumulated over k in order."""
    return np.einsum("...ik,...kj->...ij", a, b)


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
