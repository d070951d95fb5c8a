"""Shared fixtures: the einsum reference kernel as the tests' oracle.

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
