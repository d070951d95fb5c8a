"""AdamW with decoupled weight decay, gradient clipping, cosine schedule.

The optimizer binds to the trainable entries of a ParamStore at
construction time and updates them in store order, so two runs with
identical seeds apply bit-identical updates.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import ParamStore

# the moments' decay rates and the denominator's floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def cosine_lr(step: int, total_steps: int, peak_lr: float,
              warmup_steps: int) -> float:
    """Learning rate at ``step``: linear warmup, then half-cosine decay.

    After warmup the value is peak * 0.5 * (1 + cos(pi * step / total)),
    with ``step`` counted from the start of training.
    """
    if step < warmup_steps:
        return peak_lr * (step + 1) / warmup_steps
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * step / total_steps))


def clip_grad_norm(params: list, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm."""
    sq = 0.0
    for p in params:
        if p.grad is not None:
            sq += float(np.sum(p.grad * p.grad))
    norm = math.sqrt(sq)
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


class AdamW:
    """In-place AdamW; each step keeps the arithmetic order noted beside."""

    def __init__(self, store: ParamStore, weight_decay: float):
        self.params = [t for _, t in store.trainable_items()]
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = np.empty(2 * max([p.size for p in self.params] + [0]))

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            num, den = self._scratch[:2 * p.size].reshape((2,) + p.shape)
            if self.weight_decay:  # p -= lr * wd * p
                p.data -= np.multiply(p.data, lr * self.weight_decay, out=num)
            m *= BETA1  # m = beta1 * m + (1 - beta1) * g
            m += np.multiply(g, 1.0 - BETA1, out=num)
            v *= BETA2  # v = beta2 * v + (1 - beta2) * (g * g)
            v += np.multiply(np.multiply(g, g, out=num), 1.0 - BETA2, out=num)
            # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
            np.multiply(np.divide(m, bc1, out=num), lr, out=num)
            np.sqrt(np.divide(v, bc2, out=den), out=den)
            den += EPS
            p.data -= np.divide(num, den, out=num)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
