"""AdamW with decoupled weight decay, gradient clipping, cosine schedule.

The optimizer binds to the trainable entries of a ParamStore at
construction time and updates them in store order, so two runs with
identical seeds apply bit-identical updates.
"""

from __future__ import annotations

import math

import numpy as np

from .nn import ParamStore


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
    def __init__(self, store: ParamStore,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        self.names = [n for n, _ in store.trainable_items()]
        self.params = [store[n] for n in self.names]
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if self.weight_decay:
                p.data -= lr * self.weight_decay * p.data
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
