"""Momentum-free adaptive optimizer with warmup + cosine schedule.

Each step scales the raw gradient by the bias-corrected running second
moment (no first-moment average).  Two parameter groups with independent
peak learning rates implement the backbone-vs-fusion learning-rate split
used by the training recipe.
"""
from __future__ import annotations

import math

import numpy as np

BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # denominator floor


class AdaptiveOptimizer:
    def __init__(self, groups, total_steps: int, warmup_frac: float):
        """groups: list of (params, peak_lr)."""
        self.groups = [(list(params), float(lr)) for params, lr in groups]
        self.total_steps = total_steps
        self.warmup_steps = max(1, int(warmup_frac * total_steps))
        self.t = 0
        self._v = {}

    def lr_scale(self) -> float:
        if self.t <= self.warmup_steps:
            return self.t / self.warmup_steps
        frac = (self.t - self.warmup_steps) / max(1, self.total_steps - self.warmup_steps)
        return 0.5 * (1.0 + math.cos(math.pi * min(1.0, frac)))

    def step(self):
        self.t += 1
        scale = self.lr_scale()
        bc2 = 1.0 - BETA2**self.t
        for params, lr in self.groups:
            for p in params:
                g = p.value.grad
                if g is None or not p.value.requires_grad:
                    continue
                v = self._v.get(p.id)
                if v is None:
                    v = np.zeros_like(p.value.data)
                    self._v[p.id] = v
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                p.value.data -= scale * lr * g / (np.sqrt(v / bc2) + EPS)
