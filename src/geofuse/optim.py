"""Adaptive-moment optimizer with warmup + cosine schedule.

Default is the momentum-free variant (second-moment scaling only, with
bias correction); set beta1 > 0 for the full Adam-style update.  Two
parameter groups with independent peak learning rates implement the
backbone-vs-fusion learning-rate split used by the training recipe.
"""
from __future__ import annotations

import math

import numpy as np

BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # denominator floor


class AdaptiveOptimizer:
    def __init__(self, groups, total_steps: int, warmup_frac: float, beta1: float):
        """groups: list of (params, peak_lr)."""
        self.groups = [(list(params), float(lr)) for params, lr in groups]
        self.total_steps = total_steps
        self.warmup_steps = max(1, int(warmup_frac * total_steps))
        self.beta1 = beta1
        self.t = 0
        self._m = {}
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
        bc1 = 1.0 - self.beta1**self.t if self.beta1 > 0 else 1.0
        for params, lr in self.groups:
            for p in params:
                if not p.trainable:
                    continue
                g = p.value.grad
                if g is None:
                    continue
                v = self._v.get(p.id)
                if v is None:
                    v = np.zeros_like(p.value.data)
                    self._v[p.id] = v
                v *= BETA2
                v += (1.0 - BETA2) * g * g
                if self.beta1 > 0:
                    m = self._m.get(p.id)
                    if m is None:
                        m = np.zeros_like(p.value.data)
                        self._m[p.id] = m
                    m *= self.beta1
                    m += (1.0 - self.beta1) * g
                    upd = m / bc1
                else:
                    upd = g
                p.value.data -= scale * lr * upd / (np.sqrt(v / bc2) + EPS)
