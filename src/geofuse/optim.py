"""Momentum-free adaptive optimizer with warmup + cosine schedule.

Each step scales the raw gradient by the bias-corrected running second
moment (no first-moment average).  Two parameter groups with independent
peak learning rates implement the backbone-vs-fusion learning-rate split
used by the training recipe.

The update runs on the store's flat vector (`ParamSet.flat`): each maximal
run of params that lie next to each other in it and take an update this
step has its gradients gathered into one scratch vector, then takes a few
whole-run ufuncs.  Per element, that is the same arithmetic in the same
order as a per-param loop, so the result is bit-identical to it.  A
frozen param, or one with no gradient in a step, keeps its value and its
second moment.
"""
from __future__ import annotations

import math

import numpy as np

BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # denominator floor


class AdaptiveOptimizer:
    def __init__(self, store, groups, total_steps: int, warmup_frac: float):
        """store: the ParamSet holding every param; groups: list of
        (params, peak_lr)."""
        self._x = store.flat()
        self.groups = [([(p, *store.span(p.id)) for p in params], float(lr))
                       for params, lr in groups]
        self.total_steps = total_steps
        self.warmup_steps = max(1, int(warmup_frac * total_steps))
        self.t = 0
        self._v = np.zeros_like(self._x)  # second moments, parallel to the store's vector
        self._g = np.empty_like(self._x)  # scratch: gathered gradients, then the step
        self._tmp = np.empty_like(self._x)

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
            for lo, hi, grads in _runs(params):
                g, tmp, v = self._g[lo:hi], self._tmp[lo:hi], self._v[lo:hi]
                np.concatenate(grads, axis=None, out=g)
                v *= BETA2
                np.multiply(g, 1.0 - BETA2, out=tmp)
                tmp *= g
                v += tmp
                g *= scale * lr
                np.divide(v, bc2, out=tmp)
                np.sqrt(tmp, out=tmp)
                tmp += EPS
                g /= tmp
                self._x[lo:hi] -= g


def _runs(params):
    """(lo, hi, gradients) of each maximal run of params, given as
    (param, lo, hi), that are adjacent in the flat vector and take an
    update this step: trainable, with a gradient."""
    grads, lo, hi = [], 0, 0
    for p, a, b in params:
        t = p.value
        if not t.requires_grad or t.grad is None:
            continue
        if grads and a != hi:
            yield lo, hi, grads
            grads = []
        if not grads:
            lo = a
        grads.append(t.grad)
        hi = b
    if grads:
        yield lo, hi, grads
