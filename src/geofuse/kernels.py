"""Hot inner-loop kernels: row softmax and layer norm, forward and backward.

Plain numpy over 2D float64 arrays with the reduced axis last.  tensor.py
(layer norm) and nn.py (attention) flatten leading axes and call these as
`kernels.<name>`, so a wrapper installed on this module (such as the
perfbench tracer) sees every call.
"""
from __future__ import annotations

import numpy as np

HAS_NUMBA = False  # numpy is the only kernel path; perfbench still reports this flag


def softmax_fwd(x):
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_bwd(y, gy):
    dot = (y * gy).sum(axis=1, keepdims=True)
    return y * (gy - dot)


def layernorm_fwd(x, gain, bias, eps):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv[:, 0]


def layernorm_bwd(gy, xhat, inv, gain):
    gxhat = gy * gain
    m1 = gxhat.mean(axis=1, keepdims=True)
    m2 = (gxhat * xhat).mean(axis=1, keepdims=True)
    gx = inv[:, None] * (gxhat - m1 - xhat * m2)
    ggain = (gy * xhat).sum(axis=0)
    gbias = gy.sum(axis=0)
    return gx, ggain, gbias
