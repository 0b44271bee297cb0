"""Hot inner-loop kernels: row softmax and layer norm, forward and backward.

Plain numpy over 2D float64 arrays with the reduced axis last.  Each kernel
writes its intermediates in place, in the order of operations of the
textbook formula, so its outputs match that formula bit for bit.  tensor.py
(layer norm) and nn.py (attention) flatten leading axes and call these as
`kernels.<name>`, so a wrapper installed on this module (such as the
perfbench tracer) sees every call.
"""
from __future__ import annotations

import numpy as np

HAS_NUMBA = False  # numpy is the only kernel path; perfbench still reports this flag


def softmax_fwd(x):
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_bwd(y, gy):
    t = y * gy
    dot = np.add.reduce(t, axis=1, keepdims=True)
    np.subtract(gy, dot, out=t)
    t *= y
    return t


def layernorm_fwd(x, gain, bias, eps):
    d = x.shape[1]
    xhat = x - np.add.reduce(x, axis=1, keepdims=True) / d
    y = xhat * xhat
    inv = np.add.reduce(y, axis=1, keepdims=True) / d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, inv[:, 0]


def layernorm_bwd(gy, xhat, inv, gain):
    d = gy.shape[1]
    gx = gy * gain
    t = gx * xhat
    m2 = np.add.reduce(t, axis=1, keepdims=True) / d
    gx -= np.add.reduce(gx, axis=1, keepdims=True) / d
    np.multiply(xhat, m2, out=t)
    gx -= t
    gx *= inv[:, None]
    np.multiply(gy, xhat, out=t)
    return gx, np.add.reduce(t, axis=0), np.add.reduce(gy, axis=0)
