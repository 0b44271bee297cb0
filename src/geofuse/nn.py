"""Neural building blocks on top of the autograd tensor.

Everything here is a pure function of its tensor/param arguments; models
in backbones.py are thin containers of Params that call into these.
`linear` (the only matrix product) and `cross_attention` each build one
graph node with a hand-written backward; the rest compose Tensor ops.
`attention_params` and `norm_params` build a sublayer's param dict, and
`attend` and `norm` are the only readers of that dict's layout.
"""
from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import ShapeError
from .rng import RngStream
from .tensor import Param, ParamSet, Tensor, layer_norm


def _value(p) -> Tensor:
    return p.value if isinstance(p, Param) else p


def linear(x: Tensor, w) -> Tensor:
    """y[..., o] = sum_k x[..., k] * w[k, o]."""
    wt = _value(w)
    if x.shape[-1] != wt.shape[0]:
        raise ShapeError(f"linear: x {x.shape} incompatible with w {wt.shape}")
    return Tensor._make(x.data @ wt.data, (x, wt), lambda g: _linear_bwd(x, wt, g))


def _linear_bwd(x: Tensor, w: Tensor, g):
    """Accumulate the gradients of y = x @ w, for a 2-D w, into x and w.
    The weight gradient is one 2-D product over every leading axis of x."""
    if x.requires_grad:
        x._accum(g @ w.data.T)
    if w.requires_grad:
        k, o = w.data.shape
        w._accum(x.data.reshape(-1, k).T @ g.reshape(-1, o))


def mean_pool_seq(h: Tensor) -> Tensor:
    """Mean over the sequence axis of a B x L x D tensor, keeping the axis."""
    if h.ndim != 3:
        raise ShapeError(f"mean_pool_seq expects B x L x D, got {h.shape}")
    if h.shape[1] == 0:
        raise ShapeError("mean_pool_seq: empty sequence")
    return h.mean(axis=1, keepdims=True)


def expand_seq(s: Tensor, n: int) -> Tensor:
    """Broadcast a B x 1 x D context to B x n x D (gradient sums back)."""
    ones = Tensor(np.ones((1, n, 1)))
    return s * ones


def cross_attention(q: Tensor, kv: Tensor, wq, wk, wv, wo, heads: int) -> Tensor:
    """Scaled-dot-product multi-head attention of q over kv, as one node.

    q: B x Lq x D, kv: B x Lk x Dkv; wk/wv map Dkv -> D so the kv source
    may live in a different width than the query stream.  D is a multiple
    of `heads`, as `ExperimentConfig` requires.  The node keeps the softmax
    probabilities P; its backward is the softmax-attention VJP (the algebra
    of the FlashAttention backward, arXiv:2205.14135).
    """
    wq, wk, wv, wo = (_value(w) for w in (wq, wk, wv, wo))
    d = wq.shape[1]
    hd = d // heads
    b, lq, lk = q.shape[0], q.shape[1], kv.shape[1]
    scale = 1.0 / math.sqrt(hd)

    def split(x, length):  # B x L x D -> B x h x L x hd
        return x.reshape(b, length, heads, hd).transpose(0, 2, 1, 3)

    def merge(x, length):  # B x h x L x hd -> B x L x D
        return x.transpose(0, 2, 1, 3).reshape(b, length, d)

    qh = split(q.data @ wq.data, lq)
    kh = split(kv.data @ wk.data, lk)
    vh = split(kv.data @ wv.data, lk)
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    p = kernels.softmax_fwd(scores.reshape(-1, lk)).reshape(scores.shape)
    o = merge(p @ vh, lq)

    def bwd(g):
        if wo.requires_grad:
            wo._accum(o.reshape(-1, d).T @ g.reshape(-1, d))
        do = split(g @ wo.data.T, lq)
        dp = do @ vh.swapaxes(-1, -2)
        ds = kernels.softmax_bwd(p.reshape(-1, lk), dp.reshape(-1, lk)).reshape(p.shape)
        ds *= scale
        _linear_bwd(q, wq, merge(ds @ kh, lq))
        _linear_bwd(kv, wk, merge(ds.swapaxes(-1, -2) @ qh, lk))
        _linear_bwd(kv, wv, merge(p.swapaxes(-1, -2) @ do, lk))

    return Tensor._make(o @ wo.data, (q, kv, wq, wk, wv, wo), bwd)


def mlp(x: Tensor, w1, w2) -> Tensor:
    return linear(linear(x, w1).gelu(), w2)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"mse: {pred.shape} vs {target.shape}")
    diff = pred - target
    return (diff * diff).mean()


def cosine_rows(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Cosine similarity along the last axis, shape-preserving up to it."""
    num = (a * b).sum(axis=-1)
    na = (a * a).sum(axis=-1).sqrt()
    nb = (b * b).sum(axis=-1).sqrt()
    return num * _recip(na * nb + eps)


def _recip(t: Tensor) -> Tensor:
    y = 1.0 / t.data

    def bwd(g):
        t._maybe(-g * y * y)

    return Tensor._make(y, (t,), bwd)


# ------------------------------------------------------------------ init

def init_matrix(rng: RngStream, fan_in: int, fan_out: int) -> np.ndarray:
    scale = 1.0 / math.sqrt(fan_in)
    return rng.uniform((fan_in, fan_out), -scale, scale)


def attention_params(store: ParamSet, rng: RngStream, prefix: str, d: int, d_kv=None):
    d_kv = d if d_kv is None else d_kv
    return {
        "wq": store.new(f"{prefix}.wq", init_matrix(rng, d, d)),
        "wk": store.new(f"{prefix}.wk", init_matrix(rng, d_kv, d)),
        "wv": store.new(f"{prefix}.wv", init_matrix(rng, d_kv, d)),
        "wo": store.new(f"{prefix}.wo", init_matrix(rng, d, d)),
    }


def norm_params(store: ParamSet, prefix: str, d: int):
    return {
        "gain": store.new(f"{prefix}.gain", np.ones(d)),
        "bias": store.new(f"{prefix}.bias", np.zeros(d)),
    }


def attend(q: Tensor, kv: Tensor, p: dict, heads: int) -> Tensor:
    """`cross_attention` of q over kv with an `attention_params` dict."""
    return cross_attention(q, kv, p["wq"], p["wk"], p["wv"], p["wo"], heads)


def norm(x: Tensor, p: dict) -> Tensor:
    """`layer_norm` of x with a `norm_params` dict."""
    return layer_norm(x, p["gain"].value, p["bias"].value)
