"""Dense float64 tensors with reverse-mode gradients.

The Tensor wraps a row-major numpy float64 array and records a backward
closure per op; gradients are propagated by a topological sweep from a
scalar loss.  Inside `no_grad()` an op records nothing: its output keeps
no parents and no closure, so inference holds no graph.  The switch is
per thread, so one thread's inference leaves another's training graph
intact.  Every op validates finiteness of its output, inside `no_grad`
too, so NaN/Inf surface immediately as NumericError rather than
silently poisoning a training run.  Shapes are whatever numpy reports;
broadcasting is supported only for the patterns actually used here
(positional rows, pooled context tokens, per-sample scalars).

Tensor keeps the elementwise ops (+, -, *, / by a scalar, sigmoid, gelu,
sqrt), indexing, sum and mean; this module adds concat, embedding and
layer_norm.  Matrix products live in nn.py: `linear` and `cross_attention`
are each one graph node with a hand-written backward.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NumericError, ShapeError

_GELU_C = math.sqrt(2.0 / math.pi)


class _GradMode(threading.local):
    enabled = True  # each thread starts with gradients recorded


_grad_mode = _GradMode()


@contextmanager
def no_grad():
    """Record no graph in this thread while the block runs: op outputs keep
    no parents and no backward closure.  Values are unchanged."""
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("non-finite values in tensor")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- construction of op outputs --------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basics -----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accum(self, g):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def backward(self):
        if self.data.size != 1:
            raise ShapeError(f"backward needs a scalar, got shape {self.data.shape}")
        topo, seen = [], set()

        def visit(t):
            stack = [(t, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    topo.append(node)
                    continue
                if id(node) in seen or not node.requires_grad:
                    continue
                seen.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    stack.append((p, False))

        visit(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _wrap(other)
        y = self.data + other.data

        def bwd(g):
            self._maybe(_unbroadcast(g, self.data.shape))
            other._maybe(_unbroadcast(g, other.data.shape))

        return Tensor._make(y, (self, other), bwd)

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-_wrap(other))

    def __rsub__(self, other):
        return _wrap(other) + (-self)

    def __mul__(self, other):
        other = _wrap(other)
        y = self.data * other.data

        def bwd(g):
            self._maybe(_unbroadcast(g * other.data, self.data.shape))
            other._maybe(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(y, (self, other), bwd)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def _maybe(self, contrib):
        if self.requires_grad:
            self._accum(contrib)

    def __getitem__(self, idx):
        y = self.data[idx]

        def bwd(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[idx] = g
                self._accum(full)

        return Tensor._make(y, (self,), bwd)

    # -- reductions --------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        y = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is None:
                self._accum(np.broadcast_to(g, self.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                self._accum(np.broadcast_to(gg, self.data.shape).copy())

        return Tensor._make(y, (self,), bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n

    # -- elementwise nonlinearities ---------------------------------------

    def sigmoid(self):
        with np.errstate(over="ignore"):  # exp(-x) -> inf for x < -709 gives y = 0.0 exactly
            y = 1.0 / (1.0 + np.exp(-self.data))

        def bwd(g):
            self._maybe(g * y * (1.0 - y))

        return Tensor._make(y, (self,), bwd)

    def gelu(self):
        # tanh approximation; smooth everywhere, which keeps central
        # differences honest in grad_check.  Powers are products: numpy
        # sends x**3 through pow, which costs more than the rest together.
        # Intermediates are written in place, in the textbook formula's
        # order of operations, so values match it bit for bit.
        x = self.data
        x2 = x * x
        t = x2 * x
        t *= 0.044715
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
        one_t = t + 1.0
        y = 0.5 * x
        y *= one_t

        def bwd(g):
            du = x2 * (3 * 0.044715)
            du += 1.0
            du *= _GELU_C
            dt = t * t
            np.subtract(1.0, dt, out=dt)
            dy = 0.5 * x
            dy *= dt
            dy *= du
            dy += 0.5 * one_t
            dy *= g
            self._maybe(dy)

        return Tensor._make(y, (self,), bwd)

    def sqrt(self):
        y = np.sqrt(self.data)

        def bwd(g):
            self._maybe(g * 0.5 / np.maximum(y, 1e-300))

        return Tensor._make(y, (self,), bwd)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _unbroadcast(g, shape):
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def concat(tensors, axis: int) -> Tensor:
    datas = [t.data for t in tensors]
    y = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    return Tensor._make(y, tuple(tensors), bwd)


def embedding(table: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows of `table` by integer index array."""
    y = table.data[idx]

    def bwd(g):
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            table._accum(full)

    return Tensor._make(y, (table,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match last axis {d}"
        )
    shp = x.data.shape
    y2, xhat, inv = kernels.layernorm_fwd(x.data.reshape(-1, d), gain.data, bias.data, eps)

    def bwd(g):
        gx, ggain, gbias = kernels.layernorm_bwd(g.reshape(-1, d), xhat, inv, gain.data)
        x._maybe(gx.reshape(shp))
        gain._maybe(ggain)
        bias._maybe(gbias)

    return Tensor._make(y2.reshape(shp), (x, gain, bias), bwd)


@dataclass
class Param:
    """Named model parameter.  It trains iff its tensor requires grad; a
    frozen param takes no gradient and never moves."""

    id: str
    value: Tensor


class ParamSet:
    """Ordered collection of Params with unique ids.

    `flat` lays every param's data out as a view into one float64 vector,
    in store order, so that whole-model work (the optimizer update, a
    checkpoint's payload) runs on one array.  Code changes a param's data
    in place and never rebinds it, which would detach it from the vector.
    """

    def __init__(self):
        self._by_id: dict[str, Param] = {}
        self._flat = None
        self._spans: dict[str, tuple[int, int]] = {}

    def new(self, pid: str, data, trainable: bool = True) -> Param:
        if pid in self._by_id:
            raise ShapeError(f"duplicate param id {pid!r}")
        param = self._by_id[pid] = Param(pid, Tensor(data, requires_grad=trainable))
        self._flat = None  # the next `flat` lays every param out again
        return param

    def __getitem__(self, pid: str) -> Param:
        return self._by_id[pid]

    def __iter__(self):
        return iter(self._by_id.values())

    def ids(self):
        return list(self._by_id)

    def flat(self) -> np.ndarray:
        """Every param's data as one contiguous float64 vector, in store
        order, each param's data a view into it.  The first call after a
        param is added copies every param into a new vector; later calls
        return that vector."""
        if self._flat is None:
            self._flat = np.empty(sum(p.value.data.size for p in self))
            lo = 0
            for p in self:
                data = p.value.data
                view = self._flat[lo:lo + data.size].reshape(data.shape)
                view[...] = data
                p.value.data = view
                self._spans[p.id] = (lo, lo + data.size)
                lo += data.size
        return self._flat

    def span(self, pid: str) -> tuple[int, int]:
        """[lo, hi) of param `pid`'s data in `flat`."""
        self.flat()
        return self._spans[pid]

    def zero_grad(self):
        for p in self:
            p.value.grad = None
