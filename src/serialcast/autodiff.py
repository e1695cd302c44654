"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a numpy array and records the operation that produced it.
Calling ``backward()`` on a scalar output walks the graph in reverse
topological order and accumulates gradients into every reachable tensor that
has ``requires_grad`` set (or that sits between such a tensor and the output).

All ops broadcast like numpy; gradients of broadcast operands are summed back
to the operand's shape. Graph construction can be suppressed globally with
``no_grad()`` for inference-speed forward passes.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the context (pure-numpy forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over the axes numpy broadcast to produce it."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={'yes' if self.grad is not None else 'no'})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g: np.ndarray):
        # never in-place: grad arrays may be shared between siblings
        if g.dtype != self.data.dtype:
            g = g.astype(self.data.dtype)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Reverse-accumulate gradients from this scalar into the graph."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node)

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0) if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            return mul(self, power(other, -1.0))
        return mul(self, 1.0 / np.asarray(other))

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)


def astensor(x, dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=dtype))


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[Tensor], None] | None) -> Tensor:
    """Build an op output; skips graph recording when grads are off/unneeded."""
    track = _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents)
    out = Tensor(data)
    if track and backward is not None:
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward  # gets the output passed in, so no node refers to itself
    return out


# -- elementwise -------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def bw(out):
        a._accumulate(_unbroadcast(out.grad, a.shape))
        b._accumulate(_unbroadcast(out.grad, b.shape))

    return _make(a.data + b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def bw(out):
        a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
        b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    return _make(a.data * b.data, (a, b), bw)


def power(a, exponent: float) -> Tensor:
    a = astensor(a)
    e = float(exponent)

    def bw(out):
        a._accumulate(out.grad * e * a.data ** (e - 1.0))

    return _make(a.data ** e, (a,), bw)


def maximum(a, b) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    a, b = astensor(a), astensor(b)
    take_a = a.data >= b.data

    def bw(out):
        a._accumulate(_unbroadcast(out.grad * take_a, a.shape))
        b._accumulate(_unbroadcast(out.grad * ~take_a, b.shape))

    return _make(np.where(take_a, a.data, b.data), (a, b), bw)


def silu(a) -> Tensor:
    a = astensor(a)
    s = 1.0 / (1.0 + np.exp(-np.clip(a.data, -60.0, 60.0)))

    def bw(out):
        a._accumulate(out.grad * s * (1.0 + a.data * (1.0 - s)))

    return _make(a.data * s, (a,), bw)


def softplus(a) -> Tensor:
    a = astensor(a)
    y = np.logaddexp(0.0, a.data)

    def bw(out):
        a._accumulate(out.grad / (1.0 + np.exp(-a.data)))

    return _make(y, (a,), bw)


# -- shape -------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = astensor(a)

    def bw(out):
        a._accumulate(out.grad.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), bw)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = astensor(a)

    def bw(out):
        a._accumulate(np.swapaxes(out.grad, ax1, ax2))

    return _make(np.swapaxes(a.data, ax1, ax2), (a,), bw)


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    parts = [astensor(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bw(out):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.grad.ndim
            idx[axis] = slice(lo, hi)
            p._accumulate(out.grad[tuple(idx)])

    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, bw)


def getitem(a, idx) -> Tensor:
    a = astensor(a)

    def bw(out):
        g = np.zeros(a.shape, dtype=out.grad.dtype)
        np.add.at(g, idx, out.grad)
        a._accumulate(g)

    return _make(a.data[idx], (a,), bw)


def take_rows(a, index: np.ndarray) -> Tensor:
    """Gather rows of a 2-D tensor; backward scatter-adds (repeats allowed)."""
    a = astensor(a)
    index = np.asarray(index, dtype=np.intp)

    def bw(out):
        g = np.zeros(a.shape, dtype=out.grad.dtype)
        np.add.at(g, index, out.grad)
        a._accumulate(g)

    return _make(a.data[index], (a,), bw)


def scatter_rows_add(rows, index: np.ndarray, n_rows: int) -> Tensor:
    """Inverse of take_rows: place rows at index into an (n_rows, D) zero base."""
    rows = astensor(rows)
    index = np.asarray(index, dtype=np.intp)
    base = np.zeros((n_rows,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(base, index, rows.data)

    def bw(out):
        rows._accumulate(out.grad[index])

    return _make(base, (rows,), bw)


# -- reductions --------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)

    def bw(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = astensor(a)
    n = a.data.size if axis is None else np.prod([a.shape[ax] for ax in np.atleast_1d(axis)])

    def bw(out):
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / n)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


# -- linear algebra ----------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul operands must have at least 2 dimensions")

    def bw(out):
        g = out.grad
        a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(a.data @ b.data, (a, b), bw)


def softmax(a, axis: int = -1) -> Tensor:
    """Shift-invariant softmax along one axis."""
    a = astensor(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(out):
        g = out.grad
        a._accumulate(out.data * (g - (g * out.data).sum(axis=axis, keepdims=True)))

    return _make(p, (a,), bw)


def masked_softmax(scores, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax with masked entries forced to exactly 0 (mask True = keep).

    The -inf substitution happens on the already-scaled scores, so the mask
    cannot be weakened by any finite scaling applied upstream.
    """
    scores = astensor(scores)
    mask = np.asarray(mask, dtype=bool)
    neg = np.where(mask, scores.data, -np.inf)
    z = neg - neg.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def bw(out):
        g = out.grad
        scores._accumulate(out.data * (g - (g * out.data).sum(axis=axis, keepdims=True)))

    return _make(p, (scores,), bw)


def rope_rotate(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate interleaved (even, odd) pairs of the last axis by given angles.

    cos/sin broadcast against x[..., 0::2]; counterclockwise convention:
    even' = even*cos - odd*sin, odd' = even*sin + odd*cos.
    """
    x = astensor(x)
    xe, xo = x.data[..., 0::2], x.data[..., 1::2]
    y = np.empty_like(x.data)
    y[..., 0::2] = xe * cos - xo * sin
    y[..., 1::2] = xe * sin + xo * cos

    def bw(out):
        ge, go = out.grad[..., 0::2], out.grad[..., 1::2]
        g = np.empty_like(out.grad)
        g[..., 0::2] = ge * cos + go * sin  # inverse rotation
        g[..., 1::2] = -ge * sin + go * cos
        x._accumulate(g)

    return _make(y, (x,), bw)
