"""Minimal reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps a numpy array and records the operation that produced it.
Calling ``backward()`` on a scalar output walks the graph in reverse
topological order and accumulates gradients into every reachable tensor that
has ``requires_grad`` set (or that sits between such a tensor and the output).

All ops broadcast like numpy; gradients of broadcast operands are summed back
to the operand's shape. An op records a graph only when an input requires
grad, so a forward pass over weights that do not, as inference runs it,
records none.

The fused layer ops (``rmsnorm``, ``l2_normalize``, ``softmax`` with a mask
and a scale) are one node each with a hand-written backward, computing in the
input's dtype, so an f32 model stays f32. A model's parameters travel as
``Params``, a flat name -> Tensor dict.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

FULL_TILE = 16  # output columns per full BLAS kernel tile, see grouped_linear
L2_GUARD = 1e-12  # l2_normalize's denominator floor for zero vectors


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

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Tensor], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

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


Params = dict[str, Tensor]


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[Tensor], None]) -> Tensor:
    """Build an op output that records its graph, and so requires grad itself,
    iff some parent requires grad."""
    out = Tensor(data)
    for p in parents:  # a plain loop: any() over a generator costs more per op
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward  # gets the output passed in, so no node refers to itself
            break
    return out


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors. A Python number takes the dtype of a float
    tensor operand, so an f32 graph stays f32 under any numpy promotion rule."""
    if isinstance(b, (int, float)) and isinstance(a, Tensor) and a.dtype.kind == "f":
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    if isinstance(a, (int, float)) and isinstance(b, Tensor) and b.dtype.kind == "f":
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    return astensor(a), astensor(b)


# -- elementwise -------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bw(out):
        a._accumulate(_unbroadcast(out.grad, a.shape))
        b._accumulate(_unbroadcast(out.grad, b.shape))

    return _make(a.data + b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)

    def bw(out):
        a._accumulate(_unbroadcast(out.grad * b.data, a.shape))
        b._accumulate(_unbroadcast(out.grad * a.data, b.shape))

    return _make(a.data * b.data, (a, b), bw)


def silu(a) -> Tensor:
    a = astensor(a)
    s = np.clip(a.data, -60.0, 60.0)  # the sigmoid 1 / (1 + exp(-x)), in this one buffer
    np.negative(s, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)

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


def put_rows(a, rows: np.ndarray, n: int) -> Tensor:
    """Row i of ``a`` at row rows[i] of n rows, every other row 0: the
    adjoint of ``getitem(., rows)`` for distinct rows."""
    a = astensor(a)

    def bw(out):
        a._accumulate(out.grad[rows])

    y = np.zeros((n,) + a.shape[1:], dtype=a.dtype)
    y[rows] = a.data
    return _make(y, (a,), bw)


# A slot table ``slots`` of shape (T, K) lists, for each of T tokens, the K
# rows of a (T*K, ...) row array that belong to it; every row appears once.
# gather_slots and sum_slots are each other's adjoints.


def _spread(x: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(T*K, ...) rows with rows[slots[t, j]] = x[t]."""
    rows = np.empty((slots.size,) + x.shape[1:], dtype=x.dtype)
    rows[slots] = x[:, None]
    return rows


def _sum(rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """(T, ...) sums of each token's rows, added in slot order onto zeros."""
    out = np.zeros((slots.shape[0],) + rows.shape[1:], dtype=rows.dtype)
    for j in range(slots.shape[1]):
        out += rows[slots[:, j]]
    return out


def gather_slots(a, slots: np.ndarray) -> Tensor:
    """Copy token row a[t] into each of its K slot rows."""
    a = astensor(a)

    def bw(out):
        a._accumulate(_sum(out.grad, slots))

    return _make(_spread(a.data, slots), (a,), bw)


def sum_slots(rows, slots: np.ndarray) -> Tensor:
    """Sum each token's K slot rows: out[t] = sum_j rows[slots[t, j]]."""
    rows = astensor(rows)

    def bw(out):
        rows._accumulate(_spread(out.grad, slots))

    return _make(_sum(rows.data, slots), (rows,), bw)


# -- reductions --------------------------------------------------------


def tsum(a, axis=None) -> Tensor:
    a = astensor(a)

    def bw(out):
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make(a.data.sum(axis=axis), (a,), bw)


def tmean(a, axis=None) -> Tensor:
    a = astensor(a)
    # a Python int, so an f32 gradient is divided in f32
    n = a.data.size if axis is None else math.prod(a.shape[ax] for ax in np.atleast_1d(axis))

    def bw(out):
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        a._accumulate(np.broadcast_to(g, a.shape) / n)

    return _make(a.data.mean(axis=axis), (a,), bw)


# -- linear algebra ----------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def bw(out):
        g = out.grad
        a._accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        b._accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(a.data @ b.data, (a, b), bw)


def grouped_linear(a, w, b, counts) -> Tensor:
    """Per-group affine map over contiguous row segments.

    a: (R, I) rows sorted by group, w: (G, I, O), b: (G, O), counts: (G,)
    with sum R. The counts[j] rows of group j map to rows @ w[j] + b[j].
    """
    a, w, b = astensor(a), astensor(w), astensor(b)
    bounds = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    groups = [(j, lo, hi) for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])) if hi > lo]
    o = w.shape[2]
    y = np.empty((a.shape[0], o), dtype=np.result_type(a.data, w.data, b.data))
    # A row's result must not depend on the rows that share its product, or
    # causality and batched inference lose bit-exactness. BLAS breaks that two
    # ways: a single row takes a different path than the same row in a batch,
    # and output columns past the last multiple of FULL_TILE are computed by
    # edge kernels chosen by the row count. So a lone row runs twice and the
    # weights of each group with rows get zero columns up to a multiple of FULL_TILE.
    pad = -o % FULL_TILE
    for j, lo, hi in groups:
        wj = np.pad(w.data[j], ((0, 0), (0, pad))) if pad else w.data[j]
        if hi - lo > 1 and not pad:
            np.matmul(a.data[lo:hi], wj, out=y[lo:hi])
        else:
            rows = a.data[lo:hi] if hi - lo > 1 else a.data[[lo, lo]]
            y[lo:hi] = (rows @ wj)[: hi - lo, :o]
    y += np.repeat(b.data, counts, axis=0)

    def bw(out):
        g = out.grad
        ga, gw, gb = np.zeros_like(a.data), np.zeros_like(w.data), np.zeros_like(b.data)
        for j, lo, hi in groups:
            ga[lo:hi] = g[lo:hi] @ w.data[j].T
            gw[j] = a.data[lo:hi].T @ g[lo:hi]
            gb[j] = g[lo:hi].sum(axis=0)
        a._accumulate(ga)
        w._accumulate(gw)
        b._accumulate(gb)

    return _make(y, (a, w, b), bw)


def softmax(a, mask: np.ndarray | None = None, scale=None) -> Tensor:
    """Shift-invariant softmax of ``a * scale`` along the last axis; entries
    where ``mask`` is False come out exactly 0.

    ``scale`` (a tensor broadcasting against ``a``, or a number) multiplies
    the input before the -inf substitution, so no finite scale can weaken the
    mask. Gradients flow to both ``a`` and ``scale``.
    """
    a = astensor(a)
    s = None if scale is None else _operands(a, scale)[1]
    x = a.data if s is None else a.data * s.data
    if mask is not None:
        x = np.where(np.asarray(mask, dtype=bool), x, -np.inf)
    p = x - np.maximum.reduce(x, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)

    def bw(out):
        g = out.grad
        gx = out.data * (g - (g * out.data).sum(axis=-1, keepdims=True))
        if s is None:
            a._accumulate(gx)
        else:
            a._accumulate(_unbroadcast(gx * s.data, a.shape))
            s._accumulate(_unbroadcast(gx * a.data, s.shape))

    return _make(p, (a,) if s is None else (a, s), bw)


def rmsnorm(x, gain, eps: float = 1e-6) -> Tensor:
    """gain * x / sqrt(mean(x^2) + eps) over the last axis.

    eps=0 is allowed for exact hand checks but requires nonzero input.
    """
    x, gain = astensor(x), astensor(gain)
    xn = x.data * x.data
    inv = np.add.reduce(xn, axis=-1, keepdims=True)
    # the mean as numpy's own: the sum divided in place by an intp count
    np.true_divide(inv, np.intp(x.shape[-1]), out=inv, casting="unsafe")
    inv += np.asarray(eps, dtype=x.dtype)
    np.power(inv, -0.5, out=inv)
    np.multiply(x.data, inv, out=xn)

    def bw(out):
        gxn = out.grad * gain.data
        x._accumulate(inv * (gxn - xn * (gxn * xn).mean(axis=-1, keepdims=True)))
        gain._accumulate(_unbroadcast(out.grad * xn, gain.shape))

    return _make(xn * gain.data, (x, gain), bw)


def l2_normalize(v) -> Tensor:
    """Unit-normalize along the last axis; zero vectors map to zero.

    The guard max(||v||, L2_GUARD) is applied to the squared norm. A guarded
    row, the all-zero row among them, passes no gradient back.
    """
    v = astensor(v)
    y = v.data * v.data
    ss = np.add.reduce(y, axis=-1, keepdims=True)
    guard = np.asarray(L2_GUARD**2, dtype=v.dtype)
    kept = ss >= guard
    inv = np.where(kept, ss, guard)
    np.power(inv, -0.5, out=inv)
    np.multiply(v.data, inv, out=y)

    def bw(out):
        g = out.grad
        v._accumulate(np.where(kept, inv, 0) * (g - y * (g * y).sum(axis=-1, keepdims=True)))

    return _make(y, (v,), bw)


def rope_rotate(x, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate interleaved (even, odd) pairs of the last axis by given angles.

    cos/sin broadcast against x[..., 0::2]; counterclockwise convention:
    even' = even*cos - odd*sin, odd' = even*sin + odd*cos.
    """
    x = astensor(x)
    xe, xo = x.data[..., 0::2], x.data[..., 1::2]
    y = np.empty_like(x.data)
    ye, yo = y[..., 0::2], y[..., 1::2]
    np.multiply(xe, cos, out=ye)
    ye -= xo * sin
    np.multiply(xe, sin, out=yo)
    yo += xo * cos

    def bw(out):
        ge, go = out.grad[..., 0::2], out.grad[..., 1::2]
        g = np.empty_like(out.grad)
        g[..., 0::2] = ge * cos + go * sin  # inverse rotation
        g[..., 1::2] = -ge * sin + go * cos
        x._accumulate(g)

    return _make(y, (x,), bw)
