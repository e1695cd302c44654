"""Gradient checks for every autodiff op against central finite differences."""

import gc

import numpy as np
import pytest

from serialcast import autodiff as ad
from serialcast.autodiff import Tensor


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, *shapes, seed=0, atol=1e-7, rtol=1e-5):
    """build(*tensors) -> Tensor; checks d(sum(weighted output))/d(input)."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    w = rng.normal(size=build(*tensors).shape)  # fixed cotangent

    def scalar():
        return float((build(*tensors).data * w).sum())

    out = ad.tsum(ad.mul(build(*tensors), w))
    out.backward()
    for t in tensors:
        fd = numeric_grad(scalar, t.data)
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        np.testing.assert_allclose(got, fd, atol=atol, rtol=rtol)


def test_add_broadcast():
    check_op(lambda a, b: ad.add(a, b), (3, 4), (4,))
    check_op(lambda a, b: ad.add(a, b), (2, 1, 4), (3, 1))


def test_mul_broadcast():
    check_op(lambda a, b: ad.mul(a, b), (3, 4), (3, 1))


def test_power():
    check_op(lambda a: ad.power(ad.add(ad.mul(a, a), 1.0), -0.5), (5,))


def test_maximum():
    check_op(lambda a, b: ad.maximum(a, b), (7,), (7,), seed=3)


def test_activations():
    check_op(lambda a: ad.silu(a), (5,))
    check_op(lambda a: ad.softplus(a), (5,))


def test_shape_ops():
    check_op(lambda a: ad.reshape(a, (6,)), (2, 3))
    check_op(lambda a: ad.swapaxes(a, 0, 1), (2, 3))
    check_op(lambda a, b: ad.concat([a, b], axis=-1), (2, 3), (2, 2))
    check_op(lambda a: ad.getitem(a, (slice(None), np.array([0, 2, 2]))), (2, 3))


def test_gather_scatter():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda a: ad.take_rows(a, idx), (3, 4))
    check_op(lambda a: ad.scatter_rows_add(a, idx, 5), (4, 3))


def test_reductions():
    check_op(lambda a: ad.tsum(a, axis=1), (3, 4))
    check_op(lambda a: ad.tsum(a, axis=-1, keepdims=True), (2, 3))
    check_op(lambda a: ad.tmean(a, axis=0), (3, 4))
    check_op(lambda a: ad.tmean(a), (2, 2))


def test_matmul_batched():
    check_op(lambda a, b: ad.matmul(a, b), (3, 4), (4, 2))
    check_op(lambda a, b: ad.matmul(a, b), (2, 3, 4), (4, 5))
    check_op(lambda a, b: ad.matmul(a, b), (2, 2, 3, 4), (2, 2, 4, 3), seed=5)
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = ad.softmax(Tensor(rng.normal(size=(5, 7)) * 30), axis=-1)
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
    check_op(lambda a: ad.softmax(a, axis=-1), (3, 5))


def test_masked_softmax_masks_exactly():
    mask = np.tril(np.ones((4, 4), dtype=bool))
    p = ad.masked_softmax(Tensor(np.random.default_rng(1).normal(size=(4, 4))), mask)
    assert (p.data[~mask] == 0.0).all()
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
    check_op(lambda a: ad.masked_softmax(a, mask), (4, 4))


def test_rope_rotate_grad_and_norm():
    rng = np.random.default_rng(2)
    cos, sin = np.cos(0.37), np.sin(0.37)
    check_op(lambda a: ad.rope_rotate(a, cos, sin), (3, 6))
    v = Tensor(rng.normal(size=8))
    r = ad.rope_rotate(v, np.cos(1.23), np.sin(1.23))
    assert np.isclose(np.linalg.norm(r.data), np.linalg.norm(v.data), atol=1e-12)


def test_grad_accumulates_on_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x -> dx = 2x + 3 = 7
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def test_no_grad_suppresses_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.mul(x, 2.0)
    assert y._parents == () and y._backward is None


def test_operator_sugar():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = (2.0 * x + 1.0 - x) / 2.0
    np.testing.assert_allclose(y.data, [1.0, 1.5])
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [0.5, 0.5])


def test_deep_chain_iterative_topo():
    # deep graphs must not hit the recursion limit
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add(y, 1e-6)
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [1.0])


def test_graph_freed_without_cycle_collector():
    # a recorded graph must be freed by reference counting alone, or every
    # training step's activations wait for the cyclic garbage collector
    rng = np.random.default_rng(4)
    gc.collect()
    gc.disable()
    try:
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        loss = ad.tmean(ad.softplus(ad.add(ad.matmul(x, w), ad.mul(x[:, :2], 0.5))))
        loss.backward()
        assert x.grad is not None and w.grad is not None
        del x, w, loss
        assert gc.collect() == 0
    finally:
        gc.enable()
