"""Gradient checks for every autodiff op, and for the fused layer primitives
built on it, against central finite differences."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast import autodiff as ad
from serialcast.autodiff import L2_GUARD, Tensor, l2_normalize, rmsnorm
from serialcast.backbone import causal_mask, rope_table, scaled_masked_softmax


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
    check_op(lambda a: ad.getitem(a, idx), (3, 4))
    rng = np.random.default_rng(6)
    for k in (1, 2, 3):
        # 4 tokens, each owning k of the 4k rows, listed in ascending row order
        slots = np.sort(rng.permutation(4 * k).reshape(4, k), axis=1)
        check_op(lambda a: ad.gather_slots(a, slots), (4, 3))
        check_op(lambda r: ad.sum_slots(r, slots), (4 * k, 3))
        # same sums, in the same order, as an unbuffered add into a zero base
        rows = rng.normal(size=(4 * k, 3))
        want = np.zeros((4, 3))
        np.add.at(want, np.argsort(slots.reshape(-1)) // k, rows)
        assert np.array_equal(ad.sum_slots(Tensor(rows), slots).data, want)
        x = rng.normal(size=(4, 3))
        assert np.array_equal(ad.gather_slots(Tensor(x), slots).data[slots[:, -1]], x)


def test_put_rows_is_the_adjoint_of_getitem():
    rows = np.array([4, 0, 2])
    check_op(lambda a: ad.put_rows(a, rows, 5), (3, 2))
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
    out = ad.put_rows(Tensor(x), rows, 5).data
    assert np.array_equal(out[rows], x)
    assert not np.delete(out, rows, axis=0).any()
    # <put(x), y> = <x, get(y)>
    assert np.isclose((out * y).sum(), (x * ad.getitem(Tensor(y), rows).data).sum())


def test_reductions():
    check_op(lambda a: ad.tsum(a, axis=1), (3, 4))
    check_op(lambda a: ad.tsum(a, axis=-1), (2, 3))
    check_op(lambda a: ad.tmean(a, axis=0), (3, 4))
    check_op(lambda a: ad.tmean(a), (2, 2))


def test_matmul_batched():
    check_op(lambda a, b: ad.matmul(a, b), (3, 4), (4, 2))
    check_op(lambda a, b: ad.matmul(a, b), (2, 3, 4), (4, 5))
    check_op(lambda a, b: ad.matmul(a, b), (2, 2, 3, 4), (2, 2, 4, 3), seed=5)


def test_grouped_linear():
    # groups of 2, 0, 1 and 3 rows: an empty group and a lone row
    counts = np.array([2, 0, 1, 3])
    check_op(lambda a, w, b: ad.grouped_linear(a, w, b, counts), (6, 3), (4, 3, 2), (4, 2))
    rng = np.random.default_rng(1)
    a, w, b = rng.normal(size=(6, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2))
    out = ad.grouped_linear(Tensor(a), Tensor(w), Tensor(b), counts).data
    np.testing.assert_allclose(out[2], a[2] @ w[2] + b[2], atol=1e-12)
    np.testing.assert_allclose(out[3:], a[3:] @ w[3] + b[3], atol=1e-12)


def test_grouped_linear_row_independent_of_group_size():
    # a row's output must not depend on how many rows share its group, or
    # causality in the expert layers is no longer bit-exact; 18 output
    # columns take the zero-padded weights, with an empty group between
    rng = np.random.default_rng(2)
    for o, counts in ((32, [3]), (18, [3, 0])):
        w, b = rng.normal(size=(len(counts) + 1, 16, o)), rng.normal(size=(len(counts) + 1, o))
        rows = rng.normal(size=(5, 16))
        outs = []
        for size in (1, 2, 5):
            a = np.concatenate([rng.normal(size=(3, 16)), rows[:size]])
            out = ad.grouped_linear(Tensor(a), Tensor(w), Tensor(b), np.array(counts + [size]))
            outs.append(out.data[3])
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = ad.softmax(Tensor(rng.normal(size=(5, 7)) * 30))
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
    check_op(lambda a: ad.softmax(a), (3, 5))


def test_masked_softmax_masks_exactly():
    # masked entries are exactly 0 and the kept ones still sum to 1
    mask = np.tril(np.ones((4, 4), dtype=bool))
    p = ad.softmax(Tensor(np.random.default_rng(1).normal(size=(4, 4))), mask=mask)
    assert (p.data[~mask] == 0.0).all()
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)
    check_op(lambda a: ad.softmax(a, mask=mask), (4, 4))


def test_rope_rotate_grad_and_norm():
    rng = np.random.default_rng(2)
    cos, sin = np.cos(0.37), np.sin(0.37)
    check_op(lambda a: ad.rope_rotate(a, cos, sin), (3, 6))
    v = Tensor(rng.normal(size=8))
    r = ad.rope_rotate(v, np.cos(1.23), np.sin(1.23))
    assert np.isclose(np.linalg.norm(r.data), np.linalg.norm(v.data), atol=1e-12)


# -- fused layer primitives: one node each --------------------------------


def test_fused_rmsnorm_grad():
    check_op(lambda x, g: rmsnorm(x, g, 1e-6), (2, 3, 5), (5,))  # gain broadcast over rows
    check_op(lambda x, g: rmsnorm(x, g, 0.0), (4, 6), (1, 6), seed=1)


def test_fused_l2_normalize_grad_and_zero_row():
    check_op(lambda v: l2_normalize(v), (3, 4))
    keep = np.array([[1.0], [0.0], [1.0]])  # row 1 reaches the op as all zeros
    check_op(lambda v: l2_normalize(ad.mul(v, keep)), (3, 4), seed=2)
    v = Tensor(np.zeros((2, 4)), requires_grad=True)
    ad.tsum(ad.mul(l2_normalize(v), np.arange(8.0).reshape(2, 4))).backward()
    assert np.array_equal(v.grad, np.zeros((2, 4)))


@pytest.mark.parametrize("causal", [True, False])
def test_fused_scaled_masked_softmax_grad(causal):
    # scores (B, heads, N, N) against a per-head tau, through softplus as in the
    # model; the unmasked case is the plain scaled softmax
    fn = scaled_masked_softmax if causal else (lambda s, t: ad.softmax(s, scale=t))
    check_op(lambda s, t: fn(s, ad.reshape(ad.softplus(t), (2, 1, 1))), (1, 2, 4, 4), (2,),
             seed=4)


def test_fused_forward_equals_composite():
    # the fused f64 forwards evaluate the old composite expressions in the same order
    rng = np.random.default_rng(8)
    x, g = Tensor(rng.normal(size=(2, 3, 8))), Tensor(rng.normal(size=8))
    ms = ad.reshape(ad.tmean(ad.mul(x, x), axis=-1), (2, 3, 1))
    inv = Tensor(ad.add(ms, 1e-6).data ** -0.5)
    assert np.array_equal(rmsnorm(x, g, 1e-6).data, ad.mul(ad.mul(x, inv), g).data)
    v = Tensor(np.concatenate([rng.normal(size=(3, 8)), np.zeros((1, 8))]))
    ss = ad.reshape(ad.tsum(ad.mul(v, v), axis=-1), (4, 1))
    inv = Tensor(np.maximum(ss.data, L2_GUARD**2) ** -0.5)
    assert np.array_equal(l2_normalize(v).data, ad.mul(v, inv).data)
    scores, tau = Tensor(rng.normal(size=(2, 5, 5))), Tensor(rng.uniform(0.5, 4.0, size=(2, 1, 1)))
    for mask in (causal_mask(5), None):
        want = ad.softmax(ad.mul(scores, tau), mask=mask).data
        fused = scaled_masked_softmax(scores, tau) if mask is not None \
            else ad.softmax(scores, scale=tau)
        got = fused.data
        assert np.array_equal(got, want)


def test_python_number_takes_tensor_dtype():
    x = Tensor(np.ones(3, dtype=np.float32))
    for op in (ad.add, ad.mul):
        assert op(x, 0.5).dtype == np.float32 and op(2, x).dtype == np.float32
    assert ad.add(Tensor(np.ones(3)), 0.5).dtype == np.float64


def test_cached_tables_read_only():
    cos, sin = rope_table(6, 4, 10000.0, np.dtype(np.float32))
    assert cos.dtype == sin.dtype == np.float32
    assert rope_table(6, 4, 10000.0, np.dtype(np.float32))[0] is cos
    for table in (cos, sin, causal_mask(6)):
        with pytest.raises(ValueError):
            table[0, 0] = 0


def test_grad_accumulates_on_reuse():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x -> dx = 2x + 3 = 7
    ad.tsum(y).backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        ad.mul(x, 2.0).backward()


def test_op_without_grad_inputs_records_no_graph():
    y = ad.mul(Tensor(np.ones(3)), 2.0)
    assert y._parents == () and y._backward is None and not y.requires_grad


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
        loss = ad.tmean(ad.softplus(ad.add(ad.matmul(x, w), ad.mul(ad.getitem(x, (slice(None), slice(0, 2))), 0.5))))
        loss.backward()
        assert x.grad is not None and w.grad is not None
        del x, w, loss
        assert gc.collect() == 0
    finally:
        gc.enable()


finite_vec = st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16)


class TestRmsnorm:
    def test_zero_input(self):
        out = rmsnorm(Tensor(np.zeros(2)), Tensor(np.ones(2)), 1e-6)
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

    def test_hand_evaluated(self):
        out = rmsnorm(Tensor(np.array([3.0, 4.0])), Tensor(np.ones(2)), 0.0)
        expected = np.array([3.0, 4.0]) / np.sqrt(12.5)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        np.testing.assert_allclose(out.data, [0.848528137, 1.131370850], atol=1e-8)

    def test_constant_vector_unit_rms(self):
        for c in (2.5, -0.3):
            out = rmsnorm(Tensor(np.full(5, c)), Tensor(np.ones(5)), 0.0)
            np.testing.assert_allclose(out.data, np.sign(c) * np.ones(5), atol=1e-12)

    @given(finite_vec)
    @settings(max_examples=50, deadline=None)
    def test_unit_rms_property(self, values):
        x = np.asarray(values)
        if np.sqrt((x**2).mean()) < 1e-100:  # eps=0 contract needs non-underflowing input
            return
        out = rmsnorm(Tensor(x), Tensor(np.ones(x.size)), 0.0).data
        assert np.isclose(np.sqrt((out**2).mean()), 1.0, atol=1e-9)


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize(Tensor(np.array([3.0, 4.0]))).data,
                                   [0.6, 0.8], atol=1e-12)

    def test_idempotent_on_unit(self):
        v = np.array([0.6, 0.8])
        np.testing.assert_allclose(l2_normalize(Tensor(v)).data, v, atol=1e-12)

    def test_zero_guard(self):
        np.testing.assert_array_equal(l2_normalize(Tensor(np.zeros(3))).data, np.zeros(3))

    @given(finite_vec)
    @settings(max_examples=50, deadline=None)
    def test_unit_norm_or_zero(self, values):
        x = np.asarray(values)
        out = l2_normalize(Tensor(x)).data
        n = np.linalg.norm(out)
        assert np.isclose(n, 1.0, atol=1e-9) or (np.linalg.norm(x) < 1e-10 and n < 1.0)
