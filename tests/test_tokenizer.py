"""Normalization, patching, and embedding contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast.autodiff import Tensor
from serialcast.backbone import embed_patches, init_params, model_forward
from serialcast.errors import InputError
from serialcast.tokenizer import (SIGMA_FLOOR, denormalize, make_batch, make_supervised_batch,
                                  patchify, renormalize)
from serialcast.trainer import compare_gradients, finite_diff_gradient


class TestRenormalize:
    def test_two_point_symmetry(self):
        norm, mu, sigma = renormalize([0.0, 2.0])
        np.testing.assert_allclose(norm, [-1.0, 1.0])
        assert mu == 1.0 and sigma == 1.0

    def test_constant_clamps_sigma(self):
        norm, _, sigma = renormalize([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(norm, np.zeros(3))
        assert sigma == SIGMA_FLOOR

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        norm, mu, sigma = renormalize(x)
        assert np.isclose(mu, 2.5) and np.isclose(sigma, np.sqrt(1.25))
        np.testing.assert_allclose(norm, (x - 2.5) / np.sqrt(1.25), atol=1e-12)
        np.testing.assert_allclose(norm, [-1.34164079, -0.4472136, 0.4472136, 1.34164079])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            renormalize([])

    @given(st.floats(0.1, 100.0), st.floats(-50.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_propagation(self, a, b):
        x = np.sin(np.arange(32) / 3.0)
        n1, mu1, sigma1 = renormalize(x)
        n2, mu2, sigma2 = renormalize(a * x + b)
        np.testing.assert_allclose(n1, n2, atol=1e-9)
        assert np.isclose(mu2, a * mu1 + b, atol=1e-9)
        assert np.isclose(sigma2, a * sigma1, rtol=1e-12)


class TestDenormalize:
    def test_round_trip(self):
        x = np.random.default_rng(0).normal(2.0, 3.0, size=50)
        norm, mu, sigma = renormalize(x)
        np.testing.assert_allclose(denormalize(norm, mu, sigma), x, atol=1e-9)

    def test_zero_maps_to_mu(self):
        _, mu, sigma = renormalize([1.0, 3.0])
        assert denormalize(np.zeros(1), mu, sigma)[0] == mu

    def test_inverse_of_example(self):
        _, mu, sigma = renormalize([0.0, 2.0])
        np.testing.assert_allclose(denormalize(np.array([-1.0, 1.0]), mu, sigma), [0.0, 2.0])


class TestPatchify:
    def test_left_padding(self):
        patches, masks, n = patchify(np.arange(1.0, 6.0), 4)
        assert n == 2
        np.testing.assert_array_equal(patches[0], [0, 0, 0, 1])
        np.testing.assert_array_equal(masks[0], [0, 0, 0, 1])
        np.testing.assert_array_equal(masks[1], [1, 1, 1, 1])

    def test_divisible_no_padding(self):
        _, masks, n = patchify(np.arange(8.0), 4)
        assert n == 2 and masks.all()

    def test_paper_scale_patch_count(self):
        _, _, n = patchify(np.zeros(2880), 16)
        assert n == 180

    def test_concat_identity_on_observed(self):
        x = np.random.default_rng(1).normal(size=11)
        patches, masks, _ = patchify(x, 4)
        np.testing.assert_array_equal(patches.reshape(-1)[masks.reshape(-1) == 1], x)


class TestEmbedPatches:
    def _emb(self, cfg_p=4, d=8, zero_bias=True, seed=0):
        rng = np.random.default_rng(seed)

        def t(shape, zero=False):
            data = np.zeros(shape) if zero else rng.normal(size=shape) * 0.1
            return Tensor(data, requires_grad=True)

        shapes = {"skip.w": (2 * cfg_p, d), "skip.b": d, "mlp_in.w": (2 * cfg_p, d),
                  "mlp_in.b": d, "mlp_out.w": (d, d), "mlp_out.b": d}
        return {f"embedder.{k}": t(shape, k.endswith(".b") and zero_bias)
                for k, shape in shapes.items()}

    def test_zero_in_zero_out(self):
        emb = self._emb()
        out = embed_patches(np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), emb)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 8)))

    def test_output_shape(self):
        emb = self._emb()
        out = embed_patches(np.ones((3, 5, 4)), np.ones((3, 5, 4)), emb)
        assert out.shape == (3, 5, 8)

    def test_gradient_wrt_patch_values(self):
        emb = self._emb(seed=3)
        rng = np.random.default_rng(4)
        patches = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
        masks = np.ones((1, 2, 4))
        w = rng.normal(size=(1, 2, 8))

        from serialcast import autodiff as ad

        ad.tsum(ad.mul(embed_patches(patches, masks, emb), w)).backward()
        fd = finite_diff_gradient(
            lambda p: float((embed_patches(p["x"], masks, emb).data * w).sum()),
            {"x": patches})
        reports = compare_gradients({"x": patches.grad}, fd)
        assert all(r.passed for r in reports)


class TestBatches:
    def test_make_batch_stacks(self):
        batch = make_batch([np.arange(10.0), np.arange(10.0) * 2], 4, 3)
        assert batch.patches.shape == (2, 3, 4)
        assert batch.n_input == 3
        assert batch.mu.shape == batch.sigma.shape == (2,)

    def test_make_batch_right_pads_to_n_patches(self):
        batch = make_batch([np.arange(1.0, 6.0), np.arange(9.0), np.arange(12.0)], 4, 5)
        assert batch.patches.shape == batch.masks.shape == (3, 5, 4)
        for row, n in enumerate((2, 3, 3)):  # 5, 9 and 12 points at P=4
            assert not batch.patches[row, n:].any() and not batch.masks[row, n:].any()
            assert batch.masks[row, n - 1].all()
        np.testing.assert_array_equal(batch.last_token, [1, 2, 2])

    def test_last_token_of_full_windows(self):
        batch = make_supervised_batch(np.arange(48.0).reshape(2, 24), 4, 4)
        np.testing.assert_array_equal(batch.last_token, [3, 3])

    def test_supervised_batch_stats_from_input_prefix(self):
        w = np.arange(24.0)[None, :]  # 6 patches of 4; input = first 4 patches
        batch = make_supervised_batch(w, 4, 4)
        assert batch.patches.shape == (1, 6, 4)
        mu = w[0, :16].mean()
        assert np.isclose(batch.mu[0], mu)
        # targets are normalized with the *input* stats
        np.testing.assert_allclose(batch.patches[0, 4] * batch.sigma[0] + batch.mu[0],
                                   w[0, 16:20], atol=1e-9)

    def test_padding_indifference_through_model(self, tiny_cfg):
        params = init_params(tiny_cfg, seed=0)
        series = np.sin(np.arange(13) / 2.0)  # 13 points, P=4 -> pad 3 slots
        batch_a = make_batch([series], tiny_cfg.patch_len, 4)
        batch_b = make_batch([series], tiny_cfg.patch_len, 4)
        batch_b.patches[0, 0, :3] = 99.0  # garbage where mask is 0
        out_a = model_forward(batch_a, params, tiny_cfg, 0).depth_outputs[0].data
        out_b = model_forward(batch_b, params, tiny_cfg, 0).depth_outputs[0].data
        np.testing.assert_array_equal(out_a, out_b)
