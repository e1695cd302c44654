"""Loss identities, frozen values, and brute-force oracles."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast.backbone import ModelConfig, init_params, model_forward
from serialcast.errors import InputError
from serialcast.objectives import (QuantileGrid, default_grid, depth_losses, mean_aux_loss,
                                   patch_project, pinball, stage_loss, wql,
                                   horizon_decay_weights)
from serialcast.tokenizer import make_supervised_batch

level = st.floats(0.01, 0.99)


def pred_loss(x_patch, preds, grid: QuantileGrid, mask=None) -> float:
    """Mean over levels of wQL for one patch; preds has shape (Q, P)."""
    preds = np.asarray(preds, dtype=np.float64)
    if preds.shape[0] != grid.q:
        raise InputError(f"expected {grid.q} quantile rows, got {preds.shape[0]}")
    return float(np.mean([wql(x_patch, preds[k], qk, mask) for k, qk in enumerate(grid.levels)]))
value = st.floats(-100.0, 100.0)


class TestPinball:
    def test_zero_at_match(self):
        assert pinball(2.0, 2.0, 0.3) == 0.0

    def test_median_is_half_abs(self):
        assert pinball(2.0, 1.0, 0.5) == 0.5
        assert pinball(1.0, 2.0, 0.5) == 0.5

    def test_overshoot_branch(self):
        assert np.isclose(pinball(0.0, 1.0, 0.9), 0.1)

    def test_level_validated(self):
        with pytest.raises(InputError):
            pinball(0.0, 1.0, 1.0)

    @given(value, value, level)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, x, xhat, q):
        assert pinball(x, xhat, q) >= 0.0

    @given(value, value, value, level)
    @settings(max_examples=100, deadline=None)
    def test_convex_in_prediction(self, x, a, b, q):
        mid = pinball(x, (a + b) / 2, q)
        assert mid <= (pinball(x, a, q) + pinball(x, b, q)) / 2 + 1e-9


class TestWql:
    def test_perfect_forecast(self):
        x = np.array([1.0, -2.0, 3.0])
        assert wql(x, x, 0.5) == 0.0

    def test_plug_in(self):
        assert np.isclose(wql([1.0, 1.0], [0.0, 0.0], 0.5), 1.0)

    def test_zero_target_guarded(self):
        out = wql(np.zeros(4), np.ones(4), 0.5)
        assert np.isfinite(out)

    def test_mask_excludes_positions(self):
        x = np.array([1.0, 99.0])
        xhat = np.array([1.0, 0.0])
        assert wql(x, xhat, 0.5, mask=[1, 0]) == 0.0


class TestPredLoss:
    def test_exact_match_zero(self):
        grid = QuantileGrid((0.1, 0.5, 0.9))
        x = np.array([1.0, 2.0])
        preds = np.tile(x, (3, 1))
        assert pred_loss(x, preds, grid) == 0.0

    def test_single_median_level_is_scaled_mae(self):
        grid = QuantileGrid((0.5,))
        x = np.array([2.0, -1.0, 4.0])
        xhat = np.array([[1.0, 0.0, 5.0]])
        expected = np.abs(x - xhat[0]).sum() / np.abs(x).sum()
        assert np.isclose(pred_loss(x, xhat, grid), expected)

    def test_brute_force_recount(self):
        rng = np.random.default_rng(0)
        grid = QuantileGrid()
        x = rng.normal(size=8)
        preds = rng.normal(size=(9, 8))
        total = 0.0
        for k, q in enumerate(grid.levels):
            rho = sum(pinball(x[t], preds[k, t], q) for t in range(8))
            total += 2.0 * rho / np.abs(x).sum()
        assert np.isclose(pred_loss(x, preds, grid), total / 9)

    def test_level_permutation_invariance(self):
        # permuting rows together with their levels leaves the mean unchanged
        rng = np.random.default_rng(1)
        x = rng.normal(size=6)
        preds = rng.normal(size=(3, 6))
        grid = QuantileGrid((0.2, 0.5, 0.8))
        base = pred_loss(x, preds, grid)
        perm = [2, 0, 1]
        total = np.mean([wql(x, preds[k], grid.levels[k]) for k in perm])
        assert np.isclose(base, total)

    def test_masked_positions_do_not_contribute(self):
        grid = QuantileGrid((0.5,))
        x = np.array([1.0, 2.0])
        preds = np.array([[0.5, 1.5]])
        base = pred_loss(x, preds, grid)
        x_ext = np.array([1.0, 2.0, 123.0, -7.0])
        preds_ext = np.array([[0.5, 1.5, 0.0, 99.0]])
        extended = pred_loss(x_ext, preds_ext, grid, mask=[1, 1, 0, 0])
        assert np.isclose(base, extended)


class TestHead:
    def test_zero_head_zero_output(self, tiny_cfg, tiny_params):
        tiny_params["head.w"].data[:] = 0.0
        tiny_params["head.b"].data[:] = 0.0
        from serialcast.autodiff import Tensor

        out = patch_project(Tensor(np.ones((1, 2, tiny_cfg.d_model))), tiny_params, tiny_cfg)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 3, 4)))

    def test_output_shape(self, tiny_cfg, tiny_params):
        from serialcast.autodiff import Tensor

        out = patch_project(Tensor(np.zeros((2, 4, tiny_cfg.d_model))), tiny_params, tiny_cfg)
        assert out.shape == (2, 4, tiny_cfg.n_quantiles, tiny_cfg.patch_len)


def _graph(roots) -> set[int]:
    """Ids of every tensor reachable from ``roots``."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return seen


class TestTrainingLosses:
    def test_ntp_zero_when_head_reproduces_targets(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        # constant-series batch: normalized targets are all zero, so a zero
        # head output reproduces them exactly on every quantile
        windows = np.full((1, (tiny_cfg.n_max + tiny_cfg.n_serial_blocks + 1) * tiny_cfg.patch_len), 5.0)
        batch = make_supervised_batch(windows, tiny_cfg.n_max, tiny_cfg.patch_len)
        tiny_params["head.w"].data[:] = 0.0
        tiny_params["head.b"].data[:] = 0.0
        trace = model_forward(batch, tiny_params, tiny_cfg, 0)
        assert depth_losses(trace, batch, tiny_params, tiny_cfg, tiny_grid).data[0] == 0.0

    def test_ntp_finite_positive_on_random_init(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 0)
        losses = depth_losses(trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid).data
        assert losses.shape == (1,) and np.isfinite(losses[0]) and losses[0] > 0

    def test_serial_uniform_additive_over_depths(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 2)
        losses = depth_losses(trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid).data
        _, parts = stage_loss("pretrain", trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid)
        assert parts["ntp"] == losses[0]
        assert np.isclose(parts["serial"], (losses[1] + losses[2]) / 2)
        assert all(v >= 0 for v in losses)

    def test_serial_single_depth(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 1)
        losses = depth_losses(trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid).data
        assert losses.shape == (2,) and np.isfinite(losses[1]) and losses[1] > 0

    def test_prefix_stable_across_trace_depths(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        # a depth's loss does not depend on how many depths run beside it
        full = depth_losses(model_forward(tiny_batch, tiny_params, tiny_cfg, 2), tiny_batch,
                            tiny_params, tiny_cfg, tiny_grid).data
        for depth in (0, 1):
            trace = model_forward(tiny_batch, tiny_params, tiny_cfg, depth)
            got = depth_losses(trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid).data
            np.testing.assert_array_equal(got, full[: depth + 1])

    @pytest.mark.parametrize("variant", ["serial", "shift_token"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depth_losses_match_brute_force(self, tiny_cfg, tiny_grid, variant, dtype):
        # every depth against per-token pred_loss; rows 1-2 carry padded steps
        cfg = replace(tiny_cfg, variant=variant)
        params = init_params(cfg, seed=2, dtype=dtype)
        rng = np.random.default_rng(11)
        n, p = cfg.n_max, cfg.patch_len
        windows = rng.normal(size=(3, (n + cfg.n_serial_blocks + 1) * p)).cumsum(axis=1)
        batch = make_supervised_batch(windows, n, p)
        batch.masks[1, :2] = 0.0
        batch.masks[2, -3:, 1:] = 0.0
        trace = model_forward(batch, params, cfg, cfg.n_serial_blocks)
        got = depth_losses(trace, batch, params, cfg, tiny_grid).data
        assert got.dtype == dtype
        for d, h in enumerate(trace.depth_outputs):
            preds = patch_project(h, params, cfg).data
            rows = []
            for b in range(batch.patches.shape[0]):
                total = 0.0
                for i in range(n):
                    if variant == "shift_token" and i >= n - d:
                        continue  # fuses clamped future embeddings
                    total += pred_loss(batch.patches[b, i + d + 1], preds[b, i], tiny_grid,
                                       batch.masks[b, i + d + 1])
                rows.append(total)
            rtol = 1e-5 if dtype == np.float32 else 1e-12
            np.testing.assert_allclose(got[d], np.mean(rows), rtol=rtol)

    def test_loss_graph_does_not_grow_with_blocks(self):
        # the nodes the loss adds on top of the forward graph: one head pass,
        # one pinball and one aux fold whatever the number of blocks
        added = set()
        for n_main, n_serial in ((1, 1), (2, 1), (1, 3), (3, 4)):
            cfg = ModelConfig(d_model=16, patch_len=4, n_max=4, n_main_blocks=n_main,
                              n_serial_blocks=n_serial, n_experts=4, top_k=2, n_heads=1,
                              n_quantiles=3)
            params = init_params(cfg, seed=0, dtype=np.float64)
            windows = np.random.default_rng(0).normal(
                size=(2, (cfg.n_max + n_serial + 1) * cfg.patch_len)).cumsum(axis=1)
            batch = make_supervised_batch(windows, cfg.n_max, cfg.patch_len)
            trace = model_forward(batch, params, cfg, n_serial)
            forward = _graph(trace.embeddings + [r.affinity for r in trace.aux])
            total, _ = stage_loss("pretrain", trace, batch, params, cfg)
            added.add(len(_graph([total]) - forward))
        assert len(added) == 1, added

    def test_toy_training_graph_size(self):
        # the toy configuration's depth-4 f32 training graph, every tensor counted
        cfg = ModelConfig(d_model=64, patch_len=8, n_max=32, n_main_blocks=4, n_serial_blocks=4,
                          n_experts=8, top_k=2, n_quantiles=9)
        params = init_params(cfg, seed=0, dtype=np.float32)
        windows = np.random.default_rng(0).normal(
            size=(8, (cfg.n_max + cfg.n_serial_blocks + 1) * cfg.patch_len)).cumsum(axis=1)
        batch = make_supervised_batch(windows, cfg.n_max, cfg.patch_len)
        trace = model_forward(batch, params, cfg, cfg.n_serial_blocks)
        total, _ = stage_loss("pretrain", trace, batch, params, cfg, default_grid(cfg.n_quantiles))
        assert len(_graph([total])) <= 500

    def test_horizon_decay_weights_frozen_values(self):
        np.testing.assert_allclose(horizon_decay_weights(4), [1.0, 0.70710678, 0.57735027, 0.5])
        assert horizon_decay_weights(16)[-1] == 0.25
        np.testing.assert_allclose(horizon_decay_weights(16), [1 / np.sqrt(j) for j in range(1, 17)])

    def test_stage_loss_composition(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 2)
        total, parts = stage_loss("pretrain", trace, tiny_batch, tiny_params,
                                  replace(tiny_cfg, alpha=0.01), tiny_grid)
        assert np.isclose(parts["total"], parts["ntp"] + parts["serial"] + 0.01 * parts["aux"])
        total0, parts0 = stage_loss("pretrain", trace, tiny_batch, tiny_params,
                                    replace(tiny_cfg, alpha=0.0), tiny_grid)
        assert np.isclose(parts0["total"], parts0["ntp"] + parts0["serial"])

    def test_stage_arithmetic(self):
        assert np.isclose(1.0 + 2.0 + 0.01 * 1.0, 3.01)

    def test_stage_switch_changes_only_weights(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 2)
        _, pre = stage_loss("pretrain", trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid)
        _, post = stage_loss("posttrain", trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid)
        assert pre["ntp"] == post["ntp"] and pre["aux"] == post["aux"]
        losses = depth_losses(trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid).data
        manual = sum(w * v for w, v in zip(horizon_decay_weights(2), losses[1:])) / 2
        assert np.isclose(post["serial"], manual)

    def test_unknown_stage_rejected(self, tiny_cfg, tiny_params, tiny_grid, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 2)
        with pytest.raises(InputError):
            stage_loss("finetune", trace, tiny_batch, tiny_params, tiny_cfg, tiny_grid)

    def test_mean_aux_is_mean_over_layers(self, tiny_cfg, tiny_params, tiny_batch):
        trace = model_forward(tiny_batch, tiny_params, tiny_cfg, 2)
        e = tiny_cfg.n_experts
        per_layer = [e * float((r.counts / r.counts.sum() * r.affinity.data.mean(axis=0)).sum())
                     for r in trace.aux]
        assert len(per_layer) == 4
        assert np.isclose(float(mean_aux_loss(trace.aux).data), np.mean(per_layer), rtol=1e-14)


def test_float32_graph_is_float32_throughout(tiny_cfg, tiny_batch):
    # every node reachable from the f32 training loss, constants included
    params = init_params(tiny_cfg, seed=1, dtype=np.float32)
    trace = model_forward(tiny_batch, params, tiny_cfg, tiny_cfg.n_serial_blocks)
    loss, _ = stage_loss("pretrain", trace, tiny_batch, params, tiny_cfg)
    seen, stack, dtypes = set(), [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            dtypes.add(node.dtype)
            stack.extend(node._parents)
    assert dtypes == {np.dtype(np.float32)}, dtypes
    loss.backward()
    assert {p.grad.dtype for p in params.values()} == {np.dtype(np.float32)}


class TestGridValidation:
    def test_default_grid(self):
        grid = QuantileGrid()
        assert grid.q == 9 and grid.levels[4] == 0.5 and grid.median_index() == 4

    def test_monotone_required(self):
        with pytest.raises(InputError):
            QuantileGrid((0.5, 0.5))
        with pytest.raises(InputError):
            QuantileGrid((0.2, 0.1))

    def test_open_interval_required(self):
        with pytest.raises(InputError):
            QuantileGrid((0.0, 0.5))
