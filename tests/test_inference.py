"""Forecast semantics, pass counting, metrics, and the benchmark harness."""

import numpy as np
import pytest

from serialcast.backbone import ModelConfig, init_params
from serialcast.errors import InputError
from serialcast.inference import (bench_inference, eval_crps_wql, evaluate,
                                  expected_block_count, expected_passes, forecast,
                                  forecast_rolling_ntp, mase, seasonal_naive_scale)
from serialcast.objectives import QuantileGrid, default_grid, pinball

CFG = ModelConfig(d_model=16, patch_len=4, n_max=8, n_main_blocks=2, n_serial_blocks=3,
                  n_experts=2, top_k=1, n_heads=1, n_quantiles=5)


@pytest.fixture(scope="module")
def params():
    return init_params(CFG, seed=3, dtype=np.float64)


@pytest.fixture(scope="module")
def series():
    return np.sin(np.arange(64) / 4.0) + 0.01 * np.arange(64)


class TestForecast:
    def test_short_horizon_single_pass_depth_zero(self, params, series):
        dist = forecast(series, CFG.patch_len, params, CFG)
        assert dist.passes == 1
        assert dist.blocks == CFG.n_main_blocks
        assert dist.values.shape == (5, CFG.patch_len)

    def test_native_horizon_one_pass_full_depth(self, params, series):
        dist = forecast(series, CFG.native_horizon, params, CFG)
        assert dist.passes == 1
        assert dist.blocks == CFG.n_main_blocks + CFG.n_serial_blocks

    def test_beyond_native_outer_autoregression(self, params, series):
        f = CFG.native_horizon + CFG.patch_len
        dist = forecast(series, f, params, CFG)
        assert dist.passes == 2
        assert dist.values.shape[1] == f
        assert dist.blocks == (CFG.n_main_blocks + CFG.n_serial_blocks) + CFG.n_main_blocks

    def test_prefix_consistency_exact(self, params, series):
        full = forecast(series, CFG.native_horizon, params, CFG)
        for k in range(1, CFG.n_serial_blocks + 2):
            part = forecast(series, k * CFG.patch_len, params, CFG)
            np.testing.assert_array_equal(part.values,
                                          full.values[:, : k * CFG.patch_len])

    def test_quantiles_sorted_and_multiset_preserved(self, params, series):
        raw = forecast(series, 16, params, CFG, sort_quantiles=False)
        srt = forecast(series, 16, params, CFG, sort_quantiles=True)
        assert np.all(np.diff(srt.values, axis=0) >= 0)
        np.testing.assert_array_equal(np.sort(raw.values, axis=0), srt.values)

    def test_affine_equivariance(self, params):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40).cumsum()
        a, b = 3.5, -12.0
        f1 = forecast(x, 12, params, CFG).values
        f2 = forecast(a * x + b, 12, params, CFG).values
        np.testing.assert_allclose(f2, a * f1 + b, rtol=1e-6, atol=1e-8 * (1 + abs(b)))

    def test_grid_size_must_match_model(self, params, series):
        with pytest.raises(InputError):
            forecast(series, 8, params, CFG, grid=QuantileGrid((0.2, 0.5)))

    def test_bad_horizon(self, params, series):
        with pytest.raises(InputError):
            forecast(series, 0, params, CFG)

    @pytest.mark.parametrize("fn", [forecast, forecast_rolling_ntp])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_before_truncation(self, params, fn, bad):
        x = np.sin(np.arange(500) / 4.0)
        x[3] = bad  # outside the last n_max * P points that truncation keeps
        with pytest.raises(InputError, match="index 3$"):
            fn(x, 8, params, CFG)

    def test_long_context_truncated(self, params):
        x = np.sin(np.arange(500) / 4.0)
        dist = forecast(x, 8, params, CFG)
        ref = forecast(x[-CFG.n_max * CFG.patch_len :], 8, params, CFG)
        np.testing.assert_array_equal(dist.values, ref.values)

    def test_short_ragged_context_left_pads(self, params):
        dist = forecast(np.ones(5), 8, params, CFG)  # 5 points, P=4 -> padded patch
        assert np.isfinite(dist.values).all()


class TestRolling:
    def test_single_patch_equals_serial(self, params, series):
        a = forecast(series, CFG.patch_len, params, CFG)
        b = forecast_rolling_ntp(series, CFG.patch_len, params, CFG)
        np.testing.assert_array_equal(a.values, b.values)

    def test_single_patch_equals_serial_float32(self, series):
        params32 = init_params(CFG, seed=3, dtype=np.float32)
        serial = forecast(series, CFG.native_horizon, params32, CFG)
        rolling = forecast_rolling_ntp(series, CFG.patch_len, params32, CFG)
        assert rolling.values.dtype == np.float64  # data scale stays 64-bit
        np.testing.assert_array_equal(rolling.values, serial.values[:, : CFG.patch_len])

    def test_roll_count_seventeen_at_paper_ratio(self, params):
        # 272 = 17 patches at P=16; here scaled to P=4 -> F=68 is 17 rolls
        series = np.sin(np.arange(32) / 3.0)
        dist = forecast_rolling_ntp(series, 17 * CFG.patch_len, params, CFG)
        assert dist.passes == 17

    def test_block_counter_matches_closed_form(self, params, series):
        for f in (1, 4, 7, 12, 16, 23, 40):
            for mode, fn in (("rolling", forecast_rolling_ntp), ("serial", forecast)):
                dist = fn(series, f, params, CFG)
                assert dist.blocks == expected_block_count(mode, f, CFG)
                assert dist.passes == expected_passes(mode, f, CFG)

    def test_grid_size_must_match_model(self, params, series):
        with pytest.raises(InputError):
            forecast_rolling_ntp(series, 8, params, CFG, default_grid(3))


class TestMase:
    def test_perfect_forecast_zero(self):
        x = np.arange(10.0)
        assert mase(x, x, np.arange(50.0) + np.sin(np.arange(50))) == 0.0

    def test_degenerate_periodic_guard(self):
        insample = np.tile([1.0, 2.0], 25)
        assert seasonal_naive_scale(insample, season=2) < 1e-12
        from serialcast.inference import is_degenerate_scale

        assert is_degenerate_scale(insample, season=2)

    def test_random_walk_one_step_naive_is_one(self):
        # at horizon 1 the naive error and the in-sample scale share the same
        # distribution, so the ratio concentrates near 1 (at long horizons
        # random-walk naive error grows like sqrt(h) and MASE >> 1)
        rng = np.random.default_rng(1)
        vals = []
        for _ in range(200):
            x = rng.normal(size=202).cumsum()
            insample, actual = x[:201], x[201:]
            vals.append(mase(np.array([insample[-1]]), actual, insample, season=1))
        assert abs(np.mean(vals) - 1.0) < 0.1

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            mase(np.ones(3), np.ones(4), np.ones(10))


class TestCrpsWql:
    def _dist(self, values, levels=(0.1, 0.5, 0.9)):
        from serialcast.inference import ForecastDistribution

        return ForecastDistribution(np.asarray(values, dtype=np.float64),
                                    QuantileGrid(levels))

    def test_all_quantiles_exact_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        dist = self._dist(np.tile(y, (3, 1)))
        assert eval_crps_wql(dist, y) == 0.0

    def test_symmetric_miss_equal_scores(self):
        y = np.array([2.0, 4.0])
        c = 0.5
        above = self._dist(np.tile(y + c, (3, 1)))
        below = self._dist(np.tile(y - c, (3, 1)))
        assert np.isclose(eval_crps_wql(above, y), eval_crps_wql(below, y))

    def test_brute_force_double_loop(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=6) + 5.0
        vals = rng.normal(size=(3, 6)) + 5.0
        dist = self._dist(vals)
        total = 0.0
        for k, q in enumerate(dist.levels.levels):
            rho = sum(pinball(y[t], vals[k, t], q) for t in range(6))
            total += 2.0 * rho / np.abs(y).sum()
        assert np.isclose(eval_crps_wql(dist, y), total / 3)

    def test_horizon_mismatch(self):
        with pytest.raises(InputError):
            eval_crps_wql(self._dist(np.zeros((3, 4))), np.zeros(5))


class TestEvaluateAndBench:
    def test_evaluate_report_finite(self, params):
        series = [np.sin(np.arange(80) / 4.0) + i for i in range(3)]
        report = evaluate(params, CFG, series, horizon=8)
        assert np.isfinite(report.mase) and np.isfinite(report.crps_wql)
        assert report.passes_serial == 3
        assert len(report.mase_per_series) == 3
        keys = [line.split()[0] for line in report.lines()]
        assert keys == ["mase", "crps_wql", "passes_serial", "passes_rolling", "wall_ms_p50"]

    def test_bench_counts_and_ratio(self, params):
        points = bench_inference(params, CFG, [CFG.native_horizon], repetitions=2, seed=1)
        pt = points[0]
        assert pt.blocks_serial == CFG.n_main_blocks + CFG.n_serial_blocks
        assert pt.blocks_rolling == (CFG.n_serial_blocks + 1) * CFG.n_main_blocks
        assert pt.passes_serial == 1
        assert pt.passes_rolling == CFG.n_serial_blocks + 1
        assert pt.wall_ms_serial_p50 > 0 and pt.wall_ms_rolling_p50 > 0
