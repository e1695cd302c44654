"""Forecast semantics, batching, pass counting, metrics, and the benchmark harness."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serialcast import autodiff, inference
from serialcast.backbone import (VARIANT_SERIAL, VARIANT_SHIFT, ModelConfig, init_params,
                                 model_forward)
from serialcast.errors import ConfigError, InputError
from serialcast.inference import (_chunk_len, _forecast_loop, _group_pass, bench_inference,
                                  eval_crps_wql, evaluate, expected_block_count, expected_passes,
                                  forecast, forecast_rolling_ntp, mase, seasonal_naive_scale)
from serialcast.objectives import QuantileGrid
from serialcast.tokenizer import make_batch

from oracles import pinball, wql

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

    @pytest.mark.parametrize("run", [forecast, forecast_rolling_ntp])
    def test_forecast_records_no_graph(self, series, monkeypatch, run):
        # a trainer's weights require grad and may hold grads; a forecast over
        # them records no op output that requires grad and leaves both alone
        params = init_params(CFG, seed=3, dtype=np.float64)
        grads = {k: np.full_like(p.data, 0.5) for k, p in params.items()}
        for k, p in params.items():
            p.grad = grads[k]
        make, outputs = autodiff._make, []

        def counted(*args):
            outputs.append(make(*args))
            return outputs[-1]

        monkeypatch.setattr(autodiff, "_make", counted)
        run(series, CFG.native_horizon + CFG.patch_len, params, CFG)
        assert outputs and sum(out.requires_grad for out in outputs) == 0
        for k, p in params.items():
            assert p.requires_grad and p.grad is grads[k], k
            np.testing.assert_array_equal(p.grad, 0.5)

    def test_prefix_consistency_exact(self, params, series):
        full = forecast(series, CFG.native_horizon, params, CFG)
        for k in range(1, CFG.n_serial_blocks + 2):
            part = forecast(series, k * CFG.patch_len, params, CFG)
            np.testing.assert_array_equal(part.values,
                                          full.values[:, : k * CFG.patch_len])

    def test_quantiles_sorted_and_multiset_preserved(self, params, series):
        srt = forecast(series, CFG.native_horizon, params, CFG)
        assert np.all(np.diff(srt.values, axis=0) >= 0)
        # the one pass's raw head output, before sorting
        (raw,), _ = _group_pass([series[-CFG.n_max * CFG.patch_len:]], CFG.n_serial_blocks,
                                params, CFG)
        np.testing.assert_array_equal(np.sort(raw, axis=0), srt.values)

    def test_affine_equivariance(self, params):
        rng = np.random.default_rng(0)
        x = rng.normal(size=40).cumsum()
        a, b = 3.5, -12.0
        f1 = forecast(x, 12, params, CFG).values
        f2 = forecast(a * x + b, 12, params, CFG).values
        np.testing.assert_allclose(f2, a * f1 + b, rtol=1e-6, atol=1e-8 * (1 + abs(b)))

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


@st.composite
def _batched_case(draw):
    """A tiny config, dtype, ragged lengths (with the patch-boundary cases),
    a horizon up to past two serial chunks, a mode and a group-size cap."""
    p = draw(st.integers(2, 5))
    n_max = draw(st.integers(2, 5))
    n_serial = draw(st.integers(0, 2))
    d = draw(st.sampled_from([8, 12, 16, 18]))  # 18: expert output columns past a full tile
    e = draw(st.integers(1, 4))
    cfg = ModelConfig(d_model=d, patch_len=p, n_max=n_max, n_main_blocks=draw(st.integers(1, 2)),
                      n_serial_blocks=n_serial, n_experts=e, top_k=draw(st.integers(1, e)),
                      n_heads=draw(st.sampled_from([h for h in (1, 2) if d % (2 * h) == 0])),
                      n_quantiles=draw(st.sampled_from([1, 3])),
                      variant=draw(st.sampled_from([VARIANT_SERIAL, VARIANT_SHIFT])))
    edges = [1, p - 1, p, n_max * p, n_max * p + 1]
    lengths = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(1, (n_max + 2) * p)),
                            min_size=1, max_size=6))
    return dict(cfg=cfg, dtype=draw(st.sampled_from([np.float32, np.float64])),
                lengths=lengths, duplicate=draw(st.integers(0, len(lengths) - 1)),
                horizon=draw(st.integers(1, 2 * cfg.native_horizon + p)),
                mode=draw(st.sampled_from(["serial", "rolling"])),
                cap=draw(st.sampled_from([1, 2, inference.MAX_BATCH_ROWS])),
                seed=draw(st.integers(0, 2**16)))


@given(_batched_case())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_batched_rows_equal_batch_one(case):
    cfg, mode, horizon = case["cfg"], case["mode"], case["horizon"]
    params = init_params(cfg, seed=case["seed"], dtype=case["dtype"])
    rng = np.random.default_rng(case["seed"])
    series = [rng.normal(size=n).cumsum() for n in case["lengths"]]
    series.append(series[case["duplicate"]].copy())
    with mock.patch.object(inference, "MAX_BATCH_ROWS", case["cap"]):
        rows = _forecast_loop(series, horizon, params, cfg, _chunk_len(mode, cfg))
    single = forecast if mode == "serial" else forecast_rolling_ntp
    for x, row in zip(series, rows):
        np.testing.assert_array_equal(row.values, single(x, horizon, params, cfg).values)
        assert row.passes == expected_passes(mode, horizon, cfg)
        assert row.blocks == expected_block_count(mode, horizon, cfg)
    np.testing.assert_array_equal(rows[-1].values, rows[case["duplicate"]].values)


@st.composite
def _context_case(draw):
    """A tiny config, dtype and variant, one context shorter than, equal to or
    longer than ``n_max`` patches, and two horizons up to past two serial
    chunks."""
    p = draw(st.integers(2, 5))
    n_max = draw(st.integers(2, 5))
    d = draw(st.sampled_from([8, 12, 16, 18]))
    e = draw(st.integers(1, 4))
    cfg = ModelConfig(d_model=d, patch_len=p, n_max=n_max, n_main_blocks=draw(st.integers(1, 2)),
                      n_serial_blocks=draw(st.integers(0, 2)), n_experts=e,
                      top_k=draw(st.integers(1, e)), n_heads=1,
                      n_quantiles=draw(st.sampled_from([1, 3])),
                      variant=draw(st.sampled_from([VARIANT_SERIAL, VARIANT_SHIFT])))
    full = n_max * p
    length = draw(st.sampled_from([
        st.integers(1, full - p),  # fewer than n_max patches
        st.integers(full - p + 1, full),  # exactly n_max patches
        st.integers(full + 1, full + 2 * p),  # truncated to n_max patches
    ]).flatmap(lambda s: s))
    long = draw(st.integers(1, 2 * cfg.native_horizon + p))
    return dict(cfg=cfg, dtype=draw(st.sampled_from([np.float32, np.float64])), length=length,
                long=long, short=draw(st.integers(1, long)),
                mode=draw(st.sampled_from(["serial", "rolling"])),
                seed=draw(st.integers(0, 2**16)))


@given(_context_case())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_contract_over_context_lengths(case):
    cfg, mode = case["cfg"], case["mode"]
    params = init_params(cfg, seed=case["seed"], dtype=case["dtype"])
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=case["length"]).cumsum()
    fn = forecast if mode == "serial" else forecast_rolling_ntp
    long = fn(x, case["long"], params, cfg).values
    # a shorter horizon is an exact prefix of a longer one
    np.testing.assert_array_equal(fn(x, case["short"], params, cfg).values,
                                  long[:, : case["short"]])
    # serial up to one patch is the rolling forecast
    f = min(case["short"], cfg.patch_len)
    np.testing.assert_array_equal(forecast(x, f, params, cfg).values,
                                  forecast_rolling_ntp(x, f, params, cfg).values)
    # affine equivariance, to the criterion-2 tolerance
    a, b = float(rng.uniform(0.1, 20.0)), float(rng.uniform(-50.0, 50.0))
    moved = fn(a * x + b, case["long"], params, cfg).values
    expected = a * long + b
    scale = np.maximum(np.abs(expected), np.abs(expected).max() * 1e-3 + 1e-9)
    assert (np.abs(moved - expected) / scale).max() < 1e-6
    # causality inside the padded pass: perturbing a real patch leaves every
    # earlier position bit-identical; shift-token serial block j reads the
    # input j patches ahead, so there the bound moves back by j
    batch = make_batch([x[-cfg.n_max * cfg.patch_len:]], cfg.patch_len, cfg.n_max)
    i = int(rng.integers(0, batch.last_token[0] + 1))
    base = model_forward(batch, params, cfg, cfg.n_serial_blocks)
    batch.patches[0, i] += 0.5
    bumped = model_forward(batch, params, cfg, cfg.n_serial_blocks)
    for k, (ha, hb) in enumerate(zip(base.embeddings, bumped.embeddings)):
        ahead = max(k - cfg.n_main_blocks, 0) if cfg.variant == VARIANT_SHIFT else 0
        np.testing.assert_array_equal(ha.data[0, : max(i - ahead, 0)],
                                      hb.data[0, : max(i - ahead, 0)])


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@given(st.integers(1, CFG.n_max * CFG.patch_len), _FINITE, _FINITE.filter(lambda a: a != 0),
       _FINITE, st.integers(1, 2 * CFG.native_horizon))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_constant_context_moves_with_its_level_only(params, length, x0, a, b, horizon):
    # a constant context normalizes with sigma = SIGMA_FLOOR, not its own scale, so
    # a*x + b is not equivariant; what holds is that the forecast less the level
    # does not depend on the level
    x = np.full(length, x0)
    moved = a * x0 + b
    tol = 16 * np.finfo(np.float64).eps * max(1.0, abs(x0), abs(moved))
    for fn in (forecast, forecast_rolling_ntp):
        offset = fn(x, horizon, params, CFG).values - x0
        moved_offset = fn(a * x + b, horizon, params, CFG).values - moved
        assert np.abs(moved_offset - offset).max() <= tol, fn.__name__


# per ModelConfig key: valid tiny values, then values that break the key alone
# or together with another (an odd head size, top_k above n_experts)
_CONFIG_VALUES = {
    "d_model": ([4, 8, 12, 16], [-2, 0, 1, 2, 3, 6, 10]),
    "patch_len": ([1, 2, 3, 4], [-1, 0]),
    "n_max": ([1, 2, 3, 4], [-1, 0]),
    "n_main_blocks": ([1, 2], [-1, 0]),
    "n_serial_blocks": ([0, 1, 2], [-2, -1]),
    "n_experts": ([1, 2, 3], [-1, 0]),
    "top_k": ([1], [-1, 0, 4]),
    "n_heads": ([0, 1, 2], [-2, -1, 3]),
    "n_quantiles": ([1, 2, 3, 4], [-1, 0]),
    "theta_base": ([1e-6, 2.0, 1e4, 1e300], [float("nan"), float("inf"), -1.0, 0.0]),
    "alpha": ([0.0, 0.01, 3.0], [float("nan"), float("inf"), -0.5]),
    "variant": ([VARIANT_SERIAL, VARIANT_SHIFT], ["serial_token", "", "SERIAL"]),
}


@st.composite
def _any_config_keys(draw):
    """Every ModelConfig key at a tiny size; up to two keys take values past
    their bounds."""
    broken = draw(st.lists(st.sampled_from(sorted(_CONFIG_VALUES)), max_size=2, unique=True))
    keys = {key: draw(st.sampled_from(bad if key in broken else good))
            for key, (good, bad) in _CONFIG_VALUES.items()}
    if "top_k" not in broken:
        keys["top_k"] = draw(st.integers(1, max(keys["n_experts"], 1)))
    return keys


@given(_any_config_keys(), st.integers(1, 24), st.integers(1, 24),
       st.sampled_from([np.float32, np.float64]))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_any_config_rejected_by_key_or_forecasts(keys, length, horizon, dtype):
    # a constant context breaks affine equivariance (SIGMA_FLOOR), so only
    # shape and finiteness are asserted here
    try:
        cfg = ModelConfig(**keys)
    except ConfigError as e:
        assert str(e).split()[0] in keys, str(e)
        return
    params = init_params(cfg, seed=length, dtype=dtype)
    x = np.random.default_rng(horizon).normal(size=length).cumsum()
    for fn in (forecast, forecast_rolling_ntp):
        values = fn(x, horizon, params, cfg).values
        assert values.shape == (cfg.n_quantiles, horizon)
        assert np.isfinite(values).all()


class TestBatching:
    def test_rows_sharing_a_pass_split_its_time(self, params):
        x = np.sin(np.arange(30) / 4.0)
        rows = _forecast_loop([x, x, np.ones(9)], 8, params, CFG, _chunk_len("serial", CFG))
        assert rows[0].wall_ms == rows[1].wall_ms > 0  # one pass, charged a third each
        assert rows[2].wall_ms > 0

    @pytest.mark.parametrize("cap", [2, inference.MAX_BATCH_ROWS])
    def test_mixed_patch_counts_share_passes(self, params, cap):
        # 7 rows of 1 to 8 patches; two serial chunks
        series = [np.sin(np.arange(n) / 4.0) for n in (1, 5, 9, 14, 22, 30, 32)]
        calls = []

        def counting(batch, *args):
            calls.append(batch.patches.shape[:2])
            return model_forward(batch, *args)

        with mock.patch.object(inference, "MAX_BATCH_ROWS", cap), \
                mock.patch.object(inference, "model_forward", counting):
            rows = _forecast_loop(series, CFG.native_horizon + 1, params, CFG,
                                  _chunk_len("serial", CFG))
        per_chunk = -(-len(series) // cap)
        assert len(calls) == 2 * per_chunk
        assert all(n == CFG.n_max for _, n in calls)
        assert all(row.passes == 2 for row in rows)

    def test_empty_list(self, params):
        assert _forecast_loop([], 8, params, CFG, _chunk_len("serial", CFG)) == []

    def test_one_bad_series_rejects_the_batch(self, params):
        bad = np.ones(20)
        bad[4] = np.nan
        with pytest.raises(InputError, match="index 4$"):
            _forecast_loop([np.ones(20), bad], 8, params, CFG, _chunk_len("serial", CFG))


class TestMase:
    def test_perfect_forecast_zero(self):
        x = np.arange(10.0)
        assert mase(x, x, np.arange(50.0) + np.sin(np.arange(50))) == 0.0

    def test_degenerate_periodic_guard(self):
        insample = np.tile([1.0, 2.0], 25)
        assert seasonal_naive_scale(insample, season=2) < 1e-12

    def test_flat_scale_is_zero_or_inf(self):
        insample = np.tile([1.0, 2.0], 25)
        assert mase([1.0, 2.0], [1.0, 2.0], insample, season=2) == 0.0
        assert mase([1.0, 2.5], [1.0, 2.0], insample, season=2) == float("inf")

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
        # the same sums as the reference form's, level by level
        assert eval_crps_wql(dist, y) == np.mean([wql(y, vals[k], q)
                                                  for k, q in enumerate(dist.levels.levels)])


class TestEvaluateAndBench:
    def test_evaluate_report_finite(self, params):
        series = [np.sin(np.arange(80) / 4.0) + i for i in range(3)]
        report = evaluate(params, CFG, series, horizon=8)
        assert np.isfinite(report.mase) and np.isfinite(report.crps_wql)
        assert report.passes_serial == 3
        assert len(report.mase_per_series) == 3
        keys = [line.split()[0] for line in report.lines()]
        assert keys == ["mase", "crps_wql", "passes_serial", "passes_rolling", "wall_ms_p50"]

    @pytest.mark.parametrize("mode", ["serial", "rolling"])
    def test_evaluate_fills_both_pass_counts(self, params, mode):
        # the evaluated mode's passes are counted, the other mode's closed form
        series = [np.sin(np.arange(80) / 4.0) + i for i in range(3)]
        horizon = CFG.native_horizon + 1
        report = evaluate(params, CFG, series, horizon=horizon, mode=mode)
        for m in ("serial", "rolling"):
            assert getattr(report, f"passes_{m}") == 3 * expected_passes(m, horizon, CFG)

    def test_mase_per_series_guards_a_flat_scale(self, params):
        flat = np.tile([1.0, 2.0], 30)  # its season-2 naive error is 0
        walk = np.random.default_rng(2).normal(size=60).cumsum()
        report = evaluate(params, CFG, [flat, walk], horizon=8, season=2)
        dists = _forecast_loop([flat[:-8], walk[:-8]], 8, params, CFG, _chunk_len("serial", CFG))
        assert not np.allclose(dists[0].median, flat[-8:])
        assert report.mase_per_series == [float("inf"),
                                          mase(dists[1].median, walk[-8:], walk[:-8], season=2)]

    def test_evaluate_empty_series_list_rejected(self, params):
        with pytest.raises(InputError, match="at least one series"):
            evaluate(params, CFG, [], horizon=8)

    @pytest.mark.parametrize("season", [0, -3])
    def test_evaluate_season_below_one_rejected(self, params, season):
        series = [np.sin(np.arange(80) / 4.0)]
        with pytest.raises(InputError, match="season must be >= 1"):
            evaluate(params, CFG, series, horizon=8, season=season)

    def test_bench_counts_and_ratio(self, params):
        points = bench_inference(params, CFG, [CFG.native_horizon], repetitions=2, seed=1)
        pt = points[0]
        assert pt.blocks_serial == CFG.n_main_blocks + CFG.n_serial_blocks
        assert pt.blocks_rolling == (CFG.n_serial_blocks + 1) * CFG.n_main_blocks
        assert pt.passes_serial == 1
        assert pt.passes_rolling == CFG.n_serial_blocks + 1
        assert pt.wall_ms_serial_p50 > 0 and pt.wall_ms_rolling_p50 > 0

    @pytest.fixture
    def fake_forecasts(self, monkeypatch):
        """Serial and rolling forecasts that record each call and return set wall times."""
        walls = {"serial": [5.0, 1.0, 3.0, 9.0, 2.0], "rolling": [20.0, 40.0, 10.0, 50.0, 30.0]}
        calls = []

        def fake(mode, blocks):
            wall = itertools.cycle(walls[mode])

            def fn(series, horizon, params, cfg):
                calls.append((mode, horizon))
                return inference.ForecastDistribution(np.zeros((1, horizon)), None, passes=blocks,
                                                      blocks=blocks, wall_ms=next(wall))
            return fn

        monkeypatch.setattr(inference, "forecast", fake("serial", 1))
        monkeypatch.setattr(inference, "forecast_rolling_ntp", fake("rolling", 3))
        return walls, calls

    def test_bench_alternates_serial_and_rolling(self, params, fake_forecasts):
        _walls, calls = fake_forecasts
        bench_inference(params, CFG, [8, 12], repetitions=3)
        assert calls == [(mode, h) for h in (8, 12) for _ in range(3)
                         for mode in ("serial", "rolling")]

    @pytest.mark.parametrize("repetitions", [1, 4, 5])
    def test_bench_p50_is_median_of_forecast_wall_ms(self, params, fake_forecasts, repetitions):
        walls, _calls = fake_forecasts
        (point,) = bench_inference(params, CFG, [8], repetitions=repetitions)
        assert point.wall_ms_serial_p50 == np.median(walls["serial"][:repetitions])
        assert point.wall_ms_rolling_p50 == np.median(walls["rolling"][:repetitions])
        assert (point.blocks_serial, point.blocks_rolling) == (1, 3)
        assert (point.passes_serial, point.passes_rolling) == (1, 3)
