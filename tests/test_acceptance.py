"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The desk-scale training criteria (7, 8, 11) share one pre-trained model via a
module-scoped fixture; the whole module takes on the order of 15 minutes on
one CPU, dominated by those runs.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from serialcast.autodiff import Tensor
from serialcast.backbone import ModelConfig, Routing, init_params, model_forward
from serialcast.datagen import (SignalSpec, adf_statistic, derive_seed, dickey_fuller_design,
                                forecastability, gen_signal, resample)
from serialcast.dataloader import (MixtureSampler, WindowSampler, build_shards,
                                   read_all_series)
from serialcast.inference import (bench_inference, eval_crps_wql, forecast,
                                  forecast_rolling_ntp, mase)
from serialcast.objectives import default_grid, depth_losses, horizon_decay_weights, mean_aux_loss
from serialcast.tokenizer import make_batch, make_supervised_batch
from serialcast.trainer import TrainConfig, gradient_check_suite, run_pretrain, run_stage

from oracles import pinball, wql


def report(criterion: int, detail: str):
    print(f"\n[criterion {criterion:2d}] PASS  {detail}")


# -- shared toy-training setup (criteria 7, 8, 11) --------------------------

TOY_CFG = ModelConfig(d_model=64, patch_len=8, n_max=32, n_main_blocks=4, n_serial_blocks=4,
                      n_experts=8, top_k=2, n_quantiles=9)
PERIODS = (12.0, 16.0, 20.0, 24.0, 32.0, 40.0)
PRETRAIN_STEPS = 2500


def sinusoid_trend_specs(n_series: int, length: int, root_seed: int):
    specs = []
    for i in range(n_series):
        s = derive_seed(root_seed, i)
        rng = np.random.default_rng(s)
        specs.append(SignalSpec(
            kind="composite", combine="additive", length=length, seed=s,
            components=(
                SignalSpec(kind="sinusoidal", period=float(PERIODS[rng.integers(len(PERIODS))]),
                           amplitude=float(rng.uniform(0.7, 2.0)),
                           phase=float(rng.uniform(0, 2 * np.pi))),
                SignalSpec(kind="linear", slope=float(rng.uniform(-0.03, 0.03))),
            ),
            noise_sigma=float(rng.uniform(0.01, 0.05)),
        ))
    return specs


def corpus(n_series, length, root_seed):
    return [gen_signal(s) for s in sinusoid_trend_specs(n_series, length, root_seed)]


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("toy")
    manifest = build_shards(corpus(24, 2048, 100), 1 << 20, str(tmp / "pretrain_data"))
    tcfg = TrainConfig(stage="pretrain", steps=PRETRAIN_STEPS, batch_size=8, peak_lr=5e-3,
                       seed=0, out_dir=str(tmp / "run"))
    t0 = time.time()
    result = run_pretrain(TOY_CFG, tcfg, manifest)
    minutes = (time.time() - t0) / 60
    return {"result": result, "manifest": manifest, "minutes": minutes, "tmp": tmp}


def validation_batch():
    windows = np.stack([
        gen_signal(s)[: (TOY_CFG.n_max + TOY_CFG.n_serial_blocks + 1) * TOY_CFG.patch_len]
        for s in sinusoid_trend_specs(12, 512, 999)
    ])
    return make_supervised_batch(windows, TOY_CFG.n_max, TOY_CFG.patch_len)


def first_block_val_loss(params):
    batch = validation_batch()
    grid = default_grid(TOY_CFG.n_quantiles)
    trace = model_forward(batch, params, TOY_CFG, depth=1)
    return float(depth_losses(trace, batch, params, TOY_CFG, grid).data[1])


# -- criteria ----------------------------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    reports = gradient_check_suite(seed=0, coords_per_tensor=16)
    elapsed = time.time() - t0
    failures = [r for r in reports if not r.passed]
    assert failures == [], f"families failed: {[str(r) for r in failures]}"
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (limit 60s)"
    worst_rel = max(r.max_rel_err for r in reports)
    worst_abs = max(r.max_abs_err for r in reports)
    report(1, f"{len(reports)} parameter families < 1e-4 rel "
              f"(worst rel {worst_rel:.1e}, worst abs {worst_abs:.1e}), {elapsed:.1f}s")


def test_criterion_2_affine_equivariance():
    cfg = ModelConfig(d_model=32, patch_len=4, n_max=12, n_main_blocks=2, n_serial_blocks=2,
                      n_experts=4, top_k=2, n_heads=1, n_quantiles=5)
    params = init_params(cfg, seed=11, dtype=np.float64)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        t = int(rng.integers(8, cfg.n_max * cfg.patch_len + 1))
        x = rng.normal(size=t).cumsum()
        a = float(rng.uniform(0.1, 20.0))
        b = float(rng.uniform(-50.0, 50.0))
        f = forecast(x, 8, params, cfg).values
        g = forecast(a * x + b, 8, params, cfg).values
        expected = a * f + b
        scale = np.maximum(np.abs(expected), np.abs(expected).max() * 1e-3 + 1e-9)
        rel = float((np.abs(g - expected) / scale).max())
        worst = max(worst, rel)
        assert rel < 1e-6, f"trial {trial}: relative error {rel:.2e} (a={a}, b={b})"
    report(2, f"100 seeded series, every quantile/step within 1e-6 rel (worst {worst:.1e})")


def test_criterion_3_causality_standard_and_extended():
    cfg = ModelConfig(d_model=32, patch_len=4, n_max=8, n_main_blocks=2, n_serial_blocks=2,
                      n_experts=4, top_k=2, n_heads=1, n_quantiles=3)
    params = init_params(cfg, seed=5, dtype=np.float64)
    checked = 0
    for label, run_cfg, n_patches in (("standard", cfg, cfg.n_max),
                                      ("extended", replace(cfg, n_max=16), 16)):
        series = np.sin(np.arange(n_patches * cfg.patch_len) / 3.0)
        base = make_batch([series], cfg.patch_len, n_patches)
        trace_a = model_forward(base, params, run_cfg, cfg.n_serial_blocks)
        for i in range(n_patches):
            batch = make_batch([series], cfg.patch_len, n_patches)
            batch.patches[0, i, :] += 0.25
            trace_b = model_forward(batch, params, run_cfg, cfg.n_serial_blocks)
            for ha, hb in zip(trace_a.embeddings[1:], trace_b.embeddings[1:]):
                assert np.array_equal(ha.data[0, :i], hb.data[0, :i]), \
                    f"{label}: patch {i} leaked backwards"
                checked += 1
    report(3, f"patch perturbations leave earlier positions bit-identical "
              f"({checked} depth/position checks, standard + extended context)")


def test_criterion_4_adaptive_depth_prefix():
    cfg = ModelConfig(d_model=32, patch_len=4, n_max=16, n_main_blocks=2, n_serial_blocks=3,
                      n_experts=4, top_k=2, n_heads=1, n_quantiles=5)
    params = init_params(cfg, seed=7, dtype=np.float64)
    series = np.sin(np.arange(60) / 5.0) + 0.02 * np.arange(60)
    full = forecast(series, cfg.native_horizon, params, cfg)
    for k in range(1, cfg.n_serial_blocks + 2):
        partial = forecast(series, k * cfg.patch_len, params, cfg)
        assert np.array_equal(partial.values, full.values[:, : k * cfg.patch_len]), \
            f"prefix mismatch at k={k}"
    report(4, f"forecast(k*P) is an exact prefix of forecast((H+1)*P) for k=1..{cfg.n_serial_blocks + 1}")


def test_criterion_5_loss_identities():
    assert pinball(2.0, 2.0, 0.3) == 0.0
    assert pinball(2.0, 1.0, 0.5) == 0.5
    assert abs(pinball(0.0, 1.0, 0.9) - 0.1) < 1e-15
    assert wql(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.5) == 1.0
    assert wql(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 0.7) == 0.0

    e = 16
    uniform = Routing(Tensor(np.full((e, e), 1 / e)), np.full(e, 2))
    assert abs(float(mean_aux_loss([uniform]).data) - 1.0) < 1e-12

    w = horizon_decay_weights(16)
    for j, wj in enumerate(w, start=1):
        assert wj == 1.0 / math.sqrt(j)
    np.testing.assert_allclose(w[:4], [1.0, 0.70710678118654752, 0.57735026918962576, 0.5],
                               rtol=0, atol=1e-15)
    report(5, "pinball/wQL unit cases exact; uniform aux = 1.0 +- 1e-12; "
              "horizon-decay weights = 1/sqrt(j) to machine precision")


def test_criterion_6_compute_accounting():
    cfg = ModelConfig(d_model=64, patch_len=16, n_max=64, n_main_blocks=6, n_serial_blocks=4,
                      n_experts=4, top_k=2, n_quantiles=9)
    params = init_params(cfg, seed=0, dtype=np.float64)
    point = bench_inference(params, cfg, [80], repetitions=20, seed=0)[0]
    assert point.blocks_serial == 10, point.blocks_serial
    assert point.blocks_rolling == 30, point.blocks_rolling
    assert point.block_ratio == 3.0
    assert point.wall_ratio >= 2.0, f"wall ratio {point.wall_ratio:.2f} < 2.0"
    report(6, f"block counts 10 vs 30 (ratio exactly 3.0); "
              f"median wall ratio {point.wall_ratio:.2f} >= 2.0 over 20 repetitions")


def test_criterion_7_toy_learning(toy_run):
    result = toy_run["result"]
    minutes = toy_run["minutes"]
    assert PRETRAIN_STEPS <= 5000
    assert minutes < 15.0, f"training took {minutes:.1f} min (limit 15)"
    losses = [h.loss for h in result.history]
    ratio = losses[500] / losses[0]
    assert ratio < 0.8, f"loss at step 500 is {ratio:.2f} of step 0 (needs < 0.8)"

    horizon = 64
    scores = []
    for x in corpus(16, 512, 424242):
        ctx, actual = x[:-horizon], x[-horizon:]
        dist = forecast(ctx, horizon, result.params, TOY_CFG)
        scores.append(mase(dist.median, actual, ctx, season=1))
    mean_mase = float(np.mean(scores))
    assert mean_mase < 1.0, f"held-out MASE {mean_mase:.3f} (needs < 1.0)"
    report(7, f"{PRETRAIN_STEPS} steps in {minutes:.1f} min; step-500 loss ratio "
              f"{ratio:.2f} < 0.8; held-out MASE {mean_mase:.3f} < 1.0 at horizon 64")


def test_criterion_8_posttrain_effect(toy_run):
    pre_loss = first_block_val_loss(toy_run["result"].params)
    post_manifest = build_shards(corpus(16, 2048, 555), 1 << 20,
                                 str(toy_run["tmp"] / "post_data"))
    post_cfg = TrainConfig(stage="posttrain", steps=400, batch_size=8, peak_lr=1e-3,
                           seed=0, out_dir=str(toy_run["tmp"] / "run_post"))
    post = run_stage(TOY_CFG, post_cfg, [(post_manifest, 0.7), (toy_run["manifest"], 0.3)],
                     start_from=toy_run["result"].checkpoint_path)
    post_loss = first_block_val_loss(post.params)
    assert post_loss <= pre_loss, \
        f"first-block val loss rose: {pre_loss:.4f} -> {post_loss:.4f}"
    report(8, f"first-block validation loss {pre_loss:.4f} -> {post_loss:.4f} "
              f"after horizon-weighted continued training (paired seeds)")


def test_criterion_9_data_pipeline(tmp_path):
    rng = np.random.default_rng(31)
    series = [rng.normal(size=n).astype(np.float32) for n in (513, 2048, 97)]
    manifest = build_shards(series, 1 << 20, str(tmp_path / "rt"))
    for got, want in zip(read_all_series(manifest), series):
        assert np.array_equal(got, want), "round trip not bit-exact"

    w = 64
    two_window = build_shards([np.arange(w + 1, dtype=np.float32)], 1 << 20,
                              str(tmp_path / "uniform"))
    sampler = WindowSampler(two_window)
    draw_rng = np.random.default_rng(99)
    n_draws = 100_000
    hits = sum(sampler.sample_raw(w, draw_rng)[0] == 0.0 for _ in range(n_draws))
    frac = hits / n_draws
    assert abs(frac - 0.5) < 0.01, f"window frequency {frac:.4f} off by > 1%"

    m1 = build_shards([np.full(400, 1.0, dtype=np.float32)], 1 << 20, str(tmp_path / "m1"))
    m2 = build_shards([np.full(400, 2.0, dtype=np.float32)], 1 << 20, str(tmp_path / "m2"))
    mix = MixtureSampler([(WindowSampler(m1), 0.7), (WindowSampler(m2), 0.3)])
    mix_rng = np.random.default_rng(123)
    n_mix = 10_000
    ones = sum(mix.sample_raw(16, mix_rng)[0] == 1.0 for _ in range(n_mix))
    mix_frac = ones / n_mix
    assert abs(mix_frac - 0.7) < 0.02, f"mixture fraction {mix_frac:.4f} off by > 2%"
    report(9, f"shard round trip bit-exact; window split {frac:.3f} (+-1%); "
              f"mixture fraction {mix_frac:.3f} vs 0.7 (+-2%)")


def test_criterion_10_statistics_oracles():
    rng = np.random.default_rng(77)
    worst = 0.0
    for kind in ("noise", "walk", "ar"):
        if kind == "noise":
            x = rng.normal(size=500)
        elif kind == "walk":
            x = rng.normal(size=500).cumsum()
        else:
            x = np.zeros(500)
            for t in range(1, 500):
                x[t] = 0.7 * x[t - 1] + rng.normal()
        for lag in (0, 2):
            stat = adf_statistic(x, lag_order=lag)
            design, y = dickey_fuller_design(x, lag)
            beta = np.linalg.solve(design.T @ design, design.T @ y)
            resid = y - design @ beta
            s2 = float(resid @ resid) / (design.shape[0] - design.shape[1])
            cov = s2 * np.linalg.inv(design.T @ design)
            oracle = float(beta[1] / np.sqrt(cov[1, 1]))
            worst = max(worst, abs(stat - oracle))
            assert abs(stat - oracle) < 1e-8

    t = np.arange(256)
    tone = np.sin(2 * np.pi * t * 8 / 256)
    f_tone = forecastability(tone)
    assert f_tone > 0.99
    noise = np.random.default_rng(7).normal(size=1024)
    f_noise = forecastability(noise)
    assert f_noise < 0.2
    for seed in range(20):
        x = np.random.default_rng(seed).normal(size=128).cumsum()
        assert 0.0 <= forecastability(x) <= 1.0

    x8 = np.sin(2 * np.pi * np.arange(64) / 8.0)
    up = resample(x8, 2.0)
    analytic = np.sin(2 * np.pi * np.arange(128) / 16.0)
    err = float(np.abs(up - analytic).max())
    assert err < 1e-6
    report(10, f"ADF vs normal-equations oracle agree to {worst:.1e} (< 1e-8); "
               f"forecastability tone {f_tone:.3f} / noise {f_noise:.3f}; "
               f"resample x2 error {err:.1e} < 1e-6")


def test_criterion_11_ablation_harness(toy_run):
    steps = 600
    tmp = toy_run["tmp"]
    shift_cfg = ModelConfig(d_model=64, patch_len=8, n_max=32, n_main_blocks=4,
                            n_serial_blocks=4, n_experts=8, top_k=2, n_quantiles=9,
                            variant="shift_token")
    serial_small = run_pretrain(
        TOY_CFG, TrainConfig(stage="pretrain", steps=steps, batch_size=8, peak_lr=5e-3,
                             seed=0, out_dir=str(tmp / "abl_serial")), toy_run["manifest"])
    shift_small = run_pretrain(
        shift_cfg, TrainConfig(stage="pretrain", steps=steps, batch_size=8, peak_lr=5e-3,
                               seed=0, out_dir=str(tmp / "abl_shift")), toy_run["manifest"])

    horizon = 64
    rows = {}
    for name, params, cfg, fn in (
        ("serial", serial_small.params, TOY_CFG, forecast),
        ("shift_token", shift_small.params, shift_cfg, forecast),
        ("remove_serial_rolling", serial_small.params, TOY_CFG, forecast_rolling_ntp),
    ):
        crps = []
        for x in corpus(8, 512, 31337):
            ctx, actual = x[:-horizon], x[-horizon:]
            dist = fn(ctx, horizon, params, cfg)
            assert np.isfinite(dist.values).all(), f"{name} produced non-finite forecast"
            crps.append(eval_crps_wql(dist, actual))
        rows[name] = float(np.mean(crps))
    table = "  ".join(f"{k}={v:.4f}" for k, v in rows.items())
    report(11, f"variants selectable and finite; long-horizon CRPS-wQL at {steps} steps "
               f"(trend only, not gated): {table}")
