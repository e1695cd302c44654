"""Self-tests: every output check passes real program output and rejects a
deliberately corrupted copy of it.

    python3 perfbench/test_checks.py          # or: python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import inputs  # noqa: E402
from serialcast import backbone, cli, inference, tokenizer, trainer  # noqa: E402
from serialcast.objectives import default_grid  # noqa: E402

SMALL = backbone.ModelConfig(d_model=16, patch_len=4, n_max=8, n_main_blocks=2, n_serial_blocks=2,
                             n_experts=4, top_k=2, n_heads=1, n_quantiles=5)
SCRATCH = os.path.join(HERE, "work", "selftest")


@contextlib.contextmanager
def scratch_dir():
    path = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def small_rotation():
    params = backbone.init_params(SMALL, seed=3, dtype=np.float32)
    x = inputs.sinusoid_trend(np.random.default_rng(5), 50)
    short_h, long_h = SMALL.native_horizon, 4 * SMALL.native_horizon
    dists = [inference.forecast(x, short_h, params, SMALL),
             inference.forecast(x, long_h, params, SMALL),
             inference.forecast_rolling_ntp(x, long_h, params, SMALL)]
    return params, x, [d.values for d in dists], [d.passes for d in dists], short_h, long_h


def rotation_problems(values, passes, short_h, long_h):
    return checks.check_rotation(*values, passes, short_h, long_h, SMALL.n_quantiles,
                                 SMALL.patch_len, SMALL.n_serial_blocks)


def test_rotation_accepts_program_output():
    _, _, values, passes, short_h, long_h = small_rotation()
    assert rotation_problems(values, passes, short_h, long_h) == []


def test_rotation_rejects_swapped_quantile_rows():
    _, _, values, passes, short_h, long_h = small_rotation()
    values[1] = values[1][[1, 0, 2, 3, 4]]
    assert any("decrease" in p for p in rotation_problems(values, passes, short_h, long_h))


def test_rotation_rejects_perturbed_column():
    _, _, values, passes, short_h, long_h = small_rotation()
    values[1] = values[1].copy()
    values[1][:, 2] += 1e-6
    assert any("first" in p for p in rotation_problems(values, passes, short_h, long_h))
    values[1][:, 2] -= 1e-6
    values[2] = values[2].copy()
    values[2][:, 1] += 1e-6
    assert any("rolling" in p for p in rotation_problems(values, passes, short_h, long_h))


def test_rotation_rejects_wrong_pass_count():
    _, _, values, passes, short_h, long_h = small_rotation()
    assert any("closed form" in p
               for p in rotation_problems(values, [passes[0], passes[1], passes[2] - 1],
                                          short_h, long_h))


def test_affine_check():
    params, x, values, _, short_h, _ = small_rotation()
    a, b = 3.5, -12.0
    moved = inference.forecast(a * x + b, short_h, params, SMALL).values
    assert checks.check_affine(values[0], moved, a, b, float(np.std(x))) == []
    moved[0, 0] += 0.01 * a * np.std(x)
    assert checks.check_affine(values[0], moved, a, b, float(np.std(x))) != []


def test_eval_check_against_cli_output():
    horizon = 8
    with scratch_dir() as d:
        ckpt = os.path.join(d, "model.sfck")
        trainer.save_checkpoint(backbone.init_params(SMALL, seed=4, dtype=np.float32), None, ckpt)
        config = os.path.join(d, "model.cfg")
        inputs.write_config(config, SMALL)
        rng = np.random.default_rng(6)
        series = [inputs.sinusoid_trend(rng, n) for n in (30, 45, 60)]
        csvs = []
        for k, x in enumerate(series):
            csvs.append(os.path.join(d, f"s{k}.csv"))
            inputs.write_csv(csvs[-1], x)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["eval", "--checkpoint", ckpt, "--config", config, "--input", *csvs,
                            "--horizon", str(horizon)])
        params, _ = trainer.load_checkpoint(ckpt)
    mases, crps = [], []
    for x in series:
        dist = inference.forecast(x[:-horizon], horizon, params, SMALL)
        mases.append(checks.mase_ref(dist.median, x[-horizon:], x[:-horizon]))
        crps.append(checks.wql_mean_ref(dist.values, dist.levels.levels, x[-horizon:]))
    report = checks.parse_report(out.getvalue())
    n = len(series)
    passes = (n * checks.serial_passes(horizon, SMALL.patch_len, SMALL.n_serial_blocks),
              n * checks.rolling_passes(horizon, SMALL.patch_len))
    mase, wql = float(np.mean(mases)), float(np.mean(crps))
    assert checks.check_eval(code, report, mase, wql, *passes) == []
    off = dict(report, mase=report["mase"] + 1e-5)
    assert any("mase" in p for p in checks.check_eval(code, off, mase, wql, *passes))
    assert any("passes_rolling" in p
               for p in checks.check_eval(code, report, mase, wql, passes[0], passes[1] + 1))
    assert checks.check_eval(1, report, mase, wql, *passes) != []


def test_checkpoint_check():
    params = backbone.init_params(SMALL, seed=2, dtype=np.float32)
    with scratch_dir() as d:
        path = os.path.join(d, "a.sfck")
        trainer.save_checkpoint(params, trainer.OptState.fresh(params), path)
        loaded, state = trainer.load_checkpoint(path)
        trainer.save_checkpoint(loaded, state, path + ".2")
        with open(path, "rb") as f:
            saved = f.read()
        with open(path + ".2", "rb") as f:
            resaved = f.read()
    trained = {k: p.data for k, p in params.items()}
    got = {k: p.data for k, p in loaded.items()}
    assert checks.check_checkpoint(saved, resaved, trained, got) == []
    flipped = bytearray(resaved)
    flipped[len(flipped) // 2] ^= 0x01
    assert checks.check_checkpoint(saved, bytes(flipped), trained, got) != []
    name = next(iter(got))
    bad = dict(got)
    bad[name] = got[name].copy()
    bad[name].reshape(-1)[0] = np.nextafter(bad[name].reshape(-1)[0], np.float32(1))
    assert any(name in p for p in checks.check_checkpoint(saved, resaved, trained, bad))


def test_gradient_check():
    tiny = backbone.ModelConfig(d_model=16, patch_len=4, n_max=4, n_main_blocks=2,
                                n_serial_blocks=2, n_experts=4, top_k=2, n_heads=1, n_quantiles=3)
    params = backbone.init_params(tiny, seed=1, dtype=np.float64)
    rng = np.random.default_rng(1)
    windows = rng.normal(size=(2, 7 * tiny.patch_len)).cumsum(1)
    batch = tokenizer.make_supervised_batch(windows, tiny.n_max, tiny.patch_len)
    grid = default_grid(tiny.n_quantiles)

    def loss():
        fwd = backbone.model_forward(batch, params, tiny, depth=tiny.n_serial_blocks)
        return trainer.stage_loss("pretrain", fwd, batch, params, tiny, grid)[0]

    loss().backward()
    grads = {k: p.grad for k, p in params.items()}
    coords, _ = checks.pick_coords(grads, 1, rng)
    coords = coords[:6]
    numeric = checks.central_differences(lambda: float(loss().data),
                                         {k: p.data for k, p in params.items()}, coords)
    analytic = [float(grads[n].reshape(-1)[i]) for n, i in coords]
    assert checks.check_gradients(analytic, numeric, coords) == []
    analytic[3] *= 1.01
    assert len(checks.check_gradients(analytic, numeric, coords)) == 1


def test_loss_check():
    falling = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 5.0, 5.0, 5.0, 5.0]
    assert checks.check_losses(falling, [False] * 10) == []
    assert checks.check_losses([10.0] * 10, [False] * 10) != []
    assert checks.check_losses(falling, [False] * 9 + [True]) != []
    assert checks.check_losses(falling[:-1] + [float("nan")], [False] * 10) != []


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} self-tests passed")
