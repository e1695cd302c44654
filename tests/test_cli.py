"""CLI contracts: exit codes, config precedence, determinism, pipeline."""

import os

import numpy as np
import pytest

from serialcast import cli
from serialcast.backbone import ModelConfig
from serialcast.cli import run
from serialcast.inference import expected_passes

MODEL_FLAGS = ["--d-model", "16", "--patch-len", "4", "--n-max", "8",
               "--n-main-blocks", "1", "--n-serial-blocks", "1", "--n-experts", "2",
               "--top-k", "1", "--n-heads", "1", "--n-quantiles", "3"]


def test_unknown_flag_exits_one(capsys):
    assert run(["synth", "--no-such-flag"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1


def test_synth_csv_line_count(capsys):
    code = run(["synth", "--kind", "sinusoidal", "--period", "8", "--length", "64"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 65  # header + 64 values


def test_synth_csv_deterministic(tmp_path, capsys):
    argv = ["synth", "--kind", "sinusoidal", "--length", "32", "--noise-sigma", "0.5",
            "--seed", "7"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_synth_invalid_kind_exits_one(capsys):
    assert run(["synth", "--kind", "wavelet"]) == 1
    assert "error" in capsys.readouterr().err


def test_stats_on_csv(tmp_path, capsys):
    path = str(tmp_path / "s.csv")
    run(["synth", "--kind", "sinusoidal", "--length", "256", "--out", path])
    capsys.readouterr()
    assert run(["stats", "--input", path, "--lag", "0"]) == 0
    out = capsys.readouterr().out
    assert "aggregate forecastability" in out
    value = float([l for l in out.splitlines() if l.startswith("aggregate forecastability")][0].split()[-1])
    assert value > 0.9


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "conf.txt"
    cfg_file.write_text("d_model=32\npatch_len=4\n")
    data = str(tmp_path / "corpus")
    run(["synth", "--format", "shard", "--count", "4", "--length", "300",
         "--out", data, "--seed", "1"])
    capsys.readouterr()
    out_dir = str(tmp_path / "run")
    code = run(["train", "--config", str(cfg_file), "--data", data, "--out-dir", out_dir,
                "--steps", "1", "--batch-size", "2", "--d-model", "16",
                "--n-max", "8", "--n-main-blocks", "1", "--n-serial-blocks", "1",
                "--n-experts", "2", "--top-k", "1", "--n-heads", "1", "--n-quantiles", "3"])
    assert code == 0
    err = capsys.readouterr().err
    assert "d_model=16" in err  # flag overrides file
    assert "patch_len=4" in err  # file overrides default
    saved = (tmp_path / "run" / "config.txt").read_text()
    assert "d_model=16" in saved


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = tmp_path / "bad.txt"
    cfg_file.write_text("no_such_key=5\n")
    data = str(tmp_path / "corpus")
    run(["synth", "--format", "shard", "--count", "4", "--length", "300", "--out", data])
    capsys.readouterr()
    assert run(["train", "--config", str(cfg_file), "--data", data]) == 1


def test_missing_checkpoint_is_runtime_failure(tmp_path, capsys):
    code = run(["forecast", "--checkpoint", str(tmp_path / "none.sfck"),
                "--input", "x.csv", "--horizon", "4"] + MODEL_FLAGS)
    assert code == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth corpus -> train 3 steps -> return paths."""
    tmp = tmp_path_factory.mktemp("cli_pipeline")
    data = str(tmp / "corpus")
    assert run(["synth", "--format", "shard", "--count", "6", "--length", "400",
                "--period", "16", "--noise-sigma", "0.05", "--out", data, "--seed", "3"]) == 0
    out_dir = str(tmp / "run")
    assert run(["train", "--data", data, "--out-dir", out_dir, "--steps", "3",
                "--batch-size", "2", "--seed", "5"] + MODEL_FLAGS) == 0
    csv = str(tmp / "input.csv")
    assert run(["synth", "--kind", "sinusoidal", "--period", "16", "--length", "64",
                "--out", csv]) == 0
    return {"data": data, "ckpt": os.path.join(out_dir, "pretrain.sfck"),
            "config": os.path.join(out_dir, "config.txt"), "csv": csv, "tmp": tmp}


def test_train_writes_checkpoint(pipeline):
    assert os.path.exists(pipeline["ckpt"])
    assert os.path.exists(pipeline["config"])


def test_forecast_csv_output(pipeline, capsys):
    code = run(["forecast", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], "--horizon", "8"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("q0.1,")
    assert len(out) == 9  # header + 8 steps
    assert len(out[1].split(",")) == 3


def test_forecast_deterministic_bytes(pipeline, capsys):
    argv = ["forecast", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
            "--input", pipeline["csv"], "--horizon", "8", "--seed", "1"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_forecast_rolling_mode(pipeline, capsys):
    code = run(["forecast", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], "--horizon", "8", "--mode", "rolling"])
    assert code == 0


def test_forecast_non_finite_input_exits_one(pipeline, capsys):
    path = pipeline["tmp"] / "with_nan.csv"
    values = [f"{v}" for v in np.sin(np.arange(64) / 4.0)]
    values[17] = "nan"
    path.write_text("value\n" + "\n".join(values) + "\n")
    code = run(["forecast", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", str(path), "--horizon", "8"])
    assert code == 1
    assert "index 17" in capsys.readouterr().err


def test_forecast_mismatched_model_flags(pipeline, capsys):
    code = run(["forecast", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], "--horizon", "8", "--d-model", "32"])
    assert code == 2  # checkpoint/config mismatch is a load failure


def test_eval_report_keys(pipeline, capsys):
    code = run(["eval", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], "--horizon", "4"])
    assert code == 0
    out = capsys.readouterr().out
    for key in ("mase", "crps_wql", "passes_serial", "passes_rolling", "wall_ms_p50"):
        assert any(line.startswith(key + " ") for line in out.splitlines()), key


@pytest.mark.parametrize("mode", ["serial", "rolling"])
def test_eval_single_evaluation_closed_form_passes(pipeline, capsys, monkeypatch, mode):
    calls = []
    evaluate = cli.evaluate

    def counting(*args, **kwargs):
        calls.append(kwargs["mode"])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", counting)
    horizon = 12
    code = run(["eval", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], pipeline["csv"], "--horizon", str(horizon),
                "--mode", mode])
    assert code == 0
    assert calls == [mode]
    report = dict(line.split() for line in capsys.readouterr().out.splitlines())
    cfg = ModelConfig(d_model=16, patch_len=4, n_max=8, n_main_blocks=1, n_serial_blocks=1,
                      n_experts=2, top_k=1, n_heads=1, n_quantiles=3)  # as MODEL_FLAGS
    for other in ("serial", "rolling"):
        assert int(report[f"passes_{other}"]) == 2 * expected_passes(other, horizon, cfg)


def test_bench_reports_exact_counts(pipeline, capsys):
    code = run(["bench", "--config", pipeline["config"], "--horizons", "8", "--reps", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "blocks_serial=" in out and "blocks_rolling=" in out


def test_posttrain_from_checkpoint(pipeline, capsys):
    out_dir = str(pipeline["tmp"] / "post")
    code = run(["posttrain", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--data", pipeline["data"], "--revisit", pipeline["data"],
                "--mixture-weights", "0.7,0.3", "--steps", "2", "--batch-size", "2",
                "--out-dir", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "posttrain.sfck"))


def test_gradcheck_exit_zero(capsys):
    assert run(["gradcheck", "--coords", "2"]) == 0
    assert "passed" in capsys.readouterr().out
