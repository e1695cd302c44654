"""CLI contracts: exit codes, config precedence, determinism, pipeline."""

import os
import zlib
from dataclasses import replace

import numpy as np
import pytest

from serialcast import cli, trainer
from serialcast.autodiff import Tensor
from serialcast.backbone import ModelConfig
from serialcast.cli import run
from serialcast.dataloader import (MANIFEST_NAME, ShardManifest, build_shards, read_all_series,
                                   read_csv_series, write_csv_series)
from serialcast.inference import expected_passes, forecast
from serialcast.trainer import load_checkpoint, save_checkpoint

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


def test_synth_shard_without_out_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["synth", "--format", "shard", "--count", "2", "--length", "64"]) == 1
    assert capsys.readouterr().err.startswith("error: --format shard writes a directory")
    assert not os.listdir(tmp_path)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stats_on_float32_sinusoid_corpus(tmp_path, capsys):
    corpus = str(tmp_path / "corp")
    assert run(["synth", "--format", "shard", "--count", "4", "--length", "400",
                "--period", "31.4", "--out", corpus]) == 0
    assert run(["stats", "--manifest", corpus]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out and "aggregate adf" in out


def test_stats_negative_lag_exits_one(tmp_path, capsys):
    path = str(tmp_path / "s.csv")
    run(["synth", "--kind", "sinusoidal", "--length", "256", "--out", path])
    capsys.readouterr()
    assert run(["stats", "--input", path, "--lag", "-1"]) == 1
    assert "lag order must be >= 0" in capsys.readouterr().err


def test_stats_unmatched_pattern_exits_one(tmp_path, capsys):
    # a pattern matching nothing is an error even when another input is given
    path = str(tmp_path / "s.csv")
    run(["synth", "--kind", "sinusoidal", "--length", "256", "--out", path])
    capsys.readouterr()
    pattern = str(tmp_path / "nomatch*.csv")
    assert run(["stats", "--input", path, pattern]) == 1
    assert f"no input file matches {pattern!r}" in capsys.readouterr().err


def test_stats_non_numeric_line_exits_one(tmp_path, capsys):
    path = tmp_path / "abc.csv"
    path.write_text("value\n1.0\n2.0\nabc\n4.0\n")
    assert run(["stats", "--input", str(path)]) == 1
    assert f"{path}: line 4: not a number: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [("val\n1.0\n", "expected a 'value' header, got 'val'"),
                                           ("value\n", "no values")])
def test_stats_bad_csv_exits_one(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert run(["stats", "--input", str(path)]) == 1
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("body, values", [("1.0\n\n2.0\n", [1.0, 2.0]),  # a blank line
                                          ("1_000\n", [1000.0]),  # as Python's float reads it
                                          (" 2.5 \n", [2.5])])
def test_csv_lines_read_as_float_reads_them(tmp_path, body, values):
    path = tmp_path / "s.csv"
    path.write_text("value\n" + body)
    np.testing.assert_array_equal(read_csv_series(str(path)), values)


def test_bad_csv_line_after_many_good_ones_is_named(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("value\n" + "1.5\n" * 200 + "1.5x\n2.0\n")
    assert run(["stats", "--input", str(path)]) == 1
    assert f"{path}: line 202: not a number: '1.5x'" in capsys.readouterr().err


COMMANDS = ("synth", "shard", "stats", "train", "posttrain", "gradcheck", "forecast", "eval",
            "bench")


def test_help_lists_every_subcommand(capsys):
    assert run(["--help"]) == 0
    assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("name, key", [("synth", "--noise-sigma"), ("shard", "--shard-bytes"),
                                       ("stats", "--lag"), ("train", "--peak-lr"),
                                       ("posttrain", "--mixture-weights"),
                                       ("gradcheck", "--coords"), ("forecast", "--d-model"),
                                       ("eval", "--season"), ("bench", "--horizons")])
def test_subcommand_help_lists_its_keys(name, key, capsys):
    # run builds only the named subcommand's flags: its help must be the full parser's
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([name, "--help"])
    want = capsys.readouterr().out
    assert run([name, "--help"]) == 0
    assert capsys.readouterr().out == want
    assert key in want


def test_stats_non_utf8_csv_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"value\n1.0\n2\xb05\n")
    assert run(["stats", "--input", str(path)]) == 1
    assert f"{path}: line 3: not a number" in capsys.readouterr().err


@pytest.mark.parametrize("line, shown", [(b"d_model=abc\n", "'abc'"),
                                         (b"d_model=\xff\n", "'\ufffd'")])
def test_bad_config_value_exits_one(tmp_path, capsys, line, shown):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_bytes(line)
    assert run(["forecast", "--checkpoint", "x.sfck", "--config", str(cfg_file),
                "--input", "x.csv", "--horizon", "4"]) == 1
    assert f"{cfg_file}: d_model={shown} is not a valid int" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["forecast", "--checkpoint", "x.sfck", "--input", "x.csv", "--horizon", "4", "--seed", "1"],
    ["eval", "--checkpoint", "x.sfck", "--input", "x.csv", "--horizon", "4", "--seed", "1"],
    ["shard", "--input", "x.csv", "--seed", "1"],
    ["stats", "--input", "x.csv", "--seed", "1"],
    ["synth", "--config", "c.txt"],
    ["shard", "--input", "x.csv", "--config", "c.txt"],
    ["stats", "--input", "x.csv", "--config", "c.txt"],
    ["gradcheck", "--config", "c.txt"],
])
def test_removed_flags_exit_one(argv, capsys):
    # flags that nothing read; forecasts and evals are deterministic without a seed
    assert run(argv) == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["bench", *MODEL_FLAGS, "--horizons", "abc"], "--horizons"),
    (["posttrain", *MODEL_FLAGS, "--checkpoint", "none.sfck", "--data", "none",
      "--mixture-weights", "a,b"], "--mixture-weights"),
])
def test_bad_number_list_exits_one(argv, flag, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1].startswith(f"error: {flag}: ")
    assert sum(line.startswith("error:") for line in err) == 1
    assert "Traceback" not in "".join(err)


def _seal(body: bytes) -> bytes:
    """A manifest body followed by its closing crc32 line."""
    return body + b"crc32 %08x\n" % zlib.crc32(body)


def test_malformed_manifest_exits_two(tmp_path, capsys):
    (tmp_path / "bad.sfm").write_bytes(_seal(b"SFMANIFEST 2\nshard x\n"))
    assert run(["stats", "--manifest", str(tmp_path / "bad.sfm")]) == 2
    assert "bad.sfm: line 2: malformed manifest line 'shard x'" in capsys.readouterr().err


def test_version_1_manifest_exits_two(tmp_path, capsys):
    (tmp_path / "old.sfm").write_bytes(b"SFMANIFEST 1\nroot_seed 0\nshard_count 0\nFOOTER\n")
    assert run(["stats", "--manifest", str(tmp_path / "old.sfm")]) == 2
    err = capsys.readouterr().err
    assert "old.sfm: line 1: unsupported manifest version 1" in err
    assert "synth --format shard" in err


@pytest.mark.parametrize("resealed", [False, True])
def test_train_on_edited_manifest_exits_two(tmp_path, capsys, resealed):
    # one shard of two series, 100 and 150 points; the manifest then claims 900
    data = tmp_path / "data"
    build_shards([np.sin(np.arange(100.0)), np.sin(np.arange(150.0))], 1 << 20, str(data))
    path = data / "manifest.sfm"
    blob = path.read_bytes().replace(b" 100,150\n", b" 900,150\n")
    path.write_bytes(_seal(blob[: blob.rfind(b"\n", 0, -1) + 1]) if resealed else blob)
    code = run(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"), *MODEL_FLAGS,
                "--n-max", "40", "--resample-prob", "0", "--steps", "1", "--batch-size", "1"])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("[train]")]
    assert len(lines) == 1 and lines[0].startswith(f"runtime failure: {data}"), lines
    assert ("shard_00000.sfd" if resealed else "checksum mismatch") in lines[0]


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("damage", ["flip", "truncate"])
def test_train_on_damaged_shard_exits_two(tmp_path, capsys, monkeypatch, when, damage):
    # "after" damages the shard once its first draw has checked it; a flip is
    # then a same-size rewrite with a later mtime
    data = tmp_path / "data"
    build_shards([np.sin(np.arange(400.0)), np.cos(np.arange(300.0))], 1 << 20, str(data))
    shard = data / "shard_00000.sfd"

    def spoil():
        blob, mtime = bytearray(shard.read_bytes()), shard.stat().st_mtime_ns
        if damage == "flip":
            blob[len(blob) // 2] ^= 0x01
        shard.write_bytes(blob if damage == "flip" else blob[:-4])
        os.utime(shard, ns=(mtime, mtime + 10**9))

    if when == "before":
        spoil()
    else:
        step, steps = trainer.train_step, []

        def step_then_spoil(*args, **kwargs):
            steps.append(step(*args, **kwargs))
            if len(steps) == 1:
                spoil()
            return steps[-1]
        monkeypatch.setattr(trainer, "train_step", step_then_spoil)
    code = run(["train", "--data", str(data), "--out-dir", str(tmp_path / "run"), *MODEL_FLAGS,
                "--steps", "2", "--batch-size", "2"])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("[train]")]
    assert len(lines) == 1 and lines[0].startswith(f"runtime failure: {shard}: "), lines


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
            "--input", pipeline["csv"], "--horizon", "8"]
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


def test_forecast_per_expert_checkpoint_rejected(pipeline, capsys):
    # the layout with one tensor per expert (moe.expert{j}.w1, ...) no longer loads
    params, _ = load_checkpoint(pipeline["ckpt"])
    old = {}
    for name, p in params.items():
        prefix, _, fam = name.rpartition(".")
        if prefix.endswith("moe") and fam in ("w1", "b1", "w2", "b2"):
            for j in range(p.shape[0]):
                old[f"{prefix}.expert{j}.{fam}"] = Tensor(p.data[j])
        else:
            old[name] = p
    path = str(pipeline["tmp"] / "per_expert.sfck")
    save_checkpoint(old, None, path)
    code = run(["forecast", "--checkpoint", path, "--config", pipeline["config"],
                "--input", pipeline["csv"], "--horizon", "8"])
    assert code == 2
    assert "block0.moe.w1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forecast", "eval"])
def test_non_finite_weight_exits_two(pipeline, capsys, command):
    params, state = load_checkpoint(pipeline["ckpt"])
    params["head.w"].data[0, 0] = np.nan
    ckpt = str(pipeline["tmp"] / "nan_head.sfck")
    save_checkpoint(params, state, ckpt)
    out = pipeline["tmp"] / "nan_head.csv"
    argv = [command, "--checkpoint", ckpt, "--config", pipeline["config"],
            "--input", pipeline["csv"], "--horizon", "4"]
    assert run(argv + (["--out", str(out)] if command == "forecast" else [])) == 2
    captured = capsys.readouterr()
    assert "runtime failure: head.w holds a value that is not finite" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["forecast", "eval"])
def test_overflowing_series_exits_two(pipeline, capsys, command):
    # finite in float64, but its variance is not: the pass overflows
    huge = str(pipeline["tmp"] / "huge.csv")
    write_csv_series(huge, read_csv_series(pipeline["csv"]) * 1e200)
    assert run([command, "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", huge, "--horizon", "4"]) == 2
    captured = capsys.readouterr()
    assert "runtime failure: series 0: pass 1 forecasts a value that is not finite" \
        in captured.err
    assert captured.out == ""


def _csv_with_nan(path, index: int):
    values = [f"{v}" for v in np.sin(np.arange(64) / 4.0)]
    values[index] = "nan"
    path.write_text("value\n" + "\n".join(values) + "\n")
    return str(path)


def test_eval_non_finite_input_names_file(pipeline, capsys):
    bad = _csv_with_nan(pipeline["tmp"] / "b.csv", 60)
    code = run(["eval", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], bad, "--horizon", "4"])
    assert code == 1
    assert f"{bad}: non-finite value nan at index 60" in capsys.readouterr().err


def test_shard_non_finite_input_exits_one(pipeline, capsys):
    bad = _csv_with_nan(pipeline["tmp"] / "c.csv", 5)
    out = str(pipeline["tmp"] / "nan_shards")
    assert run(["shard", "--input", bad, "--out", out]) == 1
    assert "index 5" in capsys.readouterr().err
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("source", ["synth", "shard"])
def test_value_not_finite_in_float32_exits_one(tmp_path, capsys, source):
    # exp(t) passes the float32 maximum at t = 89; the CSV's 1e39 is finite in float64
    out = tmp_path / "corpus"
    if source == "synth":
        argv = ["synth", "--format", "shard", "--kind", "exponential", "--rate", "1",
                "--length", "400", "--count", "2", "--out", str(out)]
        shown = "series 0: value 4.4896128191743455e+38 at index 89"
    else:
        csv = tmp_path / "big.csv"
        csv.write_text("value\n1.0\n2.0\n1e39\n")
        argv = ["shard", "--input", str(csv), "--out", str(out)]
        shown = f"{csv}: value 1e+39 at index 2"
    assert run(argv) == 1
    assert f"error: {shown} is not finite in float32" in capsys.readouterr().err
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("out", ["e.csv", "-"])
def test_synth_csv_not_finite_exits_one(tmp_path, capsys, monkeypatch, out):
    # exp(10 t) overflows float64 at t = 71, and the CSV reader rejects the inf
    monkeypatch.chdir(tmp_path)
    argv = ["synth", "--kind", "exponential", "--rate", "10", "--length", "400", "--out", out]
    assert run(argv) == 1
    captured = capsys.readouterr()
    label = "synth" if out == "-" else out
    assert f"error: {label}: non-finite value inf at index 71" in captured.err
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


def _files(root) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in root.iterdir()}


def test_failed_rebuild_keeps_corpus(tmp_path, capsys):
    corpus = tmp_path / "c"
    assert run(["synth", "--format", "shard", "--count", "4", "--length", "400",
                "--out", str(corpus)]) == 0
    long_csv, big_csv = str(tmp_path / "long.csv"), str(tmp_path / "big.csv")
    write_csv_series(long_csv, np.sin(np.arange(300000) / 7.0))
    write_csv_series(big_csv, [1.0, 1e39])  # finite in float64, not in float32
    before = _files(corpus)
    assert run(["stats", "--manifest", str(corpus)]) == 0
    stats = capsys.readouterr().out
    rebuild = ["shard", "--shard-bytes", "1048576", "--out", str(corpus), "--input", long_csv]
    assert run(rebuild + [big_csv]) == 1
    assert _files(corpus) == before
    assert run(["stats", "--manifest", str(corpus)]) == 0
    assert capsys.readouterr().out == stats
    # the same rebuild without the bad series replaces the corpus
    assert run(rebuild) == 0
    manifest = ShardManifest.load(str(corpus / MANIFEST_NAME))
    assert [e.path for e in manifest.entries] == ["shard_00001.sfd", "shard_00002.sfd"]
    assert sorted(os.listdir(corpus)) == [MANIFEST_NAME, "shard_00001.sfd", "shard_00002.sfd"]
    assert [v.size for v in read_all_series(manifest)] == [262144, 300000 - 262144]


@pytest.mark.parametrize("command", ["train", "stats"])
def test_corpus_value_not_finite_exits_two(tmp_path, capsys, unchecked_corpus, command):
    values = np.sin(np.arange(400.0))
    values[150] = np.inf
    root, shard = unchecked_corpus(values)
    argv = (["stats", "--manifest", root] if command == "stats" else
            ["train", "--data", root, "--out-dir", str(tmp_path / "run"), *MODEL_FLAGS,
             "--steps", "1", "--batch-size", "1"])
    assert run(argv) == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if not ln.startswith("[train]")]
    assert lines == [f"runtime failure: {shard}: value 150 is not finite, shard rejected; "
                     "rebuild the corpus"]


def test_eval_report_keys(pipeline, capsys):
    code = run(["eval", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], "--horizon", "4"])
    assert code == 0
    out = capsys.readouterr().out
    for key in ("mase", "crps_wql", "passes_serial", "passes_rolling", "wall_ms_p50"):
        assert any(line.startswith(key + " ") for line in out.splitlines()), key


@pytest.mark.parametrize("season", ["0", "-3"])
def test_eval_season_below_one_exits_one(pipeline, capsys, season):
    code = run(["eval", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--input", pipeline["csv"], "--horizon", "4", "--season", season])
    assert code == 1
    assert f"season must be >= 1, got {season}" in capsys.readouterr().err


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


def test_posttrain_n_max_extends_context(pipeline, capsys):
    # stage 2 at twice the pre-training bound: config.txt records the new bound,
    # so a forecast from it keeps the whole 16-patch context
    out_dir = pipeline["tmp"] / "post_ext"
    assert run(["posttrain", "--checkpoint", pipeline["ckpt"], "--config", pipeline["config"],
                "--data", pipeline["data"], "--n-max", "16", "--steps", "2", "--batch-size", "2",
                "--out-dir", str(out_dir)]) == 0
    assert "n_max=16" in (out_dir / "config.txt").read_text().splitlines()
    ckpt = str(out_dir / "posttrain.sfck")
    capsys.readouterr()
    assert run(["forecast", "--checkpoint", ckpt, "--config", str(out_dir / "config.txt"),
                "--input", pipeline["csv"], "--horizon", "8"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    got = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    cfg = ModelConfig(d_model=16, patch_len=4, n_max=16, n_main_blocks=1, n_serial_blocks=1,
                      n_experts=2, top_k=1, n_heads=1, n_quantiles=3)  # MODEL_FLAGS, n_max 16
    params, _ = load_checkpoint(ckpt)
    series = read_csv_series(pipeline["csv"])
    assert series.size == 64
    assert np.array_equal(got, forecast(series, 8, params, cfg).values)
    assert not np.array_equal(got, forecast(series, 8, params, replace(cfg, n_max=8)).values)


@pytest.mark.parametrize("command", ["train", "posttrain"])
@pytest.mark.parametrize("flag, value, code, messages", [
    ("--log-every", "-1", 1, ["log_every must be >= 0"]),
    ("--precision", "f64", 2, ["precision=f64", "float64", "float32"]),  # an f32 checkpoint
])
def test_run_argument_refused_before_first_step(pipeline, tmp_path, capsys, command, flag,
                                                value, code, messages):
    source = "--resume" if command == "train" else "--checkpoint"
    argv = [command, source, pipeline["ckpt"], "--config", pipeline["config"], "--data",
            pipeline["data"], "--steps", "4", "--out-dir", str(tmp_path / "run"), flag, value]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert all(m in err for m in messages), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("variant, revisit", [("serial", False), ("shift_token", False),
                                            ("serial", True)])
def test_posttrain_resume_matches_uninterrupted_run(pipeline, tmp_path, capsys, monkeypatch,
                                                    variant, revisit):
    argv = ["posttrain", "--config", pipeline["config"], "--data", pipeline["data"],
            "--variant", variant, "--steps", "3", "--batch-size", "2", "--checkpoint-interval", "1"]
    if revisit:
        argv += ["--revisit", pipeline["data"], "--mixture-weights", "0.7,0.3"]
    full, stopped = tmp_path / "full", tmp_path / "stopped"
    assert run(argv + ["--checkpoint", pipeline["ckpt"], "--out-dir", str(full)]) == 0
    step = trainer.train_step

    def stop_at_second_step(params, batch, model_cfg, train_cfg, opt, *rest):
        if opt.step == 1:
            raise OSError("stopped")
        return step(params, batch, model_cfg, train_cfg, opt, *rest)

    monkeypatch.setattr(trainer, "train_step", stop_at_second_step)
    assert run(argv + ["--checkpoint", pipeline["ckpt"], "--out-dir", str(stopped)]) == 2
    monkeypatch.undo()
    # the settings were written before step 0
    assert sorted(os.listdir(stopped)) == ["config.txt", "posttrain_step000001.sfck", "run.txt"]
    assert _files(stopped)["run.txt"] == _files(full)["run.txt"]
    # resumed with another checkpoint interval and a log, and without --checkpoint
    assert run(argv + ["--resume", str(stopped / "posttrain_step000001.sfck"),
                       "--out-dir", str(stopped), "--checkpoint-interval", "0",
                       "--log-every", "1"]) == 0
    assert "skipped 0 of 2 steps" in capsys.readouterr().out
    assert (stopped / "posttrain.sfck").read_bytes() == (full / "posttrain.sfck").read_bytes()


@pytest.mark.parametrize("flag, value, stored", [("--seed", "9", "5"), ("--steps", "4", "3"),
                                                 ("--variant", "shift_token", "serial")])
def test_resume_with_other_setting_exits_two(pipeline, tmp_path, capsys, flag, value, stored):
    key = flag[2:].replace("-", "_")
    argv = ["train", "--resume", pipeline["ckpt"], "--config", pipeline["config"], "--data",
            pipeline["data"], "--seed", "5", "--out-dir", str(tmp_path / "run"), flag, value]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{pipeline['ckpt']} was written by a run with {key}={stored}, " \
           f"this run has {key}={value}" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_run_exits_two(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "run"
    argv = ["train", "--data", pipeline["data"], "--out-dir", str(out_dir), *MODEL_FLAGS,
            "--steps", "6", "--batch-size", "2", "--peak-lr", "1e30", "--clip-norm", "0"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "skipped 5 of 6 steps" in captured.out and "final loss: nan" in captured.out
    assert "runtime failure: the run diverged: its last step was skipped with loss nan" \
        in captured.err
    assert (out_dir / "pretrain.sfck").exists()


def test_n_max_override_rejected(pipeline, tmp_path, capsys):
    argv = ["posttrain", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
            "--steps", "1", "--batch-size", "2", "--out-dir", str(tmp_path / "post")] + MODEL_FLAGS
    assert run(argv + ["--n-max-override", "16"]) == 1
    cfg_file = tmp_path / "override.txt"
    cfg_file.write_text("n_max_override=16\n")
    assert run(argv + ["--config", str(cfg_file)]) == 1
    assert "n_max_override" in capsys.readouterr().err
    assert not (tmp_path / "post").exists()


@pytest.mark.parametrize("flag, value", [
    ("--n-main-blocks", "-1"), ("--n-heads", "-2"), ("--theta-base", "0"),
    ("--theta-base", "nan"), ("--patch-len", "0"), ("--n-max", "0"), ("--d-model", "0"),
    ("--alpha", "-1"),
])
def test_bench_bad_model_key_exits_one(flag, value, capsys):
    argv = ["bench", *MODEL_FLAGS, flag, value, "--horizons", "8", "--reps", "1"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {flag[2:].replace('-', '_')} must be" in err and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--peak-lr", "nan"), ("--peak-lr", "inf"), ("--checkpoint-interval", "-1"),
    ("--flip-prob", "2"), ("--warmup-frac", "-3"), ("--weight-decay", "-5"),
    ("--clip-norm", "nan"), ("--resample-prob", "nan"), ("--lr-floor-frac", "1.5"),
    ("--steps", "-1"), ("--batch-size", "0"), ("--seed", "-1"),
])
def test_train_bad_train_key_exits_one(tmp_path, flag, value, capsys):
    # the key is checked before the corpus is read or the run directory made
    out_dir = tmp_path / "run"
    argv = ["train", "--data", str(tmp_path / "none"), "--out-dir", str(out_dir), *MODEL_FLAGS,
            flag, value]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {flag[2:].replace('-', '_')} must be" in err and "Traceback" not in err
    assert not out_dir.exists()


def test_gradcheck_exit_zero(capsys):
    assert run(["gradcheck", "--coords", "2"]) == 0
    assert "passed" in capsys.readouterr().out


@pytest.mark.parametrize("coords", ["0", "-1"])
def test_gradcheck_coords_below_one_exits_one(capsys, coords):
    assert run(["gradcheck", "--coords", coords]) == 1
    err = capsys.readouterr().err
    assert "coords per tensor must be >= 1" in err and "Traceback" not in err
