"""Single executable exposing the pipeline.

Subcommands: synth, shard, stats, train, posttrain, gradcheck, forecast,
eval, bench. Configuration keys, the seed among them, come from defaults < the
settings beside the loaded checkpoint < a key=value --config file < flags.
Unknown keys are rejected; the result is echoed. A model key other than the
stored one exits 2 on forecast, eval and bench; on --resume, ``run_stage``
refuses any setting the run would change. train and posttrain take
--checkpoint or --resume, not both.

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np

from .backbone import ModelConfig, init_params
from .datagen import (SignalSpec, adf_statistic, dataset_complexity, derive_seed, forecastability,
                      gen_signal)
from .dataloader import (DEFAULT_SHARD_BYTES, MANIFEST_NAME, ShardManifest, build_shards,
                         csv_lines, default_data_dir, load_config_file, read_all_series,
                         read_csv_series, write_csv_series, write_whole)
from .errors import ConfigError, InputError, NumericError, SerialcastError
from .inference import (bench_inference, evaluate, expected_block_count, forecast,
                        forecast_rolling_ntp)
from .trainer import (SETTINGS_FILES, TrainConfig, gradient_check_suite, load_checkpoint,
                      refuse_changes, run_stage, validate_params)


def _keys(cls, skip: tuple[str, ...] = ()) -> dict[str, tuple[type, object]]:
    """Config keys of a dataclass: field name -> (annotated type, default)."""
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default) for f in fields(cls) if f.name not in skip}


MODEL_KEYS = _keys(ModelConfig)
# the subcommand sets the stage; --out-dir has its own flag
TRAIN_KEYS = _keys(TrainConfig, skip=("stage", "out_dir"))
CONFIG_KEYS = {**MODEL_KEYS, **TRAIN_KEYS}
# composites are built in code; --seed has its own flag
SIGNAL_KEYS = _keys(SignalSpec, skip=("combine", "components", "seed"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _add_keys(parser: argparse.ArgumentParser, keys: dict):
    for key, (typ, _default) in keys.items():
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, type=typ, default=None)


def merge_config(args, keys: dict, config_path: str | None, base: dict | None = None) -> dict:
    """base (or the defaults) < config file < explicit flags; unknown file keys rejected."""
    merged = dict(base or {k: d for k, (_t, d) in keys.items()})
    if config_path:
        for k, v in load_config_file(config_path).items():
            if k not in keys:
                raise ConfigError(f"unknown config key {k!r}")
            typ = keys[k][0]
            try:
                merged[k] = typ(v)
            except ValueError:
                raise ConfigError(f"{config_path}: {k}={v!r} is not a valid "
                                  f"{typ.__name__}") from None
    for k in keys:
        flag = getattr(args, k, None)
        if flag is not None:
            merged[k] = flag
    return merged


def _model_cfg(merged: dict) -> ModelConfig:
    return ModelConfig(**{k: merged[k] for k in MODEL_KEYS})


def _signal_spec_from_args(args, seed: int) -> SignalSpec:
    given = {k: getattr(args, k) for k in SIGNAL_KEYS if getattr(args, k) is not None}
    return SignalSpec(seed=seed, **given)


def _manifest_path(path: str) -> str:
    """A manifest file, or the one a shard directory holds."""
    return os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path


def _number_list(text: str, flag: str, typ) -> list:
    """A comma-separated flag value such as ``--horizons 40,80``."""
    try:
        return [typ(w) for w in text.split(",")]
    except ValueError:
        raise InputError(f"{flag}: expected comma-separated {typ.__name__}s: {text!r}") from None


def _input_paths(inputs: list[str]) -> list[str]:
    paths = []
    for pattern in inputs:
        hits = sorted(glob.glob(pattern)) if any(c in pattern for c in "*?[") else [pattern]
        if not hits:
            raise InputError(f"no input file matches {pattern!r}")
        paths.extend(hits)
    if not paths:
        raise InputError("no input files")
    return paths


def _gather_series(inputs: list[str]) -> list[np.ndarray]:
    return [read_csv_series(p) for p in _input_paths(inputs)]


# -- subcommand bodies ----------------------------------------------------


def cmd_synth(args) -> int:
    spec = _signal_spec_from_args(args, args.seed)
    if args.format == "csv":
        values = gen_signal(spec)
        if args.out == "-":
            sys.stdout.write(csv_lines(values, "synth"))
        else:
            write_csv_series(args.out, values)
            print(f"wrote {values.size} points to {args.out}", file=sys.stderr)
        return 0
    if args.out == "-":
        raise InputError("--format shard writes a directory: give it with --out")
    # shard corpus: --count series with derived seeds; sinusoids additionally
    # get rotated phases so a noise-free family still has distinct members
    series = []
    for i in range(args.count):
        s = _signal_spec_from_args(args, derive_seed(args.seed, i))
        if s.kind == "sinusoidal":
            s.phase += 2.0 * np.pi * i / max(args.count, 1)
        series.append(gen_signal(s))
    return _write_shards(series, args)


def cmd_shard(args) -> int:
    paths = _input_paths(args.input)
    return _write_shards([read_csv_series(p) for p in paths], args, paths)


def _write_shards(series, args, names: list[str] | None = None) -> int:
    manifest = build_shards(series, args.shard_bytes, args.out, names)
    print(f"wrote {len(manifest.entries)} shard(s), {manifest.total_points} points to {args.out}",
          file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    if args.manifest:
        variates = read_all_series(ShardManifest.load(_manifest_path(args.manifest)))
    else:
        variates = _gather_series(args.input)
    for i, v in enumerate(variates):
        print(f"series {i}: n={v.size} adf={adf_statistic(v, args.lag):.4f} "
              f"forecastability={forecastability(v):.4f}")
    point = dataset_complexity(variates, args.lag)
    print(f"aggregate adf {point.adf:.6f}")
    print(f"aggregate forecastability {point.forecastability:.6f}")
    return 0


def _settings(args) -> tuple[ModelConfig, dict, dict]:
    """A command's model and train keys, echoed: defaults < those stored beside the checkpoint
    it loads < --config < flags. Also what is stored there: config.txt's keys, and on --resume
    run.txt's; {} if no config.txt is there (a resume fails)."""
    resume = getattr(args, "resume", None)
    config, run_file = (os.path.join(os.path.dirname(resume or args.checkpoint or ""), name)
                        for name in SETTINGS_FILES)
    stored = merge_config(None, CONFIG_KEYS, config) if resume or (
        args.checkpoint and os.path.exists(config)) else {}
    merged = merge_config(args, CONFIG_KEYS, args.config, base=stored)
    stored |= load_config_file(run_file) if resume else {}
    print(f"[{args.command}]" + "".join(f" {k}={merged[k]}" for k in sorted(merged)),
          file=sys.stderr)
    return _model_cfg(merged), merged, stored


def cmd_train(args) -> int:
    """train and posttrain, the subcommand naming the stage."""
    if args.stage == "posttrain" and not (args.checkpoint or args.resume):
        raise InputError("posttrain needs --checkpoint or --resume")
    cfg, merged, stored = _settings(args)
    tcfg = TrainConfig(stage=args.stage, out_dir=args.out_dir,
                       **{k: merged[k] for k in TRAIN_KEYS})
    # on --resume, run.txt stands in for each source not given
    paths = [_manifest_path(p) for p in (args.data or stored.get("source0") or default_data_dir(),
                                         args.revisit or stored.get("source1")) if p]
    weights = _number_list(args.mixture_weights or ",".join(stored.get(f"source{i}_weight", "1.0")
                           for i in range(len(paths))), "--mixture-weights", float)
    if len(weights) != len(paths):
        raise InputError(f"--mixture-weights: {len(weights)} weights for {len(paths)} sources")
    sources = [(ShardManifest.load(p), w) for p, w in zip(paths, weights)]
    result = run_stage(cfg, tcfg, sources, start_from=args.checkpoint, resume_from=args.resume,
                       log_every=args.log_every)
    print(f"checkpoint: {result.checkpoint_path}")
    print(f"skipped {sum(r.skipped for r in result.history)} of {len(result.history)} steps")
    if result.history:
        last = result.history[-1]
        print(f"final loss: {last.loss:.6f}")
        if last.skipped and not np.isfinite(last.loss):
            raise NumericError(f"the run diverged: its last step was skipped with loss {last.loss}")
    return 0


def cmd_gradcheck(args) -> int:
    reports = gradient_check_suite(seed=args.seed, coords_per_tensor=args.coords)
    failures = [r for r in reports if not r.passed]
    for r in reports:
        print(r)
    if failures:
        worst = max(failures, key=lambda r: r.max_rel_err)
        print(f"FAILED: worst offender {worst.param_name} rel={worst.max_rel_err:.3e}",
              file=sys.stderr)
        return 2
    print(f"all {len(reports)} parameter families passed")
    return 0


def _load_model(args):
    """The model of forecast, eval and bench: --checkpoint's weights or fresh ones."""
    cfg, _merged, stored = _settings(args)
    if stored:  # model keys compare as ModelConfig resolves them
        refuse_changes(args.checkpoint, asdict(_model_cfg(stored)), asdict(cfg))
    if not args.checkpoint:
        return cfg, init_params(cfg, seed=args.seed, dtype=np.float32)
    params, _state = load_checkpoint(args.checkpoint)
    validate_params(params, cfg)
    return cfg, params


def cmd_forecast(args) -> int:
    cfg, params = _load_model(args)
    series = read_csv_series(args.input)
    fn = forecast_rolling_ntp if args.mode == "rolling" else forecast
    dist = fn(series, args.horizon, params, cfg)
    header = ",".join(f"q{q:g}" for q in dist.levels.levels)
    lines = [header] + [",".join(f"{v}" for v in dist.values[:, t]) for t in range(dist.horizon)]
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        write_whole(args.out, [text.encode()])
        print(f"wrote {dist.horizon} steps to {args.out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg, params = _load_model(args)
    series = _gather_series(args.input)
    report = evaluate(params, cfg, series, args.horizon, season=args.season, mode=args.mode)
    for line in report.lines():
        print(line)
    return 0


def cmd_bench(args) -> int:
    cfg, params = _load_model(args)
    horizons = _number_list(args.horizons, "--horizons", int)
    for point in bench_inference(params, cfg, horizons, repetitions=args.reps, seed=args.seed):
        exp_s = expected_block_count("serial", point.horizon, cfg)
        exp_r = expected_block_count("rolling", point.horizon, cfg)
        print(f"F={point.horizon} blocks_serial={point.blocks_serial}(exp {exp_s}) "
              f"blocks_rolling={point.blocks_rolling}(exp {exp_r}) "
              f"ratio={point.block_ratio:.3f} "
              f"wall_ms_serial_p50={point.wall_ms_serial_p50:.2f} "
              f"wall_ms_rolling_p50={point.wall_ms_rolling_p50:.2f} "
              f"wall_ratio={point.wall_ratio:.2f}")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser(only: str | None = None) -> _Parser:
    """Every subcommand; given ``only``, the others get no flags of their own."""
    parser = _Parser(prog="serialcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, fn):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        return p if only in (None, name) else None

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    def model_config(p, train=False):
        p.add_argument("--config", default=None, help="key=value config file")
        _add_keys(p, MODEL_KEYS)
        if train:
            _add_keys(p, TRAIN_KEYS)

    if p := command("synth", "generate a synthetic series or shard corpus", cmd_synth):
        seed(p)
        _add_keys(p, SIGNAL_KEYS)
        p.add_argument("--format", choices=("csv", "shard"), default="csv")
        p.add_argument("--count", type=int, default=32, help="series count for shard format")
        p.add_argument("--shard-bytes", dest="shard_bytes", type=int, default=DEFAULT_SHARD_BYTES)
        p.add_argument("--out", default="-")

    if p := command("shard", "pack CSV series into shards", cmd_shard):
        p.add_argument("--input", nargs="+", required=True)
        p.add_argument("--shard-bytes", dest="shard_bytes", type=int, default=DEFAULT_SHARD_BYTES)
        p.add_argument("--out", default=default_data_dir())

    if p := command("stats", "complexity statistics (unit-root, forecastability)", cmd_stats):
        p.add_argument("--input", nargs="*", default=[])
        p.add_argument("--manifest", default=None)
        p.add_argument("--lag", type=int, default=None)

    for name, stage, summary in (("train", "pretrain", "stage-1 pre-training"),
                                 ("posttrain", "posttrain", "stage-2 continued pre-training")):
        if p := command(name, summary, cmd_train):
            p.set_defaults(stage=stage)
            model_config(p, train=True)
            # start from a checkpoint or resume one: the pair exits 1 before any file is read
            start = p.add_mutually_exclusive_group()
            start.add_argument("--checkpoint", default=None, help="weights to start from")
            start.add_argument("--resume", default=None, help="checkpoint to go on from")
            p.add_argument("--data", default=None, help="manifest path or shard dir")
            p.add_argument("--revisit", default=None, help="second corpus manifest to mix in")
            p.add_argument("--mixture-weights", dest="mixture_weights", default=None)
            p.add_argument("--out-dir", dest="out_dir", default=f"runs/{stage}")
            p.add_argument("--log-every", dest="log_every", type=int, default=0)

    if p := command("gradcheck", "finite-difference gradient verification", cmd_gradcheck):
        seed(p)
        p.add_argument("--coords", type=int, default=24)

    if p := command("forecast", "quantile forecast from a CSV series", cmd_forecast):
        model_config(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--input", required=True)
        p.add_argument("--horizon", type=int, required=True)
        p.add_argument("--mode", choices=("serial", "rolling"), default="serial")
        p.add_argument("--out", default="-")

    if p := command("eval", "hold-out evaluation with MASE / CRPS-wQL", cmd_eval):
        model_config(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--input", nargs="+", required=True)
        p.add_argument("--horizon", type=int, required=True)
        p.add_argument("--season", type=int, default=1)
        p.add_argument("--mode", choices=("serial", "rolling"), default="serial")

    if p := command("bench", "serial vs rolling inference cost", cmd_bench):
        seed(p)
        model_config(p)
        p.add_argument("--checkpoint", default=None)
        p.add_argument("--horizons", default="80")
        p.add_argument("--reps", type=int, default=5)

    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.fn(args)
    except (InputError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (SerialcastError, OSError) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
