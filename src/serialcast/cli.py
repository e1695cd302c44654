"""Single executable exposing the pipeline.

Subcommands: synth, shard, stats, train, posttrain, gradcheck, forecast,
eval, bench. Configuration keys can come from defaults, a key=value config
file, or flags of the same name (later wins). Unknown keys are rejected and
the effective configuration is echoed to stderr at startup.

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from .backbone import ModelConfig, init_params
from .datagen import (SignalSpec, adf_statistic, dataset_complexity, derive_seed, forecastability,
                      gen_signal)
from .dataloader import (DEFAULT_SHARD_BYTES, MANIFEST_NAME, ShardManifest, build_shards,
                         csv_lines, default_data_dir, read_all_series, read_csv_series,
                         write_csv_series, write_whole)
from .errors import ConfigError, InputError, SerialcastError
from .inference import (bench_inference, evaluate, expected_block_count, forecast,
                        forecast_rolling_ntp)
from .trainer import (TrainConfig, gradient_check_suite, load_checkpoint, run_posttrain,
                      run_pretrain, validate_params)


def _keys(cls, skip: tuple[str, ...] = ()) -> dict[str, tuple[type, object]]:
    """Config keys of a dataclass: field name -> (annotated type, default)."""
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default) for f in fields(cls) if f.name not in skip}


MODEL_KEYS = _keys(ModelConfig)
# the subcommand sets the stage; --seed and --out-dir have their own flags
TRAIN_KEYS = _keys(TrainConfig, skip=("stage", "seed", "out_dir"))
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


def load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path, encoding="utf-8", errors="replace") as f:  # bad bytes fail as bad values
        for i, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def merge_config(args, keys: dict, config_path: str | None) -> dict:
    """defaults < config file < explicit flags; unknown file keys rejected."""
    merged = {k: d for k, (_t, d) in keys.items()}
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


def echo_config(name: str, merged: dict, seed: int | None = None):
    head = f"[{name}]" if seed is None else f"[{name}] seed={seed}"
    print(head + "".join(f" {k}={merged[k]}" for k in sorted(merged)), file=sys.stderr)


def save_config(path: str, merged: dict):
    for k, v in merged.items():  # nan, or a str that load_config_file would cut or strip
        if v != v or isinstance(v, str) and (v != v.strip() or any(c in v for c in "#\r\n")):
            raise InputError(f"{k}={v!r} cannot be restored from its config file")
    write_whole(path, ["".join(f"{k}={merged[k]}\n" for k in sorted(merged)).encode()])


def _model_cfg(merged: dict) -> ModelConfig:
    return ModelConfig(**{k: merged[k] for k in MODEL_KEYS})


def _signal_spec_from_args(args, seed: int) -> SignalSpec:
    given = {k: getattr(args, k) for k in SIGNAL_KEYS if getattr(args, k) is not None}
    return SignalSpec(seed=seed, **given)


def _load_manifest(path: str) -> ShardManifest:
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    return ShardManifest.load(path)


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
        variates = read_all_series(_load_manifest(args.manifest))
    else:
        variates = _gather_series(args.input)
    for i, v in enumerate(variates):
        print(f"series {i}: n={v.size} adf={adf_statistic(v, args.lag):.4f} "
              f"forecastability={forecastability(v):.4f}")
    point = dataset_complexity(variates, args.lag)
    print(f"aggregate adf {point.adf:.6f}")
    print(f"aggregate forecastability {point.forecastability:.6f}")
    return 0


def _train_cfg(merged: dict, stage: str, seed: int, out_dir: str) -> TrainConfig:
    return TrainConfig(stage=stage, seed=seed, out_dir=out_dir,
                       **{k: merged[k] for k in TRAIN_KEYS})


def cmd_train(args) -> int:
    merged = merge_config(args, {**MODEL_KEYS, **TRAIN_KEYS}, args.config)
    echo_config("train", merged, args.seed)
    cfg = _model_cfg(merged)
    tcfg = _train_cfg(merged, "pretrain", args.seed, args.out_dir)
    manifest = _load_manifest(args.data or default_data_dir())
    result = run_pretrain(cfg, tcfg, manifest, resume_from=args.resume,
                          log_every=args.log_every)
    save_config(os.path.join(args.out_dir, "config.txt"), merged)
    print(f"checkpoint: {result.checkpoint_path}")
    if result.history:
        print(f"final loss: {result.history[-1].loss:.6f}")
    return 0


def cmd_posttrain(args) -> int:
    merged = merge_config(args, {**MODEL_KEYS, **TRAIN_KEYS}, args.config)
    echo_config("posttrain", merged, args.seed)
    cfg = _model_cfg(merged)
    weights = _number_list(args.mixture_weights, "--mixture-weights", float)
    tcfg = _train_cfg(merged, "posttrain", args.seed, args.out_dir)
    sources = [(_load_manifest(args.data), weights[0])]
    if args.revisit:
        if len(weights) < 2:
            raise InputError("--mixture-weights needs one weight per source")
        sources.append((_load_manifest(args.revisit), weights[1]))
    result = run_posttrain(args.checkpoint, cfg, tcfg, sources, log_every=args.log_every)
    save_config(os.path.join(args.out_dir, "config.txt"), merged)
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def cmd_gradcheck(args) -> int:
    reports = gradient_check_suite(seed=args.seed, coords_per_tensor=args.coords,
                                   epsilon=args.epsilon)
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


def _load_model(args, merged: dict):
    cfg = _model_cfg(merged)
    params, _state = load_checkpoint(args.checkpoint)
    validate_params(params, cfg)
    return cfg, params


def cmd_forecast(args) -> int:
    merged = merge_config(args, {**MODEL_KEYS, **TRAIN_KEYS}, args.config)
    echo_config("forecast", merged)
    cfg, params = _load_model(args, merged)
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
    merged = merge_config(args, {**MODEL_KEYS, **TRAIN_KEYS}, args.config)
    echo_config("eval", merged)
    cfg, params = _load_model(args, merged)
    series = _gather_series(args.input)
    report = evaluate(params, cfg, series, args.horizon, season=args.season, mode=args.mode)
    for line in report.lines():
        print(line)
    return 0


def cmd_bench(args) -> int:
    merged = merge_config(args, {**MODEL_KEYS, **TRAIN_KEYS}, args.config)
    echo_config("bench", merged, args.seed)
    if args.checkpoint:
        cfg, params = _load_model(args, merged)
    else:
        cfg = _model_cfg(merged)
        params = init_params(cfg, seed=args.seed, dtype=np.float32)
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


def build_parser() -> _Parser:
    parser = _Parser(prog="serialcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    def model_config(p, train=False):
        p.add_argument("--config", default=None, help="key=value config file")
        _add_keys(p, MODEL_KEYS)
        if train:
            _add_keys(p, TRAIN_KEYS)

    p = sub.add_parser("synth", help="generate a synthetic series or shard corpus")
    seed(p)
    _add_keys(p, SIGNAL_KEYS)
    p.add_argument("--format", choices=("csv", "shard"), default="csv")
    p.add_argument("--count", type=int, default=32, help="series count for shard format")
    p.add_argument("--shard-bytes", dest="shard_bytes", type=int, default=DEFAULT_SHARD_BYTES)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("shard", help="pack CSV series into shards")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--shard-bytes", dest="shard_bytes", type=int, default=DEFAULT_SHARD_BYTES)
    p.add_argument("--out", default=default_data_dir())
    p.set_defaults(fn=cmd_shard)

    p = sub.add_parser("stats", help="complexity statistics (unit-root, forecastability)")
    p.add_argument("--input", nargs="*", default=[])
    p.add_argument("--manifest", default=None)
    p.add_argument("--lag", type=int, default=None)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("train", help="stage-1 pre-training")
    seed(p)
    model_config(p, train=True)
    p.add_argument("--data", default=None, help="manifest path or shard dir")
    p.add_argument("--out-dir", dest="out_dir", default="runs/pretrain")
    p.add_argument("--resume", default=None)
    p.add_argument("--log-every", dest="log_every", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("posttrain", help="stage-2 continued pre-training")
    seed(p)
    model_config(p, train=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="post-training corpus manifest")
    p.add_argument("--revisit", default=None, help="pre-training corpus manifest to mix back")
    p.add_argument("--mixture-weights", dest="mixture_weights", default="1.0,1.0")
    p.add_argument("--out-dir", dest="out_dir", default="runs/posttrain")
    p.add_argument("--log-every", dest="log_every", type=int, default=0)
    p.set_defaults(fn=cmd_posttrain)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    seed(p)
    p.add_argument("--coords", type=int, default=24)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("forecast", help="quantile forecast from a CSV series")
    model_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--mode", choices=("serial", "rolling"), default="serial")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("eval", help="hold-out evaluation with MASE / CRPS-wQL")
    model_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--season", type=int, default=1)
    p.add_argument("--mode", choices=("serial", "rolling"), default="serial")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="serial vs rolling inference cost")
    seed(p)
    model_config(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--horizons", default="80")
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(fn=cmd_bench)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
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
