"""Seeded inputs for the benchmark workloads, made apart from the program.

Series values come from plain numpy (a sinusoid plus a linear trend, a level
and Gaussian noise), so a change to ``serialcast.datagen`` cannot change what
the benchmark feeds in. The program only receives the results: shards packed
by its own shard writer, CSV files, a checkpoint in its own format and a
``key=value`` config file.

Lengths are a fixed ragged multiset that the seed only shuffles, so every
seed gives the same amount of work and the same spread of context lengths;
the seed changes the values and their order.
"""

from __future__ import annotations

import os
import sys

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))

from serialcast import dataloader, trainer  # noqa: E402
from serialcast.backbone import ModelConfig, init_params  # noqa: E402

# Acceptance toy config (tests/test_acceptance.py TOY_CFG).
TOY_CFG = ModelConfig(d_model=64, patch_len=8, n_max=32, n_main_blocks=4, n_serial_blocks=4,
                      n_experts=8, top_k=2, n_quantiles=9)
TOY_BATCH = 8
# Fixed, not taken from --seed: forecast and eval serve the same model on
# every run. A freshly initialised router routes near-uniformly.
MODEL_SEED = 20260

PERIODS = (12.0, 16.0, 20.0, 24.0, 32.0, 40.0)

CORPUS_SERIES = 4000
CORPUS_LENGTHS = (300, 4300)  # ~9.2M points, 36 shards of at most 1 MiB
SHARD_BYTES = 1 << 20

POOL_SERIES = 24
POOL_LENGTHS = (96, 480)  # contexts below and above the 256-point window

EVAL_SERIES = 32
EVAL_LENGTHS = (128, 448)  # minus the 64-point hold-out: 64..384-point contexts
EVAL_HORIZON = 64


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def sinusoid_trend(rng: np.random.Generator, length: int) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    period = PERIODS[int(rng.integers(len(PERIODS)))]
    amplitude = rng.uniform(0.7, 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    slope = rng.uniform(-0.03, 0.03)
    level = rng.uniform(-3.0, 3.0)
    noise = rng.uniform(0.01, 0.05)
    return (amplitude * np.sin(2.0 * np.pi * t / period + phase) + slope * t + level
            + rng.normal(0.0, noise, length))


def ragged_series(seed: int, stream: int, count: int, lengths: tuple[int, int]) -> list[np.ndarray]:
    """``count`` series whose lengths are evenly spread over ``lengths``, shuffled."""
    rng = _rng(seed, stream)
    sizes = np.linspace(lengths[0], lengths[1], count).astype(int)
    rng.shuffle(sizes)
    return [sinusoid_trend(rng, int(n)) for n in sizes]


def make_corpus(seed: int, out_dir: str) -> dataloader.ShardManifest:
    series = ragged_series(seed, 1, CORPUS_SERIES, CORPUS_LENGTHS)
    return dataloader.build_shards(series, SHARD_BYTES, out_dir)


def forecast_pool(seed: int) -> list[np.ndarray]:
    return ragged_series(seed, 2, POOL_SERIES, POOL_LENGTHS)


def eval_series(seed: int) -> list[np.ndarray]:
    return ragged_series(seed, 3, EVAL_SERIES, EVAL_LENGTHS)


def write_csv(path: str, values: np.ndarray):
    with open(path, "w") as f:
        f.write("value\n")
        f.writelines(f"{float(v)!r}\n" for v in values)


def write_csvs(out_dir: str, series: list[np.ndarray]) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"series{k:03d}.csv") for k in range(len(series))]
    for path, values in zip(paths, series):
        write_csv(path, values)
    return paths


def write_config(path: str, cfg: ModelConfig):
    keys = ("d_model", "patch_len", "n_max", "n_main_blocks", "n_serial_blocks", "n_experts",
            "top_k", "n_heads", "n_quantiles", "theta_base", "alpha", "variant")
    with open(path, "w") as f:
        f.writelines(f"{k}={getattr(cfg, k)}\n" for k in keys)


def make_checkpoint(out_dir: str) -> str:
    """Toy-config weights from ``init_params`` saved in the program's format."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "model.sfck")
    trainer.save_checkpoint(init_params(TOY_CFG, seed=MODEL_SEED, dtype=np.float32), None, path)
    return path


def write_all(seed: int, out_dir: str):
    """Every input of every workload, as the benchmark makes them for ``seed``."""
    make_corpus(seed, os.path.join(out_dir, "train_corpus"))
    make_checkpoint(out_dir)
    write_config(os.path.join(out_dir, "model.cfg"), TOY_CFG)
    write_csvs(os.path.join(out_dir, "forecast_pool"), forecast_pool(seed))
    write_csvs(os.path.join(out_dir, "eval_csv"), eval_series(seed))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write every benchmark input for one seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_all(args.seed, args.out)
    print(f"wrote the inputs for seed {args.seed} to {args.out}")
