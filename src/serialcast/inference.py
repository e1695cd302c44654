"""Forecast generation, the rolling baseline, evaluation metrics, benchmark.

A serial forecast runs the main stack once and as many serial blocks as the
horizon requires (depth = ceil(F/P) - 1). Depth 0, the main stack, predicts
the next patch and serial block j the patch j+1 ahead, and one head pass
projects every depth's last token. Horizons beyond the native window fall
back to outer autoregression: the median quantile is fed back as context and
the extended window is re-normalized per pass. The rolling baseline is the
same loop with one-patch chunks, so every pass runs the main stack only.

The loop forecasts many series at once, up to MAX_BATCH_ROWS per forward
pass. Every pass right-pads each context to ``n_max`` patches, the shape
training runs at, so a row's forecast is bit-identical to its batch-1
forecast whatever else shares its pass.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Params, Tensor, no_grad
from .backbone import ModelConfig, model_forward, patch_project
from .dataloader import finite_series
from .errors import InputError, NumericError
from .objectives import WQL_EPS, QuantileGrid, default_grid
from .tokenizer import denormalize, make_batch, patchify, renormalize  # noqa: F401

# renormalize and patchify run inside make_batch; their names stay bound here
# because perfbench/tracing.py wraps inference.renormalize and .patchify.

MASE_EPS = 1e-8
# Rows per forward pass, which bounds one pass's memory. Series/s of a no-grad
# depth-4 toy-config pass stops rising at about 8 rows and stays flat to 48, so
# a larger cap only saves passes (2 cores, one BLAS thread;
# BENCH_batched_eval.json).
MAX_BATCH_ROWS = 32


@dataclass
class ForecastDistribution:
    values: np.ndarray  # (Q, F), original data scale
    levels: QuantileGrid
    passes: int = 1  # forward passes spent producing it
    blocks: int = 0  # backbone blocks run over all passes (a serial block counts once)
    wall_ms: float = 0.0  # each pass's wall time divided by the rows that shared it, summed

    @property
    def horizon(self) -> int:
        return self.values.shape[1]

    @property
    def median(self) -> np.ndarray:
        return self.values[self.levels.median_index()]


def _truncate(x: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """The last ``n_max`` patches' worth of steps."""
    return x[-cfg.n_max * cfg.patch_len:]


def _chunk_len(mode: str, cfg: ModelConfig) -> int:
    """Steps one pass contributes: (H+1)*P for serial, one patch for rolling."""
    return cfg.patch_len if mode == "rolling" else cfg.native_horizon


def _chunk_plan(horizon: int, chunk_len: int) -> list[int]:
    """Steps taken from each pass: full chunks, then the remainder."""
    return [min(chunk_len, horizon - start) for start in range(0, horizon, chunk_len)]


def _depth(chunk: int, cfg: ModelConfig) -> int:
    return math.ceil(chunk / cfg.patch_len) - 1


def _group_pass(contexts, depth: int, params: Params, cfg: ModelConfig):
    """One forward pass over contexts right-padded to ``n_max`` patches;
    returns the rows' unsorted (B, Q, (depth+1)*P) data-scale quantile patches
    and the number of blocks the pass ran."""
    batch = make_batch(contexts, cfg.patch_len, cfg.n_max)
    rows, last_token = np.arange(len(contexts)), batch.last_token
    with no_grad():
        trace = model_forward(batch, params, cfg, depth, last_token)
        # each row's last real token feeds predictions: every depth's (B, 1, d)
        # rows, stacked depth-major, go through the head once, each its own product
        last = np.concatenate([h.data[rows, last_token, None] for h in trace.depth_outputs])
        heads = patch_project(Tensor(last), params, cfg).data[:, 0]  # ((depth+1)*B, Q, P)
    raw = np.concatenate(heads.reshape(depth + 1, len(contexts), *heads.shape[1:]), axis=2)
    return denormalize(raw, batch.mu[:, None, None], batch.sigma[:, None, None]), len(trace.aux)


def _forecast_loop(series_list, horizon: int, params: Params, cfg: ModelConfig,
                   chunk_len: int) -> list[ForecastDistribution]:
    """One forecast per series. All rows share one chunk plan: one pass per
    chunk of at most ``chunk_len`` steps, at the depth the chunk needs, over
    up to MAX_BATCH_ROWS rows at a time. Between passes each row's median is
    appended to its context, which is then re-normalized. Quantiles come out
    sorted along the level axis; a pass that is not all finite raises."""
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    grid = default_grid(cfg.n_quantiles)
    contexts = [_truncate(finite_series(s, f"series {i}"), cfg) for i, s in enumerate(series_list)]
    chunks: list[list[np.ndarray]] = [[] for _ in contexts]
    blocks = ran = 0  # one count for all rows: each row runs every chunk at its depth
    wall_ms = [0.0] * len(contexts)
    for step, chunk in enumerate(_chunk_plan(horizon, chunk_len)):
        if step:
            contexts = [_truncate(np.concatenate([c, done[-1][grid.median_index()]]), cfg)
                        for c, done in zip(contexts, chunks)]
        for lo in range(0, len(contexts), MAX_BATCH_ROWS):
            part = range(lo, min(lo + MAX_BATCH_ROWS, len(contexts)))
            t0 = time.perf_counter()
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                preds, ran = _group_pass(contexts[lo:part.stop], _depth(chunk, cfg), params, cfg)
            share = 1000.0 * (time.perf_counter() - t0) / len(part)
            finite = np.isfinite(preds[..., :chunk]).all(axis=(1, 2))
            if not finite.all():
                raise NumericError(f"series {part[np.argmin(finite)]}: pass {step + 1} "
                                   "forecasts a value that is not finite, an overflow")
            for i, pred in zip(part, preds):
                chunks[i].append(pred[:, :chunk])
                wall_ms[i] += share
        blocks += ran
    return [ForecastDistribution(np.sort(np.concatenate(c, axis=1), axis=0), grid, len(c), blocks,
                                 w) for c, w in zip(chunks, wall_ms)]


def forecast(series, horizon: int, params: Params, cfg: ModelConfig) -> ForecastDistribution:
    """Quantile forecast for ``horizon`` future steps; depth adapts to the
    horizon, and past (H+1)*P steps the median is fed back as context."""
    return _forecast_loop([series], horizon, params, cfg, _chunk_len("serial", cfg))[0]


def forecast_rolling_ntp(series, horizon: int, params: Params,
                         cfg: ModelConfig) -> ForecastDistribution:
    """Autoregressive baseline: main blocks only, one patch per full recompute."""
    return _forecast_loop([series], horizon, params, cfg, _chunk_len("rolling", cfg))[0]


def expected_passes(mode: str, horizon: int, cfg: ModelConfig) -> int:
    """Closed-form forward passes for a forecast of ``horizon`` steps."""
    return len(_chunk_plan(horizon, _chunk_len(mode, cfg)))


def expected_block_count(mode: str, horizon: int, cfg: ModelConfig) -> int:
    """Closed-form block invocations for a forecast of ``horizon`` steps."""
    return sum(cfg.n_main_blocks + _depth(chunk, cfg)
               for chunk in _chunk_plan(horizon, _chunk_len(mode, cfg)))


# -- metrics -----------------------------------------------------------------


def seasonal_naive_scale(insample, season: int = 1) -> float:
    """In-sample mean absolute seasonal-naive error (the MASE denominator)."""
    x = np.asarray(insample, dtype=np.float64)
    return float(np.mean(np.abs(x[season:] - x[:-season])))


def mase(forecast_median, actuals, insample, season: int = 1) -> float:
    """mean|yhat - y| / in-sample seasonal-naive MAE. A scale below MASE_EPS is
    flat: the result is then 0 if the forecast is allclose to the actuals, else inf."""
    yhat = np.asarray(forecast_median, dtype=np.float64)
    y = np.asarray(actuals, dtype=np.float64)
    scale = seasonal_naive_scale(insample, season)
    if scale < MASE_EPS:
        return 0.0 if np.allclose(yhat, y) else math.inf
    return float(np.mean(np.abs(yhat - y)) / scale)


def eval_crps_wql(dist: ForecastDistribution, actuals) -> float:
    """Mean over levels of the weighted quantile loss, in data scale: ``wql``
    of every level at once, each level's sums as ``wql`` adds them."""
    y = np.asarray(actuals, dtype=np.float64)
    q = np.asarray(dist.levels.levels)[:, None]
    e = y - dist.values
    rho = np.maximum(q * e, (q - 1.0) * e)
    return float(np.mean(2.0 * rho.sum(axis=1) / max(np.abs(y).sum(), WQL_EPS)))


# -- evaluation + benchmark ---------------------------------------------------


@dataclass
class EvalReport:
    mase_per_series: list[float] = field(default_factory=list)
    mase: float = float("nan")
    crps_wql: float = float("nan")
    passes_serial: int = 0
    passes_rolling: int = 0
    wall_ms_p50: float = 0.0

    def lines(self) -> list[str]:
        return [
            f"mase {self.mase:.6f}",
            f"crps_wql {self.crps_wql:.6f}",
            f"passes_serial {self.passes_serial}",
            f"passes_rolling {self.passes_rolling}",
            f"wall_ms_p50 {self.wall_ms_p50:.3f}",
        ]


def evaluate(params: Params, cfg: ModelConfig, series_list, horizon: int, season: int = 1,
             mode: str = "serial") -> EvalReport:
    """Hold out the last ``horizon`` points of each series and score forecasts,
    all series in one batched forecast. ``wall_ms_p50`` is the median over
    series of each one's share of the passes it ran in."""
    if mode not in ("serial", "rolling"):
        raise InputError(f"unknown mode {mode!r}")
    if season < 1:
        raise InputError(f"season must be >= 1, got {season}")
    held = []
    for i, series in enumerate(series_list):
        x = finite_series(series, f"series {i}")  # the held-out part is checked too
        if x.size <= horizon + season:
            raise InputError("series too short to hold out the horizon")
        held.append((x[:-horizon], x[-horizon:]))
    if not held:
        raise InputError("evaluate needs at least one series")
    dists = _forecast_loop([context for context, _ in held], horizon, params, cfg,
                           _chunk_len(mode, cfg))
    report = EvalReport()
    crps_vals = []
    for (context, actual), dist in zip(held, dists):
        report.mase_per_series.append(mase(dist.median, actual, context, season))
        crps_vals.append(eval_crps_wql(dist, actual))
    # the evaluated mode's passes are counted; the other mode's depend only on
    # the horizon, so they come from the closed form
    other = "rolling" if mode == "serial" else "serial"
    passes = {mode: sum(dist.passes for dist in dists),
              other: len(dists) * expected_passes(other, horizon, cfg)}
    report.passes_serial, report.passes_rolling = passes["serial"], passes["rolling"]
    finite = [v for v in report.mase_per_series if math.isfinite(v)]
    report.mase = float(np.mean(finite)) if finite else float("nan")
    report.crps_wql = float(np.mean(crps_vals))
    report.wall_ms_p50 = float(np.median([dist.wall_ms for dist in dists]))
    return report


@dataclass
class BenchPoint:
    horizon: int
    blocks_serial: int
    blocks_rolling: int
    passes_serial: int
    passes_rolling: int
    wall_ms_serial_p50: float
    wall_ms_rolling_p50: float

    @property
    def block_ratio(self) -> float:
        return self.blocks_rolling / self.blocks_serial

    @property
    def wall_ratio(self) -> float:
        return self.wall_ms_rolling_p50 / max(self.wall_ms_serial_p50, 1e-9)


def bench_inference(params: Params, cfg: ModelConfig, horizons, repetitions: int = 5,
                    context_len: int | None = None, seed: int = 0) -> list[BenchPoint]:
    """Median wall time and exact block counts, serial vs rolling, per horizon."""
    if repetitions < 1:
        raise InputError("repetitions must be >= 1")
    rng = np.random.default_rng(seed)
    t = context_len or cfg.n_max * cfg.patch_len
    series = rng.normal(size=t).cumsum()
    out = []
    for f in horizons:
        times = {"serial": [], "rolling": []}
        dists = {}
        for mode, fn in (("serial", forecast), ("rolling", forecast_rolling_ntp)):
            for _ in range(repetitions):
                t0 = time.perf_counter()
                dists[mode] = fn(series, f, params, cfg)
                times[mode].append(1000.0 * (time.perf_counter() - t0))
        serial, rolling = dists["serial"], dists["rolling"]
        out.append(BenchPoint(f, serial.blocks, rolling.blocks, serial.passes, rolling.passes,
                              float(np.median(times["serial"])),
                              float(np.median(times["rolling"]))))
    return out
