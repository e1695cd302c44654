"""Forecast generation, the rolling baseline, evaluation metrics, benchmark.

A serial forecast runs the main stack once and as many serial blocks as the
horizon requires (depth = ceil(F/P) - 1), collecting last-token projections
from every depth in a single pass. Horizons beyond the native window fall
back to outer autoregression: the median quantile is fed back as context and
the extended window is re-normalized per pass. The rolling baseline is the
same loop with one-patch chunks, so every pass runs the main stack only.

The loop forecasts many series at once. At each chunk, the rows whose
contexts have the same patch count share one forward pass, so no row is
padded and each row's forecast is bit-identical to its batch-1 forecast.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad
from .backbone import ModelConfig, model_forward
from .errors import InputError
from .numerics import Params
from .objectives import QuantileGrid, default_grid, patch_project, wql
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


def _observed(series) -> np.ndarray:
    """The series as a flat float64 array; rejects empty or non-finite input."""
    x = np.asarray(series, dtype=np.float64).reshape(-1)
    if x.size < 1:
        raise InputError("forecast needs at least one observed point")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise InputError(f"non-finite value {x[bad[0]]} at index {bad[0]}")
    return x


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
    """One forward pass over contexts of equal patch count; returns each row's
    unsorted (Q, (depth+1)*P) data-scale quantile patches and the number of
    blocks the pass ran."""
    batch = make_batch(contexts, cfg.patch_len)
    with no_grad():
        trace = model_forward(batch, params, cfg, depth)
        # only the last token feeds predictions; each (B, 1, d) row projects alone
        heads = [patch_project(Tensor(h.data[:, -1:, :]), params, cfg).data[:, 0]
                 for h in [trace.h_main] + trace.serial_outputs]  # (B, Q, P) each
    raw = np.concatenate(heads, axis=2)
    return [denormalize(row, st) for row, st in zip(raw, batch.stats)], len(trace.aux)


def _forecast_loop(series_list, horizon: int, params: Params, cfg: ModelConfig,
                   chunk_len: int) -> list[ForecastDistribution]:
    """One forecast per series. All rows share one chunk plan: one pass per
    chunk of at most ``chunk_len`` steps, at the depth the chunk needs. Within
    a chunk, rows of equal patch count run as groups of up to MAX_BATCH_ROWS.
    Between passes each row's median is appended to its context, which is then
    re-normalized. Quantiles come out sorted along the level axis."""
    if horizon < 1:
        raise InputError("horizon must be >= 1")
    grid = default_grid(cfg.n_quantiles)
    contexts = [_truncate(_observed(s), cfg) for s in series_list]
    chunks: list[list[np.ndarray]] = [[] for _ in contexts]
    blocks = [0] * len(contexts)
    wall_ms = [0.0] * len(contexts)
    for step, chunk in enumerate(_chunk_plan(horizon, chunk_len)):
        if step:
            contexts = [_truncate(np.concatenate([c, done[-1][grid.median_index()]]), cfg)
                        for c, done in zip(contexts, chunks)]
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(contexts):
            groups.setdefault(-(-c.size // cfg.patch_len), []).append(i)
        for rows in groups.values():
            for lo in range(0, len(rows), MAX_BATCH_ROWS):
                part = rows[lo:lo + MAX_BATCH_ROWS]
                t0 = time.perf_counter()
                preds, ran = _group_pass([contexts[i] for i in part], _depth(chunk, cfg),
                                         params, cfg)
                share = 1000.0 * (time.perf_counter() - t0) / len(part)
                for i, pred in zip(part, preds):
                    chunks[i].append(pred[:, :chunk])
                    blocks[i] += ran
                    wall_ms[i] += share
    return [ForecastDistribution(np.sort(np.concatenate(c, axis=1), axis=0), grid, len(c), b, w)
            for c, b, w in zip(chunks, blocks, wall_ms)]


def forecast(series, horizon: int, params: Params, cfg: ModelConfig) -> ForecastDistribution:
    """Quantile forecast for ``horizon`` future steps.

    Depth adapts to the horizon; beyond (H+1)*P steps the median forecast is
    appended to the context and the pass repeats on the extended, freshly
    re-normalized window.
    """
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
    if season < 1:
        raise InputError(f"season must be >= 1, got {season}")
    x = np.asarray(insample, dtype=np.float64)
    if x.size <= season:
        raise InputError(f"insample of {x.size} too short for season {season}")
    return float(np.mean(np.abs(x[season:] - x[:-season])))


def mase(forecast_median, actuals, insample, season: int = 1) -> float:
    """mean|yhat - y| / in-sample seasonal-naive MAE, eps-guarded."""
    yhat = np.asarray(forecast_median, dtype=np.float64)
    y = np.asarray(actuals, dtype=np.float64)
    if yhat.shape != y.shape:
        raise InputError(f"forecast {yhat.shape} vs actuals {y.shape}")
    return float(np.mean(np.abs(yhat - y)) / max(seasonal_naive_scale(insample, season), MASE_EPS))


def is_degenerate_scale(insample, season: int = 1) -> bool:
    return seasonal_naive_scale(insample, season) < MASE_EPS


def eval_crps_wql(dist: ForecastDistribution, actuals) -> float:
    """Mean over levels of the weighted quantile loss, in data scale."""
    y = np.asarray(actuals, dtype=np.float64)
    if y.size != dist.horizon:
        raise InputError(f"actuals of {y.size} vs horizon {dist.horizon}")
    return float(np.mean([wql(y, dist.values[k], qk) for k, qk in enumerate(dist.levels.levels)]))


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
    for series in series_list:
        x = _observed(series)  # the held-out part is checked too
        if x.size <= horizon + season:
            raise InputError("series too short to hold out the horizon")
        held.append((x[:-horizon], x[-horizon:]))
    dists = _forecast_loop([context for context, _ in held], horizon, params, cfg,
                           _chunk_len(mode, cfg))
    report = EvalReport()
    crps_vals = []
    for (context, actual), dist in zip(held, dists):
        if is_degenerate_scale(context, season):
            report.mase_per_series.append(0.0 if np.allclose(dist.median, actual) else float("inf"))
        else:
            report.mase_per_series.append(mase(dist.median, actual, context, season))
        crps_vals.append(eval_crps_wql(dist, actual))
    passes = sum(dist.passes for dist in dists)
    if mode == "serial":
        report.passes_serial = passes
    else:
        report.passes_rolling = passes
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
