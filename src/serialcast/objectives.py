"""Quantile forecasting head and the training losses.

Losses are computed in normalized space (the head's native space);
de-normalization happens only at inference. Padded target positions are
excluded from both the numerator and the denominator of the weighted
quantile loss, so pad-only positions contribute exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import VARIANT_SHIFT, ForwardTrace, ModelConfig, MoEAux, aux_loss
from .errors import InputError
from .numerics import Params
from .tokenizer import PatchBatch

WQL_EPS = 1e-8

DEFAULT_LEVELS = tuple(round(0.1 * k, 1) for k in range(1, 10))


@dataclass(frozen=True)
class QuantileGrid:
    levels: tuple[float, ...] = DEFAULT_LEVELS

    def __post_init__(self):
        if any(not (0.0 < q < 1.0) for q in self.levels):
            raise InputError("quantile levels must lie in (0, 1)")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise InputError("quantile levels must be strictly increasing")

    @property
    def q(self) -> int:
        return len(self.levels)

    def median_index(self) -> int:
        """Index of the level closest to 0.5 (exact when 0.5 is in the grid)."""
        return int(np.argmin(np.abs(np.asarray(self.levels) - 0.5)))


def default_grid(n_levels: int) -> QuantileGrid:
    """Evenly spaced levels over [0.1, 0.9]; the 9-level case is {0.1,...,0.9}."""
    if n_levels == 1:
        return QuantileGrid((0.5,))
    return QuantileGrid(tuple(float(q) for q in np.linspace(0.1, 0.9, n_levels).round(6)))


# -- scalar/numpy reference forms ---------------------------------------


def pinball(x: float, xhat: float, q: float) -> float:
    """(1-q)(xhat-x) if x < xhat else q(x-xhat); nonnegative."""
    if not (0.0 < q < 1.0):
        raise InputError("pinball level must be in (0, 1)")
    return (1.0 - q) * (xhat - x) if x < xhat else q * (x - xhat)


def wql(x, xhat, q: float, mask=None) -> float:
    """2 * sum(pinball) / max(sum|x|, eps) over observed positions."""
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    m = np.ones_like(x) if mask is None else np.asarray(mask, dtype=np.float64)
    e = x - xhat
    rho = np.maximum(q * e, (q - 1.0) * e) * m
    return 2.0 * rho.sum() / max((np.abs(x) * m).sum(), WQL_EPS)


# -- head ----------------------------------------------------------------


def patch_project(h, params: Params, cfg: ModelConfig) -> Tensor:
    """Shared linear head D -> (Q, P); no monotonicity imposed at train time."""
    h = ad.astensor(h)
    y = ad.add(ad.matmul(h, params["head.w"]), params["head.b"])
    return ad.reshape(y, h.shape[:-1] + (cfg.n_quantiles, cfg.patch_len))


# -- vectorized training losses ------------------------------------------


def _per_token_loss(preds: Tensor, targets: np.ndarray, mask: np.ndarray,
                    levels: tuple[float, ...]) -> Tensor:
    """(B, N) tensor of per-token prediction losses.

    preds: (B, N, Q, P); targets/mask: (B, N, P) constants.
    """
    dt = preds.dtype
    q = np.asarray(levels, dtype=dt).reshape(1, 1, -1, 1)
    x = targets.astype(dt)[:, :, None, :]
    m = mask.astype(dt)[:, :, None, :]
    err = ad.add(ad.mul(preds, -1.0), x)  # x - xhat
    rho = ad.mul(ad.maximum(ad.mul(err, q), ad.mul(err, q - 1.0)), m)
    num = ad.tsum(rho, axis=-1)  # (B, N, Q)
    den = np.maximum((np.abs(targets) * mask).sum(axis=-1), WQL_EPS)[:, :, None].astype(dt)
    return ad.tmean(ad.mul(num, 2.0 / den), axis=-1)  # (B, N)


def _depth_loss(h: Tensor, batch: PatchBatch, offset: int, params: Params,
                cfg: ModelConfig, grid: QuantileGrid, drop_tail: int = 0) -> Tensor:
    """Dense loss of one depth's outputs against patches shifted by ``offset``.

    Token i predicts patch i+offset. Returns the batch mean of the per-row
    token sums. ``drop_tail`` masks the last tokens out of the loss (used by
    the shift-token variant, whose tail fuses clamped future embeddings).
    """
    n = batch.n_input
    if batch.patches.shape[1] < n + offset:
        raise InputError(f"targets require {n + offset} patches, batch has {batch.patches.shape[1]}")
    preds = patch_project(h, params, cfg)  # (B, N, Q, P)
    targets = batch.patches[:, offset : n + offset, :]
    mask = batch.masks[:, offset : n + offset, :].copy()
    if drop_tail > 0:
        mask[:, n - drop_tail :, :] = 0.0
    token_loss = _per_token_loss(preds, targets, mask, grid.levels)
    return ad.tmean(ad.tsum(token_loss, axis=1))


def ntp_loss(trace: ForwardTrace, batch: PatchBatch, params: Params, cfg: ModelConfig,
             grid: QuantileGrid | None = None) -> Tensor:
    """Next-patch loss summed over all token positions of the main stack."""
    grid = grid or default_grid(cfg.n_quantiles)
    return _depth_loss(trace.h_main, batch, 1, params, cfg, grid)


def serial_loss(trace: ForwardTrace, batch: PatchBatch, params: Params, cfg: ModelConfig,
                weights, grid: QuantileGrid | None = None) -> Tensor:
    """(1/H) * sum_j w_j * (dense loss of serial depth j at offset j+1).

    Uniform weights give the pre-train objective; 1/sqrt(j) the post-train one.
    """
    grid = grid or default_grid(cfg.n_quantiles)
    weights = list(weights)
    h_depths = len(weights)
    if trace.depth < h_depths:
        raise InputError(f"trace depth {trace.depth} < required {h_depths}")
    if h_depths == 0:
        return Tensor(np.zeros((), dtype=trace.h_main.dtype))
    total = None
    for j in range(1, h_depths + 1):
        drop = j if cfg.variant == VARIANT_SHIFT else 0
        term = _depth_loss(trace.serial_outputs[j - 1], batch, j + 1, params, cfg, grid, drop_tail=drop)
        term = ad.mul(term, float(weights[j - 1]))
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / h_depths)


def uniform_weights(h_depths: int) -> list[float]:
    return [1.0] * h_depths


def horizon_decay_weights(h_depths: int) -> list[float]:
    """1/sqrt(j) decay, from the linear growth of variance of a random walk."""
    return [1.0 / np.sqrt(j) for j in range(1, h_depths + 1)]


def mean_aux_loss(aux_list: list[MoEAux]) -> Tensor:
    """Load-balance loss averaged over every MoE instance in the forward."""
    if not aux_list:
        raise InputError("no MoE accumulators")
    total = None
    for aux in aux_list:
        term = aux_loss(aux)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, 1.0 / len(aux_list))


def stage_loss(stage: str, trace: ForwardTrace, batch: PatchBatch, params: Params,
               cfg: ModelConfig,
               grid: QuantileGrid | None = None) -> tuple[Tensor, dict[str, float]]:
    """Composite objective for a training stage.

    pretrain:  next-token + serial (uniform weights)  + cfg.alpha * balance
    posttrain: next-token + serial (1/sqrt(j) weights) + cfg.alpha * balance
    Returns the scalar loss tensor and a float breakdown for logging.
    """
    if stage not in ("pretrain", "posttrain"):
        raise InputError(f"unknown stage {stage!r}")
    grid = grid or default_grid(cfg.n_quantiles)
    h_depths = trace.depth
    w = uniform_weights(h_depths) if stage == "pretrain" else horizon_decay_weights(h_depths)
    ntp = ntp_loss(trace, batch, params, cfg, grid)
    ser = serial_loss(trace, batch, params, cfg, w, grid)
    aux = mean_aux_loss(trace.aux)
    total = ad.add(ad.add(ntp, ser), ad.mul(aux, float(cfg.alpha)))
    parts = {"ntp": float(ntp.data), "serial": float(ser.data),
             "aux": float(aux.data), "total": float(total.data)}
    return total, parts
