"""Quantile grids and the training loss, plus reference forms of the metrics.

The main stack's outputs predict the patch one step ahead and serial block
j's outputs the patch j+1 ahead, so next-patch training is depth 0 of one
loss over every depth: ``depth_losses`` runs the head (``patch_project``,
which lives in ``backbone`` and is called here by its bare name) and the
pinball loss once over all depths, and ``stage_loss`` weighs its entries per
stage. Losses are computed in normalized space (the head's native space);
de-normalization happens only at inference. Padded target positions are
excluded from both the numerator and the denominator of the weighted
quantile loss, so pad-only positions contribute exactly zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Params, Tensor
from .backbone import VARIANT_SHIFT, ForwardTrace, ModelConfig, Routing, patch_project
from .errors import InputError
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


# -- training loss -------------------------------------------------------


def depth_losses(trace: ForwardTrace, batch: PatchBatch, params: Params, cfg: ModelConfig,
                 grid: QuantileGrid) -> Tensor:
    """(D+1,) losses of a depth-D trace. Entry d scores depth d's outputs (the
    main stack at d = 0, serial block d after it) against the patches d+1
    ahead: the batch mean of each row's summed per-token losses, a token's
    loss being the mean over levels of its patch's weighted quantile loss.

    The shift-token variant masks depth d's last d tokens, which fuse clamped
    future embeddings. The depths are stacked along the batch axis, so the
    head and the loss run once for all of them.
    """
    depths, n = trace.depth + 1, batch.n_input
    targets = np.concatenate([batch.patches[:, d + 1 : n + d + 1] for d in range(depths)])
    masks = [batch.masks[:, d + 1 : n + d + 1] for d in range(depths)]
    if cfg.variant == VARIANT_SHIFT:
        masks = [m * (np.arange(n) < n - d)[:, None] for d, m in enumerate(masks)]
    mask = np.concatenate(masks)  # ((D+1)*B, N, P), as are targets

    preds = patch_project(ad.concat(trace.depth_outputs, axis=0), params, cfg)  # (.., N, Q, P)
    dt = preds.dtype
    q = np.asarray(grid.levels, dtype=dt).reshape(1, 1, -1, 1)
    err = ad.add(ad.mul(preds, -1.0), targets.astype(dt)[:, :, None, :])  # x - xhat
    # pinball max(q*e, (q-1)*e) is e times a constant weight, in value and gradient
    rho = ad.mul(err, (q - (err.data < 0)) * mask.astype(dt)[:, :, None, :])
    den = np.maximum((np.abs(targets) * mask).sum(axis=-1), WQL_EPS)[:, :, None].astype(dt)
    token_loss = ad.tmean(ad.mul(ad.tsum(rho, axis=-1), 2.0 / den), axis=-1)  # (.., N)
    return ad.tmean(ad.reshape(ad.tsum(token_loss, axis=1), (depths, -1)), axis=1)


def horizon_decay_weights(h_depths: int) -> list[float]:
    """1/sqrt(j) decay, from the linear growth of variance of a random walk."""
    return [1.0 / np.sqrt(j) for j in range(1, h_depths + 1)]


def mean_aux_loss(routing: list[Routing]) -> Tensor:
    """Load-balance penalty E * sum_j f_j * P_j, averaged over the MoE layers;
    1.0 at uniform routing. f_j is expert j's constant share of a layer's
    (token, slot) assignments and P_j its mean affinity, which carries the
    gradient. All layers route the same T tokens and fold at once as (L, T, E)."""
    dt = routing[0].affinity.dtype
    frac = np.stack([(r.counts / r.counts.sum()).astype(dt) for r in routing])  # (L, E)
    affinity = ad.reshape(ad.concat([r.affinity for r in routing], axis=0),
                          (len(routing),) + routing[0].affinity.shape)
    per_layer = ad.tsum(ad.mul(ad.tmean(affinity, axis=1), frac), axis=-1)
    return ad.tmean(ad.mul(per_layer, float(frac.shape[-1])))


def stage_loss(stage: str, trace: ForwardTrace, batch: PatchBatch, params: Params,
               cfg: ModelConfig,
               grid: QuantileGrid | None = None) -> tuple[Tensor, dict[str, float]]:
    """Composite objective for a training stage, from the depth losses l_0..l_H.

    pretrain:  l_0 + (1/H) sum_j l_j           + cfg.alpha * balance
    posttrain: l_0 + (1/H) sum_j l_j / sqrt(j) + cfg.alpha * balance
    l_0 is the next-token part and the weighted sum the serial part.
    Returns the scalar loss tensor and a float breakdown for logging.
    """
    if stage not in ("pretrain", "posttrain"):
        raise InputError(f"unknown stage {stage!r}")
    grid = grid or default_grid(cfg.n_quantiles)
    losses = depth_losses(trace, batch, params, cfg, grid)
    h_depths = trace.depth
    w = np.ones(h_depths) if stage == "pretrain" else horizon_decay_weights(h_depths)
    ntp = ad.getitem(losses, 0)
    weighted = ad.mul(ad.getitem(losses, slice(1, None)), np.asarray(w, dtype=losses.dtype))
    ser = ad.mul(ad.tsum(weighted), 1.0 / max(h_depths, 1))
    aux = mean_aux_loss(trace.aux)
    total = ad.add(ad.add(ntp, ser), ad.mul(aux, float(cfg.alpha)))
    parts = {"ntp": float(ntp.data), "serial": float(ser.data),
             "aux": float(aux.data), "total": float(total.data)}
    return total, parts
