"""Series -> normalized masked patches, and forecasts back to data scale.

Normalization is per instance: mean and population standard deviation of the
input window, reused to de-normalize forecasts. Patches are left-padded so
only a series' first patch can hold pads; a batch then right-pads its rows
with whole patches. Pads carry value 0 in normalized space (the input mean in
data scale) and mask 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

SIGMA_FLOOR = 1e-8


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std over the last axis, the std floored at
    SIGMA_FLOOR: the one normalization rule, for a series or a batch of rows."""
    mu = x.mean(axis=-1)
    sigma = np.maximum(np.sqrt(((x - mu[..., None]) ** 2).mean(axis=-1)), SIGMA_FLOOR)
    return mu, sigma


def renormalize(series) -> tuple[np.ndarray, float, float]:
    """Standardize by the window's mean and population std (floor-guarded);
    returns the normalized series, mu and sigma."""
    x = np.asarray(series, dtype=np.float64)
    if x.size < 1:
        raise InputError("renormalize: empty series")
    mu, sigma = _moments(x)
    return (x - mu) / sigma, mu, sigma


def denormalize(pred, mu, sigma) -> np.ndarray:
    """x_hat = sigma * x_tilde + mu, broadcast, in float64 whatever the
    model's dtype: data scale is never rounded to 32 bits."""
    return np.asarray(pred, dtype=np.float64) * sigma + mu


def patchify(series, patch_len: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Split into ceil(T/P) patches, left-padding the first with 0 / mask 0."""
    x = np.asarray(series, dtype=np.float64)
    if x.size < 1:
        raise InputError("patchify: empty series")
    if patch_len < 1:
        raise InputError("patchify: patch length must be >= 1")
    t = x.size
    n = -(-t // patch_len)
    pad = n * patch_len - t
    values = np.concatenate([np.zeros(pad), x])
    mask = np.concatenate([np.zeros(pad), np.ones(t)])
    return values.reshape(n, patch_len), mask.reshape(n, patch_len), n


@dataclass
class PatchBatch:
    """Normalized patches plus masks and per-row normalization stats.

    ``n_input`` marks how many leading patches form the model input; any
    further patches are supervision targets (fully observed).
    """

    patches: np.ndarray  # (B, N_total, P), normalized
    masks: np.ndarray  # (B, N_total, P), 1 = observed
    mu: np.ndarray  # (B,)
    sigma: np.ndarray  # (B,)
    n_input: int

    @property
    def input_patches(self) -> np.ndarray:
        return self.patches[:, : self.n_input, :]

    @property
    def input_masks(self) -> np.ndarray:
        return self.masks[:, : self.n_input, :]

    @property
    def last_token(self) -> np.ndarray:
        """(B,) index of each row's last input patch with an observed step."""
        return self.n_input - 1 - np.argmax(self.input_masks.any(axis=2)[:, ::-1], axis=1)


def make_batch(series_list, patch_len: int, n_patches: int) -> PatchBatch:
    """Batch of pure input windows (no targets), each row normalized by its own
    stats and right-padded with whole patches of value 0 / mask 0 up to
    ``n_patches``. Inference builds every pass at ``n_max`` patches, so a row
    runs at the same shape whatever else shares its pass."""
    values = np.zeros((2, len(series_list), n_patches, patch_len))  # patches, masks
    mu, sigma = np.zeros((2, len(series_list)))
    for row, s in enumerate(series_list):
        norm, mu[row], sigma[row] = renormalize(s)
        p, m, n = patchify(norm, patch_len)
        values[:, row, :n] = p, m
    return PatchBatch(*values, mu, sigma, n_patches)


def make_supervised_batch(windows, n_input: int, patch_len: int) -> PatchBatch:
    """Training windows of (n_input + horizon) patches, fully observed.

    Stats come from the input prefix only (the first n_input * P points);
    the whole window, targets included, is normalized with those stats.
    """
    w = np.asarray(windows, dtype=np.float64)
    n_total = w.shape[1] // patch_len
    mu, sigma = _moments(w[:, : n_input * patch_len])
    norm = (w - mu[:, None]) / sigma[:, None]
    b = w.shape[0]
    return PatchBatch(
        norm.reshape(b, n_total, patch_len),
        np.ones((b, n_total, patch_len)),
        mu,
        sigma,
        n_input,
    )
