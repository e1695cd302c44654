"""Series -> normalized masked patches -> embeddings, and back to data scale.

Normalization is per instance: mean and population standard deviation of the
input window, reused to de-normalize forecasts. Patches are left-padded so
only the first patch of a row can contain pad positions; pads carry value 0
in normalized space (the input mean in data scale) and mask 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError
from .numerics import Params

SIGMA_FLOOR = 1e-8


@dataclass(frozen=True)
class NormStats:
    mu: float
    sigma: float  # guarded >= SIGMA_FLOOR


def renormalize(series) -> tuple[np.ndarray, NormStats]:
    """Standardize by the window's mean and population std (floor-guarded)."""
    x = np.asarray(series, dtype=np.float64)
    if x.size < 1:
        raise InputError("renormalize: empty series")
    mu = float(x.mean())
    sigma = max(float(np.sqrt(((x - mu) ** 2).mean())), SIGMA_FLOOR)
    return (x - mu) / sigma, NormStats(mu, sigma)


def denormalize(pred, stats: NormStats) -> np.ndarray:
    """x_hat = sigma * x_tilde + mu, elementwise, in float64 whatever the
    model's dtype: data scale is never rounded to 32 bits."""
    return np.asarray(pred, dtype=np.float64) * stats.sigma + stats.mu


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
    def stats(self) -> list[NormStats]:
        return [NormStats(float(m), float(s)) for m, s in zip(self.mu, self.sigma)]

    @property
    def input_patches(self) -> np.ndarray:
        return self.patches[:, : self.n_input, :]

    @property
    def input_masks(self) -> np.ndarray:
        return self.masks[:, : self.n_input, :]


def make_batch(series_list, patch_len: int) -> PatchBatch:
    """Batch of pure input windows (no targets); rows must patchify to equal N."""
    rows, masks, mus, sigmas = [], [], [], []
    n_ref = None
    for s in series_list:
        norm, st = renormalize(s)
        p, m, n = patchify(norm, patch_len)
        if n_ref is None:
            n_ref = n
        elif n != n_ref:
            raise InputError(f"batch rows disagree on patch count: {n} vs {n_ref}")
        rows.append(p)
        masks.append(m)
        mus.append(st.mu)
        sigmas.append(st.sigma)
    return PatchBatch(np.stack(rows), np.stack(masks), np.array(mus), np.array(sigmas), n_ref)


def make_supervised_batch(windows, n_input: int, patch_len: int) -> PatchBatch:
    """Training windows of (n_input + horizon) patches, fully observed.

    Stats come from the input prefix only (the first n_input * P points);
    the whole window, targets included, is normalized with those stats.
    """
    w = np.asarray(windows, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] % patch_len != 0:
        raise InputError("windows must be (B, k*P)")
    n_total = w.shape[1] // patch_len
    if n_total < n_input:
        raise InputError("window shorter than the declared input length")
    t_in = n_input * patch_len
    mu = w[:, :t_in].mean(axis=1)
    sigma = np.maximum(np.sqrt(((w[:, :t_in] - mu[:, None]) ** 2).mean(axis=1)), SIGMA_FLOOR)
    norm = (w - mu[:, None]) / sigma[:, None]
    b = w.shape[0]
    return PatchBatch(
        norm.reshape(b, n_total, patch_len),
        np.ones((b, n_total, patch_len)),
        mu,
        sigma,
        n_input,
    )


@dataclass
class EmbedderParams:
    """Residual patch embedder R^{2P} -> R^D: linear skip + one-hidden MLP."""

    skip_w: Tensor
    skip_b: Tensor
    mlp_in_w: Tensor
    mlp_in_b: Tensor
    mlp_out_w: Tensor
    mlp_out_b: Tensor

    @classmethod
    def from_params(cls, params: Params, prefix: str = "embedder.") -> "EmbedderParams":
        return cls(
            params[prefix + "skip.w"], params[prefix + "skip.b"],
            params[prefix + "mlp_in.w"], params[prefix + "mlp_in.b"],
            params[prefix + "mlp_out.w"], params[prefix + "mlp_out.b"],
        )


def embed_patches(patches, masks, emb: EmbedderParams) -> Tensor:
    """h0 = skip(z) + mlp_out(silu(mlp_in(z))) with z = concat(patch, mask).

    Masked positions must already hold value 0 so pad content cannot leak.
    """
    p = ad.astensor(patches)
    m = np.asarray(masks.data if isinstance(masks, Tensor) else masks, dtype=p.dtype)
    if p.shape != m.shape:
        raise ConfigError(f"patches {p.shape} vs masks {m.shape}")
    if p.shape[-1] * 2 != emb.skip_w.shape[0]:
        raise ConfigError(f"embedder expects 2P={emb.skip_w.shape[0]}, got P={p.shape[-1]}")
    z = ad.concat([p, Tensor(m)], axis=-1)
    skip = ad.add(ad.matmul(z, emb.skip_w), emb.skip_b)
    hidden = ad.silu(ad.add(ad.matmul(z, emb.mlp_in_w), emb.mlp_in_b))
    return ad.add(skip, ad.add(ad.matmul(hidden, emb.mlp_out_w), emb.mlp_out_b))
