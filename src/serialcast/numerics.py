"""Layer primitives used by the backbone, plus a finite-difference oracle.

The norms and the scaled masked softmax each check their input and then run
as one autodiff op with a hand-written backward (``autodiff.rmsnorm``,
``autodiff.l2_normalize``, ``autodiff.softmax`` with a scale), computing in
the input's dtype, so an f32 model stays f32. ``finite_diff_gradient``
provides the independent central-difference estimate used to verify every
analytic gradient. Tests and oracles run in 64-bit; training may run the same
code in 32-bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, InputError, NumericError

Params = dict[str, Tensor]

L2_GUARD = 1e-12  # denominator floor for zero vectors
# A gradient passes the finite-difference oracle when its largest relative
# error is below GRAD_REL_TOL or its largest absolute error is below
# GRAD_ABS_FLOOR, where finite-difference noise dominates.
GRAD_REL_TOL = 1e-4
GRAD_ABS_FLOOR = 1e-7


def assert_finite(x, ctx: str = "value"):
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite {ctx}")
    return x


def rmsnorm(x, gain, eps: float = 1e-6) -> Tensor:
    """y = gain * x / sqrt(mean(x^2) + eps), over the last axis.

    eps=0 is allowed for exact hand checks but requires nonzero input.
    """
    if eps < 0:
        raise InputError("rmsnorm eps must be >= 0")
    return ad.rmsnorm(assert_finite(ad.astensor(x), "rmsnorm input"), gain, eps)


def l2_normalize(v) -> Tensor:
    """Unit-normalize along the last axis; zero vectors map to zero.

    The guard max(||v||, 1e-12) is applied to the squared norm. A guarded
    row, the all-zero row among them, passes no gradient back.
    """
    return ad.l2_normalize(v, L2_GUARD**2)


def rope_angle_table(positions: np.ndarray, d: int, theta_base: float = 10000.0) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin tables of shape (len(positions), d//2).

    Pair m rotates by angle position * theta_base^(-2m/d).
    """
    if d % 2 != 0:
        raise ConfigError(f"rotary dimension must be even, got {d}")
    positions = np.asarray(positions, dtype=np.float64)
    freqs = theta_base ** (-2.0 * np.arange(d // 2) / d)
    angles = positions[:, None] * freqs[None, :]
    return np.cos(angles), np.sin(angles)


# bounded: one entry per context length, head size and dtype in use
@functools.lru_cache(maxsize=256)
def rope_table(n: int, d: int, theta_base: float, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos/sin tables for positions 0..n-1, cast once to ``dtype``."""
    tables = tuple(t.astype(dtype) for t in rope_angle_table(np.arange(n), d, theta_base))
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=256)
def causal_mask(n: int) -> np.ndarray:
    """Read-only (n, n) boolean mask: True where key index j <= query index i."""
    mask = np.tril(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


def scaled_masked_softmax(scores, tau) -> Tensor:
    """softmax(tau * scores) with entries j > i forced to exactly 0.

    tau scales finite scores only; the -inf substitution happens afterwards,
    so no positive tau can un-mask an entry.
    """
    scores = ad.astensor(scores)
    assert_finite(scores, "attention scores")
    tau_data = tau.data if isinstance(tau, Tensor) else np.asarray(tau)
    if np.any(tau_data <= 0):
        raise InputError("tau must be > 0")
    return ad.softmax(scores, mask=causal_mask(scores.shape[-1]), scale=tau)


# -- finite-difference oracle -------------------------------------------


@dataclass
class GradCheckReport:
    param_name: str
    max_rel_err: float
    max_abs_err: float
    passed: bool

    def __str__(self):
        tag = "ok  " if self.passed else "FAIL"
        return f"[{tag}] {self.param_name:40s} rel={self.max_rel_err:.3e} abs={self.max_abs_err:.3e}"


def finite_diff_gradient(loss_fn, params: Params, epsilon: float = 1e-5,
                         coords_per_tensor: int | None = None,
                         rng: np.random.Generator | None = None) -> dict[str, np.ndarray]:
    """Central-difference gradient (f(t+e) - f(t-e)) / 2e per coordinate.

    With ``coords_per_tensor`` set (at least 1), only that many randomly
    chosen coordinates are evaluated per tensor; unsampled entries are NaN.
    ``loss_fn`` must be deterministic (checked by a repeated base evaluation).
    """
    if not (1e-6 <= epsilon <= 1e-4):
        raise InputError(f"epsilon {epsilon} outside [1e-6, 1e-4]")
    if coords_per_tensor is not None and coords_per_tensor < 1:
        raise InputError(f"coords per tensor must be >= 1, got {coords_per_tensor}")
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise InputError(f"finite differences require 64-bit params ({name} is {p.data.dtype})")
    base = float(loss_fn(params))
    if float(loss_fn(params)) != base:
        raise InputError("loss_fn is not deterministic")
    rng = rng or np.random.default_rng(0)
    out: dict[str, np.ndarray] = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if coords_per_tensor is None or coords_per_tensor >= n:
            idx = np.arange(n)
        else:
            idx = rng.choice(n, size=coords_per_tensor, replace=False)
        g = np.full(n, np.nan)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + epsilon
            hi = float(loss_fn(params))
            flat[i] = orig - epsilon
            lo = float(loss_fn(params))
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * epsilon)
        out[name] = g.reshape(p.data.shape)
    return out


def compare_gradients(analytic: dict[str, np.ndarray],
                      numeric: dict[str, np.ndarray]) -> list[GradCheckReport]:
    """One report per parameter; NaN entries of ``numeric`` are skipped.

    A coordinate counts toward max_rel_err only when its absolute error is at
    least GRAD_ABS_FLOOR; below that, finite-difference noise dominates.
    """
    reports = []
    for name in sorted(numeric):
        f = numeric[name].reshape(-1)
        a = np.zeros_like(f) if analytic.get(name) is None else np.asarray(analytic[name]).reshape(-1)
        keep = ~np.isnan(f)
        err = np.abs(a[keep] - f[keep])
        scale = np.maximum(np.abs(a[keep]), np.abs(f[keep]))
        max_abs = float(err.max()) if err.size else 0.0
        sig = err >= GRAD_ABS_FLOOR
        max_rel = float((err[sig] / scale[sig]).max()) if sig.any() else 0.0
        passed = (max_rel < GRAD_REL_TOL) or (max_abs < GRAD_ABS_FLOOR)
        reports.append(GradCheckReport(name, max_rel, max_abs, passed))
    return reports


def zero_grads(params: Params):
    for p in params.values():
        p.zero_grad()
