"""Synthetic signals, augmentation, and dataset complexity statistics.

Signals are the canonical families (linear, sinusoidal, exponential, power,
impulse, step) plus additive/multiplicative composites with optional Gaussian
noise, all deterministic under a seed. Augmentation covers band-limited
Fourier resampling and value-flipping. Complexity statistics are the
unit-root t-statistic of a Dickey-Fuller regression and a spectral-entropy
forecastability score, aggregated length-weighted across variates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

SIGNAL_KINDS = ("linear", "sinusoidal", "exponential", "power", "impulse", "step", "composite")


@dataclass
class SignalSpec:
    kind: str = "sinusoidal"
    amplitude: float = 1.0
    period: float = 8.0
    phase: float = 0.0
    slope: float = 1.0
    rate: float = 0.01  # exponential growth per step
    exponent: float = 2.0  # power-law exponent
    location: int = 0  # impulse/step onset
    combine: str | None = None  # "additive" | "multiplicative" for composites
    components: tuple["SignalSpec", ...] = ()
    noise_sigma: float = 0.0
    length: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise InputError(f"unknown signal kind {self.kind!r}")
        if self.length < 1:
            raise InputError("signal length must be >= 1")
        if self.kind == "sinusoidal" and self.period <= 0:
            raise InputError("sinusoidal period must be > 0")
        if self.noise_sigma < 0:
            raise InputError("noise_sigma must be >= 0")
        if self.kind == "composite":
            if self.combine not in ("additive", "multiplicative"):
                raise InputError("composite spec needs combine=additive|multiplicative")
            if not self.components:
                raise InputError("composite spec needs components")


def _clean_signal(spec: SignalSpec, t: np.ndarray) -> np.ndarray:
    if spec.kind == "linear":
        return spec.slope * t
    if spec.kind == "sinusoidal":
        return spec.amplitude * np.sin(2.0 * np.pi * t / spec.period + spec.phase)
    if spec.kind == "exponential":
        return spec.amplitude * np.exp(spec.rate * t)
    if spec.kind == "power":
        return spec.amplitude * (t + 1.0) ** spec.exponent
    if spec.kind == "impulse":
        return np.where(t == spec.location, spec.amplitude, 0.0)
    if spec.kind == "step":
        return np.where(t >= spec.location, spec.amplitude, 0.0)
    # composite
    parts = [_clean_signal(c, t) for c in spec.components]
    out = parts[0].copy()
    for p in parts[1:]:
        out = out + p if spec.combine == "additive" else out * p
    return out


def gen_signal(spec: SignalSpec) -> np.ndarray:
    """Deterministic signal for a spec; noise is additive Gaussian."""
    t = np.arange(spec.length, dtype=np.float64)
    x = _clean_signal(spec, t)
    if spec.noise_sigma > 0:
        x = x + np.random.default_rng(spec.seed).normal(0.0, spec.noise_sigma, spec.length)
    return x


# -- augmentation --------------------------------------------------------

RESAMPLE_FACTORS = (0.25, 1 / 3, 0.5, 2 / 3, 1.0, 1.5, 2.0, 3.0, 4.0)


def resample(series, factor: float) -> np.ndarray:
    """Fourier resampling to round(T * factor) points.

    Downsampling truncates the spectrum (anti-aliased); upsampling zero-pads
    it (band-limited interpolation). Nyquist bins are split/folded so pure
    tones survive exactly.
    """
    x = np.asarray(series, dtype=np.float64)
    t = x.size
    if t < 4:
        raise InputError("resample needs at least 4 points")
    if not (0.125 - 1e-12 <= factor <= 8.0 + 1e-12):
        raise InputError(f"resample factor {factor} outside [1/8, 8]")
    m = int(round(t * factor))
    if m < 2:
        raise InputError("resampled length would be < 2")
    if m == t:
        return x.copy()
    spec = np.fft.rfft(x)
    out = np.zeros(m // 2 + 1, dtype=complex)
    if m > t:
        out[: spec.size] = spec
        if t % 2 == 0:
            out[t // 2] *= 0.5  # original Nyquist becomes an interior bin
    else:
        out[:] = spec[: m // 2 + 1]
        if m % 2 == 0:
            out[m // 2] = 2.0 * spec[m // 2].real  # conjugate half folds on
    return np.fft.irfft(out, n=m) * (m / t)


def value_flip(window) -> np.ndarray:
    """Multiply the whole (input + target) window by -1; an involution."""
    return -np.asarray(window, dtype=np.float64)


# -- complexity statistics -------------------------------------------------


@dataclass(frozen=True)
class ComplexityPoint:
    adf: float
    forecastability: float


def schwert_lag(t: int) -> int:
    """Default lag order floor(12 * (T/100)^(1/4))."""
    return int(np.floor(12.0 * (t / 100.0) ** 0.25))


def dickey_fuller_design(series, lag_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix/target for dx_t = c + gamma*x_{t-1} + sum phi_k dx_{t-k}.

    Column order: [const, x_{t-1}, dx_{t-1}, ..., dx_{t-lag}].
    """
    if lag_order < 0:
        raise InputError(f"lag order must be >= 0, got {lag_order}")
    x = np.asarray(series, dtype=np.float64)
    t = x.size
    if t < lag_order + 10:
        raise InputError(f"series of {t} too short for lag {lag_order}")
    dx = np.diff(x)
    rows = np.arange(lag_order, dx.size)  # index into dx
    y = dx[rows]
    cols = [np.ones(rows.size), x[rows]]  # x[rows] = level lagged one step
    for k in range(1, lag_order + 1):
        cols.append(dx[rows - k])
    return np.column_stack(cols), y


def adf_statistic(series, lag_order: int | None = None) -> float:
    """t-statistic of the unit-root coefficient (constant, no trend).

    More negative means more stationary. Designs singular to working
    precision (e.g. constant series) and exact fits return -inf as the
    degenerate sentinel; every other design gives a finite value.
    """
    x = np.asarray(series, dtype=np.float64)
    lag = schwert_lag(x.size) if lag_order is None else lag_order
    design, y = dickey_fuller_design(x, lag)
    n, p = design.shape
    if n <= p:
        return float("-inf")
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    if sv[-1] <= sv[0] * n * np.finfo(np.float64).eps:  # numpy's matrix_rank tolerance
        return float("-inf")
    beta = vt.T @ ((u.T @ y) / sv)
    resid = y - design @ beta
    s2 = float(resid @ resid) / (n - p)
    # an (almost) exact fit leaves only rounding noise in the t-statistic
    if s2 <= 1e-24 * max(float((y * y).mean()), 1e-300):
        return float("-inf")
    # inv(X'X)[1, 1] = sum_j (V[1, j] / s_j)^2, a sum of squares: never negative
    return float(beta[1] / np.sqrt(s2 * np.sum((vt[:, 1] / sv) ** 2)))


def forecastability(series) -> float:
    """1 - spectral entropy / log(M) over the M = floor(T/2) positive bins.

    1 for a pure tone on an exact bin, 0 for a flat spectrum or zero power.
    Scale-free, so ``x / max|x|`` is used: squared magnitudes cannot overflow.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size < 4:
        raise InputError("forecastability needs at least 4 points")
    x = x / (np.abs(x).max() or 1.0)  # an all-zero series stays zero
    m = x.size // 2
    power = np.abs(np.fft.rfft(x)[1 : m + 1]) ** 2
    total = power.sum()
    if total <= 0.0:
        return 0.0
    p = power / total
    nz = p[p > 0]
    entropy = float(-(nz * np.log(nz)).sum())
    value = 1.0 - entropy / np.log(m)
    return float(min(max(value, 0.0), 1.0))


def dataset_complexity(variates, lag_order: int | None = None) -> ComplexityPoint:
    """Length-weighted mean ADF statistic and forecastability over variates."""
    variates = [np.asarray(v, dtype=np.float64) for v in variates]
    if not variates:
        raise InputError("dataset_complexity needs at least one variate")
    lengths = np.array([v.size for v in variates], dtype=np.float64)
    w = lengths / lengths.sum()
    adf = float(sum(wi * adf_statistic(v, lag_order) for wi, v in zip(w, variates)))
    fc = float(sum(wi * forecastability(v) for wi, v in zip(w, variates)))
    return ComplexityPoint(adf=adf, forecastability=fc)


def derive_seed(root: int, *branch: int) -> int:
    """Splitmix-style child seed so parallel generation stays reproducible."""
    mask = (1 << 64) - 1
    z = root & mask
    for b in branch:
        z = (z + 0x9E3779B97F4A7C15 * (b + 1)) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
    return z % (1 << 63)
