"""Output checks, each computed apart from the program.

Every check returns a list of problems; an empty list means the output
passed. The formulas here (MASE, weighted quantile loss, pass counts, central
finite differences) are written out independently of ``serialcast`` so that a
fault in the program's own version cannot hide itself.
"""

from __future__ import annotations

import math
import re

import numpy as np

LOSS_TAIL = 5  # final steps averaged for the loss-drop check
LOSS_DROP = 0.85  # their mean must fall below this fraction of the first loss
GRAD_REL_TOL = 1e-4
GRAD_ABS_FLOOR = 1e-9  # below this absolute error, finite differences are noise
PRINT_TOL = 1e-6  # eval prints six decimals
AFFINE_TOL = 1e-5  # relative to |a| * the context's standard deviation


# -- train --------------------------------------------------------------------


def check_losses(losses: list[float], skipped: list[bool]) -> list[str]:
    out = []
    if not losses:
        return ["no training steps ran"]
    if any(skipped):
        out.append(f"{sum(skipped)} of {len(skipped)} steps skipped")
    if not all(math.isfinite(v) for v in losses):
        out.append("non-finite training loss")
    elif len(losses) > LOSS_TAIL:
        tail = float(np.mean(losses[-LOSS_TAIL:]))
        if not tail < LOSS_DROP * losses[0]:
            out.append(f"loss did not drop: first {losses[0]:.4f}, "
                       f"last-{LOSS_TAIL} mean {tail:.4f}")
    return out


def check_checkpoint(saved: bytes, resaved: bytes, trained: dict[str, np.ndarray],
                     loaded: dict[str, np.ndarray]) -> list[str]:
    """Save -> load -> save is byte-identical and loading is bit-exact."""
    out = []
    if saved != resaved:
        first = next((i for i, (a, b) in enumerate(zip(saved, resaved)) if a != b),
                     min(len(saved), len(resaved)))
        out.append(f"checkpoint re-save differs from byte {first}")
    if sorted(trained) != sorted(loaded):
        out.append("loaded parameter names differ from the trained ones")
        return out
    for name, arr in trained.items():
        got = loaded[name]
        if got.dtype != arr.dtype or got.shape != arr.shape or got.tobytes() != arr.tobytes():
            out.append(f"loaded {name} is not bit-equal to the trained tensor")
    return out


def family(name: str) -> str:
    """Parameter family: the name with block, serial and expert indices removed."""
    return re.sub(r"\d+", "*", name)


def central_differences(loss_fn, arrays: dict[str, np.ndarray], coords,
                        eps: float = 1e-5) -> list[float]:
    """(f(x+e) - f(x-e)) / 2e at each (name, flat index), restoring every value."""
    out = []
    for name, i in coords:
        flat = arrays[name].reshape(-1)
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        out.append((hi - lo) / (2.0 * eps))
    return out


def pick_coords(grads: dict[str, np.ndarray], per_family: int, rng: np.random.Generator):
    """A few coordinates per family, drawn among those with a clear gradient."""
    by_family: dict[str, list[tuple[str, int]]] = {}
    for name, g in grads.items():
        if g is None:  # an expert no token reached has no gradient
            continue
        flat = np.abs(g.reshape(-1))
        keep = np.flatnonzero(flat >= max(1e-3 * flat.max(), 1e-7))
        by_family.setdefault(family(name), []).extend((name, int(i)) for i in keep)
    coords = []
    for fam in sorted(by_family):
        cands = by_family[fam]
        for j in rng.choice(len(cands), size=min(per_family, len(cands)), replace=False):
            coords.append(cands[j])
    return coords, sorted(by_family)


def check_gradients(analytic: list[float], numeric: list[float], coords) -> list[str]:
    out = []
    for (name, i), a, n in zip(coords, analytic, numeric):
        err = abs(a - n)
        if err > GRAD_ABS_FLOOR and err > GRAD_REL_TOL * max(abs(a), abs(n)):
            out.append(f"gradient of {name}[{i}]: backward {a:.6e}, central difference {n:.6e}")
    return out


# -- forecast -------------------------------------------------------------------


def serial_passes(horizon: int, patch_len: int, n_serial: int) -> int:
    return math.ceil(horizon / ((n_serial + 1) * patch_len))


def rolling_passes(horizon: int, patch_len: int) -> int:
    return math.ceil(horizon / patch_len)


def check_distribution(values: np.ndarray, n_quantiles: int, horizon: int) -> list[str]:
    if values.shape != (n_quantiles, horizon):
        return [f"shape {values.shape}, expected {(n_quantiles, horizon)}"]
    out = []
    if not np.all(np.isfinite(values)):
        out.append("non-finite forecast value")
    if np.any(np.diff(values, axis=0) < 0):
        out.append("quantiles decrease across levels")
    return out


def check_rotation(short, long, rolling, passes: tuple[int, int, int], short_h: int,
                   long_h: int, n_quantiles: int, patch_len: int, n_serial: int) -> list[str]:
    """One rotation on one series: serial short, serial long, rolling long."""
    out = (check_distribution(short, n_quantiles, short_h)
           + check_distribution(long, n_quantiles, long_h)
           + check_distribution(rolling, n_quantiles, long_h))
    if out:
        return out
    if not np.array_equal(short, long[:, :short_h]):
        out.append(f"serial h{short_h} is not the first {short_h} columns of serial h{long_h}")
    if not np.array_equal(rolling[:, :patch_len], long[:, :patch_len]):
        out.append(f"rolling h{long_h} differs from serial in the first {patch_len} columns")
    want = (serial_passes(short_h, patch_len, n_serial), serial_passes(long_h, patch_len, n_serial),
            rolling_passes(long_h, patch_len))
    if tuple(passes) != want:
        out.append(f"passes {tuple(passes)}, closed form {want}")
    return out


def check_affine(base: np.ndarray, moved: np.ndarray, a: float, b: float,
                 sigma: float) -> list[str]:
    """forecast(a*x + b) == a*forecast(x) + b within AFFINE_TOL * |a| * std(x)."""
    dev = float(np.max(np.abs(moved - (a * base + b))))
    limit = AFFINE_TOL * abs(a) * sigma
    return [] if dev <= limit else [f"affine deviation {dev:.3e} over {limit:.3e}"]


# -- eval -----------------------------------------------------------------------


def mase_ref(median: np.ndarray, actual: np.ndarray, context: np.ndarray, season: int = 1) -> float:
    scale = np.mean(np.abs(context[season:] - context[:-season]))
    return float(np.mean(np.abs(median - actual)) / scale)


def wql_mean_ref(values: np.ndarray, levels, actual: np.ndarray) -> float:
    """Mean over levels of 2 * sum(pinball) / sum(|y|)."""
    denom = np.sum(np.abs(actual))
    losses = []
    for q, pred in zip(levels, values):
        e = actual - pred
        losses.append(2.0 * np.sum(np.where(e >= 0, q * e, (q - 1.0) * e)) / denom)
    return float(np.mean(losses))


def parse_report(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            out[parts[0]] = float(parts[1])
    return out


def check_eval(code: int, report: dict[str, float], mase: float, crps: float,
               passes_serial: int, passes_rolling: int) -> list[str]:
    if code != 0:
        return [f"eval exit code {code}"]
    out = []
    for key, want in (("mase", mase), ("crps_wql", crps)):
        got = report.get(key)
        if got is None or not abs(got - want) <= PRINT_TOL:
            out.append(f"{key} printed {got}, recomputed {want:.6f}")
    for key, want in (("passes_serial", passes_serial), ("passes_rolling", passes_rolling)):
        if report.get(key) != want:
            out.append(f"{key} printed {report.get(key)}, closed form {want}")
    return out
