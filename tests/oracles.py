"""Scalar reference forms of the pinball loss and the weighted quantile loss
(wQL), kept apart from the vectorised code they check
(``objectives.depth_losses``, ``inference.eval_crps_wql``)."""

import numpy as np

from serialcast.errors import InputError
from serialcast.objectives import WQL_EPS


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
