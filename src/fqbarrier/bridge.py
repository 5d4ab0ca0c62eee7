"""Conditional laws of the per-interval extremum of the piecewise Euler path.

Between consecutive grid dates the interpolated Euler path is a Brownian
bridge with the diffusion frozen at the left endpoint, so the conditional
distribution of its maximum (resp. minimum) given the endpoints x, y has
the classical closed form

    G_{x,y}(u) = (1 - exp(-2 n (x-u)(y-u) / (T sigma(x)^2))) 1{u >= max(x,y)}
    F_{x,y}(u) = 1 - (1 - exp(-2 n (x-u)(y-u) / (T sigma(x)^2))) 1{u <= min(x,y)}

with n subintervals over a horizon T.  Both distributions invert in closed
form: ``bridge_extremum`` is that inverse, and the indicator estimator of
the Monte Carlo pricer draws every interval's extremum through it.  All
functions broadcast over x, y, u and over ``sigma_x``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BridgeParams",
    "bridge_max_cdf",
    "bridge_min_cdf",
    "bridge_extremum",
    "no_crossing",
]


@dataclass(frozen=True)
class BridgeParams:
    """Interval geometry and the frozen left-endpoint diffusion value.

    ``sigma_x`` may be an array when evaluating many bridges at once.
    """

    n_steps: int
    horizon: float
    sigma_x: object  # float or ndarray

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if np.any(np.asarray(self.sigma_x) < 0.0):
            raise ValueError("sigma_x must be nonnegative")


def no_crossing(x, y, u, p: BridgeParams, out=None):
    """1 - exp(min(e, 0)) with e = -2 n (x-u)(y-u) / (T sigma(x)^2).

    This is the probability that the bridge from x to y stays on the side
    of u where both of its ends lie; that they do is not checked.  It is the
    one evaluation of the formula: both CDFs and the pricer's kernel call it.
    ``out``, of the broadcast shape, receives the result and every
    intermediate of that shape.
    """
    sig2 = np.asarray(p.sigma_x, dtype=float) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ex = np.multiply(-2.0 * p.n_steps * (x - u), np.subtract(y, u), out=out)
        ex = np.divide(ex, p.horizon * sig2, out=out)
        return np.subtract(1.0, np.exp(np.minimum(ex, 0.0, out=out), out=out), out=out)


def bridge_max_cdf(x, y, u, p: BridgeParams):
    """P(max of the bridge <= u | endpoints x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    top = np.maximum(x, y)
    degenerate = np.asarray(p.sigma_x) == 0.0
    if np.all(degenerate):
        return (u >= top).astype(float)
    body = no_crossing(x, y, u, p)
    out = np.where(u >= top, body, 0.0)
    if np.any(degenerate):
        out = np.where(degenerate, (u >= top).astype(float), out)
    return out


def bridge_min_cdf(x, y, u, p: BridgeParams):
    """P(min of the bridge <= u | endpoints x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    bot = np.minimum(x, y)
    degenerate = np.asarray(p.sigma_x) == 0.0
    if np.all(degenerate):
        return (u >= bot).astype(float)
    body = no_crossing(x, y, u, p)
    out = 1.0 - np.where(u <= bot, body, 0.0)
    if np.any(degenerate):
        out = np.where(degenerate, (u >= bot).astype(float), out)
    return out


def bridge_extremum(x, y, log_v, p: BridgeParams, up: bool):
    """Draw of the bridge maximum (``up``) or minimum given the endpoints x, y.

    ``log_v`` is the log of a uniform v in (0, 1].  The maximum is the
    quantile of G_{x,y} at 1 - v and the minimum that of F_{x,y} at v, the
    root of (z - x)(z - y) = -T sigma(x)^2 log(v) / (2 n) beyond the
    endpoints; with ``p.sigma_x`` = 0 it is the endpoint extreme.  No input
    is checked here: the Monte Carlo loop calls this once per step, with
    uniforms already floored into (0, 1).
    """
    s = p.sigma_x
    root = np.sqrt((x - y) ** 2 - 2.0 * p.horizon * s * s * log_v / p.n_steps)
    return 0.5 * (x + y + root) if up else 0.5 * (x + y - root)
