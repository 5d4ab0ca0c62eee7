"""The Brownian-bridge no-crossing factor and the bridge extremum draw of the piecewise Euler path.

Between consecutive grid dates the interpolated Euler path is a Brownian
bridge with the diffusion frozen at the left endpoint, so the conditional
distribution of its maximum (resp. minimum) given the endpoints x, y has
the classical closed form

    G_{x,y}(u) = (1 - exp(-2 n (x-u)(y-u) / (T sigma(x)^2))) 1{u >= max(x,y)}
    F_{x,y}(u) = 1 - (1 - exp(-2 n (x-u)(y-u) / (T sigma(x)^2))) 1{u <= min(x,y)}

with n subintervals over a horizon T.  Both pricers take the factor in
parentheses, the probability that the bridge does not cross u, from
``no_crossing``.  Both distributions invert in closed form:
``bridge_extremum`` is that inverse, and the indicator estimator of the
Monte Carlo pricer draws every interval's extremum through it.  Both
broadcast over x, y, u and ``sigma`` and check no argument: the callers
ensure n >= 1 (``McConfig``, ``price_dates``), T > 0 (``BarrierContract``)
and sigma(x) >= 0 (the models, and ``abs`` in the Monte Carlo).
"""

from __future__ import annotations

import numpy as np

__all__ = ["bridge_extremum", "no_crossing"]

# 1 - exp(e) rounds to exactly 1.0 once exp(e) <= 2**-54, that is for
# e <= -54 ln 2 = -37.43
_EXACT_ONE = -38.0


def no_crossing(x, y, u, n_steps: int, horizon: float, sigma, up: bool, out=None):
    """P(the bridge from x to y stays below u if ``up``, above it if not): 1 - exp(min(e, 0)).

    e = -2 n (x-u)(y-u) / (T sigma(x)^2).  x lies on that side of u or on
    it; where y lies beyond u the factor is 0.  Where T sigma(x)^2 is 0,
    at sigma(x) = 0 or where the square underflows (sigma(x) below about
    1.5e-162 at T = 1), the bridge is the segment from x to y: it survives
    where u >= max(x, y) if ``up`` and where u < min(x, y) if not, so a
    segment that touches the barrier survives up-and-out but not
    down-and-out.  e is clamped from below at ``_EXACT_ONE``: 1 - exp(e)
    is 1.0 for any e <= -54 ln 2, so no factor changes, and ``exp`` never
    takes the arguments below -708 whose subnormal or zero results cost it
    about 130 and 20 times as long as others (numpy 2.4, AVX-512 Xeon).  1 - F_{x,y}(u) is this factor bit for bit:
    for b = fl(1 - exp(e)), 1 - (1 - b) == b by Sterbenz's lemma.
    ``out``, of the broadcast shape, receives the result and every
    intermediate of that shape.
    """
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        spread = horizon * sigma**2
        ex = np.multiply(-2.0 * n_steps * (x - u), np.subtract(y, u), out=out)
        ex = np.divide(ex, spread, out=out)
        survival = np.asarray(np.subtract(1.0, np.exp(np.clip(ex, _EXACT_ONE, 0.0, out=out), out=out), out=out))
    frozen = spread == 0.0
    if frozen.any():  # e is -inf, +inf or 0/0 there
        np.copyto(survival, u >= np.maximum(x, y) if up else u < np.minimum(x, y), where=frozen)
    return survival


def bridge_extremum(x, y, log_v, n_steps: int, horizon: float, sigma, up: bool):
    """Draw of the bridge maximum (``up``) or minimum given the endpoints x, y.

    ``log_v`` is the log of a uniform v in (0, 1].  The maximum is the
    quantile of G_{x,y} at 1 - v and the minimum that of F_{x,y} at v, the
    root of (z - x)(z - y) = -T sigma(x)^2 log(v) / (2 n) beyond the
    endpoints.  Where T sigma(x)^2 is 0, as in ``no_crossing``, it is
    max(x, y) or min(x, y) exactly, which the root's 0.5 (x + y + |x - y|)
    can round past.  The Monte Carlo loop calls this once per step, with
    uniforms already floored into (0, 1).
    """
    root = np.sqrt((x - y) ** 2 - 2.0 * horizon * sigma * sigma * log_v / n_steps)
    draw = np.asarray(0.5 * (x + y + root) if up else 0.5 * (x + y - root))
    frozen = horizon * np.asarray(sigma) ** 2 == 0.0
    if frozen.any():
        np.copyto(draw, np.maximum(x, y) if up else np.minimum(x, y), where=frozen)
    return draw
