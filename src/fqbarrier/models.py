"""Diffusion models for the underlying price process.

Two time-homogeneous models are supported:

* Black-Scholes: dX = r X dt + sigma X dW
* pseudo-CEV:    dX = r X dt + vartheta X^(delta+1) / sqrt(1 + X^2) dW

Both expose the drift and the diffusion coefficient (for the Euler scheme
and the bridge) and the two terms of the quantizer ODE in log x.
``one_step_law`` gives the one-step conditional law of the price from a
set of source points, which the grid transition probabilities evaluate.
It is Gaussian in some coordinate: in log x for the exact law of
Black-Scholes, and in x itself for the one-step Euler proxy of the
pseudo-CEV model.  The JSON config blocks that name a model are parsed
in ``cli``, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtr

__all__ = [
    "BlackScholes",
    "PseudoCEV",
    "Model",
    "OneStepLaw",
    "one_step_law",
]


@dataclass(frozen=True)
class BlackScholes:
    """Geometric Brownian motion with rate ``r`` and volatility ``sigma``."""

    r: float
    sigma: float
    x0: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.r, self.sigma, self.x0)):
            raise ValueError("r, sigma and x0 must be finite")
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.x0 <= 0.0:
            raise ValueError("x0 must be positive")

    def drift(self, x):
        return self.r * np.asarray(x, dtype=float)

    def diffusion(self, x):
        return self.sigma * np.asarray(x, dtype=float)

    def log_coefficients(self, y):
        """Terms (a, v) of dy = a dt + v dalpha for y = log x: constants here."""
        return self.r - 0.5 * self.sigma**2, self.sigma


@dataclass(frozen=True)
class PseudoCEV:
    """Local-volatility model with sigma(x) = vartheta x^delta / sqrt(1+x^2).

    The diffusion coefficient x * sigma(x) approaches the constant-elasticity
    form vartheta x^delta for large x; calibrating vartheta ~ sigma * x0^(1-delta)
    keeps it close to a Black-Scholes diffusion near the initial price.
    """

    r: float
    vartheta: float
    delta: float
    x0: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.r, self.vartheta, self.delta, self.x0)):
            raise ValueError("r, vartheta, delta and x0 must be finite")
        if self.vartheta <= 0.0:
            raise ValueError("vartheta must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.x0 <= 0.0:
            raise ValueError("x0 must be positive")

    def drift(self, x):
        return self.r * np.asarray(x, dtype=float)

    def diffusion(self, x):
        # extended by 0 below zero (absorbed at 0), where x^(d+1) has no real value
        x = np.asarray(x, dtype=float)
        return self.vartheta * np.maximum(x, 0.0) ** (self.delta + 1.0) / np.sqrt(1.0 + x * x)

    def log_coefficients(self, y):
        """Terms (a, v) of dy = a dt + v dalpha for y = log x.

        a = (b - sigma sigma'/2) / x and v = sigma / x, with sigma the
        diffusion: v = vartheta x^d / sqrt(q) and sigma sigma' / x =
        v^2 ((d+1) - x^2/q) for q = 1 + x^2.
        """
        y = np.asarray(y, dtype=float)
        x2 = np.exp(2.0 * y)
        q = 1.0 + x2
        v = self.vartheta * np.exp(self.delta * y) / np.sqrt(q)
        return self.r - 0.5 * v * v * ((self.delta + 1.0) - x2 / q), v


Model = Union[BlackScholes, PseudoCEV]


@dataclass(frozen=True)
class OneStepLaw:
    """Law of X_{t+dt} given X_t = x_i for each source point x_i: Gaussian in u(X).

    u is log (``log=True``) or the identity, and u(X) is normal with mean
    ``origin_i + shift`` and standard deviation ``sd_i``, so the CDF at z is
    ndtr(((u(z) - origin_i) - shift) / sd_i).  A source with sd = 0 holds
    its point u^-1(origin_i + shift) with probability one.
    """

    log: bool
    origin: np.ndarray
    shift: float
    sd: np.ndarray

    def _from_u(self, u):
        return np.exp(u) if self.log else u

    def cdf(self, z, rows=slice(None), out=None) -> np.ndarray:
        """P(X_{t+dt} <= z_j | X_t = x_i) for the sources ``rows``, shape (sources, z).

        ``out``, of that shape, receives the result and every intermediate.
        Under the log law the CDF is 0 for z <= 0.
        """
        z = np.atleast_1d(np.asarray(z, dtype=float))
        origin, sd = self.origin[rows, None], self.sd[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.log(np.maximum(z, 0.0)) if self.log else z
            arg = np.subtract(u, origin, out=out)
            if self.shift:  # the Euler law's 0.0 would leave every argument as it is
                np.subtract(arg, self.shift, out=arg)
            cdf = ndtr(np.divide(arg, sd, out=arg), out=arg)
        point = sd[:, 0] == 0.0
        if point.any():
            cdf[point] = z >= self._from_u(origin[point] + self.shift)
        return cdf

    def quantile(self, scores) -> np.ndarray:
        """The z where the CDF from each source is ndtr(score); broadcasts ``scores`` over the sources."""
        return self._from_u(self.origin + self.shift + np.asarray(scores, dtype=float) * self.sd)


def one_step_law(model: Model, x, dt: float) -> OneStepLaw:
    """One-step conditional law from each point of ``x`` over ``dt``.

    The model fixes the law: the exact lognormal law for Black-Scholes, and
    for any other model the Gaussian law of one Euler step,
    N(x + b(x) dt, sigma(x)^2 dt).
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(model, BlackScholes):
        sd = np.full(x.shape, model.sigma * math.sqrt(dt))
        return OneStepLaw(True, np.log(x), (model.r - 0.5 * model.sigma**2) * dt, sd)
    return OneStepLaw(False, x + model.drift(x) * dt, 0.0, model.diffusion(x) * math.sqrt(dt))

