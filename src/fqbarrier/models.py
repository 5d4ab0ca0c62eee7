"""Diffusion models for the underlying price process.

Two time-homogeneous models are supported:

* Black-Scholes: dX = r X dt + sigma X dW
* pseudo-CEV:    dX = r X dt + vartheta X^(delta+1) / sqrt(1 + X^2) dW

Both expose the drift and the diffusion coefficient (for the Euler scheme
and the bridge), the two terms of the quantizer ODE in log x, plus the
one-step conditional distribution functions used to estimate grid
transition probabilities: the exact lognormal law where available
(Black-Scholes) and the Gaussian one-step Euler proxy otherwise.
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
    "conditional_cdf_exact",
    "conditional_cdf_euler",
    "conditional_quantile_exact",
    "conditional_quantile_euler",
    "has_exact_transition_cdf",
    "model_from_dict",
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


def has_exact_transition_cdf(model: Model) -> bool:
    """True when the one-step conditional law has a closed form."""
    return isinstance(model, BlackScholes)


def _into(out, value):
    """``value``, written into ``out`` when one is given."""
    if out is None:
        return value
    out[...] = value
    return out


def _lognormal_params(model: BlackScholes, dt: float) -> tuple[float, float]:
    """Mean and standard deviation of log(X_{t+dt} / X_t) under Black-Scholes."""
    if not isinstance(model, BlackScholes):
        raise ValueError("exact conditional law is only available for Black-Scholes")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return (model.r - 0.5 * model.sigma**2) * dt, model.sigma * math.sqrt(dt)


def _euler_params(model: Model, x: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of one Euler step from ``x``."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    return x + model.drift(x) * dt, model.diffusion(x) * math.sqrt(dt)


def conditional_cdf_exact(model: BlackScholes, z, x, dt: float, out=None):
    """P(X_{t+dt} <= z | X_t = x) under Black-Scholes (lognormal law).

    Broadcasts over ``z`` and ``x``; an ``out`` array of the broadcast shape
    receives the result and every intermediate.  With sigma = 0 the law
    degenerates to the point x * exp(r dt).
    """
    mu, s = _lognormal_params(model, dt)
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    if model.sigma == 0.0:
        return _into(out, (z >= x * math.exp(model.r * dt)).astype(float))
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.divide(np.subtract(np.subtract(np.log(z), np.log(x), out=out), mu, out=out), s, out=out)
    cdf = ndtr(arg, out=out)
    if np.all(z > 0.0):
        return cdf
    return _into(out, np.where(z > 0.0, cdf, 0.0))


def conditional_cdf_euler(model: Model, z, x, dt: float, out=None):
    """Gaussian proxy for P(X_{t+dt} <= z | X_t = x) from one Euler step.

    The conditional law is approximated by N(x + b(x) dt, (x sigma(x))^2 dt).
    Broadcasts over ``z`` and ``x``; an ``out`` array of the broadcast shape
    receives the result and every intermediate.
    """
    z = np.asarray(z, dtype=float)
    mean, sd = _euler_params(model, np.asarray(x, dtype=float), dt)
    degenerate = sd == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.divide(np.subtract(z, mean, out=out), sd, out=out)
    cdf = ndtr(arg, out=out)
    if np.any(degenerate):
        cdf = _into(out, np.where(degenerate, (z >= mean).astype(float), cdf))
    return cdf


def conditional_quantile_exact(model: BlackScholes, score, x, dt: float) -> np.ndarray:
    """The z where ``conditional_cdf_exact`` takes ndtr at ``score``: x exp(mu + score s).

    Broadcasts over ``score`` and ``x``.  With sigma = 0 it is the point
    x * exp(r dt) of the degenerate law, for every score.
    """
    mu, s = _lognormal_params(model, dt)
    x = np.asarray(x, dtype=float)
    if model.sigma == 0.0:
        return np.broadcast_to(x * math.exp(model.r * dt), np.broadcast_shapes(np.shape(score), x.shape))
    return x * np.exp(mu + np.asarray(score, dtype=float) * s)


def conditional_quantile_euler(model: Model, score, x, dt: float) -> np.ndarray:
    """The z where ``conditional_cdf_euler`` takes ndtr at ``score``: mean + score sd.

    Broadcasts over ``score`` and ``x``; where sd = 0 it is the mean, the
    point of the degenerate law.
    """
    mean, sd = _euler_params(model, np.asarray(x, dtype=float), dt)
    return mean + np.asarray(score, dtype=float) * sd


def model_from_dict(block: dict) -> Model:
    """Parse a model block like {"model": "bs", "r": .., "sigma": .., "x0": ..}."""
    kind = block.get("model")
    if kind == "bs":
        return BlackScholes(r=float(block["r"]), sigma=float(block["sigma"]), x0=float(block["x0"]))
    if kind == "pcev":
        return PseudoCEV(
            r=float(block["r"]),
            vartheta=float(block["vartheta"]),
            delta=float(block["delta"]),
            x0=float(block["x0"]),
        )
    raise ValueError(f"unknown model kind {kind!r} (expected 'bs' or 'pcev')")
