"""Diffusion models for the underlying price process.

Two time-homogeneous models are supported:

* Black-Scholes: dX = r X dt + sigma X dW
* pseudo-CEV:    dX = r X dt + vartheta X^(delta+1) / sqrt(1 + X^2) dW

Both expose the drift, the diffusion coefficient and its derivative
(needed by the quantizer ODE correction term), plus the one-step
conditional distribution functions used to estimate grid transition
probabilities: the exact lognormal law where available (Black-Scholes)
and the Gaussian one-step Euler proxy otherwise.
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
    "has_exact_transition_cdf",
    "model_from_dict",
    "model_to_dict",
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

    def diffusion_prime(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, self.sigma)


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
        x = np.asarray(x, dtype=float)
        return self.vartheta * x ** (self.delta + 1.0) / np.sqrt(1.0 + x * x)

    def diffusion_prime(self, x):
        # d/dx [vartheta x^(d+1) (1+x^2)^(-1/2)]; tends to 0 as x -> 0+
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            out = self.vartheta * (
                (self.delta + 1.0) * x**self.delta / np.sqrt(1.0 + x * x)
                - x ** (self.delta + 2.0) * (1.0 + x * x) ** -1.5
            )
        return np.where(x == 0.0, 0.0, out)


Model = Union[BlackScholes, PseudoCEV]


def has_exact_transition_cdf(model: Model) -> bool:
    """True when the one-step conditional law has a closed form."""
    return isinstance(model, BlackScholes)


def conditional_cdf_exact(model: BlackScholes, z, x, dt: float):
    """P(X_{t+dt} <= z | X_t = x) under Black-Scholes (lognormal law).

    Broadcasts over ``z`` and ``x``.  With sigma = 0 the law degenerates to
    the point x * exp(r dt).
    """
    if not isinstance(model, BlackScholes):
        raise ValueError("exact conditional law is only available for Black-Scholes")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    if model.sigma == 0.0:
        return (z >= x * math.exp(model.r * dt)).astype(float)
    mu = (model.r - 0.5 * model.sigma**2) * dt
    s = model.sigma * math.sqrt(dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (np.log(z) - np.log(x) - mu) / s
    return np.where(z > 0.0, ndtr(arg), 0.0)


def conditional_cdf_euler(model: Model, z, x, dt: float):
    """Gaussian proxy for P(X_{t+dt} <= z | X_t = x) from one Euler step.

    The conditional law is approximated by N(x + b(x) dt, (x sigma(x))^2 dt).
    Broadcasts over ``z`` and ``x``.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    mean = x + model.drift(x) * dt
    sd = model.diffusion(x) * math.sqrt(dt)
    degenerate = sd == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (z - mean) / sd
    out = ndtr(arg)
    if np.any(degenerate):
        out = np.where(degenerate, (z >= mean).astype(float), out)
    return out


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


def model_to_dict(model: Model) -> dict:
    if isinstance(model, BlackScholes):
        return {"model": "bs", "r": model.r, "sigma": model.sigma, "x0": model.x0}
    return {"model": "pcev", "r": model.r, "vartheta": model.vartheta, "delta": model.delta, "x0": model.x0}
