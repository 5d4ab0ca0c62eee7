"""Barrier option contracts, pricing result records and the discount check."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = ["BarrierType", "PayoffType", "BarrierContract", "PricingResult", "check_discount"]


class BarrierType(Enum):
    UP_AND_OUT = "up-and-out"
    DOWN_AND_OUT = "down-and-out"


class PayoffType(Enum):
    CALL = "call"
    PUT = "put"


@dataclass(frozen=True)
class BarrierContract:
    """Knock-out option: payoff dies when the running extremum crosses the barrier."""

    barrier_type: BarrierType
    payoff_type: PayoffType
    strike: float
    barrier: float
    maturity: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.strike, self.barrier, self.maturity)):
            raise ValueError("strike, barrier and maturity must be finite")
        if self.strike <= 0.0 or self.barrier <= 0.0 or self.maturity <= 0.0:
            raise ValueError("strike, barrier and maturity must be positive")

    def payoff(self, x):
        x = np.asarray(x, dtype=float)
        if self.payoff_type is PayoffType.CALL:
            return np.maximum(x - self.strike, 0.0)
        return np.maximum(self.strike - x, 0.0)


@dataclass
class PricingResult:
    """Price plus method metadata; variance fields are Monte Carlo only."""

    price: float
    method: str
    elapsed: float
    sample_variance: float | None = None
    std_error: float | None = None


def check_discount(rate: float, maturity: float) -> None:
    """Raise a ValueError naming r and T unless the discount factor exp(-r T) is a finite float.

    That needs r T >= -709.78; each pricer still computes its own factor.
    """
    try:
        disc = math.exp(-rate * maturity)
    except OverflowError:
        disc = math.inf
    if disc == math.inf:
        raise ValueError(f"discount factor exp(-r*T) overflows a float at r={rate!r}, T={maturity!r}; "
                         "r*T must be at least -709.78")
