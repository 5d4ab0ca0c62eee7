"""Black-Scholes closed forms: vanilla options and continuously monitored
knock-out barriers via the reflection (image) decomposition.

The barrier formulas follow the standard four-block decomposition (the
Reiner-Rubinstein building terms A, B, C, D with zero rebate); which blocks
combine depends on the barrier side and on whether the strike sits above
or below the barrier.
"""

from __future__ import annotations

import math
import time

from scipy.special import log_ndtr, ndtr

from .contracts import BarrierContract, BarrierType, PayoffType, PricingResult, check_discount
from .models import BlackScholes

__all__ = ["vanilla_price", "barrier_price", "price_closed_form"]


def vanilla_price(x0: float, strike: float, maturity: float, rate: float, sigma: float, payoff_type: PayoffType) -> float:
    """Plain Black-Scholes call/put price."""
    if sigma <= 0.0 or maturity <= 0.0:
        raise ValueError("sigma and maturity must be positive")
    if x0 <= 0.0 or strike <= 0.0:
        raise ValueError("x0 and strike must be positive")
    check_discount(rate, maturity)
    srt = sigma * math.sqrt(maturity)
    d1 = (math.log(x0 / strike) + (rate + 0.5 * sigma**2) * maturity) / srt
    d2 = d1 - srt
    disc = math.exp(-rate * maturity)
    if payoff_type is PayoffType.CALL:
        return x0 * ndtr(d1) - strike * disc * ndtr(d2)
    return strike * disc * ndtr(-d2) - x0 * ndtr(-d1)


def _blocks(x0, strike, barrier, maturity, rate, sigma, phi, eta):
    """The four reflection building blocks for a zero-rebate barrier option.

    The reflected blocks C and D take each (L/x0)^k * N(z) as
    exp(k log(L/x0) + log N(z)): at small sigma the power overflows a
    float while N(z) underflows, and their product stays finite.
    """
    srt = sigma * math.sqrt(maturity)
    mu = rate / sigma**2 - 0.5
    disc = math.exp(-rate * maturity)
    log_ratio = math.log(barrier / x0)

    def reflected(k, z):
        return math.exp(k * log_ratio + log_ndtr(z))

    x1 = math.log(x0 / strike) / srt + (1.0 + mu) * srt
    x2 = math.log(x0 / barrier) / srt + (1.0 + mu) * srt
    y1 = math.log(barrier**2 / (x0 * strike)) / srt + (1.0 + mu) * srt
    y2 = log_ratio / srt + (1.0 + mu) * srt

    A = phi * x0 * ndtr(phi * x1) - phi * strike * disc * ndtr(phi * (x1 - srt))
    B = phi * x0 * ndtr(phi * x2) - phi * strike * disc * ndtr(phi * (x2 - srt))
    C = phi * x0 * reflected(2.0 * mu + 2.0, eta * y1) - phi * strike * disc * reflected(2.0 * mu, eta * (y1 - srt))
    D = phi * x0 * reflected(2.0 * mu + 2.0, eta * y2) - phi * strike * disc * reflected(2.0 * mu, eta * (y2 - srt))
    return A, B, C, D


def barrier_price(
    x0: float,
    strike: float,
    barrier: float,
    maturity: float,
    rate: float,
    sigma: float,
    barrier_type: BarrierType,
    payoff_type: PayoffType,
) -> float:
    """Continuously monitored knock-out price under Black-Scholes."""
    if barrier <= 0.0:
        raise ValueError("barrier must be positive")
    if sigma <= 0.0 or maturity <= 0.0:
        raise ValueError("sigma and maturity must be positive")
    if x0 <= 0.0 or strike <= 0.0:
        raise ValueError("x0 and strike must be positive")
    check_discount(rate, maturity)

    up = barrier_type is BarrierType.UP_AND_OUT
    if up and x0 >= barrier:
        return 0.0
    if not up and x0 <= barrier:
        return 0.0

    call = payoff_type is PayoffType.CALL
    if up and call and strike >= barrier:
        return 0.0  # any in-the-money fixing would have crossed first
    if not up and not call and strike <= barrier:
        return 0.0
    phi = 1.0 if call else -1.0
    eta = -1.0 if up else 1.0
    strike_above = strike > barrier
    A, B, C, D = _blocks(x0, strike, barrier, maturity, rate, sigma, phi, eta)
    if up == call:  # up-and-out call, down-and-out put
        price = A - B + C - D
    elif up:
        price = B - D if strike_above else A - C
    else:
        price = A - C if strike_above else B - D
    # the blocks can cancel to a few ulps below 0; a knock-out price is never negative
    return max(price, 0.0)


def price_closed_form(model: BlackScholes, contract: BarrierContract) -> PricingResult:
    """Closed-form knock-out price for a model/contract pair."""
    if not isinstance(model, BlackScholes):
        raise ValueError("closed form unavailable for pseudo-CEV")
    start = time.perf_counter()
    price = barrier_price(
        model.x0,
        contract.strike,
        contract.barrier,
        contract.maturity,
        model.r,
        model.sigma,
        contract.barrier_type,
        contract.payoff_type,
    )
    return PricingResult(price=price, method="closed", elapsed=time.perf_counter() - start)
