"""Barrier option pricing by marginal functional quantization.

The package builds optimal quadratic quantizers of Brownian motion from
its sine eigenexpansion, turns them into per-date price grids by solving
a companion ODE, estimates grid transition probabilities from one-step
conditional laws, and prices knock-out options by forward induction with
bridge-law survival factors.  A bridge Monte Carlo pricer and the
Black-Scholes closed forms serve as baselines.

The names below are the API that README documents; everything else is
reached through its submodule.
"""

from .brownian import brownian_product_quantizer
from .closed_form import barrier_price
from .contracts import BarrierContract, BarrierType, PayoffType
from .mc_pricer import Estimator, McConfig, rbb_price
from .models import BlackScholes, PseudoCEV
from .price_grid import quantize_price_process
from .quant_pricer import price_barrier, price_barrier_quant

__all__ = [
    "BarrierContract",
    "BarrierType",
    "BlackScholes",
    "Estimator",
    "McConfig",
    "PayoffType",
    "PseudoCEV",
    "barrier_price",
    "brownian_product_quantizer",
    "price_barrier",
    "price_barrier_quant",
    "quantize_price_process",
    "rbb_price",
]

__version__ = "0.1.0"
