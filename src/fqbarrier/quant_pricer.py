"""Barrier pricing on the quantized chain by forward induction.

Every transition probability is damped by the survival factor of the
barrier over that interval (the bridge extremum law between the two grid
points), giving the sub-stochastic kernels

    H_k[i, j] = g(x_{k-1,i}, x_{k,j}) p_k[i, j],

with g the per-interval no-knock-out probability: G_{x,y}(L) for an
up-and-out contract, 1 - F_{x,y}(L) for a down-and-out one.  Pushing the
initial point mass through the kernels yields a sub-probability measure on
the terminal grid whose total mass is the survival probability; discounting
the expected payoff under it prices the option.  Each kernel is built
as the induction reaches its step and dropped after it, so only one
d_N x d_N kernel is alive at a time.
"""

from __future__ import annotations

import time

import numpy as np

from .bridge import BridgeParams, bridge_max_cdf, bridge_min_cdf
from .brownian import brownian_product_quantizer
from .contracts import BarrierContract, BarrierType, PricingResult
from .models import Model
from .price_grid import QuantizedPriceGrid, quantize_price_process
from .transitions import TransitionMatrix, transition_matrices

__all__ = [
    "quantized_kernel",
    "forward_induction",
    "prune_knocked_rows",
    "price_barrier",
    "price_barrier_quant",
]


def quantized_kernel(
    grid_prev,
    grid_next,
    transition: TransitionMatrix,
    contract: BarrierContract,
    params: BridgeParams,
) -> np.ndarray:
    """Entrywise product of the transition row and the barrier survival factor.

    ``params.sigma_x`` must hold the diffusion at the source grid points,
    column-shaped so it broadcasts down the rows.
    """
    gp = np.asarray(grid_prev, dtype=float)[:, None]
    gn = np.asarray(grid_next, dtype=float)[None, :]
    if transition.entries.shape != (gp.size, gn.size):
        raise ValueError("transition matrix shape does not match the grids")
    if contract.barrier_type is BarrierType.UP_AND_OUT:
        survival = bridge_max_cdf(gp, gn, contract.barrier, params)
    else:
        survival = 1.0 - bridge_min_cdf(gp, gn, contract.barrier, params)
    return survival * transition.entries


def forward_induction(kernels) -> np.ndarray:
    """Terminal sub-probability masses of the chain started at x0.

    Date 0 is d_N copies of x0, so every row of the first kernel is the
    law after one step; row 0 starts the recursion.  ``kernels`` may be a
    generator: each kernel is released before the next one is drawn.
    """
    pi = None
    step = 0
    for H in kernels:
        if pi is None:
            pi = H[0].copy()
        elif H.shape[0] != pi.size:
            raise ValueError(f"kernel {step} has {H.shape[0]} rows, expected {pi.size}")
        else:
            pi = pi @ H
        step += 1
        del H
    if pi is None:
        raise ValueError("need at least one kernel")
    return pi


def prune_knocked_rows(
    kernels: list[np.ndarray],
    grids,
    contract: BarrierContract,
) -> list[np.ndarray]:
    """Zero the kernel rows whose source point sits beyond the barrier.

    Those rows are already structurally zero (the survival factor kills
    them), so the pruned kernels reproduce the unpruned computation
    bit for bit.
    """
    # no longer called by the pricer; kept because the benchmark tracer
    # wraps this module attribute by name
    out = []
    up = contract.barrier_type is BarrierType.UP_AND_OUT
    for k, H in enumerate(kernels):
        source = np.asarray(grids[k], dtype=float)
        knocked = source > contract.barrier if up else source < contract.barrier
        if np.any(knocked):
            H = H.copy()
            H[knocked, :] = 0.0
        out.append(H)
    return out


def price_barrier(
    model: Model,
    contract: BarrierContract,
    grid: QuantizedPriceGrid,
    matrices: list[TransitionMatrix],
) -> PricingResult:
    """Price the contract on prebuilt grids and transition matrices.

    The kernels are built one step at a time as the induction consumes
    them, so memory beyond the inputs does not grow with the step count.
    """
    start = time.perf_counter()
    if len(matrices) != grid.n_steps:
        raise ValueError("need exactly one transition matrix per pricing step")

    def kernels():
        for k, tm in enumerate(matrices):
            gp = grid.grids[k]
            params = BridgeParams(grid.n_steps, grid.horizon, np.asarray(model.diffusion(gp))[:, None])
            yield quantized_kernel(gp, grid.grids[k + 1], tm, contract, params)

    pi = forward_induction(kernels())
    disc = np.exp(-model.r * contract.maturity)
    price = disc * float(pi @ contract.payoff(grid.grids[grid.n_steps]))
    return PricingResult(price=price, method="quant", elapsed=time.perf_counter() - start)


def price_barrier_quant(
    model: Model,
    contract: BarrierContract,
    n_steps: int,
    budget: int = 1000,
    substeps: int = 4,
    cdf_mode: str | None = None,
) -> PricingResult:
    """End-to-end quantization price: build paths, grids, kernels, induct.

    ``cdf_mode=None`` picks the exact conditional law when the model has
    one and the Euler proxy otherwise.
    """
    start = time.perf_counter()
    quantizer = brownian_product_quantizer(budget, contract.maturity)
    grid = quantize_price_process(model, quantizer, n_steps, substeps)
    matrices = transition_matrices(model, grid, cdf_mode)
    result = price_barrier(model, contract, grid, matrices)
    result.elapsed = time.perf_counter() - start
    return result
