"""Marginal quantization grids of the price process at the pricing dates.

Each Brownian quantizer path alpha_m drives a companion ODE

    dx/dt = b(x) - 1/2 sigma(x) sigma'(x) + sigma(x) alpha_m'(t),  x(0) = x0,

whose solution sampled at the pricing dates t_k = k T / n gives a grid of
price levels per date.  The ODE is integrated in y = log x,

    dy/dt = a(y) + v(y) alpha_m'(t),  a = (b - sigma sigma'/2) / x,  v = sigma / x,

so every level is exp(y) > 0, with a fixed-step explicit 7-stage
6th-order Runge-Kutta method, all paths advanced together.  Under
Black-Scholes a and v are constants and the solution is
x0 exp((r - sigma^2/2) t + sigma alpha_m(t)), which serves as the
integration oracle in the tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .brownian import BrownianProductQuantizer
from .models import Model

__all__ = ["QuantizedPriceGrid", "quantize_price_process", "dump_grids", "RK6_A", "RK6_B", "RK6_C"]

# Butcher's explicit 7-stage 6th-order tableau
RK6_A = np.zeros((7, 7))
RK6_A[1, 0] = 1 / 3
RK6_A[2, :2] = (0, 2 / 3)
RK6_A[3, :3] = (1 / 12, 1 / 3, -1 / 12)
RK6_A[4, :4] = (-1 / 16, 9 / 8, -3 / 16, -3 / 8)
RK6_A[5, :5] = (0, 9 / 8, -3 / 8, -3 / 4, 1 / 2)
RK6_A[6, :6] = (9 / 44, -9 / 11, 63 / 44, 18 / 11, 0, -16 / 11)
RK6_B = np.array([11 / 120, 0, 27 / 40, 27 / 40, -4 / 15, -4 / 15, 11 / 120])
RK6_C = RK6_A.sum(axis=1)
RK6_A.setflags(write=False)
RK6_B.setflags(write=False)
RK6_C.setflags(write=False)


@dataclass(frozen=True)
class QuantizedPriceGrid:
    """Price levels per pricing date, ascending, with the driving-path weights.

    ``grids[k]`` holds the d_N sorted levels at date t_k (the k = 0 grid is
    d_N copies of x0).  ``permutations[k][m]`` is the rank of driving path m
    in ``grids[k]``, so ``grids[k][permutations[k][m]]`` recovers the value
    of path m.  ``path_weights`` are indexed by path, not rank.
    """

    n_steps: int
    horizon: float
    dates: np.ndarray  # (n+1,)
    grids: np.ndarray  # (n+1, d_N) ascending rows
    path_weights: np.ndarray  # (d_N,)
    permutations: np.ndarray  # (n+1, d_N) path index -> rank

    @property
    def d_n(self) -> int:
        return self.grids.shape[1]


def quantize_price_process(
    model: Model,
    quantizer: BrownianProductQuantizer,
    n_steps: int,
    substeps: int = 4,
) -> QuantizedPriceGrid:
    """Integrate the companion ODE along every quantizer path.

    Parameters
    ----------
    model : Model
        Diffusion supplying the log-space terms ``log_coefficients``.
    quantizer : BrownianProductQuantizer
        Driving path family; its horizon is the option maturity.
    n_steps : int
        Number of pricing intervals; grids are recorded at k T / n.
    substeps : int
        Runge-Kutta steps per pricing interval.

    Raises
    ------
    FloatingPointError
        If a path's price turns non-finite, naming the offending path and
        time.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")

    T = quantizer.horizon
    d_n = quantizer.n_paths
    dt = T / n_steps
    h = dt / substeps

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        a, v = model.log_coefficients(y)
        return a + v * quantizer.all_path_derivatives(t)

    y = np.full(d_n, math.log(model.x0))
    grids = np.empty((n_steps + 1, d_n))
    perms = np.empty((n_steps + 1, d_n), dtype=np.intp)

    def record(k: int, values: np.ndarray) -> None:
        order = np.argsort(values, kind="stable")
        grids[k] = values[order]
        ranks = np.empty(d_n, dtype=np.intp)
        ranks[order] = np.arange(d_n)
        perms[k] = ranks

    record(0, np.full(d_n, float(model.x0)))
    stages = np.empty((7, d_n))
    for k in range(n_steps):
        for s in range(substeps):
            t = k * dt + s * h
            for i in range(7):
                yi = y + h * (RK6_A[i, :i] @ stages[:i]) if i else y
                # k dt + s h + c h can round one ulp past T at the last stage
                stages[i] = rhs(min(t + RK6_C[i] * h, T), yi)
            y = y + h * (RK6_B @ stages)
        x = np.exp(y)
        bad = ~np.isfinite(x)
        if np.any(bad):
            m = int(np.argmax(bad))
            raise FloatingPointError(
                f"path {m} became non-finite at t={(k + 1) * dt:.6g} during grid integration"
            )
        record(k + 1, x)

    dates = np.arange(n_steps + 1) * dt
    for arr in (dates, grids, perms):
        arr.setflags(write=False)
    return QuantizedPriceGrid(n_steps, T, dates, grids, quantizer.weights, perms)


def dump_grids(grid: QuantizedPriceGrid, path) -> None:
    """CSV dump with columns (k, t_k, rank, price, weight)."""
    inverse = np.argsort(grid.permutations, axis=1)  # rank -> path index
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "t_k", "rank", "price", "weight"])
        for k in range(grid.n_steps + 1):
            for rank in range(grid.d_n):
                writer.writerow(
                    [
                        k,
                        f"{grid.dates[k]:.17g}",
                        rank,
                        f"{grid.grids[k][rank]:.17g}",
                        f"{grid.path_weights[inverse[k][rank]]:.17g}",
                    ]
                )
