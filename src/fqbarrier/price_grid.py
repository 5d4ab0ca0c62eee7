"""Marginal quantization grids of the price process at the pricing dates.

Each Brownian quantizer path alpha_m drives a companion ODE

    dx/dt = b(x) - 1/2 sigma(x) sigma'(x) + sigma(x) alpha_m'(t),  x(0) = x0,

whose solution sampled at the pricing dates t_k = k T / n gives a grid of
price levels per date.  The ODE is integrated in y = log x,

    dy/dt = f_m(t, y) = a(y) + v(y) alpha_m'(t),  a = (b - sigma sigma'/2) / x,  v = sigma / x,

so every level is exp(y) > 0, with an explicit 7-stage 6th-order
Runge-Kutta method, all paths advanced together.  Under Black-Scholes a
and v are constants and the solution is
x0 exp((r - sigma^2/2) t + sigma alpha_m(t)), which serves as the
integration oracle in the tests.

The step count of each pricing interval follows the field.  Every path's
ODE is scalar, so its stiffness is rho_m = |df_m/dy|, which a one-sided
difference of ``log_coefficients`` gives at the start of every substep,
next to the move f_m of the first stage.  Each interval starts at
``substeps`` steps of length h.  If some path's step load
h max(rho_m / _THETA, |f_m| / _MU) exceeds 1 or is not finite, the
interval starts again from its first point with twice the substeps.
_THETA = 0.25 keeps h rho well inside RK6's real stability interval
[-2.86, 0]; _MU = 0.5 keeps a substep from leaping across the field's
structure in y, which the stiffness at its start cannot see.  A count
past ``_MAX_SUBSTEPS`` raises ``FloatingPointError``.

The benchmark tables' fields load a substep at most 0.05 (h |f| <= 0.021,
h rho <= 0.007), so their 4 substeps stand and their grids are the
fixed-step grids bit for bit.  On strong pseudo-CEV fields a fixed count
left RK6's stability region and returned a grid 100% off, or a non-finite
one, without warning.  On 720 drawn pseudo-CEV fields (vartheta 0.1-20,
delta 0.01-0.99, x0 1e-3..1e3, r -1..1, T 0.01-30, 1-39 intervals, budget
100) the grids agree with those at four times the steps within 2.4e-6 in
log x; the tests hold them to 1e-5.
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

_THETA = 0.25  # largest h |df/dy| a substep may take
_MU = 0.5  # largest h |f|, the move in y, a substep may take
_MAX_SUBSTEPS = 2**16  # per pricing interval
_ETA = 1e-6  # step in y of the stiffness estimate's one-sided difference


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
        Runge-Kutta steps each pricing interval starts from.  An interval
        where a substep of length h starts with h |df/dy| > ``_THETA`` or
        h |f| > ``_MU`` on some path starts again with twice the substeps,
        until none does.

    Raises
    ------
    FloatingPointError
        If an interval would need more than ``_MAX_SUBSTEPS`` substeps, or
        a path's price turns non-finite, naming the offending path and
        time.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")

    T = quantizer.horizon
    d_n = quantizer.n_paths
    dt = T / n_steps

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
        count = substeps
        while True:
            y_next, refused = _interval(model, quantizer, y, k * dt, dt / count, count, stages)
            if y_next is not None:
                break
            if 2 * count > _MAX_SUBSTEPS:
                t, load = refused
                m = int(np.argmax(load))
                raise FloatingPointError(
                    f"path {m} is too stiff or too fast to integrate at t={t:.6g}: at {count} substeps per "
                    f"interval its step load h max(|df/dy|/{_THETA}, |f|/{_MU}) = {load[m]:.3g} is non-finite "
                    "or above 1"
                )
            count *= 2
        y = y_next
        with np.errstate(over="ignore"):  # an overflow raises just below, naming the path
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


def _interval(model: Model, quantizer: BrownianProductQuantizer, y, t0: float, h: float, count: int, stages):
    """Advance ``y`` from ``t0`` by ``count`` RK6 substeps of length ``h``, ``stages`` the work array.

    Returns (y, None), or (None, (t, load)) with every path's step load
    h max(rho / _THETA, |f| / _MU) at the first substep start t where the
    largest load exceeds 1 or one is NaN (which ``max`` and ``argmax`` then
    return).
    """
    T = quantizer.horizon
    for s in range(count):
        t = t0 + s * h
        slope = quantizer.all_path_derivatives(t)
        a, v = model.log_coefficients(y)
        stages[0] = a + v * slope
        with np.errstate(all="ignore"):
            a_eta, v_eta = model.log_coefficients(y + _ETA)
            rho = np.abs((a_eta - a) + (v_eta - v) * slope) / _ETA
            load = h * np.maximum(rho / _THETA, np.abs(stages[0]) / _MU)
        if not load.max() <= 1.0:
            return None, (t, load)
        for i in range(1, 7):
            # t0 + s h + c h can round one ulp past T at the last stage
            slope = quantizer.all_path_derivatives(min(t + RK6_C[i] * h, T))
            a, v = model.log_coefficients(y + h * (RK6_A[i, :i] @ stages[:i]))
            stages[i] = a + v * slope
        y = y + h * (RK6_B @ stages)
    return y, None


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
