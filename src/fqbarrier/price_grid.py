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

The step length follows the field.  Every path's ODE is scalar, so its
stiffness is rho_m = |df_m/dy|, which a one-sided difference of
``log_coefficients`` gives at the start of every substep, next to the
move f_m of the first stage.  The step load h max(rho_m / _THETA,
|f_m| / _MU) is linear in h, so its largest rate over the paths picks the
substep: the longest h_max / 2^j, h_max = dt / ``substeps``, whose load is
at most 1 and whose start is a multiple of it.  The substeps tile a binary
tree and land on the interval's end exactly; none is taken twice.
_THETA = 0.25 keeps h rho well inside RK6's real stability interval
[-2.86, 0]; _MU = 0.5 keeps a substep from leaping across the field's
structure in y, which the stiffness at its start cannot see.  A substep
that would have to be shorter than dt / (substeps 2^J), the largest such
count within ``_MAX_SUBSTEPS``, or whose load is not finite, raises
``FloatingPointError``.

The benchmark tables' fields load a substep at most 0.05 (h |f| <= 0.021,
h rho <= 0.007), so their 4 substeps stand and their grids are the
fixed-step grids bit for bit.  On strong pseudo-CEV fields a fixed count
left RK6's stability region and returned a grid 100% off, or a non-finite
one, without warning.  On 1440 drawn pseudo-CEV fields (vartheta 0.1-20,
delta 0.01-0.99, x0 1e-3..1e3, r -1..1, T 0.01-30, 1-39 intervals, budget
100) the grids agree with those at four times the steps within 1e-5 in
log x (median 2e-8) but for one, 1.8e-5 off after full-length substeps at
loads 0.75-0.87: the load bounds stability and the move, not the error.
The tests hold grids to 1e-5.
"""

from __future__ import annotations

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
_MAX_SUBSTEPS = 2**16  # the shortest substep is dt / (substeps 2^J) with substeps 2^J <= this
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
        Runge-Kutta steps per pricing interval where the field allows,
        setting the longest substep h_max = dt / substeps.  A substep whose
        start has h |df/dy| > ``_THETA`` or h |f| > ``_MU`` on some path at
        h_max takes the longest h_max / 2^j that meets both.

    Raises
    ------
    FloatingPointError
        If a substep would have to be shorter than ``_MAX_SUBSTEPS`` allows,
        or a path's price turns non-finite, naming the offending path and time.
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
    # an interval is ``end`` = substeps 2^J units, 2^J = ``top`` as large as the cap allows; ``top`` units
    # are h_max = dt / substeps exactly, so substeps of h_max start at k dt + s h_max, as fixed steps do
    top = 1 << max((_MAX_SUBSTEPS // substeps).bit_length() - 1, 0)
    end = substeps * top
    unit = dt / end
    for k in range(n_steps):
        pos = 0
        while pos < end:
            t = k * dt + pos * unit
            slope = quantizer.all_path_derivatives(t)
            a, v = model.log_coefficients(y)
            stages[0] = a + v * slope
            with np.errstate(all="ignore"):
                a_eta, v_eta = model.log_coefficients(y + _ETA)
                rho = np.abs((a_eta - a) + (v_eta - v) * slope) / _ETA
                rate = np.maximum(rho / _THETA, np.abs(stages[0]) / _MU)  # step load per unit of h
            peak = rate.max()  # NaN if some rate is
            size = min(pos & -pos, top) if pos else top  # the longest length ``pos`` is a multiple of
            while not size * unit * peak <= 1.0:
                if size == 1:
                    m = int(np.argmax(rate))
                    raise FloatingPointError(
                        f"path {m} is too stiff or too fast to integrate at t={t:.6g}: at {end} substeps per "
                        f"interval its step load h max(|df/dy|/{_THETA}, |f|/{_MU}) = {unit * rate[m]:.3g} is "
                        "non-finite or above 1"
                    )
                size //= 2
            h = size * unit
            for i in range(1, 7):
                # k dt + pos unit + c h can round one ulp past T at the last stage
                slope = quantizer.all_path_derivatives(min(t + RK6_C[i] * h, T))
                a, v = model.log_coefficients(y + h * (RK6_A[i, :i] @ stages[:i]))
                stages[i] = a + v * slope
            y = y + h * (RK6_B @ stages)
            pos += size
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


def dump_grids(grid: QuantizedPriceGrid, path) -> None:
    """CSV dump with columns (k, t_k, rank, price, weight): one ``\\r\\n``-ended line per grid point."""
    inverse = np.argsort(grid.permutations, axis=1)  # rank -> path index
    k, rank = np.divmod(np.arange(grid.grids.size), grid.d_n)
    table = np.column_stack([k, grid.dates[k], rank, grid.grids.ravel(), grid.path_weights[inverse].ravel()])
    np.savetxt(path, table, fmt=["%d", "%.17g", "%d", "%.17g", "%.17g"], delimiter=",", newline="\r\n",
               header="k,t_k,rank,price,weight", comments="")
