"""Transition matrices of the quantized price chain between consecutive grids.

The chain state at date k is the Voronoi cell of the grid ``x^N(t_k)``:
midpoint boundaries inside, 0 below the lowest point and +inf above the
highest.  Row i of the step-k matrix is the one-step conditional law from
the source point evaluated across the destination cells,

    p_k[i, j] = F(b_{j+1}; x_i) - F(b_j; x_i),

where F is either the exact conditional distribution (Black-Scholes
lognormal) or its one-step Euler Gaussian proxy.  By convention the bottom
cell absorbs all mass below its upper boundary and the top cell all mass
above its lower one, so rows sum to one; a final renormalization removes
the residual rounding.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .models import Model, conditional_cdf_euler, conditional_cdf_exact, has_exact_transition_cdf
from .price_grid import QuantizedPriceGrid

__all__ = [
    "TransitionMatrix",
    "cell_boundaries",
    "transition_matrix",
    "transition_matrices",
    "dump_transitions",
]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition probabilities for one pricing step."""

    step: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise ValueError("entries must be a matrix")


def cell_boundaries(grid) -> np.ndarray:
    """Voronoi boundaries [0, midpoints..., +inf] of an ascending grid."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise ValueError("grid must be a nonempty 1-d array")
    return np.concatenate(([0.0], 0.5 * (g[:-1] + g[1:]), [np.inf]))


def transition_matrix(
    model: Model,
    grid_prev,
    grid_next,
    dt: float,
    cdf_mode: str = "exact",
    step: int = 0,
) -> TransitionMatrix:
    """Estimate the cell-to-cell transition probabilities for one step.

    ``cdf_mode`` selects the conditional distribution: "exact" (lognormal,
    Black-Scholes only) or "euler" (one-step Gaussian proxy).
    """
    gp = np.atleast_1d(np.asarray(grid_prev, dtype=float))
    gn = np.atleast_1d(np.asarray(grid_next, dtype=float))
    if gp.size == 0 or gn.size == 0:
        raise ValueError("grids must be nonempty")
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    inner = 0.5 * (gn[:-1] + gn[1:])  # interior boundaries only
    if cdf_mode == "exact":
        if not has_exact_transition_cdf(model):
            raise ValueError("exact conditional law unavailable for this model; use cdf_mode='euler'")
        cum_inner = conditional_cdf_exact(model, inner[None, :], gp[:, None], dt)
    elif cdf_mode == "euler":
        cum_inner = conditional_cdf_euler(model, inner[None, :], gp[:, None], dt)
    else:
        raise ValueError(f"unknown cdf_mode {cdf_mode!r}")

    cum = np.empty((gp.size, gn.size + 1))
    cum[:, 0] = 0.0  # bottom cell keeps everything below its upper boundary
    cum[:, -1] = 1.0  # top cell extends to +inf
    cum[:, 1:-1] = cum_inner
    p = np.diff(cum, axis=1)
    p /= p.sum(axis=1, keepdims=True)
    return TransitionMatrix(step, p)


def transition_matrices(model: Model, grid: QuantizedPriceGrid, cdf_mode: str | None = None) -> list[TransitionMatrix]:
    """All n step matrices of a quantized price grid.

    With ``cdf_mode=None`` the exact law is used whenever the model has one.
    """
    if cdf_mode is None:
        cdf_mode = "exact" if has_exact_transition_cdf(model) else "euler"
    dt = grid.horizon / grid.n_steps
    return [
        transition_matrix(model, grid.grids[k - 1], grid.grids[k], dt, cdf_mode, step=k)
        for k in range(1, grid.n_steps + 1)
    ]


def dump_transitions(matrices: list[TransitionMatrix], path) -> None:
    """CSV dump with columns (k, i, j, p)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "i", "j", "p"])
        for tm in matrices:
            for i, row in enumerate(tm.entries):
                for j, v in enumerate(row):
                    writer.writerow([tm.step, i, j, f"{v:.17g}"])
