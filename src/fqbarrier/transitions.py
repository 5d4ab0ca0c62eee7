"""Transition matrices of the quantized price chain between consecutive grids.

The chain state at date k is the Voronoi cell of the grid ``x^N(t_k)``,
with midpoint boundaries between neighbouring points.  Row i of the step-k
matrix is the one-step conditional law from the source point evaluated
across the destination cells,

    p_k[i, j] = F(b_{j+1}; x_i) - F(b_j; x_i),

where F is either the exact conditional distribution (Black-Scholes
lognormal) or its one-step Euler Gaussian proxy.  The bottom cell absorbs
all mass below its upper boundary (under the Euler proxy that includes the
mass below 0) and the top cell all mass above its lower one, so rows sum
to one up to rounding (one ulp on the table grids); rows are not
renormalized.  ``transition_block`` evaluates a contiguous range of
destination cells into arrays the caller may supply, so that the pricer
reuses one pair across its row blocks; ``transition_matrix`` is its
full-range call.  ``mass_cells`` gives, for each source point, the range
of cells outside which its law has no mass in double precision: none at
all above it, and at most ndtr(-9) = 1.1e-19 below.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .models import (
    Model,
    conditional_cdf_euler,
    conditional_cdf_exact,
    conditional_quantile_euler,
    conditional_quantile_exact,
    has_exact_transition_cdf,
)
from .price_grid import QuantizedPriceGrid

__all__ = [
    "TransitionMatrix",
    "conditional_cdf",
    "mass_cells",
    "transition_block",
    "transition_matrix",
    "transition_matrices",
    "dump_transitions",
]


# scipy's ndtr rounds to exactly 1.0 from 8.2924 up; the upper cut keeps a
# margin above that for the rounding of the quantile and of the CDF argument.
# Below the lower cut the CDF is at most ndtr(-9) = 1.1e-19.
_UPPER_CUT = 8.5
_LOWER_CUT = -9.0


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition probabilities for one pricing step."""

    step: int
    entries: np.ndarray

    def __post_init__(self):
        if self.entries.ndim != 2:
            raise ValueError("entries must be a matrix")


def conditional_cdf(model: Model, cdf_mode: str | None = None):
    """The one-step conditional CDF ``F(model, z, x, dt)`` that ``cdf_mode`` selects.

    Raises for an unknown mode and for "exact" on a model without a closed
    form law.
    """
    if cdf_mode is None:
        cdf_mode = "exact" if has_exact_transition_cdf(model) else "euler"
    if cdf_mode == "exact":
        if not has_exact_transition_cdf(model):
            raise ValueError("exact conditional law unavailable for this model; use cdf_mode='euler'")
        return conditional_cdf_exact
    if cdf_mode == "euler":
        return conditional_cdf_euler
    raise ValueError(f"unknown cdf_mode {cdf_mode!r}")


def mass_cells(model: Model, grid_prev, grid_next, dt: float, cdf_mode: str | None = None) -> np.ndarray:
    """Cells ``lo_i..hi_i-1`` of ``grid_next`` that hold the conditional law from each ``grid_prev`` point.

    Returns the integer array ``[lo, hi]`` of shape (2, sources).  The CDF
    is exactly 1.0 at every edge from ``hi_i`` on, so those cells have
    probability 0 bit for bit; the cells below ``lo_i`` hold at most
    ndtr(-9) = 1.1e-19 together.  A degenerate law (zero spread) gets the
    one cell that holds its point.  This assumes a spread well above the
    rounding of the grid values; ``price_barrier`` checks the upper edge.
    """
    exact = conditional_cdf(model, cdf_mode) is conditional_cdf_exact
    quantile = conditional_quantile_exact if exact else conditional_quantile_euler
    gp = np.atleast_1d(np.asarray(grid_prev, dtype=float))
    gn = np.atleast_1d(np.asarray(grid_next, dtype=float))
    cuts = quantile(model, np.array([[_LOWER_CUT], [_UPPER_CUT]]), gp[None, :], dt)
    # the cell of z is the number of interior edges below it
    cells = np.searchsorted(0.5 * (gn[:-1] + gn[1:]), cuts)
    cells[1] += 1
    return cells


def transition_block(
    model: Model,
    grid_prev,
    grid_next,
    lo: int,
    hi: int,
    dt: float,
    cdf_mode: str | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Transition probabilities from every ``grid_prev`` point into cells ``lo..hi-1`` of ``grid_next``.

    ``cdf_mode`` selects the conditional distribution: "exact" (lognormal,
    Black-Scholes only), "euler" (one-step Gaussian proxy) or None (exact
    whenever the model has it).  The block is written into ``out``, of shape
    (sources, hi - lo), and the CDF at the cell edges into ``work``, of
    shape (sources, hi - lo + 1); either defaults to a new array.
    """
    gp = np.atleast_1d(np.asarray(grid_prev, dtype=float))
    gn = np.atleast_1d(np.asarray(grid_next, dtype=float))
    if gp.size == 0 or gn.size == 0:
        raise ValueError("grids must be nonempty")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not 0 <= lo <= hi <= gn.size:
        raise ValueError(f"cell range [{lo}, {hi}) outside a grid of {gn.size} points")
    cdf = conditional_cdf(model, cdf_mode)

    # boundary b_j of cell j is the midpoint of points j-1 and j; the outer
    # edges b_0 and b_d are -inf and +inf, where the CDF is 0 and 1
    a, b = max(lo, 1), min(hi, gn.size - 1)
    cum = np.empty((gp.size, hi - lo + 1)) if work is None else work
    cdf(model, 0.5 * (gn[a - 1 : b] + gn[a : b + 1])[None, :], gp[:, None], dt, out=cum[:, a - lo : b - lo + 1])
    if lo == 0:
        cum[:, 0] = 0.0
    if hi == gn.size:
        cum[:, -1] = 1.0
    return np.subtract(cum[:, 1:], cum[:, :-1], out=out)


def transition_matrix(
    model: Model,
    grid_prev,
    grid_next,
    dt: float,
    cdf_mode: str | None = "exact",
    step: int = 0,
) -> TransitionMatrix:
    """Cell-to-cell transition probabilities for one step, over every cell."""
    n_next = np.atleast_1d(np.asarray(grid_next)).size
    return TransitionMatrix(step, transition_block(model, grid_prev, grid_next, 0, n_next, dt, cdf_mode))


def transition_matrices(model: Model, grid: QuantizedPriceGrid, cdf_mode: str | None = None) -> list[TransitionMatrix]:
    """All n step matrices of a quantized price grid.

    With ``cdf_mode=None`` the exact law is used whenever the model has one.
    """
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
