"""Transition matrices of the quantized price chain between consecutive grids.

The chain state at date k is the Voronoi cell of the grid ``x^N(t_k)``,
with midpoint boundaries between neighbouring points.  Row i of the step-k
matrix is the one-step conditional law from the source point evaluated
across the destination cells,

    p_k[i, j] = F(b_{j+1}; x_i) - F(b_j; x_i),

where F is the CDF of ``models.one_step_law``: the exact lognormal law of
Black-Scholes or the one-step Euler Gaussian proxy, both Gaussian in some
coordinate of the price.  The bottom cell absorbs all mass below its
upper boundary (under the Euler proxy that includes the mass below 0) and
the top cell all mass above its lower one, so rows sum to one up to
rounding (one ulp on the table grids); rows are not renormalized.
``transition_block`` evaluates a law's rows over a contiguous range of
destination cells into arrays the caller may supply, so that the pricer
builds one law per step and reuses one pair of arrays across its row
blocks; ``transition_steps`` takes its full range one step at a time,
for ``dump_transitions`` and ``transition_matrices``.  ``mass_cells``
gives, for each source point, the range of cells outside which its law
has no mass in double precision: none at all above it, and at most
ndtr(-9) = 1.1e-19 below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Model, OneStepLaw, one_step_law
from .price_grid import QuantizedPriceGrid

__all__ = [
    "TransitionMatrix",
    "mass_cells",
    "transition_block",
    "transition_matrices",
    "transition_steps",
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


def mass_cells(law: OneStepLaw, grid_next) -> np.ndarray:
    """Cells ``lo_i..hi_i-1`` of ``grid_next`` that hold the law from each of its sources.

    Returns the integer array ``[lo, hi]`` of shape (2, sources).  The CDF
    is exactly 1.0 at every edge from ``hi_i`` on, so those cells have
    probability 0 bit for bit; the cells below ``lo_i`` hold at most
    ndtr(-9) = 1.1e-19 together.  A degenerate law (zero spread) gets the
    one cell that holds its point.  This assumes a spread well above the
    rounding of the grid values; ``quant_pricer._push_blocks`` checks the
    upper edge.
    """
    gn = np.atleast_1d(np.asarray(grid_next, dtype=float))
    cuts = law.quantile(np.array([[_LOWER_CUT], [_UPPER_CUT]]))
    # the cell of z is the number of interior edges below it
    cells = np.searchsorted(0.5 * (gn[:-1] + gn[1:]), cuts)
    cells[1] += 1
    return cells


def transition_block(
    law: OneStepLaw,
    grid_next,
    lo: int,
    hi: int,
    rows: slice = slice(None),
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Transition probabilities from the law's sources ``rows`` into cells ``lo..hi-1`` of ``grid_next``.

    The block is written into ``out``, of shape (sources, hi - lo), and the
    CDF at the cell edges into ``work``, of shape (sources, hi - lo + 1);
    either defaults to a new array.
    """
    gn = np.atleast_1d(np.asarray(grid_next, dtype=float))
    if law.sd.size == 0 or gn.size == 0:
        raise ValueError("grids must be nonempty")
    if not 0 <= lo <= hi <= gn.size:
        raise ValueError(f"cell range [{lo}, {hi}) outside a grid of {gn.size} points")

    # boundary b_j of cell j is the midpoint of points j-1 and j; the outer
    # edges b_0 and b_d are -inf and +inf, where the CDF is 0 and 1
    a, b = max(lo, 1), min(hi, gn.size - 1)
    cum = np.empty((len(law.sd[rows]), hi - lo + 1)) if work is None else work
    law.cdf(0.5 * (gn[a - 1 : b] + gn[a : b + 1]), rows, out=cum[:, a - lo : b - lo + 1])
    if lo == 0:
        cum[:, 0] = 0.0
    if hi == gn.size:
        cum[:, -1] = 1.0
    return np.subtract(cum[:, 1:], cum[:, :-1], out=out)


def transition_steps(model: Model, grid: QuantizedPriceGrid):
    """The pairs (k, step-k matrix over every cell) for k = 1..n, each matrix built only when it is drawn."""
    dt = grid.horizon / grid.n_steps
    for k in range(1, grid.n_steps + 1):
        yield k, transition_block(one_step_law(model, grid.grids[k - 1], dt), grid.grids[k], 0, grid.d_n)


def transition_matrices(model: Model, grid: QuantizedPriceGrid) -> list[TransitionMatrix]:
    """All n step matrices of a quantized price grid."""
    return [TransitionMatrix(k, p) for k, p in transition_steps(model, grid)]


def dump_transitions(steps, path) -> None:
    """CSV dump with columns (k, i, j, p) of the (step, matrix) pairs ``steps``, which may be a generator.

    One line per entry, ended by ``\\r\\n`` as ``csv.writer`` ends its rows;
    no field needs quoting.  Each matrix row is written with one join:
    ``np.savetxt`` wrote the same bytes about 2.7 times slower (4 MB, 2 cores).
    """
    with open(path, "w", newline="") as fh:
        fh.write("k,i,j,p\r\n")
        for k, entries in steps:
            for i, row in enumerate(entries):
                fh.write("".join([f"{k},{i},{j},{v:.17g}\r\n" for j, v in enumerate(row.tolist())]))
