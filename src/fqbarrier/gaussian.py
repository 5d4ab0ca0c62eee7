"""Optimal quadratic quantizers of the standard normal distribution.

A quantizer of size N is a strictly increasing grid ``x_1 < ... < x_N``
approximating Z ~ N(0,1) by the nearest grid point.  The optimal grid
minimizes the quadratic distortion E[min_i (Z - x_i)^2] and is stationary:
every point equals the conditional mean of Z over its Voronoi cell.

Grids are computed by Newton's method on the stationarity system from a
quantile start, using closed-form Gaussian cell moments throughout (no
sampling).  One Newton run solves a whole batch of sizes at once: their
grids are laid end to end, no cell edge crosses from one grid to the
next, and each size stops on its own rule, so every grid comes out as it
would alone.  A single size is the batch of one.  One helper evaluates
the cell moments for every consumer; it takes upper-tail cell masses as
Phi(-lo) - Phi(-hi), so they keep their relative precision and every N up
to 10^4 meets the 1e-9 stationarity bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

__all__ = [
    "GaussianQuantizer",
    "LloydConvergenceError",
    "optimal_normal_quantizer",
    "solve_normal_quantizers",
    "distortion",
    "lloyd_step",
    "save_quantizer",
    "load_quantizer",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class LloydConvergenceError(RuntimeError):
    """Raised when the grid solver stops above the 1e-9 stationarity bound."""

    def __init__(self, n_levels: int, residual: float, iterations: int):
        self.n_levels = n_levels
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"normal quantizer solver did not converge for N={n_levels}: "
            f"residual {residual:.3e} after {iterations} iterations"
        )


@dataclass(frozen=True)
class GaussianQuantizer:
    """Optimal N-level quantizer of N(0,1): grid, cell masses, distortion."""

    n_levels: int
    points: np.ndarray
    weights: np.ndarray
    distortion: float

    def __post_init__(self):
        if self.n_levels != len(self.points) or self.n_levels != len(self.weights):
            raise ValueError("points/weights length must equal n_levels")


def _validate_points(points) -> np.ndarray:
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("empty point set")
    if pts.size > 1 and np.any(np.diff(pts) <= 0.0):
        raise ValueError("points must be strictly increasing")
    return pts


_NO_STARTS = np.zeros(0, dtype=np.intp)


def _edges(inner: np.ndarray, starts: np.ndarray, at_lower: float, at_upper: float):
    """A quantity at the lower and at the upper edge of every cell.

    ``inner`` holds it at the midpoints between neighbours; ``at_lower``
    and ``at_upper`` are its values at the outer edges -inf and +inf,
    which close both ends and both sides of every index in ``starts``.
    """
    lower = np.concatenate(([at_lower], inner))
    upper = np.concatenate((inner, [at_upper]))
    lower[starts] = at_lower
    upper[starts - 1] = at_upper
    return lower, upper


def _cell_moments(points: np.ndarray, starts: np.ndarray = _NO_STARTS):
    """Edges, edge densities and Gaussian masses of the midpoint Voronoi cells.

    ``points`` may hold several grids end to end, each after the first
    beginning at an index in ``starts``; no cell edge crosses from one
    grid to the next, so every value equals the one its grid gives alone.
    Returns ``(lo, hi, phi_lo, phi_hi, mass)``.  The outer edges -inf/+inf
    are reported as 0 with density 0, so every ``edge * phi(edge)`` term
    vanishes there.  A cell right of 0 takes its mass as
    Phi(-lo) - Phi(-hi): both terms are small in the upper tail, where
    Phi(hi) - Phi(lo) would cancel two numbers close to 1.
    """
    mid = 0.5 * (points[:-1] + points[1:])
    lo, hi = _edges(mid, starts, 0.0, 0.0)
    phi_lo, phi_hi = _edges(np.exp(-0.5 * mid * mid) / _SQRT_2PI, starts, 0.0, 0.0)
    below_lo, below_hi = _edges(ndtr(mid), starts, 0.0, 1.0)  # Phi at each edge
    above_lo, above_hi = _edges(ndtr(-mid), starts, 1.0, 0.0)  # 1 - Phi at each edge
    mass = np.where(points > 0.0, above_lo - above_hi, below_hi - below_lo)
    return lo, hi, phi_lo, phi_hi, mass


def _cell_errors(points: np.ndarray, starts: np.ndarray = _NO_STARTS):
    """Gaussian mass and quadratic error int_cell (z - x_i)^2 phi(z) dz of every cell.

    From closed-form Gaussian moments:
    int_a^b (z - c)^2 phi(z) dz
        = (1 + c^2)(Phi(b) - Phi(a)) + (a - 2c) phi(a) - (b - 2c) phi(b).
    """
    lo, hi, pl, ph, mass = _cell_moments(points, starts)
    return mass, (1.0 + points**2) * mass + (lo - 2.0 * points) * pl - (hi - 2.0 * points) * ph


def distortion(points) -> float:
    """Quadratic distortion E[min_i (Z - x_i)^2] of an increasing grid, summed cell by cell."""
    return float(np.sum(_cell_errors(_validate_points(points))[1]))


def lloyd_step(points) -> np.ndarray:
    """One Lloyd sweep: move every point to the mean of its Voronoi cell."""
    _, _, pl, ph, mass = _cell_moments(_validate_points(points))
    return (pl - ph) / mass


def _batch_newton_step(points: np.ndarray, starts: np.ndarray):
    """One Newton step on F(x) = x - cellmean(x) for grids laid end to end.

    ``starts`` is as in :func:`_cell_moments`.  Returns the new grids and
    max|F(x)| of each grid.  The tridiagonal system couples neighbours
    through their shared edge only, so its entries across a start are 0
    and the one LAPACK ``gtsv`` call solves each grid as it would alone.
    """
    lo, hi, pl, ph, den = _cell_moments(points, starts)
    num = pl - ph
    g = num / den
    # derivatives of the cell mean w.r.t. the lower/upper cell edge
    dg_lo = pl * (num - lo * den) / den**2
    dg_hi = ph * (hi * den - num) / den**2
    # each edge is a midpoint, so d(edge)/d(point) = 1/2 on both sides
    ab = np.zeros((3, len(points)))
    ab[0, 1:] = -0.5 * dg_hi[:-1]
    ab[1, :] = 1.0 - 0.5 * (dg_lo + dg_hi)
    ab[2, :-1] = -0.5 * dg_lo[1:]
    residual = points - g
    step = solve_banded((1, 1), ab, residual)
    return points - step, np.maximum.reduceat(np.abs(residual), np.concatenate(([0], starts)))


def solve_normal_quantizers(sizes) -> dict[int, GaussianQuantizer | LloydConvergenceError]:
    """Compute the optimal quadratic N(0,1) quantizers of several sizes in one run.

    Newton's method on the stationarity system x = cellmean(x), started
    from the quantiles Phi^{-1}((2i-1)/(2N)), runs on all grids at once,
    laid end to end.  Each grid stops on its own when its residual
    max|x - cellmean(x)| is below 1e-12 or stops falling (Pages & Printems
    2003), and leaves the batch; every step is one tridiagonal solve over
    the grids still running.  Each grid is then made exactly antisymmetric
    about 0.  A grid comes out the same, bit for bit, whatever else its
    batch holds.

    Parameters
    ----------
    sizes : iterable of int
        Grid sizes, each >= 1; repeats are solved once.

    Returns
    -------
    dict
        Each distinct size, in first-seen order, maps to its stationary
        :class:`GaussianQuantizer`, or to the :class:`LloydConvergenceError`
        naming it if its residual where Newton stopped is not below 1e-9,
        the stationarity guarantee carried by the type.  The error is
        returned, not raised, so the other sizes stay readable.
    """
    sizes = list(dict.fromkeys(operator.index(n) for n in sizes))
    if any(n < 1 for n in sizes):
        raise ValueError("n_levels must be >= 1")
    if not sizes:
        return {}
    lens = np.array(sizes)
    ends = np.cumsum(lens)
    starts = ends - lens
    grid_of = np.repeat(np.arange(len(sizes)), lens)
    rank = np.arange(ends[-1]) - starts[grid_of] + 1  # 1-based index within its grid
    x = ndtri((2.0 * rank - 1.0) / (2.0 * lens[grid_of]))

    stopped = np.empty_like(x)  # every grid where its Newton run stopped
    residuals = np.empty(len(sizes))
    iters = np.empty(len(sizes), dtype=int)
    live = np.arange(len(sizes))  # the grids still running, in batch order
    at = np.arange(len(x))  # where each running point sits in the batch
    previous = np.full(len(sizes), np.inf)
    count = 0
    while live.size:
        live_starts = np.cumsum(lens[live])[:-1]
        x_next, residual = _batch_newton_step(x, live_starts)
        stop = (residual < 1e-12) | ~(residual < previous)  # NaN stops too
        residuals[live[stop]] = residual[stop]
        iters[live[stop]] = count
        going = np.repeat(~stop, lens[live])
        stopped[at[~going]] = x[~going]
        x, at = x_next[going], at[going]
        live, previous = live[~stop], residual[~stop]
        count += 1

    x = 0.5 * (stopped - stopped[ends[grid_of] - rank])  # exact antisymmetry
    mass, errors = _cell_errors(x, starts[1:])
    out: dict[int, GaussianQuantizer | LloydConvergenceError] = {}
    for k, n in enumerate(sizes):
        if not residuals[k] < 1e-9:
            out[n] = LloydConvergenceError(n, float(residuals[k]), int(iters[k]))
            continue
        cells = slice(starts[k], ends[k])
        points, weights = x[cells].copy(), mass[cells].copy()
        points.setflags(write=False)
        weights.setflags(write=False)
        out[n] = GaussianQuantizer(n, points, weights, float(np.sum(errors[cells])))
    return out


def optimal_normal_quantizer(n_levels: int) -> GaussianQuantizer:
    """Compute the optimal quadratic N(0,1) quantizer of a given size.

    The batch of one of :func:`solve_normal_quantizers`.

    Parameters
    ----------
    n_levels : int
        Number of grid points, >= 1.

    Returns
    -------
    GaussianQuantizer
        Stationary grid, cell weights and the quadratic distortion.
        Deterministic for a given ``n_levels``.

    Raises
    ------
    LloydConvergenceError
        If the residual where Newton stops is not below 1e-9, the
        stationarity guarantee carried by the type.
    """
    q = solve_normal_quantizers([n_levels])[n_levels]
    if isinstance(q, LloydConvergenceError):
        raise q
    return q


@lru_cache(maxsize=None)
def cached_normal_quantizer(n_levels: int) -> GaussianQuantizer:
    """Memoized :func:`optimal_normal_quantizer`."""
    return optimal_normal_quantizer(n_levels)


def save_quantizer(q: GaussianQuantizer, path) -> None:
    """Write a quantizer as text: header ``N <n>`` then ``point weight`` rows."""
    np.savetxt(path, np.column_stack([q.points, q.weights]), fmt="%.17g", header=f"N {q.n_levels}", comments="")


def load_quantizer(path) -> GaussianQuantizer:
    """Read a quantizer written by :func:`save_quantizer`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "N":
            raise ValueError(f"bad quantizer file header in {path!r}")
        n = int(header[1])
        rows = np.loadtxt(fh, ndmin=2)
    if len(rows) != n:
        raise ValueError(f"expected {n} rows in {path!r}, found {len(rows)}")
    pts, w = rows.T
    return GaussianQuantizer(n, pts, w, distortion(pts))
