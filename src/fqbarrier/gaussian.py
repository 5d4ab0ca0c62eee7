"""Optimal quadratic quantizers of the standard normal distribution.

A quantizer of size N is a strictly increasing grid ``x_1 < ... < x_N``
approximating Z ~ N(0,1) by the nearest grid point.  The optimal grid
minimizes the quadratic distortion E[min_i (Z - x_i)^2] and is stationary:
every point equals the conditional mean of Z over its Voronoi cell.

Grids are computed by Newton's method on the stationarity system from a
quantile start, using closed-form Gaussian cell moments throughout (no
sampling).  One helper evaluates those moments for every consumer; it
takes upper-tail cell masses as Phi(-lo) - Phi(-hi), so they keep their
relative precision and every N up to 10^4 meets the 1e-9 stationarity
bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import ndtr, ndtri

__all__ = [
    "GaussianQuantizer",
    "LloydConvergenceError",
    "optimal_normal_quantizer",
    "quantizer_weights",
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


def _cell_moments(points: np.ndarray):
    """Edges, edge densities and Gaussian masses of the midpoint Voronoi cells.

    Returns ``(lo, hi, phi_lo, phi_hi, mass)``.  The outer edges -inf/+inf
    are reported as 0 with density 0, so every ``edge * phi(edge)`` term
    vanishes there.  A cell right of 0 takes its mass as
    Phi(-lo) - Phi(-hi): both terms are small in the upper tail, where
    Phi(hi) - Phi(lo) would cancel two numbers close to 1.
    """
    mid = 0.5 * (points[:-1] + points[1:])
    phi_mid = np.exp(-0.5 * mid * mid) / _SQRT_2PI
    lo = np.concatenate(([0.0], mid))
    hi = np.concatenate((mid, [0.0]))
    phi_lo = np.concatenate(([0.0], phi_mid))
    phi_hi = np.concatenate((phi_mid, [0.0]))
    below = np.concatenate(([0.0], ndtr(mid), [1.0]))  # Phi at each edge
    above = np.concatenate(([1.0], ndtr(-mid), [0.0]))  # 1 - Phi at each edge
    mass = np.where(points > 0.0, above[:-1] - above[1:], below[1:] - below[:-1])
    return lo, hi, phi_lo, phi_hi, mass


def quantizer_weights(points) -> np.ndarray:
    """Gaussian mass of each midpoint Voronoi cell of an increasing grid.

    weight[i] = Phi(mid(i, i+1)) - Phi(mid(i-1, i)) with the outer
    boundaries at -inf/+inf, so the weights sum to one up to rounding.
    """
    return _cell_moments(_validate_points(points))[4]


def distortion(points) -> float:
    """Quadratic distortion E[min_i (Z - x_i)^2] of an increasing grid.

    Evaluated cell by cell from closed-form Gaussian moments:
    int_a^b (z - c)^2 phi(z) dz
        = (1 + c^2)(Phi(b) - Phi(a)) + (a - 2c) phi(a) - (b - 2c) phi(b).
    """
    pts = _validate_points(points)
    lo, hi, pl, ph, mass = _cell_moments(pts)
    return float(np.sum((1.0 + pts**2) * mass + (lo - 2.0 * pts) * pl - (hi - 2.0 * pts) * ph))


def lloyd_step(points) -> np.ndarray:
    """One Lloyd sweep: move every point to the mean of its Voronoi cell."""
    _, _, pl, ph, mass = _cell_moments(_validate_points(points))
    return (pl - ph) / mass


def _newton_step(points: np.ndarray):
    """One Newton step on F(x) = x - cellmean(x); returns (new grid, max|F(x)|)."""
    n = len(points)
    lo, hi, pl, ph, den = _cell_moments(points)
    num = pl - ph
    g = num / den
    # derivatives of the cell mean w.r.t. the lower/upper cell edge
    dg_lo = pl * (num - lo * den) / den**2
    dg_hi = ph * (hi * den - num) / den**2
    # each edge is a midpoint, so d(edge)/d(point) = 1/2 on both sides
    ab = np.zeros((3, n))
    ab[0, 1:] = -0.5 * dg_hi[:-1]
    ab[1, :] = 1.0 - 0.5 * (dg_lo + dg_hi)
    ab[2, :-1] = -0.5 * dg_lo[1:]
    residual = points - g
    step = solve_banded((1, 1), ab, residual)
    return points - step, float(np.max(np.abs(residual)))


def optimal_normal_quantizer(n_levels: int) -> GaussianQuantizer:
    """Compute the optimal quadratic N(0,1) quantizer of a given size.

    Newton's method on the stationarity system x = cellmean(x), started
    from the quantiles Phi^{-1}((2i-1)/(2N)), runs until the residual
    max|x - cellmean(x)| is below 1e-12 or stops falling (Pages & Printems
    2003).  The grid is then made exactly antisymmetric about 0.

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
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if n_levels == 1:
        return GaussianQuantizer(1, np.array([0.0]), np.array([1.0]), 1.0)

    x = ndtri((2.0 * np.arange(1, n_levels + 1) - 1.0) / (2.0 * n_levels))
    previous = np.inf
    iters = 0
    while True:
        x_next, residual = _newton_step(x)
        if residual < 1e-12 or not residual < previous:  # NaN stops too
            break
        x, previous = x_next, residual
        iters += 1
    if not residual < 1e-9:
        raise LloydConvergenceError(n_levels, residual, iters)

    x = 0.5 * (x - x[::-1])  # exact antisymmetry of the optimum
    x.setflags(write=False)
    w = quantizer_weights(x)
    w.setflags(write=False)
    return GaussianQuantizer(n_levels, x, w, distortion(x))


@lru_cache(maxsize=None)
def cached_normal_quantizer(n_levels: int) -> GaussianQuantizer:
    """Memoized :func:`optimal_normal_quantizer`."""
    return optimal_normal_quantizer(n_levels)


def save_quantizer(q: GaussianQuantizer, path) -> None:
    """Write a quantizer as text: header ``N <n>`` then ``point weight`` rows."""
    with open(path, "w") as fh:
        fh.write(f"N {q.n_levels}\n")
        for p, w in zip(q.points, q.weights):
            fh.write(f"{p:.17g} {w:.17g}\n")


def load_quantizer(path) -> GaussianQuantizer:
    """Read a quantizer written by :func:`save_quantizer`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "N":
            raise ValueError(f"bad quantizer file header in {path!r}")
        n = int(header[1])
        rows = [line.split() for line in fh if line.strip()]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows in {path!r}, found {len(rows)}")
    pts = np.array([float(r[0]) for r in rows])
    w = np.array([float(r[1]) for r in rows])
    return GaussianQuantizer(n, pts, w, distortion(pts))
