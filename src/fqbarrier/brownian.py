"""Product quantization of Brownian motion from its sine eigenexpansion.

Brownian motion on [0, T] expands over the orthonormal eigenbasis
``e_k(t) = sqrt(2/T) sin(pi (k - 1/2) t / T)`` with eigenvalues
``lambda_k = (T / (pi (k - 1/2)))^2``.  A product quantizer replaces the
first L expansion coordinates by optimal normal grids of sizes
``N_1 >= ... >= N_L`` chosen so that ``N_1 * ... * N_L`` stays within a
budget while minimizing the total quadratic quantization error

    sum_{k<=L} lambda_k * d(N_k) + sum_{k>L} lambda_k,

where d(m) is the N(0,1) distortion at m levels.  The resulting quantizer
is a weighted family of smooth paths, one per combination of grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gaussian
from .gaussian import GaussianQuantizer, LloydConvergenceError, cached_normal_quantizer

__all__ = [
    "kl_eigenvalue",
    "ProductDecomposition",
    "optimal_decomposition",
    "BrownianProductQuantizer",
    "brownian_product_quantizer",
    "build_product_quantizer",
    "save_paths",
]


def kl_eigenvalue(k: int, horizon: float) -> float:
    """k-th eigenvalue of the Brownian covariance operator on [0, horizon]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    return (horizon / (math.pi * (k - 0.5))) ** 2


@dataclass(frozen=True)
class ProductDecomposition:
    """Factor sizes of a product quantizer within a path-count budget.

    ``residual_distortion`` is the total squared quantization error of
    Brownian motion on a unit horizon; it scales by T^2 for horizon T.
    """

    budget: int
    factors: tuple[int, ...]
    d_n: int
    residual_distortion: float

    def __post_init__(self):
        if any(f < 2 for f in self.factors):
            raise ValueError("every factor must be >= 2")
        if any(a < b for a, b in zip(self.factors, self.factors[1:])):
            raise ValueError("factors must be nonincreasing")
        if self.d_n != math.prod(self.factors) or self.d_n > self.budget:
            raise ValueError("d_n must equal the factor product and fit the budget")


def _search(budget: int) -> tuple[tuple[int, ...], tuple[GaussianQuantizer, ...]]:
    """The optimal factors and their marginal grids."""
    if budget < 2:
        raise ValueError("budget must be >= 2")
    max_len = int(budget).bit_length() - 1  # floor(log2(budget))
    lam = [kl_eigenvalue(k, 1.0) for k in range(1, max_len + 1)]
    s = math.isqrt(budget)
    grids: dict[int, GaussianQuantizer | LloydConvergenceError] = {}

    def grid(levels: int) -> GaussianQuantizer:
        if levels not in grids:
            # through the module attribute, so a test or a tracer sees each batch
            grids.update(
                gaussian.solve_normal_quantizers(n for n in range(2, max(levels, s + 2) + 1) if n not in grids)
            )
        q = grids[levels]
        if isinstance(q, LloydConvergenceError):
            raise q
        return q

    d = np.array([0.0, 0.0, *(grid(n).distortion for n in range(2, s + 1))])  # d(n) at index n
    # a room r <= s sits in row r, a room r > s (always budget // m, m <= s) in row s + m
    rooms = np.concatenate((np.arange(s + 1), budget // np.arange(1, s + 1)))
    values: dict[int, np.ndarray] = {}  # V_pos over (row, cap - 2), for pos >= 2

    def costs(pos: int, room: np.ndarray, top: int) -> np.ndarray:
        """lam_pos (d(g) - 1) + V_{pos+1}(r // g, g) for every r in room and g in 2..top."""
        here = lam[pos] * (d[2 : top + 1] - 1.0)
        deeper = values.get(pos + 1)
        if deeper is None:
            return np.broadcast_to(here, (len(room), top - 1))
        g = np.arange(2, top + 1)
        r = room[:, None] // g
        row = np.where(r <= s, r, s + budget // np.maximum(r, 1))
        # a cell past its row's reachable caps clamps into the table; no reachable cell reads it
        return here + deeper[row, np.clip(np.minimum(g, r), 2, deeper.shape[1] + 1) - 2]

    # bottom up: V_pos(r, c) is the prefix minimum of costs over g <= c; a cap
    # c at position pos that a sequence can reach has c**(pos + 1) <= budget.
    # Every cost is < 0, so a tail stops only when no factor fits (rows 0, 1).
    top = 1
    for pos in range(max_len - 1, 1, -1):
        while (top + 1) ** (pos + 1) <= budget:
            top += 1
        table = np.minimum.accumulate(costs(pos, rooms, top), axis=1)
        table[:2] = 0.0
        values[pos] = table

    # first factors f <= s in one block, each with V_1(budget // f, f): row f
    # keeps the columns g <= f
    best, first = math.inf, 0
    if s >= 2:
        f = np.arange(2, s + 1)
        rest = np.where(f <= f[:, None], costs(1, budget // f, s), np.inf).min(axis=1)
        totals = lam[0] * (d[2:] - 1.0) + rest
        best, first = float(totals.min()), int(np.argmin(totals)) + 2
    # past s the room is below f, and -lam_1 + V_1(room, room) bounds every
    # total from f on: it grows with f, so the first f it rules out ends the scan
    for f in range(s + 1, budget + 1):
        room = budget // f
        rest = float(costs(1, np.array([room]), room).min()) if room >= 2 else 0.0
        if rest - lam[0] >= best:
            break
        total = lam[0] * (grid(f).distortion - 1.0) + rest
        if total < best:
            best, first = total, f

    factors, room = [first], budget // first
    for pos in range(1, max_len):
        if min(room, factors[-1]) < 2:
            break
        factors.append(int(np.argmin(costs(pos, np.array([room]), min(room, factors[-1])))) + 2)
        room //= factors[-1]
    return tuple(factors), tuple(grid(n) for n in factors)


def optimal_decomposition(budget: int) -> ProductDecomposition:
    """Find the factor sizes minimizing the Brownian quantization error.

    Minimizes ``0.5 + sum_k lambda_k (d(N_k) - 1)`` over nonincreasing
    factors N_1 >= ... >= N_L >= 2 with product <= budget (so L <=
    floor(log2(budget))).  The eigenvalue series sums to T^2/2, so the
    tail beyond L is exact and the objective carries no truncation bias.

    One bottom-up dynamic program finds the exact optimum.  V_p(r, c), the
    best sum from position p on with factors <= c and product <= r, is the
    minimum over g <= min(r, c) of lambda_p (d(g) - 1) + V_{p+1}(r // g, g).
    A room is always budget // m, one of about 2 sqrt(budget) values, and a
    reachable cap at position p has c^(p+1) <= budget, so each V_p, p >= 2,
    is one numpy prefix minimum over a small table (201 rooms x 20 caps at
    position 2 of budget 10^4).  Position 1 is evaluated only where
    position 0 lands: every first factor up to isqrt(budget) at once, then
    one at a time until -lambda_1 + V_1(room, room), a bound that grows
    with the first factor, rules it out.  Ties go to the smaller factor.

    The tables read d(N) only for N <= isqrt(budget); one batched Newton
    run solves 2..isqrt(budget) + 2 (2..102 at budget 10^4), a larger
    first factor is solved when the scan reads it, and a failed size
    raises its LloydConvergenceError only when read.
    """
    factors, grids = _search(budget)
    return build_product_quantizer(factors, 1.0, budget, grids).decomposition


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BrownianProductQuantizer:
    """Weighted family of quantizer paths for Brownian motion on [0, T].

    Path m corresponds to one combination of marginal grid points; its
    coefficient vector is ``c_k = sqrt(lambda_k) * x_{i_k}`` and its weight
    is the product of the marginal cell weights.

    The quantizer stores only its factors and marginal grids.  The
    d_N-sized path arrays ``multi_indices``, ``weights`` and
    ``coefficients`` are built on first read and kept, read-only, so a
    quantizer whose paths nobody reads costs a few kilobytes.  Immutable
    and safe to share across threads; a path array that two threads read
    first at once may be built twice, with equal results.
    """

    horizon: float
    decomposition: ProductDecomposition
    marginal_quantizers: tuple[GaussianQuantizer, ...]

    @property
    def n_paths(self) -> int:
        return self.decomposition.d_n

    @property
    def n_terms(self) -> int:
        return len(self.decomposition.factors)

    @cached_property
    def multi_indices(self) -> np.ndarray:
        """Zero-based grid index of every path, shape (n_paths, n_terms)."""
        mesh = np.meshgrid(*[np.arange(f) for f in self.decomposition.factors], indexing="ij")
        return _read_only(np.stack([m.ravel() for m in mesh], axis=1))

    @cached_property
    def weights(self) -> np.ndarray:
        """Probability of every path, shape (n_paths,)."""
        weights = np.ones(1)
        for q in self.marginal_quantizers:
            weights = np.multiply.outer(weights, q.weights).ravel()
        return _read_only(weights)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Expansion coefficients of every path, shape (n_paths, n_terms)."""
        lam = np.array([kl_eigenvalue(k, self.horizon) for k in range(1, self.n_terms + 1)])
        multi = self.multi_indices
        points = np.stack([q.points[multi[:, k]] for k, q in enumerate(self.marginal_quantizers)], axis=1)
        return _read_only(np.sqrt(lam)[None, :] * points)

    @cached_property
    def _frequencies(self) -> np.ndarray:
        """pi (k - 1/2) / T for k = 1..L, the eigenfunctions' angular frequencies."""
        k = np.arange(1, self.n_terms + 1)
        return math.pi * (k - 0.5) / self.horizon

    @cached_property
    def _derivative_scale(self) -> np.ndarray:
        """sqrt(2/T) w_k, the amplitude of the eigenfunctions' derivatives."""
        return math.sqrt(2.0 / self.horizon) * self._frequencies

    def _check_time(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= self.horizon:  # NaN fails here too
            raise ValueError(f"time must lie in [0, {self.horizon}], got {t}")
        return t

    def all_path_values(self, t: float) -> np.ndarray:
        """Values of every path at a single time, shape (n_paths,)."""
        t = self._check_time(t)
        return self.coefficients @ (math.sqrt(2.0 / self.horizon) * np.sin(self._frequencies * t))

    def all_path_derivatives(self, t: float) -> np.ndarray:
        """Derivatives of every path at a single time, shape (n_paths,)."""
        t = self._check_time(t)
        return self.coefficients @ (self._derivative_scale * np.cos(self._frequencies * t))


def build_product_quantizer(
    factors, horizon: float = 1.0, budget: int | None = None, grids=None
) -> BrownianProductQuantizer:
    """Assemble the path family for explicitly given factor sizes.

    Only the factors and their marginal grids are computed here; the path
    arrays wait for their first read.  ``grids``, if given, are the
    factors' marginal grids, already solved.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    factors = tuple(int(f) for f in factors)
    marginals = tuple(cached_normal_quantizer(f) for f in factors) if grids is None else tuple(grids)
    if tuple(q.n_levels for q in marginals) != factors:
        raise ValueError("grids must match the factors")
    d_n = math.prod(factors)
    residual = 0.5  # front to back: the search's tables sum back to front, which can differ in the last bit
    for k, q in enumerate(marginals, 1):
        residual += kl_eigenvalue(k, 1.0) * (q.distortion - 1.0)
    deco = ProductDecomposition(budget if budget is not None else d_n, factors, d_n, residual)
    return BrownianProductQuantizer(float(horizon), deco, marginals)


@lru_cache(maxsize=8)
def brownian_product_quantizer(budget: int, horizon: float = 1.0) -> BrownianProductQuantizer:
    """Optimal product quantizer of Brownian motion for a path budget, built from the search's grids."""
    factors, grids = _search(budget)
    return build_product_quantizer(factors, horizon, budget, grids)


def save_paths(q: BrownianProductQuantizer, path) -> None:
    """Dump one line per path: 1-based multi-index, weight, coefficients."""
    factors = ",".join(str(f) for f in q.decomposition.factors)
    header = f"# budget {q.decomposition.budget} horizon {q.horizon:.17g} factors {factors}"
    table = np.column_stack([q.multi_indices + 1, q.weights, q.coefficients])
    np.savetxt(path, table, fmt=["%d"] * q.n_terms + ["%.17g"] * (q.n_terms + 1), header=header, comments="")
