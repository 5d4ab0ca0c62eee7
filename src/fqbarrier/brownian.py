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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gaussian
from .gaussian import GaussianQuantizer, cached_normal_quantizer

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


def optimal_decomposition(budget: int) -> ProductDecomposition:
    """Search the factor sizes minimizing the Brownian quantization error.

    Depth-first branch and bound over nonincreasing factor sequences with
    product <= budget, each factor >= 2; it returns the same optimum as
    exhaustive enumeration.  The eigenvalue tail beyond the decomposition
    length is exact (the eigenvalue series sums to T^2/2), so the
    objective carries no truncation bias.  The sequence length is at most
    floor(log2(budget)).

    Two admissible bounds prune the search.  A cheap one credits every
    slot the sequence can still reach with its full eigenvalue (d >= 0).
    An exact one applies once a factor f exceeds m = budget // (prod * f),
    the largest product left for the deeper factors: every completion then
    costs at least ``partial - lambda_pos + T(pos + 1, m)``, where T is the
    best tail objective over sequences with product <= m.  T needs d(N)
    only for N <= m, so a cold search solves grids up to about
    sqrt(budget) (100 at budget 10^4) instead of budget / 8.  Zador's
    asymptotic d(N) ~ (sqrt(3) pi / 2) / N^2 is not used: it is not a
    lower bound at finite N.

    Distortions and tail objectives are memoized for this search only.
    The first read of an unsolved size N solves every unsolved size from 2
    to max(N, isqrt(budget) + 2) in one batched Newton run, which covers
    every size the search reads at budgets up to at least 10^4 (2..33 at
    budget 1000, 2..100 at 10^4).  So a cold search holds about
    sqrt(budget) small grids at once (5252 points, 84 KB with their
    weights, at 10^4) and keeps only their distortions.
    """
    if budget < 2:
        raise ValueError("budget must be >= 2")
    max_len = int(math.floor(math.log2(budget)))

    # Python floats: the search does scalar arithmetic only
    lam = [kl_eigenvalue(k, 1.0) for k in range(1, max_len + 1)]
    cumlam = [0.0, *itertools.accumulate(lam)]

    best_obj = math.inf
    best_factors: list[int] = []
    distortions: dict[int, float] = {}
    tails: dict[tuple[int, int, int], float] = {}

    batch_top = math.isqrt(budget) + 2

    def distortion_at(levels: int) -> float:
        if levels not in distortions:
            # through the module attribute, so a test or a tracer sees each batch
            solved = gaussian.solve_normal_quantizers(
                n for n in range(2, max(levels, batch_top) + 1) if n not in distortions
            )
            distortions.update((n, q.distortion) for n, q in solved.items() if isinstance(q, GaussianQuantizer))
            if levels not in distortions:
                raise solved[levels]
        return distortions[levels]

    def tail(pos: int, room: int, cap: int) -> float:
        """Best sum of lam_k (d(N_k) - 1) over nonincreasing tails from pos.

        The tail's factors are at most cap and their product at most room;
        the empty tail gives 0.
        """
        key = (pos, room, cap)
        if key not in tails:
            best = 0.0
            if pos < max_len:
                for g in range(2, min(cap, room) + 1):
                    best = min(best, lam[pos] * (distortion_at(g) - 1.0) + tail(pos + 1, room // g, g))
            tails[key] = best
        return tails[key]

    def extend(prefix: list[int], prod: int, partial: float) -> None:
        nonlocal best_obj, best_factors
        pos = len(prefix)
        cap = prefix[-1] if prefix else budget
        f_max = min(cap, budget // prod)
        if f_max < 2 or pos >= max_len:
            return
        lam_here, lam_before, lam_through = lam[pos], cumlam[pos], cumlam[pos + 1]
        # both bounds tighten as f grows, so the first one that fails
        # ends the loop
        for f in range(2, f_max + 1):
            room = budget // (prod * f)
            # cheap bound: a factor f at this position caps the sequence
            # length at pos + 1 + log2(room), and each factor slot can
            # claim at most its full eigenvalue (d >= 0)
            reach = min(max_len, pos + 1 + int(math.log2(room)))
            if partial - (cumlam[reach] - lam_before) >= best_obj:
                break
            # exact tail bound: past f > room the cap f no longer binds the
            # deeper factors, and d(f) >= 0 covers this slot
            if f > room and partial - lam_here + tail(pos + 1, room, room) >= best_obj:
                break
            delta = distortion_at(f) - 1.0
            obj = partial + lam_here * delta
            # every deeper factor is <= f, so it contributes >= lam*(d(f)-1)
            subtree_bound = obj + (cumlam[reach] - lam_through) * delta
            if obj < best_obj:
                best_obj = obj
                best_factors = [*prefix, f]
            if subtree_bound < best_obj:
                prefix.append(f)
                extend(prefix, prod * f, obj)
                prefix.pop()

    extend([], 1, 0.5)
    factors = tuple(best_factors)
    return ProductDecomposition(budget, factors, math.prod(factors), best_obj)


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


def build_product_quantizer(factors, horizon: float = 1.0, budget: int | None = None) -> BrownianProductQuantizer:
    """Assemble the path family for explicitly given factor sizes.

    Only the factors and their marginal grids are computed here; the path
    arrays wait for their first read.
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    factors = tuple(int(f) for f in factors)
    d_n = math.prod(factors)
    marginals = tuple(cached_normal_quantizer(f) for f in factors)
    residual = 0.5 + sum(
        kl_eigenvalue(k + 1, 1.0) * (q.distortion - 1.0) for k, q in enumerate(marginals)
    )
    deco = ProductDecomposition(budget if budget is not None else d_n, factors, d_n, residual)
    return BrownianProductQuantizer(float(horizon), deco, marginals)


@lru_cache(maxsize=8)
def brownian_product_quantizer(budget: int, horizon: float = 1.0) -> BrownianProductQuantizer:
    """Optimal product quantizer of Brownian motion for a path budget."""
    deco = optimal_decomposition(budget)
    return build_product_quantizer(deco.factors, horizon, budget=budget)


def save_paths(q: BrownianProductQuantizer, path) -> None:
    """Dump one line per path: 1-based multi-index, weight, coefficients."""
    L = q.n_terms
    with open(path, "w") as fh:
        fh.write(
            f"# budget {q.decomposition.budget} horizon {q.horizon:.17g} "
            f"factors {','.join(str(f) for f in q.decomposition.factors)}\n"
        )
        for m in range(q.n_paths):
            idx = " ".join(str(i + 1) for i in q.multi_indices[m])
            coeffs = " ".join(f"{c:.17g}" for c in q.coefficients[m])
            fh.write(f"{idx} {q.weights[m]:.17g} {coeffs}\n")
