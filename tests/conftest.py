import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from fqbarrier import price_grid
from fqbarrier.brownian import brownian_product_quantizer
from fqbarrier.contracts import BarrierType
from fqbarrier.models import BlackScholes, OneStepLaw, PseudoCEV, one_step_law
from fqbarrier.price_grid import quantize_price_process
from fqbarrier.transitions import transition_block, transition_steps

# property tests draw the same examples on every run and never time out
settings.register_profile("fqbarrier", derandomize=True, deadline=None, database=None)
settings.load_profile("fqbarrier")

BS07 = BlackScholes(r=0.15, sigma=0.07, x0=100.0)
BS10 = BlackScholes(r=0.15, sigma=0.10, x0=100.0)
PCEV07 = PseudoCEV(r=0.15, vartheta=0.7, delta=0.5, x0=100.0)
PCEV10 = PseudoCEV(r=0.15, vartheta=1.0, delta=0.5, x0=100.0)


def euler_law(model, x, dt):
    """The one-step Euler law N(x + b(x) dt, sigma(x)^2 dt) of any model, Black-Scholes included.

    ``models.one_step_law`` gives it for pseudo-CEV only; this builds it as
    that function does, so the law-level tests can also take it from
    Black-Scholes and compare it with the exact lognormal law.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return OneStepLaw(False, x + model.drift(x) * dt, 0.0, model.diffusion(x) * math.sqrt(dt))


def sorted_points(grid):
    """Every date's values in ascending order, as the pricer sorts each date: shape (n+1, d_N)."""
    return np.sort(grid.values, axis=1)


def full_matrix(model, grid_prev, grid_next, dt):
    """Transition probabilities from every point of ``grid_prev`` into every cell of ``grid_next``."""
    grid_next = np.atleast_1d(np.asarray(grid_next, dtype=float))
    return transition_block(one_step_law(model, grid_prev, dt), grid_next, 0, grid_next.size)


def _bridge_factor(x, y, u, n_steps, horizon, sigma):
    """(1 - exp(-2 n (x-u)(y-u) / (T sigma^2)), whether T sigma^2 is 0), broadcast over every argument.

    Written from the closed forms G and F of the ``fqbarrier.bridge``
    docstring, sharing no code with the library.  The exponent is not
    clamped: 1 - exp(e) is 1.0 for any e <= -54 ln 2.
    """
    x, y, sigma = (np.asarray(a, dtype=float) for a in (x, y, sigma))
    spread = horizon * sigma**2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return 1.0 - np.exp(-2.0 * n_steps * (x - u) * (y - u) / spread), spread == 0.0


def bridge_max_cdf(x, y, u, n_steps, horizon, sigma):
    """G_{x,y}(u) = P(max of the bridge from x to y <= u), the diffusion frozen at ``sigma`` = sigma(x).

    Where T sigma^2 is 0 the bridge is the segment from x to y, whose
    maximum is max(x, y).
    """
    factor, frozen = _bridge_factor(x, y, u, n_steps, horizon, sigma)
    top = np.maximum(x, y)
    return np.where(frozen, u >= top, np.where(u >= top, factor, 0.0))


def bridge_min_cdf(x, y, u, n_steps, horizon, sigma):
    """F_{x,y}(u) = P(min of the bridge from x to y <= u), the diffusion frozen at ``sigma`` = sigma(x).

    Where T sigma^2 is 0 the bridge is the segment from x to y, whose
    minimum is min(x, y), so F is 1 from u = min(x, y) on.
    """
    factor, frozen = _bridge_factor(x, y, u, n_steps, horizon, sigma)
    bottom = np.minimum(x, y)
    return 1.0 - np.where(frozen, u < bottom, np.where(u <= bottom, factor, 0.0))


def chain_measures(model, contract, grid):
    """The survival measures e0 H_1 ... H_k of the full-matrix chain, for k = 1..n, each over every cell.

    H_k = g * p_k entrywise over every point of date k-1 and cell of date
    k: p_k is ``full_matrix`` and g the bridge survival factor at the
    barrier, ``bridge_max_cdf`` (up-and-out) or 1 - ``bridge_min_cdf``
    (down-and-out) with the diffusion frozen at the source point, over the
    whole matrix.  Nothing here bands, cuts or skips, and the factor is
    not the library's ``bridge.no_crossing``, so this is the oracle of the
    pricer's blockwise measure and of its survival formula.
    """
    dt = grid.horizon / grid.n_steps
    up = contract.barrier_type is BarrierType.UP_AND_OUT
    points = sorted_points(grid)
    pi = np.eye(1, grid.d_n)[0]
    for k in range(1, grid.n_steps + 1):
        x, y = points[k - 1], points[k]
        sigma = np.asarray(model.diffusion(x))[:, None]
        bridge = (x[:, None], y[None, :], contract.barrier, grid.n_steps, grid.horizon, sigma)
        g = bridge_max_cdf(*bridge) if up else 1.0 - bridge_min_cdf(*bridge)
        pi = pi @ (full_matrix(model, x, y, dt) * g)
        yield pi


def chain_price(model, contract, grid):
    """Discounted payoff under the full-matrix chain's terminal measure."""
    *_, pi = chain_measures(model, contract, grid)
    return np.exp(-model.r * contract.maturity) * float(pi @ contract.payoff(np.sort(grid.values[-1])))


# largest |log x - log x_ref| of a default grid against ``finer_grid``, on any model
GRID_TOL = 1e-5


def finer_grid(model, quantizer, n_steps):
    """The grid at four times the steps: h_max a quarter of the default's, and step-load bounds 4 times lower.

    Every substep that the default call takes, at h_max or refined below
    it, is about four substeps here.
    """
    with mock.patch.multiple(price_grid, _THETA=price_grid._THETA / 4, _MU=price_grid._MU / 4):
        return quantize_price_process(model, quantizer, n_steps, substeps=16)


def grid_log_error(grid, reference) -> float:
    """Largest |log x - log x_ref| over every date and path of two grids of one quantizer."""
    return float(np.max(np.abs(np.log(grid.values) - np.log(reference.values))))


@pytest.fixture(scope="session")
def bs_model():
    return BS07


@pytest.fixture(scope="session")
def bq966():
    return brownian_product_quantizer(1000, 1.0)


@pytest.fixture(scope="session")
def quant_grid(bq966):
    """Factory for price grids on the budget-1000 quantizer, cached per configuration."""
    cache = {}

    def build(model, n_steps):
        key = (model, n_steps)
        if key not in cache:
            cache[key] = quantize_price_process(model, bq966, n_steps)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def quant_pipeline(quant_grid):
    """Factory for (grid, list of the full step matrices) pairs, cached per configuration."""
    cache = {}

    def build(model, n_steps):
        key = (model, n_steps)
        if key not in cache:
            grid = quant_grid(model, n_steps)
            cache[key] = (grid, [p for _, p in transition_steps(model, grid)])
        return cache[key]

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20250810)
