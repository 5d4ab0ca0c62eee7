import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from fqbarrier import price_grid
from fqbarrier.brownian import brownian_product_quantizer
from fqbarrier.models import BlackScholes, OneStepLaw, PseudoCEV
from fqbarrier.price_grid import quantize_price_process
from fqbarrier.transitions import transition_matrices

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


# largest |log x - log x_ref| of a default grid against ``finer_grid``, on any model
GRID_TOL = 1e-5


def finer_grid(model, quantizer, n_steps):
    """The grid at four times the steps: 16 starting substeps, and step-load bounds 4 times lower.

    Every interval that the default call integrates in s substeps takes
    about 4 s here, the refined ones included.
    """
    with mock.patch.multiple(price_grid, _THETA=price_grid._THETA / 4, _MU=price_grid._MU / 4):
        return quantize_price_process(model, quantizer, n_steps, substeps=16)


def grid_log_error(grid, reference) -> float:
    """Largest |log x - log x_ref| over every date and path of two grids of one quantizer."""
    by_path = [np.log(np.take_along_axis(g.grids, g.permutations, axis=1)) for g in (grid, reference)]
    return float(np.max(np.abs(by_path[0] - by_path[1])))


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
    """Factory for (grid, full transition matrices) pairs, cached per configuration."""
    cache = {}

    def build(model, n_steps):
        key = (model, n_steps)
        if key not in cache:
            grid = quant_grid(model, n_steps)
            cache[key] = (grid, transition_matrices(model, grid))
        return cache[key]

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20250810)
