"""Property tests of the quantization pricer over drawn contracts and small grids.

Hypothesis draws the model, the barrier side and payoff, the maturity, the
step count, the quantizer budget and two barrier levels; and, for the
grids alone, pseudo-CEV fields from mild to stiff.  The profile loaded in
conftest.py derandomizes the draw, so every run checks the same examples.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from fqbarrier.brownian import brownian_product_quantizer
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.models import BlackScholes, PseudoCEV
from fqbarrier.price_grid import quantize_price_process
from fqbarrier.quant_pricer import price_barrier
from fqbarrier.transitions import transition_steps
from tests.conftest import BS07, GRID_TOL, PCEV07, PCEV10, finer_grid, grid_log_error

MODELS = [BS07, BlackScholes(r=0.05, sigma=0.3, x0=100.0), PCEV07, PCEV10]


@given(
    model=st.sampled_from(MODELS),
    barrier_type=st.sampled_from(list(BarrierType)),
    payoff_type=st.sampled_from(list(PayoffType)),
    maturity=st.floats(0.25, 5.0),
    n_steps=st.integers(1, 30),
    budget=st.integers(8, 200),
    levels=st.lists(st.floats(50.0, 200.0), min_size=2, max_size=2),
)
def test_price_bounded_by_vanilla_and_monotone_in_barrier(
    model, barrier_type, payoff_type, maturity, n_steps, budget, levels
):
    grid = quantize_price_process(model, brownian_product_quantizer(budget, maturity), n_steps)
    # the same grid with the barrier removed: the chain without survival factors
    vanilla_measure = np.eye(1, grid.d_n)[0]
    for _, p in transition_steps(model, grid):
        vanilla_measure = vanilla_measure @ p
    disc = math.exp(-model.r * maturity)
    prices = []
    for barrier in sorted(levels):
        contract = BarrierContract(barrier_type, payoff_type, 100.0, barrier, maturity)
        price = price_barrier(model, contract, grid).price
        vanilla = disc * float(vanilla_measure @ contract.payoff(np.sort(grid.values[-1])))
        assert 0.0 <= price <= vanilla * (1.0 + 1e-12)
        prices.append(price)
    low, high = prices
    if barrier_type is BarrierType.UP_AND_OUT:
        assert low <= high * (1.0 + 1e-12)
    else:
        assert high <= low * (1.0 + 1e-12)


@given(
    r=st.floats(-1.0, 1.0),
    vartheta=st.floats(0.1, 20.0),
    delta=st.floats(0.01, 0.99),
    log10_x0=st.floats(-3.0, 3.0),
    maturity=st.floats(0.01, 30.0),
    n_steps=st.integers(1, 4),
    budget=st.integers(2, 12),
)
def test_pcev_grid_matches_four_times_the_steps(r, vartheta, delta, log10_x0, maturity, n_steps, budget):
    model = PseudoCEV(r, vartheta, delta, 10.0**log10_x0)
    quantizer = brownian_product_quantizer(budget, maturity)
    try:
        grid = quantize_price_process(model, quantizer, n_steps)
    except FloatingPointError as exc:  # the substep cap, and only it
        assert "too stiff or too fast to integrate" in str(exc)
        return
    assert np.all(np.isfinite(grid.values))
    assert grid_log_error(grid, finer_grid(model, quantizer, n_steps)) < GRID_TOL
