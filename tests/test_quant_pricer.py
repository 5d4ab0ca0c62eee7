import math
import tracemalloc

import numpy as np
import pytest

from fqbarrier.bridge import BridgeParams
from fqbarrier.brownian import brownian_product_quantizer
from fqbarrier.closed_form import barrier_price, vanilla_price
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.price_grid import quantize_price_process
from fqbarrier.quant_pricer import (
    forward_induction,
    price_barrier,
    price_barrier_quant,
    prune_knocked_rows,
    quantized_kernel,
)
from fqbarrier.transitions import TransitionMatrix, transition_matrices, transition_matrix
from tests.conftest import BS07, PCEV07


def uoc(barrier, strike=100.0):
    return BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def doc(barrier, strike=100.0):
    return BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def _params(model, grid_prev, n_steps, horizon=1.0):
    sigma = np.asarray(model.diffusion(np.asarray(grid_prev)))[:, None]
    return BridgeParams(n_steps, horizon, sigma)


def _kernels(model, contract, grid, mats):
    g = grid.grids
    return [
        quantized_kernel(g[k], g[k + 1], tm, contract, _params(model, g[k], grid.n_steps))
        for k, tm in enumerate(mats)
    ]


class TestQuantizedKernel:
    def test_infinite_barrier_reduces_to_transition(self):
        gp = np.array([95.0, 100.0, 105.0])
        gn = np.array([90.0, 101.0, 112.0])
        tm = transition_matrix(BS07, gp, gn, 0.1)
        H = quantized_kernel(gp, gn, tm, uoc(1e18), _params(BS07, gp, 10))
        assert np.array_equal(H, tm.entries)

    def test_rows_beyond_barrier_vanish(self):
        gp = np.array([95.0, 100.0, 120.0])
        gn = np.array([90.0, 101.0, 118.0])
        tm = transition_matrix(BS07, gp, gn, 0.1)
        H = quantized_kernel(gp, gn, tm, uoc(115.0), _params(BS07, gp, 10))
        assert np.all(H[2, :] == 0.0)
        assert np.all(H[:, 2] == 0.0)  # targets above the barrier die too

    def test_single_cell_frozen_value(self):
        tm = TransitionMatrix(1, np.array([[1.0]]))
        H = quantized_kernel([100.0], [100.0], tm, uoc(105.0), _params(BS07, [100.0], 10))
        assert H[0, 0] == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-12)

    def test_shape_mismatch(self):
        tm = TransitionMatrix(1, np.eye(3))
        with pytest.raises(ValueError):
            quantized_kernel([100.0], [100.0], tm, uoc(105.0), _params(BS07, [100.0], 10))


class TestForwardInduction:
    def test_reduces_to_chain_marginal_without_barrier(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        pi = forward_induction(tm.entries for tm in mats)
        w = np.zeros(grid.d_n)
        w[0] = 1.0
        for tm in mats:
            w = w @ tm.entries
        assert pi == pytest.approx(w, abs=1e-14)
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_kernels_kill_mass(self):
        kernels = [np.zeros((3, 3))] * 2
        pi = forward_induction(kernels)
        assert pi.sum() == 0.0

    def test_single_step_frozen(self):
        H = np.array([[-math.expm1(-500.0 / 49.0)]])
        pi = forward_induction([H])
        assert pi[0] == pytest.approx(0.9999629810881006, abs=1e-10)

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            forward_induction([])
        with pytest.raises(ValueError):
            forward_induction([np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            forward_induction(iter([np.eye(2), np.eye(2), np.eye(3)]))


class TestPruning:
    def test_bit_identical_prices(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        contract = uoc(115.0)
        kernels = _kernels(BS07, contract, grid, mats)
        pruned = prune_knocked_rows(kernels, grid.grids, contract)
        for a, b in zip(kernels, pruned):
            assert np.array_equal(a, b)
        pa = forward_induction(kernels)
        pb = forward_induction(pruned)
        assert np.array_equal(pa, pb)

    def test_identity_when_no_point_beyond_barrier(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        contract = uoc(1e6)
        kernels = [np.full((3, 3), 0.5)]
        out = prune_knocked_rows(kernels, [np.array([1.0, 2.0, 3.0])], contract)
        assert np.array_equal(out[0], kernels[0])


class TestPriceBarrier:
    def test_knocked_out_from_start_prices_zero(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        assert price_barrier(BS07, uoc(95.0), grid, mats).price == 0.0
        assert price_barrier(BS07, uoc(100.0), grid, mats).price == 0.0

    def test_survival_mass_monotone_in_step(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        pi = np.zeros(966)
        pi[0] = 1.0
        masses = [1.0]
        for H in _kernels(BS07, uoc(115.0), grid, mats):
            pi = pi @ H
            masses.append(pi.sum())
        assert all(a >= b - 1e-15 for a, b in zip(masses, masses[1:]))

    def test_survival_measure_mass_is_probability(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        pi = forward_induction(_kernels(BS07, uoc(115.0), grid, mats))
        assert 0.0 < pi.sum() < 1.0
        assert np.all(pi >= 0.0)

    def test_paper_level_prices(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        assert price_barrier(BS07, uoc(115.0), grid, mats).price == pytest.approx(2.59, abs=0.02)
        assert price_barrier(BS07, uoc(130.0), grid, mats).price == pytest.approx(12.08, abs=0.02)

    def test_price_monotone_in_barrier(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        prices = [price_barrier(BS07, uoc(L), grid, mats).price for L in (105, 110, 115, 120, 130)]
        assert all(a <= b + 1e-12 for a, b in zip(prices, prices[1:]))

    def test_far_barrier_approaches_vanilla(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        quant = price_barrier(BS07, uoc(1e6), grid, mats).price
        vanilla = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.CALL)
        assert abs(quant - vanilla) / vanilla < 0.01

    def test_call_and_put_from_one_measure(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        pi = forward_induction(_kernels(BS07, uoc(115.0), grid, mats))
        terminal = grid.grids[-1]
        disc = np.exp(-0.15)
        call = price_barrier(BS07, uoc(115.0), grid, mats).price
        contract_put = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.PUT, 100.0, 115.0, 1.0)
        put = price_barrier(BS07, contract_put, grid, mats).price
        assert call >= 0.0 and put >= 0.0
        # the survival measure does not depend on the payoff
        assert call == disc * float(pi @ np.maximum(terminal - 100.0, 0.0))
        assert put == disc * float(pi @ np.maximum(100.0 - terminal, 0.0))

    def test_put_worthless_below_surviving_grid(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        contract = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.PUT, 10.0, 130.0, 1.0)
        assert price_barrier(BS07, contract, grid, mats).price == 0.0

    def test_down_and_out_matches_closed_form(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 20)
        for L in (85.0, 90.0, 95.0):
            quant = price_barrier(BS07, doc(L), grid, mats).price
            closed = barrier_price(
                100.0, 100.0, L, 1.0, 0.15, 0.07, BarrierType.DOWN_AND_OUT, PayoffType.CALL
            )
            assert quant == pytest.approx(closed, abs=0.05)

    def test_up_and_out_put_matches_closed_form(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 20)
        contract = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.PUT, 100.0, 115.0, 1.0)
        closed = barrier_price(
            100.0, 100.0, 115.0, 1.0, 0.15, 0.07, BarrierType.UP_AND_OUT, PayoffType.PUT
        )
        assert price_barrier(BS07, contract, grid, mats).price == pytest.approx(closed, abs=0.02)


class TestEndToEnd:
    def test_convenience_runner_deterministic(self):
        a = price_barrier_quant(BS07, uoc(115.0), 10)
        b = price_barrier_quant(BS07, uoc(115.0), 10)
        assert a.price == b.price
        assert a.method == "quant"

    def test_pcev_runs_with_euler_mode(self):
        r = price_barrier_quant(PCEV07, uoc(115.0), 10)
        assert 2.0 < r.price < 3.5


def test_price_barrier_memory_flat_in_steps():
    """One kernel is alive at a time, so the pricing peak does not grow with n."""
    quantizer = brownian_product_quantizer(200, 1.0)
    peaks = {}
    for n in (10, 30):
        grid = quantize_price_process(BS07, quantizer, n)
        mats = transition_matrices(BS07, grid)
        tracemalloc.start()
        try:
            price_barrier(BS07, uoc(115.0), grid, mats)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[30] <= 1.5 * peaks[10]
