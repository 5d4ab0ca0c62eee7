import dataclasses
import functools
import math
import multiprocessing
import threading
import tracemalloc

import numpy as np
import pytest

import fqbarrier.quant_pricer as quant_pricer
from fqbarrier.bridge import BridgeParams, bridge_max_cdf, bridge_min_cdf
from fqbarrier.brownian import brownian_product_quantizer
from fqbarrier.closed_form import barrier_price, vanilla_price
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.models import BlackScholes, OneStepLaw, PseudoCEV, one_step_law
from fqbarrier.price_grid import QuantizedPriceGrid, quantize_price_process
from fqbarrier.quant_pricer import (
    _BAND_ROWS,
    _live_cells,
    _Survival,
    _survival_measure,
    price_barrier,
    price_barrier_quant,
)
from fqbarrier.tables import TABLE_SPECS
from tests.conftest import BS07, PCEV07, chain_measures, chain_price, full_matrix


def uoc(barrier, strike=100.0):
    return BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def doc(barrier, strike=100.0):
    return BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def _damped(model, x, y, block, contract, n_steps=10):
    """``block`` times the survival factors between the live points ``x`` and ``y``, by ``_Survival.damp`` on one band."""
    survival = _Survival(x, y, np.asarray(model.diffusion(x), dtype=float), contract, n_steps, 1.0)
    out = np.array(block, dtype=float)
    survival.damp(out, slice(0, x.size), slice(0, y.size), spare=np.empty(out.size))
    return out


def _live_range(points, contract):
    """[lo, hi) of the points on the live side of the barrier, the barrier included."""
    up = contract.barrier_type is BarrierType.UP_AND_OUT
    idx = np.flatnonzero(points <= contract.barrier if up else points >= contract.barrier)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


class TestSurvival:
    def test_infinite_barrier_leaves_the_block_unchanged(self):
        gp = np.array([95.0, 100.0, 105.0])
        gn = np.array([90.0, 101.0, 112.0])
        p = full_matrix(BS07, gp, gn, 0.1)
        assert np.array_equal(_damped(BS07, gp, gn, p, uoc(1e18)), p)

    def test_points_beyond_barrier_are_not_live(self):
        gp = np.array([95.0, 100.0, 120.0])
        gn = np.array([90.0, 101.0, 118.0])
        assert _live_cells(gp, uoc(115.0)) == _live_cells(gn, uoc(115.0)) == (0, 2)
        assert _live_cells(gp, doc(100.0)) == _live_cells(gn, doc(100.0)) == (1, 3)
        # the oracle's survival factor kills the same rows and columns
        params = BridgeParams(10, 1.0, np.asarray(BS07.diffusion(gp))[:, None])
        g = bridge_max_cdf(gp[:, None], gn[None, :], 115.0, params)
        assert np.all(g[2, :] == 0.0) and np.all(g[:, 2] == 0.0)

    def test_single_cell_frozen_value(self):
        x = np.array([100.0])
        H = _damped(BS07, x, x, np.array([[1.0]]), uoc(105.0))
        assert H[0, 0] == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-12)

    @pytest.mark.parametrize("barrier_type", [BarrierType.UP_AND_OUT, BarrierType.DOWN_AND_OUT], ids=["up", "down"])
    @pytest.mark.parametrize("case", ["straddle", "source_on_barrier", "zero_sigma"])
    def test_band_matches_the_bridge_cdfs_bit_for_bit(self, barrier_type, case):
        """The banded survival equals p times the full bridge CDF on hand-built blocks.

        With n = T = 1 and a source one unit inside the barrier at sigma = 1
        the exponent is e = -2 |y - L|, so the columns put e on both sides of
        -54 ln 2 = -37.43, exactly on the band edge -38 and at 0 (y == L).
        A dead row or column has a bridge CDF of 0 and lies outside the live
        range that ``_Survival`` is built on.
        """
        L, side = 100.0, (-1.0 if barrier_type is BarrierType.UP_AND_OUT else 1.0)
        e = np.array([-40.0, -38.0, -37.9, -37.5, -37.44, -37.42, -37.0, -36.5, -36.0, -20.0, -1.0, -0.3, -0.01, 0.0])
        # one column beyond the barrier: an entry with a dead end is 0
        offsets = np.append(-e / 2.0, -1.0)
        rows = {  # (distance inside the barrier, sigma); a negative distance is a dead row
            # rows of one slope share their band, so the flat columns are skipped
            "straddle": [(1.0, 1.0), (4.0, 2.0), (0.25, 0.5), (-1.0, 1.0)],
            "source_on_barrier": [(1.0, 1.0), (0.0, 1.0), (3.0, 1.0)],
            "zero_sigma": [(1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.5, 0.0)],
        }[case]
        y = np.sort(L + side * offsets)
        order = np.argsort([L + side * d for d, _ in rows])
        x = np.array([L + side * rows[i][0] for i in order])
        sigma = np.array([rows[i][1] for i in order])
        p = np.random.default_rng(7).uniform(0.01, 1.0, size=(x.size, y.size))
        params = BridgeParams(1, 1.0, sigma[:, None])
        contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, L, 1.0)
        if barrier_type is BarrierType.UP_AND_OUT:
            expected = p * bridge_max_cdf(x[:, None], y[None, :], L, params)
        else:
            expected = p * (1 - bridge_min_cdf(x[:, None], y[None, :], L, params))
        live_rows, live_cols = (slice(*_live_cells(points, contract)) for points in (x, y))
        dead = np.ones_like(p, dtype=bool)
        dead[live_rows, live_cols] = False
        assert np.all(expected[dead] == 0.0)
        p, expected = p[live_rows, live_cols], expected[live_rows, live_cols]
        H = p.copy()
        survival = _Survival(x[live_rows], y[live_cols], sigma[live_rows], contract, 1, 1.0)
        survival.damp(H, slice(0, H.shape[0]), slice(0, H.shape[1]), spare=np.empty(H.size))
        assert np.array_equal(H, expected)
        # the case exercises a skipped entry and one just inside -37.43 that is not p
        assert np.any((H == p) & (expected == p)) and np.any((H != p) & (H != 0.0))

    @pytest.mark.parametrize("barrier_type", [BarrierType.UP_AND_OUT, BarrierType.DOWN_AND_OUT], ids=["up", "down"])
    def test_zero_sigma_rows_take_the_whole_row(self, barrier_type):
        """A block of sigma = 0 rows, none on the barrier, still reaches the cell on the barrier.

        A frozen segment that touches the barrier survives up-and-out and
        dies down-and-out; every other live cell keeps its entry.
        """
        up = barrier_type is BarrierType.UP_AND_OUT
        side = -1.0 if up else 1.0
        x = np.sort(100.0 + side * np.array([0.5, 1.0, 3.0]))
        y = np.sort(100.0 + side * np.array([0.0, 0.5, 2.0, 7.0]))
        contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, 100.0, 1.0)
        H = np.ones((3, 4))
        _Survival(x, y, np.zeros(3), contract, 1, 1.0).damp(H, slice(0, 3), slice(0, 4), spare=np.empty(12))
        on_barrier = y == 100.0
        assert np.all(H[:, ~on_barrier] == 1.0)
        assert np.all(H[:, on_barrier] == (1.0 if up else 0.0))

    @pytest.mark.parametrize("barrier_type", [BarrierType.UP_AND_OUT, BarrierType.DOWN_AND_OUT], ids=["up", "down"])
    def test_sub_block_matches_the_bridge_cdfs_bit_for_bit(self, barrier_type):
        """``damp`` on rows 2:5 and columns 3:11 of the live points damps exactly those entries.

        At n = 400 the exponents of the sub-block run from about -0.2 to -56
        or lower, so its band edge falls inside the columns and some entries
        keep p.
        """
        L, side = 100.0, (-1.0 if barrier_type is BarrierType.UP_AND_OUT else 1.0)
        x = np.sort(L + side * np.linspace(0.05, 3.0, 8))
        y = np.sort(L + side * np.geomspace(1e-3, 20.0, 14))
        rows, cols = slice(2, 5), slice(3, 11)
        contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, L, 1.0)
        sigma = np.asarray(BS07.diffusion(x), dtype=float)
        p = np.random.default_rng(11).uniform(0.01, 1.0, size=(3, 8))
        params = BridgeParams(400, 1.0, sigma[rows, None])
        xs, ys = x[rows, None], y[None, cols]
        if barrier_type is BarrierType.UP_AND_OUT:
            expected = p * bridge_max_cdf(xs, ys, L, params)
        else:
            expected = p * (1 - bridge_min_cdf(xs, ys, L, params))
        H = p.copy()
        _Survival(x, y, sigma, contract, 400, 1.0).damp(H, rows, cols, spare=np.empty(H.size))
        assert np.array_equal(H, expected)
        assert np.any(H == p) and np.any(H != p)


class TestChainOracle:
    def test_reduces_to_chain_marginal_without_barrier(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        *_, pi = chain_measures(BS07, uoc(1e18), grid)
        w = np.zeros(grid.d_n)
        w[0] = 1.0
        for p in mats:
            w = w @ p
        assert pi == pytest.approx(w, abs=1e-14)
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("contract", [uoc(105.0, 90.0), doc(95.0, 90.0)], ids=["up", "down"])
    def test_single_step_frozen(self, contract):
        """One step from x0 = 100 into the single cell 100, 5 away from the barrier at sigma x0 = 7.

        The cell takes all of the mass, and the survival factor is
        1 - exp(-2 * 5 * 5 / 49) at n = T = 1.
        """
        grid = QuantizedPriceGrid(
            1, 1.0, np.array([0.0, 1.0]), np.array([[100.0], [100.0]]), np.ones(1), np.zeros((2, 1), dtype=int)
        )
        *_, pi = chain_measures(BS07, contract, grid)
        assert pi[0] == pytest.approx(-math.expm1(-50.0 / 49.0), rel=1e-15)
        expected = math.exp(-0.15) * 10.0 * -math.expm1(-50.0 / 49.0)
        assert chain_price(BS07, contract, grid) == pytest.approx(expected, rel=1e-15)
        assert price_barrier(BS07, contract, grid).price == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("contract", [uoc(115.0), doc(95.0)], ids=["up", "down"])
    @pytest.mark.parametrize("model", [BS07, PCEV07], ids=["bs-exact", "pcev-euler"])
    def test_banded_measure_matches_the_chain_on_the_live_cells(self, model, contract):
        """The chain's terminal measure is exactly 0 beyond the barrier, and the pricer's equals it on the live cells."""
        grid = _small_grid(model)
        lo, hi = _live_cells(grid.grids[-1], contract)
        assert 0 < lo or hi < grid.d_n  # some terminal cell lies beyond the barrier
        *_, chain = chain_measures(model, contract, grid)
        banded, points = _survival_measure(model, contract, grid)
        assert np.array_equal(points, grid.grids[-1][lo:hi])
        assert np.all(chain[:lo] == 0.0) and np.all(chain[hi:] == 0.0)
        assert np.max(np.abs(banded - chain[lo:hi])) <= 1e-15
        assert banded.sum() == pytest.approx(chain.sum(), rel=1e-13)


class TestPriceBarrier:
    def test_interleaved_calls_share_no_state(self, quant_grid):
        """Each call owns its step buffers: UOC, DOP, UOC again on one grid give the same bits."""
        grid = quant_grid(BS07, 10)
        dop = BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.PUT, 100.0, 90.0, 1.0)
        first = price_barrier(BS07, uoc(115.0), grid).price
        put = price_barrier(BS07, dop, grid).price
        again = price_barrier(BS07, uoc(115.0), grid).price
        assert first.hex() == again.hex()
        assert put.hex() == price_barrier(BS07, dop, grid).price.hex()
        assert first > 0.0 and put > 0.0

    def test_leaves_the_grid_unchanged(self, quant_grid):
        """The pricer damps its own work arrays in place, never the grid's levels."""
        grid = quant_grid(BS07, 10)
        before = grid.grids.copy()
        for contract in (uoc(115.0), doc(95.0)):
            price_barrier(BS07, contract, grid)
            assert np.array_equal(grid.grids, before)

    def test_discount_overflow_is_rejected(self, quant_grid):
        """exp(-r T) overflows a float at r T = -800; the grid of another rate passes every other check."""
        with pytest.raises(ValueError, match=r"r=-800.0, T=1.0"):
            price_barrier(BlackScholes(-800.0, 0.07, 100.0), uoc(115.0), quant_grid(BS07, 10))

    def test_end_to_end_rejects_the_discount_before_building_the_grid(self, monkeypatch):
        """exp(720) overflows a float: ``price_barrier_quant`` raises before it builds a quantizer or a grid."""

        def unreachable(*args, **kwargs):
            raise AssertionError("the grid was built for a discount that overflows")

        monkeypatch.setattr(quant_pricer, "quantize_price_process", unreachable)
        with pytest.raises(ValueError, match=r"r=-720.0, T=1.0"):
            price_barrier_quant(BlackScholes(-720.0, 0.07, 100.0), uoc(115.0), 5, budget=60)

    def test_knocked_out_from_start_prices_zero(self, quant_grid):
        grid = quant_grid(BS07, 10)
        assert price_barrier(BS07, uoc(95.0), grid).price == 0.0
        assert price_barrier(BS07, uoc(100.0), grid).price == 0.0

    def test_checks_run_before_knock_out_at_x0(self, quant_grid):
        grid = quant_grid(BS07, 10)
        dead = uoc(95.0)
        with pytest.raises(ValueError, match="differs from the contract maturity"):
            price_barrier(BS07, dead, dataclasses.replace(grid, horizon=0.0))
        with pytest.raises(ValueError, match="nonempty grid"):
            price_barrier(BS07, dead, dataclasses.replace(grid, grids=np.empty((11, 0))))
        with pytest.raises(ValueError, match="one nonempty grid per pricing date"):
            price_barrier(BS07, dead, dataclasses.replace(grid, grids=grid.grids[:-1]))

    def test_rejects_grid_of_another_maturity_or_spot(self, quant_grid):
        # the grid spans T=1 from x0=100; a mismatch used to price silently
        grid = quant_grid(BS07, 10)
        long_dated = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, 100.0, 115.0, 5.0)
        with pytest.raises(ValueError, match="differs from the contract maturity"):
            price_barrier(BS07, long_dated, grid)
        spot_90 = BlackScholes(r=0.15, sigma=0.07, x0=90.0)
        for contract in (uoc(115.0), uoc(85.0)):  # the second is knocked out at x0
            with pytest.raises(ValueError, match="grid starts at 100.0"):
                price_barrier(spot_90, contract, grid)

    def test_survival_mass_monotone_in_step(self, quant_grid):
        grid = quant_grid(BS07, 10)
        masses = [1.0] + [pi.sum() for pi in chain_measures(BS07, uoc(115.0), grid)]
        assert all(a >= b - 1e-15 for a, b in zip(masses, masses[1:]))

    def test_survival_measure_mass_is_probability(self, quant_grid):
        grid = quant_grid(BS07, 10)
        *_, pi = chain_measures(BS07, uoc(115.0), grid)
        assert 0.0 < pi.sum() < 1.0
        assert np.all(pi >= 0.0)

    def test_paper_level_prices(self, quant_grid):
        grid = quant_grid(BS07, 10)
        assert price_barrier(BS07, uoc(115.0), grid).price == pytest.approx(2.59, abs=0.02)
        assert price_barrier(BS07, uoc(130.0), grid).price == pytest.approx(12.08, abs=0.02)

    def test_price_monotone_in_barrier(self, quant_grid):
        grid = quant_grid(BS07, 10)
        prices = [price_barrier(BS07, uoc(L), grid).price for L in (105, 110, 115, 120, 130)]
        assert all(a <= b + 1e-12 for a, b in zip(prices, prices[1:]))

    def test_far_barrier_approaches_vanilla(self, quant_grid):
        grid = quant_grid(BS07, 10)
        quant = price_barrier(BS07, uoc(1e6), grid).price
        vanilla = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.CALL)
        assert abs(quant - vanilla) / vanilla < 0.01

    def test_call_and_put_from_one_measure(self, quant_grid):
        grid = quant_grid(BS07, 10)
        pi, terminal = _survival_measure(BS07, uoc(115.0), grid)
        disc = np.exp(-0.15)
        call = price_barrier(BS07, uoc(115.0), grid).price
        contract_put = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.PUT, 100.0, 115.0, 1.0)
        put = price_barrier(BS07, contract_put, grid).price
        assert call >= 0.0 and put >= 0.0
        # the survival measure does not depend on the payoff
        assert call == disc * float(pi @ np.maximum(terminal - 100.0, 0.0))
        assert put == disc * float(pi @ np.maximum(100.0 - terminal, 0.0))

    def test_put_worthless_below_surviving_grid(self, quant_grid):
        grid = quant_grid(BS07, 10)
        contract = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.PUT, 10.0, 130.0, 1.0)
        assert price_barrier(BS07, contract, grid).price == 0.0

    def test_down_and_out_matches_closed_form(self, quant_grid):
        grid = quant_grid(BS07, 20)
        for L in (85.0, 90.0, 95.0):
            quant = price_barrier(BS07, doc(L), grid).price
            closed = barrier_price(
                100.0, 100.0, L, 1.0, 0.15, 0.07, BarrierType.DOWN_AND_OUT, PayoffType.CALL
            )
            assert quant == pytest.approx(closed, abs=0.05)

    def test_up_and_out_put_matches_closed_form(self, quant_grid):
        grid = quant_grid(BS07, 20)
        contract = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.PUT, 100.0, 115.0, 1.0)
        closed = barrier_price(
            100.0, 100.0, 115.0, 1.0, 0.15, 0.07, BarrierType.UP_AND_OUT, PayoffType.PUT
        )
        assert price_barrier(BS07, contract, grid).price == pytest.approx(closed, abs=0.02)


# drifts far enough that every grid point passes 150 (up) or 70 (down) by mid-horizon
RUNAWAY_UP = BlackScholes(r=2.0, sigma=0.05, x0=100.0)
RUNAWAY_DOWN = BlackScholes(r=-2.0, sigma=0.05, x0=100.0)
SIDES = [
    (BarrierType.UP_AND_OUT, PayoffType.CALL),
    (BarrierType.UP_AND_OUT, PayoffType.PUT),
    (BarrierType.DOWN_AND_OUT, PayoffType.CALL),
    (BarrierType.DOWN_AND_OUT, PayoffType.PUT),
]


@functools.lru_cache(maxsize=None)
def _small_grid(model):
    """The grid of the budget-200 quantizer at n=8."""
    return quantize_price_process(model, brownian_product_quantizer(200, 1.0), 8)


def _barriers(grid, barrier_type):
    """A barrier on a grid point of the live side, one at x0, and both far sides."""
    mid = grid.grids[grid.n_steps // 2]
    on_point = mid[2 * mid.size // 3] if barrier_type is BarrierType.UP_AND_OUT else mid[mid.size // 3]
    return [float(on_point), 100.0, 1e6, 1e-6]


@pytest.mark.parametrize("barrier_type,payoff_type", SIDES)
@pytest.mark.parametrize("model", [BS07, PCEV07], ids=["bs-exact", "pcev-euler"])
def test_live_block_matches_full_matrix_chain(model, barrier_type, payoff_type):
    grid = _small_grid(model)
    for L in _barriers(grid, barrier_type):
        contract = BarrierContract(barrier_type, payoff_type, 100.0, L, 1.0)
        chain = chain_price(model, contract, grid)
        live = price_barrier(model, contract, grid).price
        if chain == 0.0:
            assert live == 0.0, L
        else:
            assert live == pytest.approx(chain, rel=1e-12, abs=0.0), L


@pytest.mark.parametrize("payoff_type", [PayoffType.CALL, PayoffType.PUT])
@pytest.mark.parametrize(
    "model,barrier_type,barrier",
    [(RUNAWAY_UP, BarrierType.UP_AND_OUT, 150.0), (RUNAWAY_DOWN, BarrierType.DOWN_AND_OUT, 70.0)],
    ids=["up", "down"],
)
def test_live_set_emptied_mid_horizon_prices_zero(model, barrier_type, barrier, payoff_type):
    grid = _small_grid(model)
    contract = BarrierContract(barrier_type, payoff_type, 100.0, barrier, 1.0)
    live = [_live_range(points, contract) for points in grid.grids]
    assert live[1][0] < live[1][1] and live[4] == (0, 0)
    assert chain_price(model, contract, grid) == 0.0
    assert price_barrier(model, contract, grid).price == 0.0


BS_FROZEN = BlackScholes(r=0.15, sigma=0.0, x0=100.0)  # the path 100 e^(0.15 t) reaches 116.2


@functools.lru_cache(maxsize=None)
def _n80_grid(model):
    return quantize_price_process(model, brownian_product_quantizer(300, 1.0), 80)


@pytest.mark.parametrize(
    "model,barrier_type,barrier",
    [
        (PCEV07, BarrierType.UP_AND_OUT, 115.0),
        (PCEV07, BarrierType.DOWN_AND_OUT, 90.0),
        (BS07, BarrierType.UP_AND_OUT, 115.0),
        (BS07, BarrierType.DOWN_AND_OUT, 90.0),
        (BS_FROZEN, BarrierType.UP_AND_OUT, 120.0),
        (BS_FROZEN, BarrierType.UP_AND_OUT, 110.0),
        (BS_FROZEN, BarrierType.DOWN_AND_OUT, 99.0),
    ],
    ids=["pcev-up", "pcev-down", "bs-up", "bs-down", "frozen-up", "frozen-knocked", "frozen-down"],
)
def test_banded_prices_match_full_matrix_chain_at_n80(model, barrier_type, barrier):
    """At n=80 a row's law spans about 57% of the cells on average, and 36% at the last dates.

    The share hardly depends on the budget (0.58 at budget 300, 0.56 at
    1000), so the small grid keeps the full-matrix chain cheap.
    """
    grid = _n80_grid(model)
    call = BarrierContract(barrier_type, PayoffType.CALL, 100.0, barrier, 1.0)
    *_, pi = chain_measures(model, call, grid)  # the measure does not depend on the payoff
    for contract in (call, dataclasses.replace(call, payoff_type=PayoffType.PUT)):
        chain = np.exp(-model.r) * float(pi @ contract.payoff(grid.grids[-1]))
        banded = price_barrier(model, contract, grid).price
        if chain == 0.0:
            assert banded == 0.0
        else:
            assert banded == pytest.approx(chain, rel=1e-13, abs=0.0)
        if model is BS_FROZEN and barrier_type is BarrierType.UP_AND_OUT and barrier < 100.0 * math.exp(0.15):
            assert chain == 0.0  # the frozen path crosses the barrier


def _grid_on_the_mean_path(model, grid):
    """``grid`` with each date's points moved to within a few ulps of the one-step mean from the last date's."""
    j = np.arange(grid.d_n) - grid.d_n // 2
    grids, centre = np.empty_like(grid.grids), model.x0
    grids[0] = centre
    for k in range(1, grid.n_steps + 1):
        centre = float(one_step_law(model, centre, grid.horizon / grid.n_steps).quantile(0.0)[0])
        grids[k] = centre * (1.0 + j * 2.0**-53)
    return dataclasses.replace(grid, grids=grids)


@pytest.mark.parametrize("spread", [1e-300, 1e-30, 1e-16, 1e-14])
@pytest.mark.parametrize("law", ["exact", "euler"])
def test_vanishing_spread_keeps_the_mass_above_the_cut(monkeypatch, spread, law):
    """A spread below the rounding of the grid values defeats the upper cut's margin; the band widens instead.

    The exact law is Black-Scholes' at sigma = ``spread``, the Euler law
    pseudo-CEV's at vartheta = ``spread``.  On the quantized grid every
    date's points coincide; on its twin they lie within ulps of the law's
    mean, so that a cell edge falls on the cut, and there the band widens
    whenever the spread is below the rounding.
    """
    monkeypatch.setattr(quant_pricer, "_cores", lambda: 1)
    calls = []
    original = quant_pricer.transition_block

    def recorder(step_law, grid_next, lo, hi, rows=slice(None), out=None, work=None):
        calls.append((step_law, rows.start))
        return original(step_law, grid_next, lo, hi, rows, out=out, work=work)

    monkeypatch.setattr(quant_pricer, "transition_block", recorder)
    model = BlackScholes(0.15, spread, 100.0) if law == "exact" else PseudoCEV(0.15, spread, 0.5, 100.0)
    quantized = quantize_price_process(model, brownian_product_quantizer(200, 1.0), 10)
    for grid in (quantized, _grid_on_the_mean_path(model, quantized)):
        for barrier_type, barrier in ((BarrierType.UP_AND_OUT, 120.0), (BarrierType.DOWN_AND_OUT, 90.0)):
            contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, barrier, 1.0)
            chain = chain_price(model, contract, grid)
            assert chain > 10.0
            assert price_barrier(model, contract, grid).price == pytest.approx(chain, rel=1e-13, abs=0.0)
    # a block evaluated twice in a row took the rest of the live cells
    widened = sum(a[0] is b[0] and a[1] == b[1] for a, b in zip(calls, calls[1:]))
    if spread <= 1e-16:
        assert widened > 0


def test_step_one_evaluates_the_single_point_x0(monkeypatch):
    """Date 0 is d_N copies of x0, so step 1 needs one source row, not d_N.

    Each later step evaluates its live source points once, in blocks of at
    most ``_BAND_ROWS`` rows, in order on one core.
    """
    monkeypatch.setattr(quant_pricer, "_cores", lambda: 1)
    sources = []
    original = OneStepLaw.cdf

    def recorder(law, z, rows=slice(None), out=None):
        sources.append(law.origin[rows].copy())  # log x under the exact law
        return original(law, z, rows, out=out)

    monkeypatch.setattr(OneStepLaw, "cdf", recorder)
    contract = uoc(115.0)
    price_barrier_quant(BS07, contract, 5, budget=200)
    grid = quantize_price_process(BS07, brownian_product_quantizer(200, 1.0), 5)
    assert sources[0].tolist() == [math.log(BS07.x0)]
    expected = [grid.grids[k][slice(*_live_range(grid.grids[k], contract))] for k in range(1, 5)]
    later = sources[1:]
    assert all(0 < x.size <= _BAND_ROWS for x in later)
    assert np.array_equal(np.concatenate(later), np.log(np.concatenate(expected)))


def test_two_shares_evaluate_every_live_source_once(monkeypatch):
    """With the pool, each step still evaluates each of its live source points exactly once.

    The two shares run concurrently, so the blocks arrive in no fixed order;
    they are put back in row order per step (one law per step).
    """
    monkeypatch.setattr(quant_pricer, "_cores", lambda: 2)
    monkeypatch.setattr(quant_pricer, "_SPLIT_BLOCKS", 2)  # budget 200 has at most 7 blocks a step
    calls = []
    original = OneStepLaw.cdf

    def recorder(law, z, rows=slice(None), out=None):
        calls.append((law, rows, threading.current_thread()))
        return original(law, z, rows, out=out)

    monkeypatch.setattr(OneStepLaw, "cdf", recorder)
    contract = uoc(115.0)
    price_barrier_quant(BS07, contract, 5, budget=200)
    grid = quantize_price_process(BS07, brownian_product_quantizer(200, 1.0), 5)
    by_law = {}  # the recorded laws stay alive, so their ids are distinct
    for law, rows, _ in calls:
        by_law.setdefault(id(law), (law, []))[1].append(rows)
    steps = list(by_law.values())
    assert len(steps) == 5
    assert [r.start for r in steps[0][1]] == [0] and steps[0][0].origin.tolist() == [math.log(BS07.x0)]
    for k, (law, rows) in enumerate(steps[1:], start=1):
        rows = sorted(rows, key=lambda r: r.start)
        assert [r.start for r in rows] == [0] + [r.stop for r in rows[:-1]]
        assert all(0 < r.stop - r.start <= _BAND_ROWS for r in rows)
        expected = grid.grids[k][slice(*_live_range(grid.grids[k], contract))]
        assert rows[-1].stop == expected.size == law.origin.size
        assert np.array_equal(law.origin, np.log(expected))
    assert len({thread for _, _, thread in calls}) == 2  # the worker priced some blocks


CORE_MODELS = {
    "bs0.07": BlackScholes(r=0.15, sigma=0.07, x0=100.0),
    "bs0.3": BlackScholes(r=0.15, sigma=0.3, x0=100.0),
    "bs0": BlackScholes(r=0.15, sigma=0.0, x0=100.0),
    "bs1e-9": BlackScholes(r=0.15, sigma=1e-9, x0=100.0),
    "pcev0.7": PseudoCEV(r=0.15, vartheta=0.7, delta=0.5, x0=100.0),
}


def _prices_on_cores(monkeypatch, cores, price):
    monkeypatch.setattr(quant_pricer, "_cores", lambda: cores)
    monkeypatch.setattr(quant_pricer, "_SPLIT_BLOCKS", 2)  # every step of two or more blocks splits
    return [p.hex() for p in price()]


@pytest.mark.parametrize("n_steps", [3, 20, 80])
@pytest.mark.parametrize("name", CORE_MODELS)
def test_prices_are_identical_on_one_and_two_cores(monkeypatch, name, n_steps):
    model = CORE_MODELS[name]
    grid = quantize_price_process(model, brownian_product_quantizer(300, 1.0), n_steps)
    contracts = [
        BarrierContract(barrier_type, payoff_type, 100.0, barrier, 1.0)
        for barrier_type, barrier in ((BarrierType.UP_AND_OUT, 120.0), (BarrierType.DOWN_AND_OUT, 90.0))
        for payoff_type in (PayoffType.CALL, PayoffType.PUT)
    ]

    def price():
        return [price_barrier(model, contract, grid).price for contract in contracts]

    pooled = _prices_on_cores(monkeypatch, 2, price)
    assert pooled == _prices_on_cores(monkeypatch, 1, price)
    # both calls survive, even on the frozen path 100 e^(0.15 t) < 120
    assert float.fromhex(pooled[0]) > 0.0 and float.fromhex(pooled[2]) > 0.0


@pytest.mark.parametrize("table_id", sorted(TABLE_SPECS))
def test_table_prices_are_identical_on_one_and_two_cores(monkeypatch, table_id):
    spec = TABLE_SPECS[table_id]
    grid = quantize_price_process(spec.model, brownian_product_quantizer(1000, 1.0), spec.n_steps)

    def price():
        return [price_barrier(spec.model, uoc(level), grid).price for level in spec.levels]

    assert _prices_on_cores(monkeypatch, 2, price) == _prices_on_cores(monkeypatch, 1, price)


def _price_in_child(conn):
    conn.send(price_barrier_quant(BS07, uoc(115.0), 5, budget=200).price.hex())
    conn.close()


def test_forked_child_prices_after_the_parent_used_the_pool(monkeypatch):
    """A forked child has no worker thread; it must make its own pool, not wait on the parent's."""
    monkeypatch.setattr(quant_pricer, "_cores", lambda: 2)
    monkeypatch.setattr(quant_pricer, "_SPLIT_BLOCKS", 2)
    expected = price_barrier_quant(BS07, uoc(115.0), 5, budget=200).price.hex()
    assert quant_pricer._worker.cache_info().currsize == 1
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_price_in_child, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child did not price within 60 s"
        assert receive.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert child.exitcode == 0


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
    """Transitions are built per step inside the pricing call, so its peak does not grow with n."""
    brownian_product_quantizer(200, 1.0)  # warm the quantizer cache outside the measurement
    peaks = {}
    for n in (10, 30):
        tracemalloc.start()
        try:
            price_barrier_quant(BS07, uoc(115.0), n, budget=200)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[30] <= 1.5 * peaks[10]


def test_price_barrier_work_memory_is_a_few_row_blocks(quant_grid):
    """With the grid prebuilt, a call holds O(_BAND_ROWS d_N) work memory: no d_N x d_N array."""
    grid = quant_grid(BS07, 20)
    d = grid.grids.shape[1]
    price_barrier(BS07, uoc(115.0), grid)
    tracemalloc.start()
    try:
        price_barrier(BS07, uoc(115.0), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d > 900 and peak < 2 * 2**20


def test_price_barrier_allocates_no_square_array_at_budget_4000():
    quantizer = brownian_product_quantizer(4000, 1.0)
    d = quantizer.n_paths
    for model, contract in ((BS07, uoc(115.0)), (PCEV07, doc(90.0))):
        grid = quantize_price_process(model, quantizer, 2)
        tracemalloc.start()
        try:
            price_barrier(model, contract, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one d_N x d_N float array alone would take 8 d_N^2 bytes (119 MB here)
        assert d > 3800 and peak < 8 * d * d / 16
