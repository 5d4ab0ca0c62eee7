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
from fqbarrier.models import BlackScholes, OneStepLaw, PseudoCEV
from fqbarrier.price_grid import quantize_price_process
from fqbarrier.quant_pricer import (
    _BAND_ROWS,
    _survival_measure,
    forward_induction,
    price_barrier,
    price_barrier_quant,
    prune_knocked_rows,
    quantized_kernel,
)
from fqbarrier.tables import TABLE_SPECS
from fqbarrier.transitions import transition_matrices, transition_matrix
from tests.conftest import BS07, PCEV07


def uoc(barrier, strike=100.0):
    return BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def doc(barrier, strike=100.0):
    return BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def _params(model, grid_prev, n_steps, horizon=1.0):
    sigma = np.asarray(model.diffusion(np.asarray(grid_prev)))[:, None]
    return BridgeParams(n_steps, horizon, sigma)


def _kernels(model, contract, grid, mats):
    """Full d_N x d_N kernels H_1 ... H_n of the chain, one per matrix that ``mats`` yields."""
    g = grid.grids
    for k, tm in enumerate(mats):
        yield quantized_kernel(g[k], g[k + 1], tm.entries, contract, _params(model, g[k], grid.n_steps))


def _chain_measure(model, contract, grid, mats=None, cdf_mode=None):
    """e0 H_1 ... H_n over every cell of every date.

    Without ``mats`` each full matrix is built as the induction reaches it.
    """
    if mats is None:
        g, n = grid.grids, grid.n_steps
        mats = (transition_matrix(model, g[k - 1], g[k], grid.horizon / n, cdf_mode) for k in range(1, n + 1))
    return forward_induction(_kernels(model, contract, grid, mats))


def _chain_price(model, contract, grid, mats=None, cdf_mode=None):
    """Discounted payoff under e0 H_1 ... H_n."""
    pi = _chain_measure(model, contract, grid, mats, cdf_mode)
    return np.exp(-model.r * contract.maturity) * float(pi @ contract.payoff(grid.grids[-1]))


def _live_range(points, contract):
    """[lo, hi) of the points on the live side of the barrier, the barrier included."""
    up = contract.barrier_type is BarrierType.UP_AND_OUT
    idx = np.flatnonzero(points <= contract.barrier if up else points >= contract.barrier)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


class TestQuantizedKernel:
    def test_infinite_barrier_reduces_to_transition(self):
        gp = np.array([95.0, 100.0, 105.0])
        gn = np.array([90.0, 101.0, 112.0])
        tm = transition_matrix(BS07, gp, gn, 0.1)
        H = quantized_kernel(gp, gn, tm.entries, uoc(1e18), _params(BS07, gp, 10))
        assert np.array_equal(H, tm.entries)

    def test_rows_beyond_barrier_vanish(self):
        gp = np.array([95.0, 100.0, 120.0])
        gn = np.array([90.0, 101.0, 118.0])
        tm = transition_matrix(BS07, gp, gn, 0.1)
        H = quantized_kernel(gp, gn, tm.entries, uoc(115.0), _params(BS07, gp, 10))
        assert np.all(H[2, :] == 0.0)
        assert np.all(H[:, 2] == 0.0)  # targets above the barrier die too

    def test_single_cell_frozen_value(self):
        H = quantized_kernel([100.0], [100.0], np.array([[1.0]]), uoc(105.0), _params(BS07, [100.0], 10))
        assert H[0, 0] == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantized_kernel([100.0], [100.0], np.eye(3), uoc(105.0), _params(BS07, [100.0], 10))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            quantized_kernel([100.0], [101.0, 99.0], np.ones((1, 2)), uoc(105.0), _params(BS07, [100.0], 10))

    @pytest.mark.parametrize("barrier_type", [BarrierType.UP_AND_OUT, BarrierType.DOWN_AND_OUT], ids=["up", "down"])
    @pytest.mark.parametrize("case", ["straddle", "source_on_barrier", "zero_sigma"])
    def test_band_matches_the_bridge_cdfs_bit_for_bit(self, barrier_type, case):
        """The banded survival equals p times the full bridge CDF on hand-built blocks.

        With n = T = 1 and a source one unit inside the barrier at sigma = 1
        the exponent is e = -2 |y - L|, so the columns put e on both sides of
        -54 ln 2 = -37.43, exactly on the band edge -38 and at 0 (y == L).
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
        sigma = np.array([rows[i][1] for i in order])[:, None]
        p = np.random.default_rng(7).uniform(0.01, 1.0, size=(x.size, y.size))
        params = BridgeParams(1, 1.0, sigma)
        contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, L, 1.0)
        if barrier_type is BarrierType.UP_AND_OUT:
            expected = p * bridge_max_cdf(x[:, None], y[None, :], L, params)
        else:
            expected = p * (1 - bridge_min_cdf(x[:, None], y[None, :], L, params))
        H = quantized_kernel(x, y, p, contract, params)
        assert np.array_equal(H, expected)
        # the case exercises a skipped entry and one just inside -37.43 that is not p
        assert np.any((H == p) & (expected == p)) and np.any((H != p) & (H != 0.0))

    def test_leaves_p_unchanged(self, quant_pipeline):
        grid, mats = quant_pipeline(BS07, 10)
        for contract in (uoc(115.0), doc(95.0)):
            for k in (0, 5):
                p = mats[k].entries
                before = p.copy()
                H = quantized_kernel(grid.grids[k], grid.grids[k + 1], p, contract, _params(BS07, grid.grids[k], 10))
                assert np.array_equal(p, before) and H is not p


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
        kernels = list(_kernels(BS07, contract, grid, mats))
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

    def test_knocked_out_from_start_prices_zero(self, quant_grid):
        grid = quant_grid(BS07, 10)
        assert price_barrier(BS07, uoc(95.0), grid).price == 0.0
        assert price_barrier(BS07, uoc(100.0), grid).price == 0.0

    def test_checks_run_before_knock_out_at_x0(self, quant_grid):
        grid = quant_grid(BS07, 10)
        dead = uoc(95.0)
        with pytest.raises(ValueError, match="unknown cdf_mode"):
            price_barrier(BS07, dead, grid, cdf_mode="magic")
        with pytest.raises(ValueError, match="exact conditional law unavailable"):
            price_barrier(PCEV07, dead, quant_grid(PCEV07, 10), cdf_mode="exact")
        with pytest.raises(ValueError, match="dt must be positive"):
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
        pi, terminal = _survival_measure(BS07, uoc(115.0), grid, None)
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


@pytest.fixture(scope="module")
def small_pipeline():
    """(grid, full matrices) on the budget-200 quantizer at n=8, per model."""
    quantizer = brownian_product_quantizer(200, 1.0)
    cache = {}

    def build(model):
        if model not in cache:
            grid = quantize_price_process(model, quantizer, 8)
            cache[model] = (grid, transition_matrices(model, grid))
        return cache[model]

    return build


def _barriers(grid, barrier_type):
    """A barrier on a grid point of the live side, one at x0, and both far sides."""
    mid = grid.grids[grid.n_steps // 2]
    on_point = mid[2 * mid.size // 3] if barrier_type is BarrierType.UP_AND_OUT else mid[mid.size // 3]
    return [float(on_point), 100.0, 1e6, 1e-6]


@pytest.mark.parametrize("barrier_type,payoff_type", SIDES)
@pytest.mark.parametrize("model", [BS07, PCEV07], ids=["bs-exact", "pcev-euler"])
def test_live_block_matches_full_matrix_chain(small_pipeline, model, barrier_type, payoff_type):
    grid, mats = small_pipeline(model)
    for L in _barriers(grid, barrier_type):
        contract = BarrierContract(barrier_type, payoff_type, 100.0, L, 1.0)
        chain = _chain_price(model, contract, grid, mats)
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
def test_live_set_emptied_mid_horizon_prices_zero(small_pipeline, model, barrier_type, barrier, payoff_type):
    grid, mats = small_pipeline(model)
    contract = BarrierContract(barrier_type, payoff_type, 100.0, barrier, 1.0)
    live = [_live_range(points, contract) for points in grid.grids]
    assert live[1][0] < live[1][1] and live[4] == (0, 0)
    assert _chain_price(model, contract, grid, mats) == 0.0
    assert price_barrier(model, contract, grid).price == 0.0


BS_FROZEN = BlackScholes(r=0.15, sigma=0.0, x0=100.0)  # the path 100 e^(0.15 t) reaches 116.2


@functools.lru_cache(maxsize=None)
def _n80_grid(model):
    return quantize_price_process(model, brownian_product_quantizer(300, 1.0), 80)


@pytest.mark.parametrize(
    "model,cdf_mode,barrier_type,barrier",
    [
        (PCEV07, "euler", BarrierType.UP_AND_OUT, 115.0),
        (PCEV07, "euler", BarrierType.DOWN_AND_OUT, 90.0),
        (BS07, "exact", BarrierType.UP_AND_OUT, 115.0),
        (BS07, "exact", BarrierType.DOWN_AND_OUT, 90.0),
        (BS07, "euler", BarrierType.UP_AND_OUT, 110.0),
        (BS07, "euler", BarrierType.DOWN_AND_OUT, 95.0),
        (BS_FROZEN, "exact", BarrierType.UP_AND_OUT, 120.0),
        (BS_FROZEN, "exact", BarrierType.UP_AND_OUT, 110.0),
        (BS_FROZEN, "euler", BarrierType.DOWN_AND_OUT, 99.0),
    ],
    ids=["pcev-up", "pcev-down", "bs-up", "bs-down", "bs-euler-up", "bs-euler-down",
         "frozen-up", "frozen-knocked", "frozen-euler-down"],
)
def test_banded_prices_match_full_matrix_chain_at_n80(model, cdf_mode, barrier_type, barrier):
    """At n=80 a row's law spans about 57% of the cells on average, and 36% at the last dates.

    The share hardly depends on the budget (0.58 at budget 300, 0.56 at
    1000), so the small grid keeps the full-matrix chain cheap.
    """
    grid = _n80_grid(model)
    call = BarrierContract(barrier_type, PayoffType.CALL, 100.0, barrier, 1.0)
    pi = _chain_measure(model, call, grid, cdf_mode=cdf_mode)  # the measure does not depend on the payoff
    for contract in (call, dataclasses.replace(call, payoff_type=PayoffType.PUT)):
        chain = np.exp(-model.r) * float(pi @ contract.payoff(grid.grids[-1]))
        banded = price_barrier(model, contract, grid, cdf_mode).price
        if chain == 0.0:
            assert banded == 0.0
        else:
            assert banded == pytest.approx(chain, rel=1e-13, abs=0.0)
        if model is BS_FROZEN and barrier_type is BarrierType.UP_AND_OUT and barrier < 100.0 * math.exp(0.15):
            assert chain == 0.0  # the frozen path crosses the barrier


@pytest.mark.parametrize("sigma", [1e-300, 1e-30, 1e-16, 1e-14])
@pytest.mark.parametrize("cdf_mode", ["exact", "euler"])
def test_vanishing_spread_keeps_the_mass_above_the_cut(sigma, cdf_mode):
    """A spread below the rounding of the grid values defeats the upper cut's margin; the band widens instead."""
    model = BlackScholes(r=0.15, sigma=sigma, x0=100.0)
    grid = quantize_price_process(model, brownian_product_quantizer(200, 1.0), 10)
    for barrier_type, barrier in ((BarrierType.UP_AND_OUT, 120.0), (BarrierType.DOWN_AND_OUT, 90.0)):
        contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, barrier, 1.0)
        chain = _chain_price(model, contract, grid, cdf_mode=cdf_mode)
        assert chain > 10.0
        assert price_barrier(model, contract, grid, cdf_mode).price == pytest.approx(chain, rel=1e-13, abs=0.0)


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
