import csv
import math
import time
import warnings

import numpy as np
import pytest

from fqbarrier.brownian import brownian_product_quantizer, build_product_quantizer
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.models import BlackScholes, PseudoCEV
from fqbarrier.price_grid import RK6_A, RK6_B, RK6_C, dump_grids, price_dates, quantize_price_process
from fqbarrier.quant_pricer import price_barrier_quant
from tests.conftest import BS07, GRID_TOL, PCEV07, PCEV10, finer_grid, grid_log_error


def _rk6_scalar(f, y0, t1, nsteps):
    h = t1 / nsteps
    y, t = y0, 0.0
    for _ in range(nsteps):
        k = np.zeros(7)
        for i in range(7):
            k[i] = f(t + RK6_C[i] * h, y + h * float(RK6_A[i, :i] @ k[:i]))
        y += h * float(RK6_B @ k)
        t += h
    return y


class TestRungeKuttaTableau:
    def test_consistency(self):
        assert RK6_B.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(RK6_A.sum(axis=1), RK6_C)

    def test_sixth_order_convergence(self):
        # y' = -2 t y^2, y(0) = 1 has solution 1 / (1 + t^2)
        f = lambda t, y: -2.0 * t * y * y
        errs = [abs(_rk6_scalar(f, 1.0, 2.0, n) - 0.2) for n in (20, 40, 80)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 5.7


class TestBlackScholesOracle:
    def test_zero_volatility_grows_exponentially(self):
        flat = BlackScholes(r=0.15, sigma=0.0, x0=100.0)
        q = build_product_quantizer([3, 2], horizon=1.0)
        g = quantize_price_process(flat, q, 8)
        for k in range(9):
            expected = 100.0 * math.exp(0.15 * g.dates[k])
            assert np.max(np.abs(g.values[k] - expected)) / expected < 1e-12

    def test_closed_form_solution_small_family(self):
        q = build_product_quantizer([3, 2], horizon=1.0)
        g = quantize_price_process(BS07, q, 5, substeps=4)
        for k in range(6):
            t = g.dates[k]
            exact = 100.0 * np.exp((0.15 - 0.07**2 / 2) * t + 0.07 * q.all_path_values(t))
            assert np.max(np.abs(g.values[k] - exact) / exact) < 1e-10

    def test_substep_halving_is_converged(self, bq966):
        g4 = quantize_price_process(BS07, bq966, 10, substeps=4)
        g2 = quantize_price_process(BS07, bq966, 10, substeps=2)
        rel = np.max(np.abs(g4.values[-1] - g2.values[-1]) / g4.values[-1])
        assert rel < 1e-9


@pytest.fixture(scope="module")
def grid(bq966):
    return quantize_price_process(BS07, bq966, 10)


class TestGridStructure:

    def test_initial_grid_is_spot(self, grid):
        assert np.all(grid.values[0] == 100.0)

    def test_grid_lengths(self, grid):
        assert grid.values.shape == (11, 966)

    def test_positive(self, grid):
        assert np.all(grid.values > 0.0)

    def test_values_are_in_path_order(self, grid, bq966):
        t = grid.dates[7]
        exact = 100.0 * np.exp((0.15 - 0.07**2 / 2) * t + 0.07 * bq966.all_path_values(t))
        assert np.max(np.abs(grid.values[7] - exact) / exact) < 1e-8

    def test_weighted_mean_tracks_forward_price(self, grid):
        for k in (3, 7, 10):
            mean = float(grid.path_weights @ grid.values[k])
            forward = 100.0 * math.exp(0.15 * grid.dates[k])
            assert abs(mean - forward) / forward < 0.02

    def test_invalid_steps(self, bq966):
        with pytest.raises(ValueError):
            quantize_price_process(BS07, bq966, 0)
        with pytest.raises(ValueError):
            quantize_price_process(BS07, bq966, 5, substeps=0)

    @pytest.mark.parametrize("n_steps", [40, 45])
    def test_stage_times_stay_inside_horizon(self, n_steps):
        # k dt + s h + h rounds one ulp past T = 1 at these step counts
        grid = quantize_price_process(BS07, brownian_product_quantizer(200, 1.0), n_steps, substeps=4)
        assert grid.values.shape[0] == n_steps + 1
        assert np.all(np.isfinite(grid.values))


class _ExplodingModel:
    """Superlinear drift b(x) = 1e3 x^2 whose solution blows past the float range."""

    x0 = 100.0

    def log_coefficients(self, y):
        with np.errstate(over="ignore"):
            return 1e3 * np.exp(y), 0.0


class _RunawayModel:
    """A constant drift of 1 in log x: every step is accepted, and x overflows after t = 705."""

    x0 = 100.0

    def log_coefficients(self, y):
        return 1.0, 0.0


class TestIntegrationFailures:
    def test_nonfinite_state_raises(self):
        q = build_product_quantizer([2], horizon=1.0)
        start = time.perf_counter()
        with pytest.raises(FloatingPointError, match="non-finite"):
            quantize_price_process(_ExplodingModel(), q, 4, substeps=1)
        assert time.perf_counter() - start < 1.0

    def test_exploding_field_passes_the_cap(self):
        # |df/dy| = |f| = 1e5 at x0 = 100: a substep would need h <= 2.5e-6
        q = build_product_quantizer([2], horizon=1.0)
        with pytest.raises(FloatingPointError, match="path 0 is too stiff or too fast to integrate at t=0: at 65536 "):
            quantize_price_process(_ExplodingModel(), q, 4, substeps=1)

    def test_overflow_raises_at_the_end_of_its_interval(self):
        q = build_product_quantizer([2], horizon=1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow raises, and warns nothing first
            with pytest.raises(FloatingPointError, match="path 0 became non-finite at t=750 "):
                quantize_price_process(_RunawayModel(), q, 4)


class TestDateStream:
    def test_stream_yields_the_grid_dates_in_order(self, bq966):
        grid = quantize_price_process(PCEV07, bq966, 10)
        dates = list(price_dates(PCEV07, bq966, 10))
        assert len(dates) == 11
        assert all(np.array_equal(x, row) for x, row in zip(dates, grid.values))
        assert len({id(x) for x in dates}) == 11  # a new array per date

    def test_invalid_arguments_raise_at_the_call(self, bq966):
        with pytest.raises(ValueError, match="n_steps must be >= 1"):
            price_dates(BS07, bq966, 0)
        with pytest.raises(ValueError, match="substeps must be >= 1"):
            price_dates(BS07, bq966, 5, substeps=0)

    def test_failure_raises_when_the_stream_reaches_it(self):
        # x overflows after t = 705: the dates 0, 250 and 500 come first
        stream = price_dates(_RunawayModel(), build_product_quantizer([2], horizon=1000.0), 4)
        assert next(stream).tolist() == [100.0] * 2
        assert np.isfinite(next(stream)).all() and np.isfinite(next(stream)).all()
        with pytest.raises(FloatingPointError, match="path 0 became non-finite at t=750 "):
            next(stream)


class _CountingModel:
    """Forwards ``log_coefficients`` to ``model`` and counts the calls."""

    def __init__(self, model):
        self.model, self.x0, self.calls = model, model.x0, 0

    def log_coefficients(self, y):
        self.calls += 1
        return self.model.log_coefficients(y)


# pseudo-CEV fields on which a fixed 4 substeps per interval is 9.4e-5 off,
# raises "non-finite" twice and is 100% off; the last is stiff for only part
# of its one interval
STIFF_MODELS = [
    (PseudoCEV(0.0, 5.0, 0.9, 1.0), 5.0, 20, 1000),
    (PseudoCEV(0.0, 20.0, 0.5, 1.0), 30.0, 2, 60),
    (PseudoCEV(0.0, 20.0, 0.05, 1.0), 30.0, 2, 60),
    (PseudoCEV(0.0, 12.7, 0.98, 1.0), 22.8, 25, 100),
    (PseudoCEV(-1.0, 20.0, 0.99, 1.0), 30.0, 1, 20),
]


class TestStiffnessControl:
    @pytest.mark.parametrize("model", [BS07, PCEV07, PCEV10], ids=["bs07", "pcev07", "pcev10"])
    @pytest.mark.parametrize("n_steps", [20, 80])
    def test_table_models_keep_the_starting_count(self, bq966, model, n_steps):
        counting = _CountingModel(model)
        quantize_price_process(counting, bq966, n_steps)
        # 7 stages and the stiffness estimate's one call per substep, 4 substeps per interval
        assert counting.calls == 8 * 4 * n_steps

    @pytest.mark.parametrize("model, maturity, n_steps, budget", STIFF_MODELS,
                             ids=["vartheta5", "vartheta20-delta0.5", "vartheta20-delta0.05", "vartheta12.7",
                                  "vartheta20-partly-stiff"])
    def test_stiff_fields_match_four_times_the_steps(self, model, maturity, n_steps, budget):
        q = brownian_product_quantizer(budget, maturity)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = quantize_price_process(model, q, n_steps)
        assert np.all(np.isfinite(grid.values))
        assert grid_log_error(grid, finer_grid(model, q, n_steps)) < GRID_TOL

    def test_partly_stiff_interval_refines_only_where_stiff(self):
        # only the stiff stretch of its one interval takes short substeps; refining all of it makes 131 096 calls
        model, maturity, n_steps, budget = STIFF_MODELS[-1]
        counting = _CountingModel(model)
        quantize_price_process(counting, brownian_product_quantizer(budget, maturity), n_steps)
        assert counting.calls <= 1000


class TestLogCoordinates:
    def test_black_scholes_oracle_long_horizon(self):
        model = BlackScholes(r=0.15, sigma=0.3, x0=100.0)
        q = brownian_product_quantizer(1000, 5.0)
        g = quantize_price_process(model, q, 20)
        worst = 0.0
        for k in range(21):
            exact = 100.0 * np.exp((0.15 - 0.3**2 / 2) * g.dates[k] + 0.3 * q.all_path_values(g.dates[k]))
            worst = max(worst, np.max(np.abs(g.values[k] - exact) / exact))
        assert worst < 5e-12

    @pytest.mark.parametrize(
        "r, vartheta, delta, x0, maturity, n_steps",
        [(0.0, 5.0, 0.9, 1.0, 5.0, 20), (-1.0, 3.0, 0.2, 0.1, 5.0, 10), (0.0, 20.0, 0.99, 1.0, 1.0, 20)],
    )
    def test_pcev_paths_that_crossed_zero_in_x_price(self, r, vartheta, delta, x0, maturity, n_steps):
        # an RK stage in x stepped below 0 here, where x^(d+1) is NaN
        contract = BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.PUT, x0, x0 / 2, maturity)
        price = price_barrier_quant(PseudoCEV(r, vartheta, delta, x0), contract, n_steps, 1000).price
        assert math.isfinite(price) and price >= 0.0


class TestDump:
    def test_csv_shape_and_values(self, tmp_path, bq966):
        q = build_product_quantizer([3, 2], horizon=1.0)
        g = quantize_price_process(BS07, q, 3)
        out = tmp_path / "grids.csv"
        dump_grids(g, out)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * 6
        row = rows[-1]
        assert int(row["k"]) == 3
        assert float(row["price"]) == np.sort(g.values[3])[5]
        # by rank within each date, each point with its own path's weight
        for k in range(4):
            order = np.argsort(g.values[k], kind="stable")
            date = rows[6 * k : 6 * k + 6]
            assert [float(r["price"]) for r in date] == g.values[k][order].tolist()
            assert [float(r["weight"]) for r in date] == g.path_weights[order].tolist()
