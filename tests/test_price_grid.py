import csv
import math

import numpy as np
import pytest

from fqbarrier.brownian import brownian_product_quantizer, build_product_quantizer
from fqbarrier.models import BlackScholes
from fqbarrier.price_grid import RK6_A, RK6_B, RK6_C, dump_grids, quantize_price_process
from tests.conftest import BS07


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
            assert np.max(np.abs(g.grids[k] - expected)) / expected < 1e-12

    def test_closed_form_solution_small_family(self):
        q = build_product_quantizer([3, 2], horizon=1.0)
        g = quantize_price_process(BS07, q, 5, substeps=4)
        for k in range(6):
            t = g.dates[k]
            exact = 100.0 * np.exp((0.15 - 0.07**2 / 2) * t + 0.07 * q.all_path_values(t))
            got = g.grids[k][g.permutations[k]]
            assert np.max(np.abs(got - exact) / exact) < 1e-10

    def test_substep_halving_is_converged(self, bq966):
        g4 = quantize_price_process(BS07, bq966, 10, substeps=4)
        g2 = quantize_price_process(BS07, bq966, 10, substeps=2)
        rel = np.max(np.abs(g4.grids[-1] - g2.grids[-1]) / g4.grids[-1])
        assert rel < 1e-9


@pytest.fixture(scope="module")
def grid(bq966):
    return quantize_price_process(BS07, bq966, 10)


class TestGridStructure:

    def test_initial_grid_is_spot(self, grid):
        assert np.all(grid.grids[0] == 100.0)

    def test_grid_lengths(self, grid):
        for k in range(11):
            assert grid.grids[k].shape == (966,)

    def test_sorted_positive(self, grid):
        for k in range(11):
            g = grid.grids[k]
            assert np.all(g > 0.0)
            assert np.all(np.diff(g) >= 0.0)

    def test_permutations_recover_path_order(self, grid, bq966):
        t = grid.dates[7]
        exact = 100.0 * np.exp((0.15 - 0.07**2 / 2) * t + 0.07 * bq966.all_path_values(t))
        assert np.max(np.abs(grid.grids[7][grid.permutations[7]] - exact) / exact) < 1e-8

    def test_weighted_mean_tracks_forward_price(self, grid):
        for k in (3, 7, 10):
            mean = float(grid.path_weights @ grid.grids[k][grid.permutations[k]])
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
        assert grid.grids.shape[0] == n_steps + 1
        assert np.all(np.isfinite(grid.grids))


class _PlungingModel:
    """Toy coefficients driving every path negative in a few steps."""

    x0 = 1.0

    def drift(self, x):
        return np.full_like(np.asarray(x, dtype=float), -50.0)

    def diffusion(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def diffusion_prime(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class _ExplodingModel:
    """Superlinear drift whose solution blows past the float range."""

    x0 = 100.0

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            return 1e3 * x * x

    def diffusion(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def diffusion_prime(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class TestIntegrationFailures:
    def test_nonpositive_state_raises(self):
        q = build_product_quantizer([2], horizon=1.0)
        with pytest.raises(FloatingPointError, match="nonpositive"):
            quantize_price_process(_PlungingModel(), q, 4, substeps=1)

    def test_nonfinite_state_raises(self):
        q = build_product_quantizer([2], horizon=1.0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            quantize_price_process(_ExplodingModel(), q, 4, substeps=1)


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
        assert float(row["price"]) == g.grids[3][5]
