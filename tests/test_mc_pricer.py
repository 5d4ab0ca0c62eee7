import math

import numpy as np
import pytest

from fqbarrier.closed_form import barrier_price
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.mc_pricer import (
    Estimator,
    McConfig,
    _path_draws,
    estimator_variance_comparison,
    euler_path,
    rbb_price,
    rbb_price_levels,
)
from tests.conftest import BS07


def uoc(barrier, strike=100.0):
    return BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def docall(barrier, strike=100.0):
    return BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


class TestEulerPath:
    def test_zero_noise_compounds_drift(self):
        path = euler_path(BS07, 4, 1.0, np.zeros(4))
        expected = [100.0 * (1.0 + 0.15 / 4) ** k for k in range(5)]
        assert path == pytest.approx(expected, rel=1e-14)

    def test_zero_vol_ignores_noise(self):
        from fqbarrier.models import BlackScholes

        flat = BlackScholes(r=0.15, sigma=0.0, x0=100.0)
        path = euler_path(flat, 4, 1.0, np.array([3.0, -2.0, 1.0, 0.5]))
        expected = [100.0 * (1.0 + 0.15 / 4) ** k for k in range(5)]
        assert path == pytest.approx(expected, rel=1e-14)

    def test_single_step_by_hand(self):
        path = euler_path(BS07, 1, 1.0, np.array([1.0]))
        assert path.tolist() == [100.0, 122.0]

    def test_vectorized_over_paths(self):
        z = np.zeros((7, 3))
        paths = euler_path(BS07, 3, 1.0, z)
        assert paths.shape == (7, 4)
        assert np.all(paths[:, -1] == paths[0, -1])

    def test_wrong_draw_count(self):
        with pytest.raises(ValueError):
            euler_path(BS07, 3, 1.0, np.zeros(4))


class TestRandomStream:
    def test_draws_are_block_independent(self):
        whole_z, whole_v = _path_draws(99, 0, 10, 6)
        a_z, a_v = _path_draws(99, 0, 4, 6)
        b_z, b_v = _path_draws(99, 4, 6, 6)
        assert np.array_equal(whole_z, np.vstack([a_z, b_z]))
        assert np.array_equal(whole_v, np.vstack([a_v, b_v]))

    def test_uniforms_strictly_inside_unit_interval(self):
        _, v = _path_draws(1, 0, 1000, 8)
        assert np.all((v > 0.0) & (v < 1.0))


class TestRbbPrice:
    def test_reproducible(self):
        cfg = McConfig(n_steps=10, n_paths=20_000, seed=7)
        a = rbb_price(BS07, uoc(120.0), cfg)
        b = rbb_price(BS07, uoc(120.0), cfg)
        assert a.price == b.price
        assert a.sample_variance == b.sample_variance

    def test_barrier_below_strike_prices_zero(self):
        cfg = McConfig(n_steps=10, n_paths=5_000, seed=3)
        res = rbb_price(BS07, uoc(95.0), cfg)
        assert res.price == 0.0
        assert res.sample_variance == 0.0

    def test_std_error_consistent_with_variance(self):
        cfg = McConfig(n_steps=10, n_paths=50_000, seed=11)
        res = rbb_price(BS07, uoc(120.0), cfg)
        assert res.std_error == pytest.approx(math.sqrt(res.sample_variance / 50_000), rel=1e-12)

    def test_levels_share_paths_and_are_monotone(self):
        cfg = McConfig(n_steps=10, n_paths=50_000, seed=13)
        levels = [105.0, 110.0, 115.0, 120.0, 130.0]
        results = rbb_price_levels(BS07, uoc(120.0), levels, cfg)
        prices = [r.price for r in results]
        assert all(a <= b for a, b in zip(prices, prices[1:]))
        single = rbb_price(BS07, uoc(115.0), cfg)
        assert single.price == results[2].price

    def test_far_barrier_estimators_agree_with_plain_payoff(self):
        n, m, seed = 10, 40_000, 17
        contract = uoc(1e12)
        ind = rbb_price(BS07, contract, McConfig(n, m, seed, Estimator.INDICATOR))
        cond = rbb_price(BS07, contract, McConfig(n, m, seed, Estimator.CONDITIONAL_PRODUCT))
        z, _ = _path_draws(seed, 0, m, n)
        terminal = euler_path(BS07, n, 1.0, z)[:, -1]
        plain = math.exp(-0.15) * float(np.mean(np.maximum(terminal - 100.0, 0.0)))
        assert ind.price == pytest.approx(plain, rel=1e-12)
        assert cond.price == pytest.approx(plain, rel=1e-12)

    def test_matches_closed_form_at_fine_discretization(self):
        cfg = McConfig(n_steps=100, n_paths=200_000, seed=23)
        res = rbb_price(BS07, uoc(115.0), cfg)
        closed = barrier_price(
            100.0, 100.0, 115.0, 1.0, 0.15, 0.07, BarrierType.UP_AND_OUT, PayoffType.CALL
        )
        assert abs(res.price - closed) <= 3.0 * res.std_error + 0.02

    def test_down_and_out_matches_closed_form(self):
        closed = barrier_price(
            100.0, 100.0, 90.0, 1.0, 0.15, 0.07, BarrierType.DOWN_AND_OUT, PayoffType.CALL
        )
        for estimator in Estimator:
            cfg = McConfig(n_steps=100, n_paths=200_000, seed=29, estimator=estimator)
            res = rbb_price(BS07, docall(90.0), cfg)
            assert abs(res.price - closed) <= 3.0 * res.std_error + 0.02

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_steps=0, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            McConfig(n_steps=10, n_paths=0, seed=1)


class TestVarianceReduction:
    def test_conditional_variance_below_indicator(self):
        cfg = McConfig(n_steps=20, n_paths=20_000, seed=31)
        var_ind, var_cond = estimator_variance_comparison(BS07, uoc(120.0), cfg)
        assert var_cond < var_ind

    def test_degenerate_case_both_zero(self):
        cfg = McConfig(n_steps=10, n_paths=5_000, seed=37)
        var_ind, var_cond = estimator_variance_comparison(BS07, uoc(95.0), cfg)
        assert var_ind == 0.0 and var_cond == 0.0
