import math

import numpy as np
import pytest
from scipy.special import ndtr

from fqbarrier.cli import model_from_dict
from fqbarrier.models import (
    BlackScholes,
    PseudoCEV,
    one_step_law,
)
from tests.conftest import BS07, PCEV07, euler_law

# frozen 50-digit evaluations
PCEV_DIFFUSION_AT_100 = 6.999650026247813
PCEV_DIFFUSION_PRIME_AT_100 = 0.03500524908137031
EXACT_CDF_AT_SPOT = 0.25252566906
EULER_CDF_AT_SPOT = 0.249002865868


def exact_cdf(model, z, x, dt):
    """CDF of the exact one-step law from the single point ``x``, over ``z``."""
    return one_step_law(model, x, dt).cdf(z)[0].reshape(np.shape(z))


def euler_cdf(model, z, x, dt):
    """CDF of the one-step Euler law from the single point ``x``, over ``z``."""
    return euler_law(model, x, dt).cdf(z)[0].reshape(np.shape(z))


class TestCoefficients:
    def test_drift(self):
        assert BS07.drift(100.0) == pytest.approx(15.0, rel=1e-15, abs=0)
        assert PCEV07.drift(100.0) == pytest.approx(15.0, rel=1e-15, abs=0)
        assert BlackScholes(r=0.0, sigma=0.2, x0=1.0).drift(42.0) == 0.0

    def test_diffusion(self):
        assert BS07.diffusion(100.0) == pytest.approx(7.0, rel=1e-15, abs=0)
        assert PCEV07.diffusion(100.0) == pytest.approx(PCEV_DIFFUSION_AT_100, rel=1e-12, abs=0)
        assert BS07.diffusion(0.0) == 0.0
        assert PCEV07.diffusion(0.0) == 0.0

    def test_diffusion_is_zero_below_zero(self):
        # the CEV absorbing convention; x^(d+1) has no real value there
        assert PCEV07.diffusion(-1.0) == 0.0

    def test_log_coefficients(self):
        a, v = BS07.log_coefficients(np.log([1.0, 50.0, 100.0]))
        assert a == 0.15 - 0.5 * 0.07**2 and v == 0.07
        a, v = PCEV07.log_coefficients(math.log(100.0))
        s, ds = PCEV_DIFFUSION_AT_100, PCEV_DIFFUSION_PRIME_AT_100
        assert v == pytest.approx(s / 100.0, rel=1e-12, abs=0)
        assert a == pytest.approx(0.15 - 0.5 * s * ds / 100.0, rel=1e-12, abs=0)

    def test_log_coefficients_match_finite_differences(self):
        h = 1e-4
        for x in (5.0, 100.0, 400.0):
            s = float(PCEV07.diffusion(x))
            ds = (PCEV07.diffusion(x + h) - PCEV07.diffusion(x - h)) / (2 * h)
            a, v = PCEV07.log_coefficients(math.log(x))
            assert v == pytest.approx(s / x, rel=1e-12)
            assert 0.15 - a == pytest.approx(0.5 * s * ds / x, rel=1e-6)

    def test_log_coefficients_finite_at_extremes(self):
        a, v = PCEV07.log_coefficients(np.log([1e-6, 1e6]))
        assert np.all(np.isfinite(a)) and np.all(np.isfinite(v))

    def test_pcev_close_to_bs_at_calibration_point(self):
        # vartheta = sigma * x0^(1-delta) puts the local vol near sigma at x0
        rel = abs(float(PCEV07.diffusion(100.0)) - 7.0) / 7.0
        assert rel < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            BlackScholes(r=0.1, sigma=-0.1, x0=100.0)
        with pytest.raises(ValueError):
            BlackScholes(r=0.1, sigma=0.1, x0=0.0)
        with pytest.raises(ValueError):
            PseudoCEV(r=0.1, vartheta=0.0, delta=0.5, x0=100.0)
        with pytest.raises(ValueError):
            PseudoCEV(r=0.1, vartheta=0.7, delta=1.0, x0=100.0)

    @pytest.mark.parametrize("field", ["r", "sigma", "x0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_black_scholes_rejects_non_finite(self, field, bad):
        params = {"r": 0.1, "sigma": 0.1, "x0": 100.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            BlackScholes(**params)

    @pytest.mark.parametrize("field", ["r", "vartheta", "delta", "x0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pseudo_cev_rejects_non_finite(self, field, bad):
        params = {"r": 0.1, "vartheta": 0.7, "delta": 0.5, "x0": 100.0, field: bad}
        with pytest.raises(ValueError, match="finite"):
            PseudoCEV(**params)


class TestExactConditionalCdf:
    def test_median(self):
        z = 100.0 * math.exp((0.15 - 0.07**2 / 2) * 0.1)
        assert exact_cdf(BS07, z, 100.0, 0.1) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert exact_cdf(BS07, 1e12, 100.0, 0.1) == pytest.approx(1.0, abs=1e-12)
        assert exact_cdf(BS07, 0.0, 100.0, 0.1) == 0.0
        assert exact_cdf(BS07, -5.0, 100.0, 0.1) == 0.0

    def test_frozen_value_at_spot(self):
        assert exact_cdf(BS07, 100.0, 100.0, 0.1) == pytest.approx(
            EXACT_CDF_AT_SPOT, abs=1e-9
        )

    def test_zero_vol_degenerates_to_indicator(self):
        flat = BlackScholes(r=0.15, sigma=0.0, x0=100.0)
        fwd = 100.0 * math.exp(0.15 * 0.1)
        assert exact_cdf(flat, fwd - 1e-9, 100.0, 0.1) == 0.0
        assert exact_cdf(flat, fwd + 1e-9, 100.0, 0.1) == 1.0


class TestEulerConditionalCdf:
    def test_median_at_drifted_mean(self):
        mean = 100.0 + 15.0 * 0.1
        assert euler_cdf(BS07, mean, 100.0, 0.1) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert euler_cdf(BS07, 1e9, 100.0, 0.1) == pytest.approx(1.0, abs=1e-12)
        assert euler_cdf(BS07, -1e9, 100.0, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value_at_spot(self):
        assert euler_cdf(BS07, 100.0, 100.0, 0.1) == pytest.approx(
            EULER_CDF_AT_SPOT, abs=1e-9
        )

    def test_degenerate_diffusion(self):
        flat = BlackScholes(r=0.15, sigma=0.0, x0=100.0)
        mean = 100.0 + 15.0 * 0.1
        assert euler_cdf(flat, mean - 1e-9, 100.0, 0.1) == 0.0
        assert euler_cdf(flat, mean + 1e-9, 100.0, 0.1) == 1.0

    def test_works_for_pcev(self):
        v = euler_cdf(PCEV07, 100.0, 100.0, 0.05)
        assert 0.0 < float(v) < 1.0


class TestCdfShapeAndAgreement:
    def test_monotone_and_bounded(self):
        z = np.linspace(50.0, 180.0, 400)
        for cdf in (exact_cdf, euler_cdf):
            vals = cdf(BS07, z, 100.0, 0.1)
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_exact_and_euler_agree_as_dt_shrinks(self):
        z = np.linspace(80.0, 125.0, 300)

        def gap(dt):
            return np.max(
                np.abs(
                    exact_cdf(BS07, z, 100.0, dt) - euler_cdf(BS07, z, 100.0, dt)
                )
            )

        g1, g2 = gap(0.1), gap(0.05)
        assert g2 < 0.75 * g1


LAWS = [(BS07, one_step_law), (BS07, euler_law), (PCEV07, one_step_law)]


class TestOneStepLaw:
    def test_model_picks_the_law(self):
        x, dt = [50.0, 100.0, 180.0], 0.05
        exact, euler = one_step_law(BS07, x, dt), one_step_law(PCEV07, x, dt)
        assert exact.log and not euler.log
        assert np.array_equal(exact.origin, np.log(x)) and exact.shift == (0.15 - 0.5 * 0.07**2) * dt
        helper = euler_law(PCEV07, x, dt)
        assert helper.log == euler.log and helper.shift == euler.shift == 0.0
        assert np.array_equal(helper.origin, euler.origin) and np.array_equal(helper.sd, euler.sd)

    @pytest.mark.parametrize("model,law_of", LAWS, ids=["bs-exact", "bs-euler", "pcev-euler"])
    def test_quantile_round_trip(self, model, law_of):
        scores = np.linspace(-8.0, 8.0, 33)
        law = law_of(model, [50.0, 100.0, 180.0], 0.05)
        cuts = law.quantile(scores[:, None])
        for i in range(3):
            assert np.max(np.abs(law.cdf(cuts[:, i], slice(i, i + 1))[0] - ndtr(scores))) < 1e-12

    @pytest.mark.parametrize("law_of", [one_step_law, euler_law], ids=["exact", "euler"])
    def test_quantile_of_a_point_law_is_its_point(self, law_of):
        """A sigma = 0 source: every score cuts at the point, where the CDF steps from 0 to 1."""
        scores = np.linspace(-8.0, 8.0, 33)
        law = law_of(BlackScholes(0.15, 0.0, 100.0), [50.0, 100.0, 180.0], 0.05)
        cuts = law.quantile(scores[:, None])
        for i in range(3):
            assert np.all(cuts[:, i] == cuts[0, i])
            assert law.cdf(cuts[:, i], slice(i, i + 1)).tolist() == [[1.0] * 33]
            assert law.cdf(np.nextafter(cuts[0, i], 0.0), slice(i, i + 1)).tolist() == [[0.0]]

    def test_cdf_arguments_round_as_the_closed_forms(self):
        x, z, dt = np.array([90.0, 100.0, 111.0]), np.linspace(80.0, 125.0, 91), 0.05
        exact = ndtr(((np.log(z) - np.log(x)[:, None]) - (0.15 - 0.5 * 0.07**2) * dt) / (0.07 * math.sqrt(dt)))
        assert np.array_equal(one_step_law(BS07, x, dt).cdf(z), exact)
        for model, law_of in ((BS07, euler_law), (PCEV07, one_step_law)):
            mean, sd = x + model.drift(x) * dt, model.diffusion(x) * math.sqrt(dt)
            euler = ndtr((z - mean[:, None]) / sd[:, None])
            assert np.array_equal(law_of(model, x, dt).cdf(z), euler)

    @pytest.mark.parametrize("dt", [0.0, -0.1, math.nan])
    def test_rejects_nonpositive_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            one_step_law(BS07, 100.0, dt)


class TestConfigBlocks:
    def test_bs_roundtrip(self):
        block = {"model": "bs", "r": 0.15, "sigma": 0.07, "x0": 100}
        assert model_from_dict(block) == BS07

    def test_pcev_roundtrip(self):
        block = {"model": "pcev", "r": 0.15, "vartheta": 0.7, "delta": 0.5, "x0": 100}
        assert model_from_dict(block) == PCEV07

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_dict({"model": "heston"})

    def test_key_of_the_other_kind_fails(self):
        block = {"model": "bs", "r": 0.15, "sigma": 0.07, "x0": 100, "vartheta": 5.0}
        with pytest.raises(ValueError, match=r"^unknown model key\(s\) 'vartheta'; accepted: model, r, sigma, x0$"):
            model_from_dict(block)

    def test_missing_key_is_named(self):
        block = {"model": "pcev", "r": 0.15, "vartheta": 0.7, "x0": 100}
        message = r"^missing model key\(s\) 'delta'; accepted: model, r, vartheta, delta, x0$"
        with pytest.raises(ValueError, match=message):
            model_from_dict(block)
