import math

import numpy as np
import pytest

from fqbarrier.models import (
    BlackScholes,
    PseudoCEV,
    conditional_cdf_euler,
    conditional_cdf_exact,
    model_from_dict,
    model_to_dict,
)
from tests.conftest import BS07, PCEV07

# frozen 50-digit evaluations
PCEV_DIFFUSION_AT_100 = 6.999650026247813
PCEV_DIFFUSION_PRIME_AT_100 = 0.03500524908137031
EXACT_CDF_AT_SPOT = 0.25252566906
EULER_CDF_AT_SPOT = 0.249002865868


class TestCoefficients:
    def test_drift(self):
        assert BS07.drift(100.0) == pytest.approx(15.0, rel=1e-15)
        assert PCEV07.drift(100.0) == pytest.approx(15.0, rel=1e-15)
        assert BlackScholes(r=0.0, sigma=0.2, x0=1.0).drift(42.0) == 0.0

    def test_diffusion(self):
        assert BS07.diffusion(100.0) == pytest.approx(7.0, rel=1e-15)
        assert PCEV07.diffusion(100.0) == pytest.approx(PCEV_DIFFUSION_AT_100, rel=1e-12)
        assert BS07.diffusion(0.0) == 0.0
        assert PCEV07.diffusion(0.0) == 0.0

    def test_diffusion_prime(self):
        x = np.array([1.0, 50.0, 100.0])
        assert np.allclose(BS07.diffusion_prime(x), 0.07)
        assert PCEV07.diffusion_prime(100.0) == pytest.approx(PCEV_DIFFUSION_PRIME_AT_100, rel=1e-12)
        assert PCEV07.diffusion_prime(0.0) == 0.0

    def test_diffusion_prime_matches_finite_differences(self):
        h = 1e-4
        for x in (5.0, 100.0, 400.0):
            fd = (PCEV07.diffusion(x + h) - PCEV07.diffusion(x - h)) / (2 * h)
            assert fd == pytest.approx(float(PCEV07.diffusion_prime(x)), rel=1e-6)

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
        assert conditional_cdf_exact(BS07, z, 100.0, 0.1) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert conditional_cdf_exact(BS07, 1e12, 100.0, 0.1) == pytest.approx(1.0, abs=1e-12)
        assert conditional_cdf_exact(BS07, 0.0, 100.0, 0.1) == 0.0
        assert conditional_cdf_exact(BS07, -5.0, 100.0, 0.1) == 0.0

    def test_frozen_value_at_spot(self):
        assert conditional_cdf_exact(BS07, 100.0, 100.0, 0.1) == pytest.approx(
            EXACT_CDF_AT_SPOT, abs=1e-9
        )

    def test_zero_vol_degenerates_to_indicator(self):
        flat = BlackScholes(r=0.15, sigma=0.0, x0=100.0)
        fwd = 100.0 * math.exp(0.15 * 0.1)
        assert conditional_cdf_exact(flat, fwd - 1e-9, 100.0, 0.1) == 0.0
        assert conditional_cdf_exact(flat, fwd + 1e-9, 100.0, 0.1) == 1.0

    def test_rejects_pcev(self):
        with pytest.raises(ValueError):
            conditional_cdf_exact(PCEV07, 100.0, 100.0, 0.1)


class TestEulerConditionalCdf:
    def test_median_at_drifted_mean(self):
        mean = 100.0 + 15.0 * 0.1
        assert conditional_cdf_euler(BS07, mean, 100.0, 0.1) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert conditional_cdf_euler(BS07, 1e9, 100.0, 0.1) == pytest.approx(1.0, abs=1e-12)
        assert conditional_cdf_euler(BS07, -1e9, 100.0, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_value_at_spot(self):
        assert conditional_cdf_euler(BS07, 100.0, 100.0, 0.1) == pytest.approx(
            EULER_CDF_AT_SPOT, abs=1e-9
        )

    def test_degenerate_diffusion(self):
        flat = BlackScholes(r=0.15, sigma=0.0, x0=100.0)
        mean = 100.0 + 15.0 * 0.1
        assert conditional_cdf_euler(flat, mean - 1e-9, 100.0, 0.1) == 0.0
        assert conditional_cdf_euler(flat, mean + 1e-9, 100.0, 0.1) == 1.0

    def test_works_for_pcev(self):
        v = conditional_cdf_euler(PCEV07, 100.0, 100.0, 0.05)
        assert 0.0 < float(v) < 1.0


class TestCdfShapeAndAgreement:
    def test_monotone_and_bounded(self):
        z = np.linspace(50.0, 180.0, 400)
        for cdf in (conditional_cdf_exact, conditional_cdf_euler):
            vals = cdf(BS07, z, 100.0, 0.1)
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_exact_and_euler_agree_as_dt_shrinks(self):
        z = np.linspace(80.0, 125.0, 300)

        def gap(dt):
            return np.max(
                np.abs(
                    conditional_cdf_exact(BS07, z, 100.0, dt) - conditional_cdf_euler(BS07, z, 100.0, dt)
                )
            )

        g1, g2 = gap(0.1), gap(0.05)
        assert g2 < 0.75 * g1


class TestConfigBlocks:
    def test_bs_roundtrip(self):
        block = {"model": "bs", "r": 0.15, "sigma": 0.07, "x0": 100}
        model = model_from_dict(block)
        assert model == BS07
        assert model_to_dict(model) == {"model": "bs", "r": 0.15, "sigma": 0.07, "x0": 100.0}

    def test_pcev_roundtrip(self):
        block = {"model": "pcev", "r": 0.15, "vartheta": 0.7, "delta": 0.5, "x0": 100}
        assert model_from_dict(block) == PCEV07

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_dict({"model": "heston"})
