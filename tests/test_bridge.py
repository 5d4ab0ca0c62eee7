import math

import numpy as np
import pytest
from scipy.stats import kstest

from fqbarrier.bridge import bridge_extremum, no_crossing
from tests.conftest import bridge_max_cdf, bridge_min_cdf

BASE = (10, 1.0, 7.0)  # n, T, sigma(x)


class TestMaxCdf:
    def test_zero_at_endpoint_max(self):
        assert bridge_max_cdf(100.0, 103.0, 103.0, *BASE) == 0.0
        assert bridge_max_cdf(100.0, 103.0, 102.0, *BASE) == 0.0

    def test_tends_to_one(self):
        assert bridge_max_cdf(100.0, 100.0, 1e6, *BASE) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        got = bridge_max_cdf(100.0, 100.0, 105.0, *BASE)
        assert got == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-14)

    def test_monotone_in_u(self):
        u = np.linspace(95.0, 130.0, 500)
        vals = bridge_max_cdf(100.0, 104.0, u, *BASE)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_degenerate_sigma(self):
        p0 = (10, 1.0, 0.0)
        assert bridge_max_cdf(100.0, 104.0, 103.0, *p0) == 0.0
        assert bridge_max_cdf(100.0, 104.0, 104.0, *p0) == 1.0

    def test_left_endpoint_sigma_breaks_symmetry(self):
        # swapping the endpoints swaps the sigma evaluation point
        pa = (10, 1.0, 5.0)
        pb = (10, 1.0, 9.0)
        assert bridge_max_cdf(90.0, 110.0, 112.0, *pa) != bridge_max_cdf(110.0, 90.0, 112.0, *pb)


class TestMinCdf:
    def test_one_at_endpoint_min(self):
        assert bridge_min_cdf(100.0, 103.0, 100.0, *BASE) == 1.0
        assert bridge_min_cdf(100.0, 103.0, 101.0, *BASE) == 1.0

    def test_tends_to_zero(self):
        assert bridge_min_cdf(100.0, 100.0, -1e6, *BASE) == pytest.approx(0.0, abs=1e-15)

    def test_survival_mirrors_max_example(self):
        surv = 1.0 - bridge_min_cdf(100.0, 100.0, 95.0, *BASE)
        assert surv == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-14)

    def test_monotone_in_u(self):
        u = np.linspace(70.0, 105.0, 500)
        vals = bridge_min_cdf(100.0, 104.0, u, *BASE)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_degenerate_sigma(self):
        p0 = (10, 1.0, 0.0)
        assert bridge_min_cdf(100.0, 104.0, 99.0, *p0) == 0.0
        assert bridge_min_cdf(100.0, 104.0, 100.0, *p0) == 1.0  # a segment that touches u has reached it
        assert bridge_min_cdf(104.0, 100.0, 100.0, *p0) == 1.0
        assert bridge_min_cdf(100.0, 104.0, 101.0, *p0) == 1.0


# sigma(x) = 0 segments (x, y) and their factor by hand: u = 104 up-and-out, u = 100 down-and-out
FROZEN = {
    True: [((100.0, 103.0), 1.0), ((100.0, 104.0), 1.0), ((104.0, 100.0), 1.0), ((104.0, 104.0), 1.0),
           ((100.0, 105.0), 0.0)],
    False: [((101.0, 103.0), 1.0), ((100.0, 103.0), 0.0), ((103.0, 100.0), 0.0), ((100.0, 100.0), 0.0),
            ((103.0, 99.0), 0.0)],
}


class TestNoCrossing:
    """The survival factor on both sides of the barrier, by hand."""

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_frozen_value(self, up):
        # e = -2 * 10 * 5 * 5 / 49 on either side
        got = no_crossing(100.0, 100.0, 105.0 if up else 95.0, *BASE, up)
        assert got == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-14)

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_zero_beyond_the_barrier_and_from_it(self, up):
        s = 1.0 if up else -1.0
        assert no_crossing(100.0, 100.0 + 6.0 * s, 100.0 + 5.0 * s, *BASE, up) == 0.0
        assert no_crossing(100.0, 100.0 + 1e-9 * s, 100.0, *BASE, up) == 0.0
        assert no_crossing(100.0, 100.0 - 3.0 * s, 100.0, *BASE, up) == 0.0  # x on the barrier

    @pytest.mark.parametrize("sigma", [0.0, 1e-170], ids=["sigma0", "sigma-squared-underflows"])
    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_zero_sigma_segment_rule(self, up, sigma):
        """A frozen segment survives where u >= max(x, y) up-and-out, where u < min(x, y) down-and-out.

        So touching the barrier survives up-and-out but not down-and-out.
        At sigma = 1e-170 sigma^2 underflows to 0, and the segments that
        touch u would give 0/0 without the rule.
        """
        u = 104.0 if up else 100.0
        ends, want = zip(*FROZEN[up])
        x, y = np.array(ends).T
        p0 = (10, 1.0, sigma)
        assert no_crossing(x, y, u, *p0, up).tolist() == list(want)
        for (a, b), f in FROZEN[up]:
            assert no_crossing(a, b, u, *p0, up) == f
        # the CDFs on those segments
        cdf = bridge_max_cdf(x, y, u, *p0) if up else 1.0 - bridge_min_cdf(x, y, u, *p0)
        assert cdf.tolist() == list(want)

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_zero_sigma_rows_among_others_write_into_out(self, up):
        u = 104.0 if up else 100.0
        x = np.array([[100.0 if up else 104.0], [u], [100.0 if up else 104.0]])
        y = np.array([u, 102.0])
        sigma = np.array([[0.0], [0.0], [7.0]])
        out = np.full((3, 2), np.nan)
        got = no_crossing(x, y, u, 10, 1.0, sigma, up, out=out)
        assert got is out
        touch = 1.0 if up else 0.0
        assert out[:2].tolist() == [[touch, 1.0], [touch, touch]]
        assert out[2].tolist() == [0.0, no_crossing(x[2, 0], 102.0, u, *BASE, up)]

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_exponent_clamp_keeps_every_factor(self, up):
        """With n = T = sigma = 1 and u = 0 the exponent is e = -2 x y, so x = 1 and y = 19, 360, 400, inf
        (mirrored for ``up``) put e at -38, in exp's subnormal range, below it and at -inf: each factor is
        exactly 1.0.  e = -37 stays above the clamp, and a NaN end still gives NaN."""
        s = -1.0 if up else 1.0
        p1 = (1, 1.0, 1.0)
        for far in (19.0, 360.0, 400.0, np.inf):
            assert no_crossing(s, s * far, 0.0, *p1, up) == 1.0
        assert no_crossing(s, s * np.array([19.0, 360.0, 400.0, np.inf]), 0.0, *p1, up).tolist() == [1.0] * 4
        assert no_crossing(s, s * 18.5, 0.0, *p1, up) == 1.0 - math.exp(-37.0) < 1.0
        assert np.isnan(no_crossing(s, np.nan, 0.0, *p1, up))


class TestInverses:
    """``bridge_extremum`` inverts the bridge laws: log(1 - w) for the maximum, log(w) for the minimum."""

    def test_max_roundtrip_random(self, rng):
        for _ in range(200):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            z = bridge_extremum(x, y, math.log1p(-w), *BASE, up=True)
            assert z >= max(x, y)
            assert bridge_max_cdf(x, y, z, *BASE) == pytest.approx(w, abs=1e-12)

    def test_min_roundtrip_random(self, rng):
        for _ in range(200):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            z = bridge_extremum(x, y, math.log(w), *BASE, up=False)
            assert z <= min(x, y)
            assert bridge_min_cdf(x, y, z, *BASE) == pytest.approx(w, abs=1e-12)

    def test_roundtrip_harsh_parameters(self, rng):
        # low sigma makes the exponent steep in z, so rounding in the
        # quantile amplifies; allow the conditioning its due
        for _ in range(200):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            p = int(rng.integers(1, 40)), float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.5, 20.0))
            zmax = bridge_extremum(x, y, math.log1p(-w), *p, up=True)
            zmin = bridge_extremum(x, y, math.log(w), *p, up=False)
            assert bridge_max_cdf(x, y, zmax, *p) == pytest.approx(w, abs=1e-9)
            assert bridge_min_cdf(x, y, zmin, *p) == pytest.approx(w, abs=1e-9)

    def test_frozen_quantiles(self):
        w = -math.expm1(-500.0 / 49.0)
        assert bridge_extremum(100.0, 100.0, math.log1p(-w), *BASE, up=True) == pytest.approx(105.0, abs=1e-9)
        v = math.exp(-500.0 / 49.0)
        assert bridge_extremum(100.0, 100.0, math.log(v), *BASE, up=False) == pytest.approx(95.0, abs=1e-9)

    def test_small_probability_limit(self):
        z = bridge_extremum(100.0, 104.0, math.log1p(-1e-15), *BASE, up=True)
        assert z == pytest.approx(104.0, abs=1e-6)

    def test_reflection_identity(self, rng):
        for _ in range(50):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            lhs = bridge_extremum(x, y, math.log(w), *BASE, up=False)
            rhs = -bridge_extremum(-x, -y, math.log1p(-(1.0 - w)), *BASE, up=True)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.0, 1e-170], ids=["sigma0", "sigma-squared-underflows"])
    def test_zero_sigma_returns_endpoint_extreme(self, sigma):
        """An Euler path whose diffusion vanishes has a flat bridge: its extreme is max(x, y) or min(x, y) exactly.

        On the last segment 0.5 (x + y + |x - y|) is one ulp above max(x, y),
        and on the one before 0.5 (x + y - |x - y|) is one ulp below min(x, y).
        """
        p0 = (10, 1.0, np.full(5, sigma))
        x = np.array([100.0, 104.0, 97.5, 112.550881, 106.09])
        y = np.array([104.0, 100.0, 97.5, 109.2727, 109.2727])
        log_v = np.log([1e-16, 0.5, 1.0, 0.5, 0.5])
        assert bridge_extremum(x, y, log_v, *p0, up=True).tolist() == np.maximum(x, y).tolist()
        assert bridge_extremum(x, y, log_v, *p0, up=False).tolist() == np.minimum(x, y).tolist()
        assert bridge_extremum(106.09, 109.2727, -1.0, 10, 1.0, sigma, up=True) == 109.2727


class TestSimulationConsistency:
    def test_max_law_kolmogorov_smirnov(self):
        rng = np.random.default_rng(2025)
        x, y = 100.0, 102.0
        w = rng.uniform(1e-12, 1.0 - 1e-12, size=100_000)
        draws = bridge_extremum(x, y, np.log1p(-w), *BASE, up=True)
        stat = kstest(draws, lambda u: bridge_max_cdf(x, y, u, *BASE)).statistic
        assert stat < 0.01

    def test_min_law_kolmogorov_smirnov(self):
        rng = np.random.default_rng(2026)
        x, y = 100.0, 97.0
        w = rng.uniform(1e-12, 1.0 - 1e-12, size=100_000)
        draws = bridge_extremum(x, y, np.log(w), *BASE, up=False)
        stat = kstest(draws, lambda u: bridge_min_cdf(x, y, u, *BASE)).statistic
        assert stat < 0.01
