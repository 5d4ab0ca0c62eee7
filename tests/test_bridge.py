import math

import numpy as np
import pytest
from scipy.stats import kstest

from fqbarrier.bridge import BridgeParams, bridge_extremum, bridge_max_cdf, bridge_min_cdf, no_crossing

P_BASE = BridgeParams(n_steps=10, horizon=1.0, sigma_x=7.0)


class TestMaxCdf:
    def test_zero_at_endpoint_max(self):
        assert bridge_max_cdf(100.0, 103.0, 103.0, P_BASE) == 0.0
        assert bridge_max_cdf(100.0, 103.0, 102.0, P_BASE) == 0.0

    def test_tends_to_one(self):
        assert bridge_max_cdf(100.0, 100.0, 1e6, P_BASE) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_value(self):
        got = bridge_max_cdf(100.0, 100.0, 105.0, P_BASE)
        assert got == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-14)

    def test_monotone_in_u(self):
        u = np.linspace(95.0, 130.0, 500)
        vals = bridge_max_cdf(100.0, 104.0, u, P_BASE)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_degenerate_sigma(self):
        p0 = BridgeParams(10, 1.0, 0.0)
        assert bridge_max_cdf(100.0, 104.0, 103.0, p0) == 0.0
        assert bridge_max_cdf(100.0, 104.0, 104.0, p0) == 1.0

    def test_left_endpoint_sigma_breaks_symmetry(self):
        # swapping the endpoints swaps the sigma evaluation point
        pa = BridgeParams(10, 1.0, 5.0)
        pb = BridgeParams(10, 1.0, 9.0)
        assert bridge_max_cdf(90.0, 110.0, 112.0, pa) != bridge_max_cdf(110.0, 90.0, 112.0, pb)


class TestMinCdf:
    def test_one_at_endpoint_min(self):
        assert bridge_min_cdf(100.0, 103.0, 100.0, P_BASE) == 1.0
        assert bridge_min_cdf(100.0, 103.0, 101.0, P_BASE) == 1.0

    def test_tends_to_zero(self):
        assert bridge_min_cdf(100.0, 100.0, -1e6, P_BASE) == pytest.approx(0.0, abs=1e-15)

    def test_survival_mirrors_max_example(self):
        surv = 1.0 - bridge_min_cdf(100.0, 100.0, 95.0, P_BASE)
        assert surv == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-14)

    def test_monotone_in_u(self):
        u = np.linspace(70.0, 105.0, 500)
        vals = bridge_min_cdf(100.0, 104.0, u, P_BASE)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_degenerate_sigma(self):
        p0 = BridgeParams(10, 1.0, 0.0)
        assert bridge_min_cdf(100.0, 104.0, 99.0, p0) == 0.0
        assert bridge_min_cdf(100.0, 104.0, 100.0, p0) == 1.0  # a segment that touches u has reached it
        assert bridge_min_cdf(104.0, 100.0, 100.0, p0) == 1.0
        assert bridge_min_cdf(100.0, 104.0, 101.0, p0) == 1.0


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
        got = no_crossing(100.0, 100.0, 105.0 if up else 95.0, P_BASE, up)
        assert got == pytest.approx(-math.expm1(-500.0 / 49.0), abs=1e-14)

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_zero_beyond_the_barrier_and_from_it(self, up):
        s = 1.0 if up else -1.0
        assert no_crossing(100.0, 100.0 + 6.0 * s, 100.0 + 5.0 * s, P_BASE, up) == 0.0
        assert no_crossing(100.0, 100.0 + 1e-9 * s, 100.0, P_BASE, up) == 0.0
        assert no_crossing(100.0, 100.0 - 3.0 * s, 100.0, P_BASE, up) == 0.0  # x on the barrier

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_zero_sigma_segment_rule(self, up):
        """A frozen segment survives where u >= max(x, y) up-and-out, where u < min(x, y) down-and-out.

        So touching the barrier survives up-and-out but not down-and-out.
        """
        u = 104.0 if up else 100.0
        ends, want = zip(*FROZEN[up])
        x, y = np.array(ends).T
        p0 = BridgeParams(10, 1.0, 0.0)
        assert no_crossing(x, y, u, p0, up).tolist() == list(want)
        for (a, b), f in FROZEN[up]:
            assert no_crossing(a, b, u, p0, up) == f
        # the CDFs on those segments
        cdf = bridge_max_cdf(x, y, u, p0) if up else 1.0 - bridge_min_cdf(x, y, u, p0)
        assert cdf.tolist() == list(want)

    @pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
    def test_zero_sigma_rows_among_others_write_into_out(self, up):
        u = 104.0 if up else 100.0
        x = np.array([[100.0 if up else 104.0], [u], [100.0 if up else 104.0]])
        y = np.array([u, 102.0])
        sigma = np.array([[0.0], [0.0], [7.0]])
        out = np.full((3, 2), np.nan)
        got = no_crossing(x, y, u, BridgeParams(10, 1.0, sigma), up, out=out)
        assert got is out
        touch = 1.0 if up else 0.0
        assert out[:2].tolist() == [[touch, 1.0], [touch, touch]]
        assert out[2].tolist() == [0.0, no_crossing(x[2, 0], 102.0, u, P_BASE, up)]


class TestInverses:
    """``bridge_extremum`` inverts the bridge laws: log(1 - w) for the maximum, log(w) for the minimum."""

    def test_max_roundtrip_random(self, rng):
        for _ in range(200):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            z = bridge_extremum(x, y, math.log1p(-w), P_BASE, up=True)
            assert z >= max(x, y)
            assert bridge_max_cdf(x, y, z, P_BASE) == pytest.approx(w, abs=1e-12)

    def test_min_roundtrip_random(self, rng):
        for _ in range(200):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            z = bridge_extremum(x, y, math.log(w), P_BASE, up=False)
            assert z <= min(x, y)
            assert bridge_min_cdf(x, y, z, P_BASE) == pytest.approx(w, abs=1e-12)

    def test_roundtrip_harsh_parameters(self, rng):
        # low sigma makes the exponent steep in z, so rounding in the
        # quantile amplifies; allow the conditioning its due
        for _ in range(200):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            p = BridgeParams(int(rng.integers(1, 40)), float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.5, 20.0)))
            zmax = bridge_extremum(x, y, math.log1p(-w), p, up=True)
            zmin = bridge_extremum(x, y, math.log(w), p, up=False)
            assert bridge_max_cdf(x, y, zmax, p) == pytest.approx(w, abs=1e-9)
            assert bridge_min_cdf(x, y, zmin, p) == pytest.approx(w, abs=1e-9)

    def test_frozen_quantiles(self):
        w = -math.expm1(-500.0 / 49.0)
        assert bridge_extremum(100.0, 100.0, math.log1p(-w), P_BASE, up=True) == pytest.approx(105.0, abs=1e-9)
        v = math.exp(-500.0 / 49.0)
        assert bridge_extremum(100.0, 100.0, math.log(v), P_BASE, up=False) == pytest.approx(95.0, abs=1e-9)

    def test_small_probability_limit(self):
        z = bridge_extremum(100.0, 104.0, math.log1p(-1e-15), P_BASE, up=True)
        assert z == pytest.approx(104.0, abs=1e-6)

    def test_reflection_identity(self, rng):
        for _ in range(50):
            x, y = rng.uniform(50.0, 150.0, size=2)
            w = rng.uniform(1e-6, 1.0 - 1e-6)
            lhs = bridge_extremum(x, y, math.log(w), P_BASE, up=False)
            rhs = -bridge_extremum(-x, -y, math.log1p(-(1.0 - w)), P_BASE, up=True)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_zero_sigma_returns_endpoint_extreme(self):
        # an Euler path whose diffusion vanishes has a flat bridge
        p0 = BridgeParams(10, 1.0, np.zeros(3))
        x = np.array([100.0, 104.0, 97.5])
        y = np.array([104.0, 100.0, 97.5])
        log_v = np.log([1e-16, 0.5, 1.0])
        assert bridge_extremum(x, y, log_v, p0, up=True).tolist() == [104.0, 104.0, 97.5]
        assert bridge_extremum(x, y, log_v, p0, up=False).tolist() == [100.0, 100.0, 97.5]


class TestSimulationConsistency:
    def test_max_law_kolmogorov_smirnov(self):
        rng = np.random.default_rng(2025)
        x, y = 100.0, 102.0
        w = rng.uniform(1e-12, 1.0 - 1e-12, size=100_000)
        draws = bridge_extremum(x, y, np.log1p(-w), P_BASE, up=True)
        stat = kstest(draws, lambda u: bridge_max_cdf(x, y, u, P_BASE)).statistic
        assert stat < 0.01

    def test_min_law_kolmogorov_smirnov(self):
        rng = np.random.default_rng(2026)
        x, y = 100.0, 97.0
        w = rng.uniform(1e-12, 1.0 - 1e-12, size=100_000)
        draws = bridge_extremum(x, y, np.log(w), P_BASE, up=False)
        stat = kstest(draws, lambda u: bridge_min_cdf(x, y, u, P_BASE)).statistic
        assert stat < 0.01
