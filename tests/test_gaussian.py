import math

import numpy as np
import pytest

from fqbarrier import gaussian
from fqbarrier.gaussian import (
    GaussianQuantizer,
    LloydConvergenceError,
    distortion,
    lloyd_step,
    load_quantizer,
    optimal_normal_quantizer,
    quantizer_weights,
    save_quantizer,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# frozen from direct quadrature of min_i (z - x_i)^2 phi(z) dz
DISTORTION_TWO_POINT = 0.3633802276324188


def _residual(points):
    return float(np.max(np.abs(points - lloyd_step(points))))


class TestOptimalQuantizer:
    def test_single_point(self):
        q = optimal_normal_quantizer(1)
        assert q.points.tolist() == [0.0]
        assert q.weights.tolist() == [1.0]
        assert q.distortion == 1.0

    def test_two_point_grid(self):
        q = optimal_normal_quantizer(2)
        assert q.points == pytest.approx([-SQRT_2_OVER_PI, SQRT_2_OVER_PI], abs=1e-9)
        assert q.weights == pytest.approx([0.5, 0.5], abs=1e-14)
        assert q.distortion == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-12)
        assert q.distortion == pytest.approx(DISTORTION_TWO_POINT, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 23, 64])
    def test_stationarity(self, n):
        q = optimal_normal_quantizer(n)
        residual = np.max(np.abs(q.points - lloyd_step(q.points)))
        assert residual < 1e-9

    @pytest.mark.parametrize("n", [3, 10, 23])
    def test_antisymmetry(self, n):
        q = optimal_normal_quantizer(n)
        assert np.max(np.abs(q.points + q.points[::-1])) < 1e-9
        assert q.weights == pytest.approx(q.weights[::-1].tolist(), abs=1e-12)

    def test_deterministic(self):
        a = optimal_normal_quantizer(17)
        b = optimal_normal_quantizer(17)
        assert np.array_equal(a.points, b.points)

    def test_distortion_strictly_decreasing_in_n(self):
        values = [optimal_normal_quantizer(n).distortion for n in range(1, 41)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nonconvergence_raises_with_residual(self, monkeypatch):
        newton_step = gaussian._newton_step
        # a step that reports the residual but never moves the grid
        monkeypatch.setattr(gaussian, "_newton_step", lambda x: (x, newton_step(x)[1]))
        with pytest.raises(LloydConvergenceError) as err:
            optimal_normal_quantizer(50)
        assert err.value.residual > 0.0

    def test_stationarity_at_large_sizes(self):
        # Phi(hi) - Phi(lo) cancels in the upper tail from about N=689 on
        # (1069 is the first size where it stalls above the bound)
        sizes = sorted({*range(600, 1300, 23), 689, 1000, 1069, 1250, 4000, 10000})
        worst = {n: _residual(optimal_normal_quantizer(n).points) for n in sizes}
        assert max(worst.values()) < 1e-9, max(worst.items(), key=lambda kv: kv[1])

    @pytest.mark.parametrize("n", [1000, 1069])
    def test_stationarity_in_40_digit_arithmetic(self, n):
        import mpmath

        q = optimal_normal_quantizer(n)
        with mpmath.workdps(40):
            x = [mpmath.mpf(float(v)) for v in q.points]
            edges = [mpmath.ninf] + [(a + b) / 2 for a, b in zip(x, x[1:])] + [mpmath.inf]
            pdf = [mpmath.npdf(e) if mpmath.isfinite(e) else mpmath.mpf(0) for e in edges]
            cdf = [mpmath.ncdf(e) for e in edges]
            residual = max(
                abs(x[i] - (pdf[i] - pdf[i + 1]) / (cdf[i + 1] - cdf[i])) for i in range(n)
            )
        assert residual < 1e-9

    def test_tail_weights_symmetric(self):
        # the outer weights are about 1.2e-7, so a relative check only
        w = optimal_normal_quantizer(1000).weights
        assert abs(w[-1] - w[0]) <= 1e-13 * w[0]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            optimal_normal_quantizer(0)


class TestLloydIteration:
    @pytest.mark.parametrize("n", [3, 8, 17])
    def test_distortion_monotone_per_sweep(self, n):
        from scipy.special import ndtri

        x = ndtri((2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n))
        previous = distortion(x)
        for _ in range(50):
            x = lloyd_step(x)
            current = distortion(x)
            assert current <= previous + 1e-15
            previous = current


class TestDistortion:
    def test_trivial_values(self):
        assert distortion([0.0]) == pytest.approx(1.0, abs=1e-15)
        assert distortion([0.5]) == pytest.approx(1.25, abs=1e-12)

    def test_two_point_closed_form(self):
        pts = [-SQRT_2_OVER_PI, SQRT_2_OVER_PI]
        assert distortion(pts) == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            distortion([])
        with pytest.raises(ValueError):
            distortion([1.0, 1.0])


class TestWeights:
    def test_trivial(self):
        assert quantizer_weights([0.0]).tolist() == [1.0]

    @pytest.mark.parametrize("a", [0.3, 1.0, 2.5])
    def test_symmetric_pair(self, a):
        assert quantizer_weights([-a, a]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_three_points(self):
        w = quantizer_weights([-1.0, 0.0, 1.0])
        expected = [0.3085375387259869, 0.3829249225480262, 0.3085375387259869]
        assert w == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_grids_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.sort(rng.normal(size=rng.integers(1, 30)))
        pts = np.unique(pts)
        w = quantizer_weights(pts)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w > 0.0)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            quantizer_weights([0.0, 0.0, 1.0])


class TestCacheFile:
    def test_roundtrip(self, tmp_path):
        q = optimal_normal_quantizer(7)
        path = tmp_path / "grid.txt"
        save_quantizer(q, path)
        loaded = load_quantizer(path)
        assert isinstance(loaded, GaussianQuantizer)
        assert loaded.n_levels == 7
        assert np.array_equal(loaded.points, q.points)
        assert np.array_equal(loaded.weights, q.weights)
        assert loaded.distortion == pytest.approx(q.distortion, rel=1e-15, abs=0)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("garbage\n")
        with pytest.raises(ValueError):
            load_quantizer(path)
