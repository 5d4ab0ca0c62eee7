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
    solve_normal_quantizers,
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
        newton_step = gaussian._batch_newton_step
        # a step that reports the residuals but never moves the grids
        monkeypatch.setattr(gaussian, "_batch_newton_step", lambda x, starts: (x, newton_step(x, starts)[1]))
        with pytest.raises(LloydConvergenceError) as err:
            optimal_normal_quantizer(50)
        assert err.value.residual > 0.0
        assert err.value.n_levels == 50

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


def _same_grid(a, b):
    return (
        a.n_levels == b.n_levels
        and a.points.tobytes() == b.points.tobytes()
        and a.weights.tobytes() == b.weights.tobytes()
        and a.distortion.hex() == b.distortion.hex()
    )


# d(N) by float.hex, recorded from the one-size-at-a-time Newton solver
# that the batched one replaced
FROZEN_DISTORTIONS = {
    2: "0x1.7419f246c6efcp-2",
    3: "0x1.8579f778f193bp-3",
    7: "0x1.68737d7afa7c6p-5",
    23: "0x1.370c037375364p-8",
    33: "0x1.35376c5111290p-9",
    64: "0x1.51c46258b944cp-11",
    100: "0x1.17ab042915866p-12",
    200: "0x1.1a683e78cd6a2p-14",
    1000: "0x1.6c679762694e9p-19",
}


class TestBatchSolve:
    SIZES = range(1, 201)

    @pytest.fixture(scope="class")
    def alone(self):
        return {n: optimal_normal_quantizer(n) for n in self.SIZES}

    def test_one_batch_equals_each_size_alone(self, alone):
        batch = solve_normal_quantizers(self.SIZES)
        assert list(batch) == list(self.SIZES)
        assert all(_same_grid(batch[n], alone[n]) for n in self.SIZES)

    def test_shuffled_batch_with_repeats_equals_each_size_alone(self, alone):
        sizes = [*self.SIZES, *range(1, 201, 3), 200, 1]
        np.random.default_rng(5).shuffle(sizes)
        batch = solve_normal_quantizers(sizes)
        assert list(batch) == list(dict.fromkeys(sizes))
        assert all(_same_grid(batch[n], alone[n]) for n in self.SIZES)

    def test_every_batched_grid_is_stationary(self):
        batch = solve_normal_quantizers(self.SIZES)
        worst = {n: _residual(q.points) for n, q in batch.items()}
        assert max(worst.values()) < 1e-9, max(worst.items(), key=lambda kv: kv[1])

    @pytest.mark.parametrize("n, value", FROZEN_DISTORTIONS.items())
    def test_distortion_matches_the_one_size_solver(self, n, value):
        assert optimal_normal_quantizer(n).distortion.hex() == value
        assert solve_normal_quantizers([2, n, 3])[n].distortion.hex() == value

    def test_unconverged_size_fails_alone_and_only_when_read(self, monkeypatch):
        alone = {n: optimal_normal_quantizer(n) for n in (10, 100)}
        newton_step = gaussian._batch_newton_step

        def stall_fifty(x, starts):
            x_next, residual = newton_step(x, starts)
            bounds = [0, *starts, len(x)]
            for a, b in zip(bounds, bounds[1:]):
                if b - a == 50:
                    x_next[a:b] = x[a:b]
            return x_next, residual

        monkeypatch.setattr(gaussian, "_batch_newton_step", stall_fifty)
        batch = solve_normal_quantizers([10, 50, 100])
        assert isinstance(batch[50], LloydConvergenceError)
        assert batch[50].n_levels == 50 and batch[50].residual > 1e-9
        assert _same_grid(batch[10], alone[10]) and _same_grid(batch[100], alone[100])
        with pytest.raises(LloydConvergenceError, match="N=50:"):
            optimal_normal_quantizer(50)

    def test_empty_and_invalid_batches(self):
        assert solve_normal_quantizers([]) == {}
        with pytest.raises(ValueError):
            solve_normal_quantizers([3, 0])
        with pytest.raises(TypeError):
            solve_normal_quantizers([2.5])


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
