import json
import math
import pathlib
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad

from fqbarrier import gaussian
from fqbarrier.brownian import (
    brownian_product_quantizer,
    build_product_quantizer,
    kl_eigenvalue,
    optimal_decomposition,
    save_paths,
)
from fqbarrier.gaussian import LloydConvergenceError, cached_normal_quantizer, lloyd_step

# frozen independent evaluations (50-digit arithmetic)
PATH_VALUE_T1 = 0.7183484885006662
PATH_DERIV_T0 = 1.1283791670955126
# frozen from the quadrature-based enumeration oracle
OBJECTIVE_BUDGET_4 = 0.1423288649448755


def kl_eigenfunction(k, t, horizon):
    """k-th eigenfunction sqrt(2/T) sin(pi (k-1/2) t / T) of the Brownian covariance; vectorized in t."""
    return np.sqrt(2.0 / horizon) * np.sin(math.pi * (k - 0.5) * np.asarray(t, dtype=float) / horizon)


class TestEigensystem:
    def test_first_eigenvalues(self):
        assert kl_eigenvalue(1, 1.0) == pytest.approx((2.0 / math.pi) ** 2, rel=1e-15)
        assert kl_eigenvalue(2, 1.0) == pytest.approx((2.0 / (3.0 * math.pi)) ** 2, rel=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("T", [2.0, 4.0])
    def test_scaling_in_horizon(self, k, T):
        assert kl_eigenvalue(k, T) == pytest.approx(T * T * kl_eigenvalue(k, 1.0), rel=1e-14)

    def test_eigenvalues_decreasing(self):
        vals = [kl_eigenvalue(k, 1.0) for k in range(1, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_eigenvalue_sum_is_half_t_squared(self, T):
        k = np.arange(1, 1_000_001)
        partial = np.sum((T / (math.pi * (k - 0.5))) ** 2)
        assert abs(partial - T * T / 2.0) < 3e-7 * T * T
        shorter = np.sum((T / (math.pi * (k[:1000] - 0.5))) ** 2)
        assert abs(shorter - T * T / 2.0) > abs(partial - T * T / 2.0)

    def test_orthonormality_by_quadrature(self):
        T = 1.0
        for j in range(1, 11):
            for k in range(j, 11):
                val, _ = quad(
                    lambda t: kl_eigenfunction(j, t, T) * kl_eigenfunction(k, t, T), 0.0, T, limit=200
                )
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-10

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            kl_eigenvalue(0, 1.0)
        with pytest.raises(ValueError):
            kl_eigenvalue(1, 0.0)


def _enumerate_decompositions(budget):
    """All nonincreasing factor sequences with product <= budget."""
    out = []

    def rec(prefix, prod, cap):
        f = 2
        while prod * f <= budget and f <= cap:
            out.append(prefix + [f])
            rec(prefix + [f], prod * f, f)
            f += 1

    rec([], 1, budget)
    return out


def _objective(factors):
    obj = 0.5
    for pos, f in enumerate(factors):
        obj += kl_eigenvalue(pos + 1, 1.0) * (cached_normal_quantizer(f).distortion - 1.0)
    return obj


@lru_cache(maxsize=None)
def _best_tail(pos, room, cap):
    """Unpruned dynamic program: the best (objective, factors) tail from pos.

    Minimizes sum lam_k (d(N_k) - 1) over nonincreasing factors <= cap with
    product <= room; it solves d(N) for every N it may use.
    """
    best = (0.0, ())
    for g in range(2, min(cap, room) + 1):
        obj, rest = _best_tail(pos + 1, room // g, g)
        obj += kl_eigenvalue(pos + 1, 1.0) * (cached_normal_quantizer(g).distortion - 1.0)
        best = min(best, (obj, (g,) + rest))
    return best


class TestDecompositionSearch:
    def test_budget_two(self):
        assert optimal_decomposition(2).factors == (2,)

    def test_budget_four_prefers_single_factor(self):
        deco = optimal_decomposition(4)
        assert deco.factors == (4,)
        assert deco.residual_distortion == pytest.approx(OBJECTIVE_BUDGET_4, abs=1e-9)

    @pytest.mark.parametrize("budget", [6, 12, 24, 36, 60, 100])
    def test_matches_exhaustive_enumeration(self, budget):
        candidates = _enumerate_decompositions(budget)
        brute_obj, brute_factors = min((_objective(c), c) for c in candidates)
        deco = optimal_decomposition(budget)
        assert list(deco.factors) == brute_factors
        assert deco.residual_distortion == pytest.approx(brute_obj, rel=1e-12, abs=0)

    def test_matches_unpruned_dynamic_program(self):
        for budget in range(2, 301):
            tail_obj, factors = _best_tail(0, budget, budget)
            deco = optimal_decomposition(budget)
            assert deco.factors == factors, budget
            assert deco.residual_distortion == pytest.approx(0.5 + tail_obj, rel=1e-12, abs=0)

    def test_cold_search_solves_few_small_grids(self, monkeypatch):
        batches = []
        solve = gaussian.solve_normal_quantizers

        def counting(sizes):
            batches.append(list(sizes))
            return solve(batches[-1])

        monkeypatch.setattr(gaussian, "solve_normal_quantizers", counting)
        assert optimal_decomposition(10_000).factors == (26, 8, 4, 3, 2, 2)
        solved = [n for batch in batches for n in batch]
        assert len(solved) < 150
        assert max(solved) <= 200
        assert len(batches) <= 2

    # residual_distortion by float.hex, recorded from the search that
    # solved one grid size at a time
    @pytest.mark.parametrize(
        "budget, factors, residual",
        [
            (1000, (23, 7, 3, 2), "0x1.205081faf0f8cp-5"),
            (4000, (23, 7, 4, 3, 2), "0x1.e1a93503f46f8p-6"),
            (8000, (23, 7, 4, 3, 2, 2), "0x1.beb98e0bd7268p-6"),
            (10_000, (26, 8, 4, 3, 2, 2), "0x1.b11c907b16f30p-6"),
        ],
    )
    def test_search_matches_the_one_size_solver(self, budget, factors, residual):
        deco = optimal_decomposition(budget)
        assert deco.factors == factors
        assert deco.residual_distortion.hex() == residual

    def test_unconverged_size_raises_only_when_read(self, monkeypatch):
        solve = gaussian.solve_normal_quantizers

        def failing(n_bad):
            def solve_but(sizes):
                out = solve(sizes)
                if n_bad in out:
                    out[n_bad] = LloydConvergenceError(n_bad, 1.0, 0)
                return out

            return solve_but

        # budget 4000 solves sizes 2..65 in its batch and reads 2..63
        monkeypatch.setattr(gaussian, "solve_normal_quantizers", failing(65))
        assert optimal_decomposition(4000).factors == (23, 7, 4, 3, 2)
        monkeypatch.setattr(gaussian, "solve_normal_quantizers", failing(23))
        with pytest.raises(LloydConvergenceError, match="N=23:"):
            optimal_decomposition(4000)

    def test_residual_decreases_with_budget(self):
        objs = [optimal_decomposition(b).residual_distortion for b in (10, 100, 966)]
        assert objs[0] > objs[1] > objs[2]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_decomposition(1)

    @pytest.mark.parametrize(
        "budget, factors",
        [(4000, (23, 7, 4, 3, 2)), (8000, (23, 7, 4, 3, 2, 2))],
    )
    def test_large_budget_factors(self, budget, factors):
        assert optimal_decomposition(budget).factors == factors

    def test_budget_ten_thousand_decomposes(self):
        q = brownian_product_quantizer(10_000)
        deco = q.decomposition
        assert q.n_paths == deco.d_n <= 10_000
        budget_8000 = build_product_quantizer((23, 7, 4, 3, 2, 2)).decomposition
        assert deco.residual_distortion < budget_8000.residual_distortion
        for g in q.marginal_quantizers:
            assert np.max(np.abs(g.points - lloyd_step(g.points))) < 1e-9

    def test_cold_build_solves_each_size_once(self, monkeypatch):
        brownian_product_quantizer.cache_clear()
        cached_normal_quantizer.cache_clear()
        calls = {"batch": 0, "single": 0}
        solve, single = gaussian.solve_normal_quantizers, gaussian.optimal_normal_quantizer

        def counting_batch(sizes):
            calls["batch"] += 1
            return solve(sizes)

        def counting_single(n_levels):
            calls["single"] += 1
            return single(n_levels)

        monkeypatch.setattr(gaussian, "solve_normal_quantizers", counting_batch)
        monkeypatch.setattr(gaussian, "optimal_normal_quantizer", counting_single)
        q = brownian_product_quantizer(1000)
        assert calls == {"batch": 1, "single": 0}
        monkeypatch.undo()
        assert q.decomposition.factors == (23, 7, 3, 2)
        for f, g in zip(q.decomposition.factors, q.marginal_quantizers):
            alone = gaussian.optimal_normal_quantizer(f)
            assert g.points.tobytes() == alone.points.tobytes()
            assert g.weights.tobytes() == alone.weights.tobytes()
            assert g.distortion.hex() == alone.distortion.hex()
        assert q.decomposition == build_product_quantizer((23, 7, 3, 2), budget=1000).decomposition

    def test_cold_build_memory(self):
        brownian_product_quantizer.cache_clear()
        cached_normal_quantizer.cache_clear()
        tracemalloc.start()
        try:
            q = brownian_product_quantizer(10_000)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.decomposition.factors == (26, 8, 4, 3, 2, 2)
        # the DP tables and the batch of 101 grids (5252 points) are gone;
        # the 45 points of the chosen grids stay
        assert peak < 1_500_000
        assert held < 40_000


# (budget, factors, residual_distortion.hex()) for budgets 2..1000 and 149
# log-spaced budgets up to 2e5, recorded from the depth-first branch and
# bound the dynamic program replaced
DECOMPOSITIONS = json.loads((pathlib.Path(__file__).parent / "decompositions.json").read_text())


class TestDecompositionFixture:
    def test_matches_the_branch_and_bound(self, monkeypatch):
        # a grid is the same whatever batch solves it, so each size is solved once
        solved = {}
        solve = gaussian.solve_normal_quantizers

        def memo(sizes):
            sizes = list(sizes)
            solved.update(solve(n for n in sizes if n not in solved))
            return {n: solved[n] for n in sizes}

        monkeypatch.setattr(gaussian, "solve_normal_quantizers", memo)
        brownian_product_quantizer.cache_clear()
        for budget, factors, residual in DECOMPOSITIONS:
            deco = optimal_decomposition(budget)
            assert (deco.factors, deco.residual_distortion.hex()) == (tuple(factors), residual), budget
            assert deco.d_n == math.prod(factors)
            assert brownian_product_quantizer(budget).decomposition == deco, budget
        brownian_product_quantizer.cache_clear()

    @pytest.mark.slow
    def test_budget_one_million(self):
        deco = optimal_decomposition(1_000_000)
        assert deco.factors == (40, 13, 8, 5, 4, 3, 2, 2)
        assert deco.residual_distortion.hex() == "0x1.25746eb59c577p-6"
        brownian_product_quantizer.cache_clear()
        assert brownian_product_quantizer(1_000_000).decomposition == deco
        brownian_product_quantizer.cache_clear()


class TestProductQuantizer:
    def test_path_arrays_wait_for_first_read(self):
        brownian_product_quantizer.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = []
            for _ in range(20):
                brownian_product_quantizer.cache_clear()
                cached_normal_quantizer.cache_clear()
                kept.append(brownian_product_quantizer(10_000))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1_000_000
        q = kept[-1]
        assert q.n_paths == 9984 and q.n_terms == 6

        # the eager construction the path arrays replace
        factors, marginals = q.decomposition.factors, q.marginal_quantizers
        mesh = np.meshgrid(*[np.arange(f) for f in factors], indexing="ij")
        multi = np.stack([m.ravel() for m in mesh], axis=1)
        weights = np.ones(1)
        for g in marginals:
            weights = np.multiply.outer(weights, g.weights).ravel()
        lam = np.array([kl_eigenvalue(k, 1.0) for k in range(1, len(factors) + 1)])
        points = np.stack([marginals[k].points[multi[:, k]] for k in range(len(factors))], axis=1)
        coeff = np.sqrt(lam)[None, :] * points
        for name, eager in (("coefficients", coeff), ("weights", weights), ("multi_indices", multi)):
            lazy = getattr(q, name)
            assert np.array_equal(lazy, eager)
            assert lazy.dtype == eager.dtype
            assert not lazy.flags.writeable
            assert getattr(q, name) is lazy
            with pytest.raises(ValueError):
                lazy[0] = 0

    def test_grids_must_match_the_factors(self):
        with pytest.raises(ValueError, match="grids"):
            build_product_quantizer([3, 2], grids=[cached_normal_quantizer(2), cached_normal_quantizer(3)])

    def test_nonpositive_horizon_rejected(self):
        for horizon in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="horizon"):
                build_product_quantizer([3, 2], horizon=horizon)

    def test_path_count_and_weights(self, bq966):
        assert bq966.n_paths == 966
        assert bq966.decomposition.factors == (23, 7, 3, 2)
        assert abs(bq966.weights.sum() - 1.0) < 1e-12
        assert np.all(bq966.weights > 0.0)

    def test_paths_start_at_zero(self, bq966):
        assert np.max(np.abs(bq966.all_path_values(0.0))) == 0.0

    def test_single_factor_path_value(self):
        q = build_product_quantizer([2], horizon=1.0)
        positive = int(np.argmax(q.coefficients[:, 0]))
        assert q.all_path_values(1.0)[positive] == pytest.approx(PATH_VALUE_T1, abs=1e-12)
        assert q.all_path_derivatives(0.0)[positive] == pytest.approx(PATH_DERIV_T0, abs=1e-12)

    def test_mirrored_paths_negate(self, bq966):
        factors = bq966.decomposition.factors
        rng = np.random.default_rng(7)
        ts = rng.uniform(0.0, 1.0, size=5)
        for m in rng.integers(0, bq966.n_paths, size=6):
            mirrored_idx = [n - 1 - i for n, i in zip(factors, bq966.multi_indices[m])]
            matches = np.all(bq966.multi_indices == mirrored_idx, axis=1)
            mm = int(np.argmax(matches))
            assert matches[mm]
            assert bq966.weights[mm] == pytest.approx(bq966.weights[m], rel=1e-13, abs=0)
            for t in ts:
                values, derivatives = bq966.all_path_values(t), bq966.all_path_derivatives(t)
                assert values[mm] == pytest.approx(-values[m], abs=1e-12)
                assert derivatives[mm] == pytest.approx(-derivatives[m], abs=1e-12)

    def test_derivative_matches_finite_differences(self, bq966):
        rng = np.random.default_rng(3)
        h = 1e-5
        for m in rng.integers(0, bq966.n_paths, size=4):
            for t in rng.uniform(2 * h, 1.0 - 2 * h, size=4):
                fd = (bq966.all_path_values(t + h)[m] - bq966.all_path_values(t - h)[m]) / (2 * h)
                assert fd == pytest.approx(bq966.all_path_derivatives(t)[m], abs=1e-6)

    def test_all_path_values_consistent(self, bq966):
        t = 0.37
        vals = bq966.all_path_values(t)
        for m in (0, 123, 965):
            expansion = sum(c * kl_eigenfunction(k, t, 1.0) for k, c in enumerate(bq966.coefficients[m], 1))
            assert vals[m] == pytest.approx(expansion, rel=1e-14, abs=0)

    def test_time_domain_enforced(self, bq966):
        with pytest.raises(ValueError):
            bq966.all_path_values(-0.1)
        with pytest.raises(ValueError):
            bq966.all_path_derivatives(1.5)

    @pytest.mark.parametrize("method", ["all_path_values", "all_path_derivatives"])
    def test_nan_time_rejected(self, method):
        q = brownian_product_quantizer(60, 1.0)
        with pytest.raises(ValueError):
            getattr(q, method)(math.nan)

    def test_path_arrays_match_the_eigenexpansion_bit_for_bit(self, bq966):
        w = math.pi * (np.arange(1, bq966.n_terms + 1) - 0.5)
        for t in (0.0, 0.37, 1.0):
            values = bq966.coefficients @ (math.sqrt(2.0) * np.sin(w * t))
            derivatives = bq966.coefficients @ (math.sqrt(2.0) * w * np.cos(w * t))
            assert np.array_equal(bq966.all_path_values(t), values)
            assert np.array_equal(bq966.all_path_derivatives(t), derivatives)

    def test_save_paths_format(self, tmp_path):
        q = build_product_quantizer([3, 2], horizon=1.0)
        out = tmp_path / "paths.txt"
        save_paths(q, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# budget 6")
        assert len(lines) == 1 + q.n_paths
        first = lines[1].split()
        assert len(first) == 2 + 1 + 2  # two indices, weight, two coefficients
        assert float(first[2]) == pytest.approx(q.weights[0], rel=1e-16, abs=0)
