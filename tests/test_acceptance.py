"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py``.  The pseudo-CEV
criteria recompute their Monte Carlo references at full resolution
(1e7 paths, 100 steps), and criterion 4 reruns the table-2 Monte Carlo
column's scheme with 4e6 paths at n=20 and 1e6 paths at n=100 (about 25 s
on one core), so the module takes several minutes end to end.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

from fqbarrier.bridge import BridgeParams, bridge_extremum, bridge_max_cdf, bridge_min_cdf
from fqbarrier.brownian import optimal_decomposition
from fqbarrier.closed_form import vanilla_price
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.gaussian import lloyd_step, optimal_normal_quantizer
from fqbarrier.mc_pricer import Estimator, McConfig, rbb_price, rbb_price_levels
from fqbarrier.models import one_step_law
from fqbarrier.quant_pricer import price_barrier, quantized_kernel
from fqbarrier.tables import DEFAULT_SEED, REFERENCE_SEED_OFFSET, TABLE_SPECS, run_table
from tests.conftest import BS07

# benchmark values as printed in the reference tables
TRUE_SIGMA_007 = {105: 0.034, 110: 0.59, 115: 2.58, 120: 6.01, 125: 9.58, 130: 12.07}
TRUE_SIGMA_010 = {105: 0.029, 110: 0.42, 115: 1.70, 120: 3.95, 125: 6.70, 130: 9.31}
RBB_VARIANCES_N20 = {105: 0.086, 110: 2.942, 115: 15.80, 120: 33.54, 125: 41.76, 130: 43.09}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table_rows():
    """Full-protocol reruns of the five benchmark tables, cached per session."""
    cache = {}

    def get(table_id):
        if table_id not in cache:
            cache[table_id] = run_table(table_id)
        return cache[table_id]

    return get


def uoc(barrier, strike=100.0):
    return BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, strike, barrier, 1.0)


def test_criterion_1_closed_form_reproduces_true_prices(table_rows):
    worst = 0.0
    for table_id, printed in ((1, TRUE_SIGMA_007), (3, TRUE_SIGMA_010)):
        for row in table_rows(table_id):
            worst = max(worst, abs(row.reference_price - printed[int(row.level)]))
    ok = worst <= 0.01
    _report(1, ok, f"max |closed form - printed true price| = {worst:.4f} (tol 0.01)")
    assert ok


def test_criterion_2_quantization_prices_black_scholes(table_rows):
    worst, slowest = 0.0, 0.0
    for table_id in (1, 2, 3):
        for row in table_rows(table_id):
            worst = max(worst, abs(row.qep_price - row.reference_price))
            slowest = max(slowest, row.qep_seconds)
    ok = worst <= 0.05
    _report(2, ok, f"max |QEP - true| = {worst:.4f} (tol 0.05); slowest row {slowest:.2f}s")
    assert ok


def test_criterion_3_quantization_prices_pseudo_cev(table_rows):
    worst = 0.0
    for table_id in (4, 5):
        for row in table_rows(table_id):
            worst = max(worst, abs(row.qep_price - row.reference_price))
    ok = worst <= 0.07
    _report(3, ok, f"max |QEP - RBB reference (1e7 paths, 100 steps)| = {worst:.4f} (tol 0.07)")
    assert ok


def test_criterion_4_rbb_monte_carlo_table_2(table_rows):
    """Table-2 bridge Monte Carlo column: printed variances, own scheme, limit.

    The n=20 column samples the Euler scheme with per-interval bridge
    correction, whose weak error against continuous monitoring is O(1/n):
    at n=20 it is ~0.06 on rows 120-125, above 3 SE + 0.02.  So the column
    is checked against an independent estimate of the same n=20 scheme, and
    the closed-form bound is applied to the same estimator at n=100.
    """
    spec = TABLE_SPECS[2]
    template = uoc(spec.levels[0])
    same_scheme = rbb_price_levels(
        spec.model,
        template,
        spec.levels,
        McConfig(
            spec.n_steps, 4_000_000, DEFAULT_SEED + REFERENCE_SEED_OFFSET, Estimator.CONDITIONAL_PRODUCT
        ),
    )
    fine = rbb_price_levels(spec.model, template, spec.levels, McConfig(100, 1_000_000, DEFAULT_SEED))
    failures = []
    details = []
    for row, ref, fin in zip(table_rows(2), same_scheme, fine):
        level = int(row.level)
        se = math.sqrt(row.rbb_variance / spec.mc_paths)
        bias = row.rbb_price - row.reference_price
        z = (row.rbb_price - ref.price) / math.hypot(se, ref.std_error)
        fine_tol = 3.0 * fin.std_error + 0.02
        fine_dev = abs(fin.price - row.reference_price)
        var_dev = abs(row.rbb_variance - RBB_VARIANCES_N20[level]) / RBB_VARIANCES_N20[level]
        details.append(
            f"L={level}: n=20 price-true={bias:+.4f} z vs same scheme={z:+.2f} "
            f"n=100 |price-true|={fine_dev:.4f}/{fine_tol:.4f} var dev={var_dev:.1%}"
        )
        if abs(z) > 3.0 or fine_dev > fine_tol or var_dev > 0.10:
            failures.append(level)
    ok = not failures
    _report(4, ok, "; ".join(details) + (f"; failing rows {failures}" if failures else ""))
    assert ok


def test_criterion_5_conditional_estimator_reduces_variance():
    cfg = McConfig(n_steps=20, n_paths=100_000, seed=271828)
    var_ind = rbb_price(BS07, uoc(120.0), replace(cfg, estimator=Estimator.INDICATOR)).sample_variance
    var_cond = rbb_price(BS07, uoc(120.0), replace(cfg, estimator=Estimator.CONDITIONAL_PRODUCT)).sample_variance
    ok = var_cond < var_ind
    _report(5, ok, f"indicator variance {var_ind:.3f} vs conditional {var_cond:.3f}")
    assert ok


def test_criterion_6_ode_matches_black_scholes_closed_form(bq966, quant_grid):
    worst = 0.0
    for n_steps in (10, 20):
        grid = quant_grid(BS07, n_steps)
        for k in range(n_steps + 1):
            t = grid.dates[k]
            exact = 100.0 * np.exp((0.15 - 0.07**2 / 2) * t + 0.07 * bq966.all_path_values(t))
            worst = max(worst, float(np.max(np.abs(grid.grids[k][grid.permutations[k]] - exact) / exact)))
    ok = worst < 1e-8
    _report(6, ok, f"max relative ODE error over all 966 paths = {worst:.2e} (tol 1e-8)")
    assert ok


def test_criterion_7_quantizer_properties():
    residual = 0.0
    for n in range(2, 24):
        q = optimal_normal_quantizer(n)
        residual = max(residual, float(np.max(np.abs(q.points - lloyd_step(q.points)))))
    q2 = optimal_normal_quantizer(2)
    two_point_dev = float(np.max(np.abs(q2.points - [-math.sqrt(2 / math.pi), math.sqrt(2 / math.pi)])))
    factors = optimal_decomposition(1000).factors
    ok = residual < 1e-9 and two_point_dev < 1e-9 and factors == (23, 7, 3, 2)
    _report(
        7,
        ok,
        f"stationarity residual {residual:.1e}; two-point deviation {two_point_dev:.1e}; "
        f"budget-1000 factors {factors}",
    )
    assert ok


def test_criterion_8_bridge_law_properties():
    params = BridgeParams(10, 1.0, 7.0)
    rng = np.random.default_rng(314159)
    worst_rt = 0.0
    for _ in range(200):
        x, y = rng.uniform(60.0, 140.0, size=2)
        w = rng.uniform(1e-6, 1 - 1e-6)
        zmax = bridge_extremum(x, y, math.log1p(-w), params, up=True)
        zmin = bridge_extremum(x, y, math.log(w), params, up=False)
        worst_rt = max(worst_rt, abs(bridge_max_cdf(x, y, zmax, params) - w))
        worst_rt = max(worst_rt, abs(bridge_min_cdf(x, y, zmin, params) - w))
    u = rng.uniform(1e-12, 1 - 1e-12, size=100_000)
    ks_max = kstest(
        bridge_extremum(100.0, 102.0, np.log1p(-u), params, up=True),
        lambda z: bridge_max_cdf(100.0, 102.0, z, params),
    ).statistic
    u = rng.uniform(1e-12, 1 - 1e-12, size=100_000)
    ks_min = kstest(
        bridge_extremum(100.0, 97.0, np.log(u), params, up=False),
        lambda z: bridge_min_cdf(100.0, 97.0, z, params),
    ).statistic
    ok = worst_rt < 1e-12 and ks_max < 0.01 and ks_min < 0.01
    _report(8, ok, f"roundtrip error {worst_rt:.1e}; KS max-law {ks_max:.4f}, min-law {ks_min:.4f}")
    assert ok


def test_criterion_9_structural_invariants(quant_pipeline):
    checks = []

    grid, mats = quant_pipeline(BS07, 20)
    row_sum_dev = max(float(np.max(np.abs(tm.entries.sum(axis=1) - 1.0))) for tm in mats)
    checks.append(("row sums", row_sum_dev < 1e-10))

    deficit = 0.0
    for k in (1, 10, 20):
        gp, gn = grid.grids[k - 1], grid.grids[k]
        inner = 0.5 * (gn[:-1] + gn[1:])
        cum = one_step_law(BS07, gp, 1.0 / 20).cdf(inner)
        raw = np.diff(np.concatenate([np.zeros((966, 1)), cum, np.ones((966, 1))], axis=1), axis=1)
        deficit = max(deficit, float(np.max(np.abs(raw.sum(axis=1) - 1.0))))
    checks.append(("pre-normalization deficit", deficit < 1e-6))

    contract = uoc(115.0)
    pi = np.zeros(966)
    pi[0] = 1.0
    masses = [1.0]
    for k, tm in enumerate(mats):
        gp = grid.grids[k]
        sigma = np.asarray(BS07.diffusion(gp))[:, None]
        H = quantized_kernel(gp, grid.grids[k + 1], tm.entries, contract, BridgeParams(20, 1.0, sigma))
        pi = pi @ H
        masses.append(float(pi.sum()))
    checks.append(("mass nonincreasing", all(a >= b - 1e-15 for a, b in zip(masses, masses[1:]))))

    checks.append(("knocked-out price exactly 0", price_barrier(BS07, uoc(95.0), grid).price == 0.0))

    prices = [price_barrier(BS07, uoc(L), grid).price for L in (105, 110, 115, 120, 125, 130)]
    checks.append(("price monotone in barrier", all(a <= b + 1e-12 for a, b in zip(prices, prices[1:]))))

    vanilla = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.CALL)
    far = price_barrier(BS07, uoc(1e6), grid).price
    checks.append(("far barrier within 1% of vanilla", abs(far - vanilla) / vanilla < 0.01))

    ok = all(flag for _, flag in checks)
    _report(9, ok, "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks))
    assert ok
