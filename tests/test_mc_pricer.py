import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from fqbarrier import mc_pricer, quant_pricer
from fqbarrier.closed_form import barrier_price
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.mc_pricer import (
    _BLOCK,
    _PIECE_DOUBLES,
    Estimator,
    McConfig,
    _path_draws,
    _piece_rows,
    _pieces,
    rbb_price,
    rbb_price_levels,
)
from fqbarrier.models import BlackScholes, PseudoCEV
from fqbarrier.tables import run_table
from tests.conftest import BS07, PCEV07, bridge_max_cdf, bridge_min_cdf


def euler_path(model, n_steps, maturity, normals):
    """Discrete Euler recursion from x0 driven by given standard normals.

    ``normals`` has shape (..., n_steps); the result appends the initial
    price, shape (..., n_steps + 1).
    """
    z = np.asarray(normals, dtype=float)
    if z.shape[-1] != n_steps:
        raise ValueError(f"expected {n_steps} normal draws per path, got {z.shape[-1]}")
    dt = maturity / n_steps
    sq = math.sqrt(dt)
    out = np.empty(z.shape[:-1] + (n_steps + 1,))
    out[..., 0] = model.x0
    for k in range(n_steps):
        x = out[..., k]
        out[..., k + 1] = x + model.drift(x) * dt + model.diffusion(x) * sq * z[..., k]
    return out


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


def draws(seed, first_path, count, n_steps):
    """Normals and bridge uniforms of ``count`` paths, in a new buffer."""
    return _path_draws(seed, first_path, np.empty((count, 2 * n_steps)))


class TestRandomStream:
    def test_draws_are_block_independent(self):
        whole_z, whole_v = draws(99, 0, 10, 6)
        a_z, a_v = draws(99, 0, 4, 6)
        b_z, b_v = draws(99, 4, 6, 6)
        assert np.array_equal(whole_z, np.vstack([a_z, b_z]))
        assert np.array_equal(whole_v, np.vstack([a_v, b_v]))

    def test_uniforms_strictly_inside_unit_interval(self):
        _, v = draws(1, 0, 1000, 8)
        assert np.all((v > 0.0) & (v < 1.0))


class TestRbbPrice:
    def test_reproducible(self):
        cfg = McConfig(n_steps=10, n_paths=20_000, seed=7)
        a = rbb_price(BS07, uoc(120.0), cfg)
        b = rbb_price(BS07, uoc(120.0), cfg)
        assert a.price == b.price
        assert a.sample_variance == b.sample_variance

    def test_discount_overflow_is_rejected(self):
        cfg = McConfig(n_steps=10, n_paths=5_000, seed=3)
        with pytest.raises(ValueError, match=r"r=-800.0, T=1.0"):
            rbb_price_levels(replace(BS07, r=-800.0), uoc(120.0), [110.0, 120.0], cfg)

    def test_barrier_below_strike_prices_zero(self):
        cfg = McConfig(n_steps=10, n_paths=5_000, seed=3)
        res = rbb_price(BS07, uoc(95.0), cfg)
        assert res.price == 0.0
        assert res.sample_variance == 0.0

    @pytest.mark.parametrize("estimator", list(Estimator))
    def test_pcev_paths_crossing_zero_stay_finite(self, estimator):
        # an Euler step below 0 made sigma(x) = vartheta x^(d+1) / sqrt(1+x^2) NaN
        model = PseudoCEV(r=0.0, vartheta=5.0, delta=0.9, x0=1.0)
        cfg = McConfig(n_steps=20, n_paths=20_000, seed=1, estimator=estimator)
        for contract in (
            BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.PUT, 1.0, 0.5, 5.0),
            BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, 1.0, 3.0, 5.0),
        ):
            res = rbb_price(model, contract, cfg)
            assert math.isfinite(res.price) and res.price >= 0.0
            assert math.isfinite(res.sample_variance)

    def test_std_error_consistent_with_variance(self):
        cfg = McConfig(n_steps=10, n_paths=50_000, seed=11)
        res = rbb_price(BS07, uoc(120.0), cfg)
        assert res.std_error == pytest.approx(math.sqrt(res.sample_variance / 50_000), rel=1e-12, abs=0)

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
        z, _ = draws(seed, 0, m, n)
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

    def test_rejects_bad_levels(self):
        cfg = McConfig(n_steps=10, n_paths=100, seed=1)
        for levels in ([math.nan, -5.0], [110.0, math.inf], [0.0]):
            with pytest.raises(ValueError, match="finite and positive"):
                rbb_price_levels(BS07, uoc(110.0), levels, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McConfig(n_steps=0, n_paths=10, seed=1)
        with pytest.raises(ValueError):
            McConfig(n_steps=10, n_paths=0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            McConfig(n_steps=5, n_paths=100, seed=seed)
        McConfig(n_steps=5, n_paths=100, seed=2**128 - 1)  # the largest key


class TestVarianceReduction:
    def test_conditional_variance_below_indicator(self):
        cfg = McConfig(n_steps=20, n_paths=20_000, seed=31)
        var_ind = rbb_price(BS07, uoc(120.0), replace(cfg, estimator=Estimator.INDICATOR)).sample_variance
        var_cond = rbb_price(BS07, uoc(120.0), replace(cfg, estimator=Estimator.CONDITIONAL_PRODUCT)).sample_variance
        assert var_cond < var_ind

    def test_degenerate_case_both_zero(self):
        cfg = McConfig(n_steps=10, n_paths=5_000, seed=37)
        var_ind = rbb_price(BS07, uoc(95.0), replace(cfg, estimator=Estimator.INDICATOR)).sample_variance
        var_cond = rbb_price(BS07, uoc(95.0), replace(cfg, estimator=Estimator.CONDITIONAL_PRODUCT)).sample_variance
        assert var_ind == 0.0 and var_cond == 0.0


FLAT = BlackScholes(r=0.15, sigma=0.0, x0=100.0)


class TestConditionalProduct:
    """Each level's price is the mean of the discounted payoff times the bridge CDFs' product on the same draws."""

    @pytest.mark.parametrize("model", [BS07, FLAT, PCEV07], ids=["bs", "bs-sigma0", "pcev"])
    @pytest.mark.parametrize("barrier_type", list(BarrierType), ids=["up", "down"])
    def test_matches_a_product_of_the_cdfs_on_the_same_draws(self, monkeypatch, model, barrier_type):
        monkeypatch.setattr(mc_pricer, "_LEVEL_CHUNK", 4)  # the levels take four chunks, the last one short
        n, n_paths, seed = 6, 3000, 19
        paths = euler_path(model, n, 1.0, draws(seed, 0, n_paths, n)[0])
        # below x0, on it and above it; the sigma = 0 path's Euler points too
        levels = np.array([80.0, 95.0, 99.5, 100.0, 100.5, 105.0, 120.0, 130.0] + paths[0, 1:].tolist())
        contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, 120.0, 1.0)
        product = np.ones((n_paths, levels.size))
        for k in range(n):
            x, y = paths[:, k, None], paths[:, k + 1, None]
            bridge = (x, y, levels, n, 1.0, np.abs(model.diffusion(x)))
            if barrier_type is BarrierType.UP_AND_OUT:
                product *= bridge_max_cdf(*bridge)
            else:
                product *= 1.0 - bridge_min_cdf(*bridge)
        pay = math.exp(-model.r) * contract.payoff(paths[:, -1])
        expected = (pay[:, None] * product).mean(axis=0)
        cfg = McConfig(n, n_paths, seed, Estimator.CONDITIONAL_PRODUCT)
        got = np.array([r.price for r in rbb_price_levels(model, contract, levels, cfg)])
        assert np.array_equal(got == 0.0, expected == 0.0)
        assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))
        assert (expected > 0.0).sum() >= 3
        for i in (0, 5, 9, levels.size - 1):  # each level's sum is taken in the same order alone
            assert got[i] == rbb_price_levels(model, contract, levels[i], cfg)[0].price


@pytest.mark.parametrize("estimator", list(Estimator))
@pytest.mark.parametrize("barrier_type", list(BarrierType), ids=["up", "down"])
def test_underflowing_sigma_prices_as_the_frozen_model(estimator, barrier_type):
    """At sigma = 1e-170 sigma(x)^2 underflows to 0, so each bridge is the frozen segment, as at sigma = 0.

    The levels lie on the frozen path's Euler points, where the bridge
    touches them and the factor would be 0/0 without the segment rule.
    """
    n = 5
    tiny = BlackScholes(r=0.15, sigma=1e-170, x0=100.0)
    levels = np.append(euler_path(FLAT, n, 1.0, np.zeros(n)), [90.0, 130.0])
    contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, levels[0], 1.0)
    cfg = McConfig(n, 100, 1, estimator)

    def numbers(model):
        return [x.hex() for r in rbb_price_levels(model, contract, levels, cfg) for x in (r.price, r.sample_variance)]

    got = numbers(tiny)
    assert all(math.isfinite(float.fromhex(x)) for x in got)
    assert got == numbers(FLAT)
    # an up-and-out call survives a barrier on the frozen path's last point
    assert (float.fromhex(got[2 * n]) > 0.0) is (barrier_type is BarrierType.UP_AND_OUT)


@pytest.mark.parametrize("sigma", [0.0, 1e-170], ids=["sigma0", "sigma-squared-underflows"])
@pytest.mark.parametrize(
    "barrier_type, rate, payoff_type",
    [(BarrierType.UP_AND_OUT, 0.15, PayoffType.CALL), (BarrierType.DOWN_AND_OUT, -0.15, PayoffType.PUT)],
    ids=["up", "down"],
)
def test_frozen_paths_price_alike_in_both_estimators(sigma, barrier_type, rate, payoff_type):
    """A frozen path that touches a level on an Euler point survives up-and-out and dies down-and-out in both.

    The levels are the five Euler points of the frozen path, which rises
    at r = 0.15 and falls at r = -0.15.  The indicator draws each
    segment's extreme as max(x, y) or min(x, y) exactly, and keeps a path
    whose minimum is on a down-and-out level out of the survivors, as
    ``no_crossing`` does.  Drawn from the root 0.5 (x + y + |x - y|), the
    maximum rounded past the end of two of the rising segments, and the
    up-and-out call priced 0.0 at 115.92740743 against the conditional
    product's 13.708846618772727.
    """
    n = 5
    model = BlackScholes(r=rate, sigma=sigma, x0=100.0)
    levels = euler_path(replace(FLAT, r=rate), n, 1.0, np.zeros(n))[1:]
    contract = BarrierContract(barrier_type, payoff_type, 100.0, levels[0], 1.0)

    def prices(estimator):
        return [r.price.hex() for r in rbb_price_levels(model, contract, levels, McConfig(n, 100, 1, estimator))]

    indicator = prices(Estimator.INDICATOR)
    assert indicator == prices(Estimator.CONDITIONAL_PRODUCT)
    assert (float.fromhex(indicator[-1]) > 0.0) is (barrier_type is BarrierType.UP_AND_OUT)


@pytest.mark.parametrize("estimator", list(Estimator))
def test_variances_do_not_depend_on_the_level_count(estimator):
    """Each level's sum of squares is taken over its own row, so 30 levels in one call give the bits of 30 calls."""
    levels = np.linspace(101.0, 140.0, 30)
    cfg = McConfig(6, 40_000, 3, estimator)
    together = rbb_price_levels(PCEV07, uoc(100.0), levels, cfg)
    for level, result in zip(levels, together):
        alone = rbb_price_levels(PCEV07, uoc(100.0), level, cfg)[0]
        assert (result.price.hex(), result.sample_variance.hex()) == (alone.price.hex(), alone.sample_variance.hex())


def _random_valid_input(rng):
    """One draw of (model, contract, levels, config) over wide valid ranges."""
    x0 = 10.0 ** rng.uniform(-6.0, 6.0)
    r = rng.uniform(-1.0, 1.0)
    maturity = 30.0 * (1.0 - rng.random())
    if rng.random() < 0.5:
        model = BlackScholes(r, (0.0, 1e-170, 3.0 * rng.random())[rng.integers(3)], x0)
    else:
        model = PseudoCEV(r, 20.0 * (1.0 - rng.random()), 0.99 * (1.0 - rng.random()), x0)
    levels = [x0 * (1.0 + 1e-7 * rng.uniform(-1.0, 1.0)), x0 * 10.0 ** rng.uniform(-1.0, 1.0)]
    barrier_type, payoff_type = list(BarrierType)[rng.integers(2)], list(PayoffType)[rng.integers(2)]
    contract = BarrierContract(barrier_type, payoff_type, x0 * 10.0 ** rng.uniform(-1.0, 1.0), levels[1], maturity)
    cfg = McConfig(int(rng.integers(1, 21)), 300, int(rng.integers(2**63)), list(Estimator)[rng.integers(2)])
    return model, contract, levels, cfg


def test_random_valid_inputs_price_finite_and_repeatably():
    """300 seeded draws price finite and >= 0 with no warning, and the same again by ``float.hex``.

    x0 1e-6..1e6, T up to 30, r -1..1; Black-Scholes sigma up to 3, with 0
    and 1e-170 among the draws; pseudo-CEV vartheta up to 20 and delta up
    to 0.99; one level within 1e-7 relative of x0 and one within a factor
    10; both estimators, sides and payoffs; 300 paths at 1-20 steps.
    """
    rng = np.random.default_rng(2027)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            args = _random_valid_input(rng)
            first, again = ([x.hex() for r in rbb_price_levels(*args) for x in (r.price, r.sample_variance)]
                            for _ in range(2))
            assert first == again, args
            assert all(math.isfinite(v) and v >= 0.0 for v in map(float.fromhex, first)), args


LEVELS = {BarrierType.UP_AND_OUT: (105.0, 112.0, 120.0, 130.0), BarrierType.DOWN_AND_OUT: (85.0, 92.0, 97.0)}


def _hex_on_cores(monkeypatch, cores, price, piece_doubles=_PIECE_DOUBLES):
    """``price()``'s numbers by ``float.hex``, with every block of two or more paths split on two cores."""
    monkeypatch.setattr(mc_pricer, "_cores", lambda: cores)
    monkeypatch.setattr(mc_pricer, "_PIECE_DOUBLES", piece_doubles)
    monkeypatch.setattr(mc_pricer, "_SPLIT_ROWS", 1)
    return [x.hex() for x in price()]


class TestPieces:
    @pytest.mark.parametrize("n_steps", [1, 20, 100, 128])
    def test_blocks_split_in_halves_up_to_128_steps(self, n_steps):
        rows = _piece_rows(10**6, n_steps)
        assert _pieces(_BLOCK, rows) == [(0, _BLOCK // 2), (_BLOCK // 2, _BLOCK)]
        assert _pieces(4097, rows) == [(0, 2049), (2049, 4097)]
        assert _pieces(1, _piece_rows(1, n_steps)) == [(0, 1)]

    @pytest.mark.parametrize("n_paths", [1, 2, 4097, 33333, 10**6])
    @pytest.mark.parametrize("n_steps", [129, 300, 1000, 10_000, 2**21, 2**22])
    def test_pieces_cover_every_block_within_the_cap(self, n_paths, n_steps):
        rows = _piece_rows(n_paths, n_steps)
        assert rows * 2 * n_steps <= max(_PIECE_DOUBLES, 2 * n_steps)  # a piece holds one path at least
        # the first block and the last, which may be short
        for m in {min(n_paths, _BLOCK), n_paths % _BLOCK or _BLOCK}:
            pieces = _pieces(m, rows)
            assert [a for a, _ in pieces] == [0] + [b for _, b in pieces[:-1]] and pieces[-1][1] == m
            assert max(b - a for a, b in pieces) <= rows
            assert len(pieces) >= min(m, 2)


class TestTwoCores:
    """Each path's draws are addressed by its index, so the pool changes no bit."""

    @pytest.mark.parametrize("n_paths", [_BLOCK + 4097, 33333, 1, 2])
    @pytest.mark.parametrize("estimator", list(Estimator))
    @pytest.mark.parametrize("barrier_type", list(BarrierType))
    def test_prices_are_identical_on_one_and_two_cores(self, monkeypatch, n_paths, estimator, barrier_type):
        n = 9
        contract = BarrierContract(barrier_type, PayoffType.CALL, 100.0, LEVELS[barrier_type][0], 1.0)
        cfg = McConfig(n, n_paths, 101, estimator)

        def price():
            results = rbb_price_levels(PCEV07, contract, LEVELS[barrier_type], cfg)
            return [x for r in results for x in (r.price, r.sample_variance)]

        pooled = _hex_on_cores(monkeypatch, 2, price)
        assert pooled == _hex_on_cores(monkeypatch, 1, price)
        # pieces of at most 700 paths: many per block, alternating between the threads
        assert pooled == _hex_on_cores(monkeypatch, 2, price, piece_doubles=700 * 2 * n)
        if n_paths > 1:
            assert float.fromhex(pooled[-2]) > 0.0 and float.fromhex(pooled[-1]) > 0.0

    def test_table_four_mc_columns_are_identical_on_one_and_two_cores(self, monkeypatch):
        def price():
            rows = run_table(4, budget=60, mc_paths=_BLOCK + 4097, reference_paths=20_000, reference_steps=30)
            return [x for r in rows for x in (r.reference_price, r.rbb_price, r.rbb_variance)]

        assert _hex_on_cores(monkeypatch, 2, price) == _hex_on_cores(monkeypatch, 1, price)

    def test_every_path_is_drawn_once_by_two_threads(self, monkeypatch):
        monkeypatch.setattr(mc_pricer, "_cores", lambda: 2)
        monkeypatch.setattr(mc_pricer, "_PIECE_DOUBLES", 1000 * 2 * 7)
        monkeypatch.setattr(mc_pricer, "_SPLIT_ROWS", 1)
        drawn = []
        original = mc_pricer._path_draws

        def recorder(seed, first_path, out):
            drawn.append((first_path, out.shape[0], threading.current_thread()))
            return original(seed, first_path, out)

        monkeypatch.setattr(mc_pricer, "_path_draws", recorder)
        rbb_price(PCEV07, uoc(120.0), McConfig(7, 40001, 3))
        drawn.sort(key=lambda d: d[0])
        assert [f for f, _, _ in drawn] == [0] + list(np.cumsum([c for _, c, _ in drawn[:-1]]))
        assert sum(c for _, c, _ in drawn) == 40001 and max(c for _, c, _ in drawn) <= 1000
        assert len({thread for _, _, thread in drawn}) == 2
        assert mc_pricer._worker is quant_pricer._worker  # one worker thread for the library

    def test_pieces_under_the_split_size_stay_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(mc_pricer, "_cores", lambda: 2)
        threads = set()
        original = mc_pricer._path_draws

        def recorder(seed, first_path, out):
            threads.add(threading.current_thread())
            return original(seed, first_path, out)

        monkeypatch.setattr(mc_pricer, "_path_draws", recorder)
        split = mc_pricer._SPLIT_ROWS
        rbb_price(PCEV07, uoc(120.0), McConfig(7, 2 * split - 2, 3))  # halves of split - 1 paths
        assert threads == {threading.current_thread()}
        rbb_price(PCEV07, uoc(120.0), McConfig(7, 2 * split - 1, 3))  # a first half of split paths
        assert len(threads) == 2


def test_concurrent_callers_share_the_one_worker(monkeypatch):
    """Calls from more threads than cores queue their pieces on the one worker and keep their bits."""
    monkeypatch.setattr(mc_pricer, "_cores", lambda: 2)
    monkeypatch.setattr(mc_pricer, "_PIECE_DOUBLES", 300 * 2 * 6)
    monkeypatch.setattr(mc_pricer, "_SPLIT_ROWS", 1)
    cfgs = [McConfig(6, 3000 + 97 * i, 40 + i, list(Estimator)[i % 2]) for i in range(6)]

    def price(cfg):
        return [r.price.hex() for r in rbb_price_levels(PCEV07, uoc(115.0), [110.0, 120.0], cfg)]

    expected = [price(cfg) for cfg in cfgs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(cfgs)) as callers:
            got = list(callers.map(price, cfgs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def _price_in_child(conn):
    cfg = McConfig(5, 3000, 9, Estimator.CONDITIONAL_PRODUCT)
    conn.send([r.price.hex() for r in rbb_price_levels(PCEV07, uoc(110.0), [110.0, 120.0], cfg)])
    conn.close()


def test_forked_child_prices_after_the_parent_used_the_pool(monkeypatch):
    """A forked child has no worker thread; it must make its own pool, not wait on the parent's."""
    monkeypatch.setattr(mc_pricer, "_cores", lambda: 2)
    monkeypatch.setattr(mc_pricer, "_SPLIT_ROWS", 1)
    cfg = McConfig(5, 3000, 9, Estimator.CONDITIONAL_PRODUCT)
    expected = [r.price.hex() for r in rbb_price_levels(PCEV07, uoc(110.0), [110.0, 120.0], cfg)]
    assert mc_pricer._worker.cache_info().currsize == 1
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_price_in_child, args=(send,))
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child did not price within 60 s"
        assert receive.recv() == expected
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join(10)
    assert child.exitcode == 0


def test_indicator_reduction_memory_flat_in_levels(monkeypatch):
    """The levels are reduced a chunk at a time, so 1000 of them hold no paths-by-levels array.

    One such array of 4096 paths and 1000 levels takes 32.8 MB.
    """
    monkeypatch.setattr(mc_pricer, "_cores", lambda: 2)
    monkeypatch.setattr(mc_pricer, "_SPLIT_ROWS", 1)
    rbb_price(BS07, uoc(120.0), McConfig(1, 2, 5))  # the worker thread exists before the measurement
    levels = np.linspace(101.0, 150.0, 1000)
    cfg = McConfig(5, 4096, 5)
    tracemalloc.start()
    try:
        results = rbb_price_levels(BS07, uoc(120.0), levels, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    # each level's sum is taken in the same order alone and in any chunk
    for i in (0, 63, 64, 500, 999):
        assert results[i].price == rbb_price_levels(BS07, uoc(120.0), levels[i], cfg)[0].price
    assert results[-1].price > 0.0


def test_draw_memory_flat_in_steps(monkeypatch):
    """The pieces' draws stay within the cap, so the peak of a call does not grow with n.

    The cap is scaled down to the halves of 4096 paths at 100 steps, so
    that a quick call shows what the real cap does to 32768-path blocks
    beyond 128 steps.
    """
    monkeypatch.setattr(mc_pricer, "_cores", lambda: 2)
    monkeypatch.setattr(mc_pricer, "_PIECE_DOUBLES", 2048 * 2 * 100)
    monkeypatch.setattr(mc_pricer, "_SPLIT_ROWS", 1)
    rbb_price(BS07, uoc(120.0), McConfig(1, 2, 5))  # the worker thread exists before the measurement
    peaks = {}
    for n in (100, 1000):
        tracemalloc.start()
        try:
            rbb_price(BS07, uoc(120.0), McConfig(n, 4096, 5))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    draws_at_100 = 4096 * 2 * 100 * 8
    assert draws_at_100 <= peaks[100] < 1.5 * draws_at_100
    assert peaks[1000] <= 1.1 * peaks[100]  # the whole draws at n = 1000 would take ten times as much
