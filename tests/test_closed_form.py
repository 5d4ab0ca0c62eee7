import math

import mpmath
import numpy as np
import pytest

from fqbarrier.closed_form import barrier_price, price_closed_form, vanilla_price
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.mc_pricer import McConfig, rbb_price
from tests.conftest import BS07

# frozen quadrature of the discounted lognormal payoff (r=0.15, sigma=0.07, T=1, ATM)
VANILLA_CALL_QUAD = 13.966473127401038

# benchmark "true" up-and-out call prices (r=0.15, T=1, K=100, x0=100)
TRUE_SIGMA_007 = {105: 0.034, 110: 0.59, 115: 2.58, 120: 6.01, 125: 9.58, 130: 12.07}
TRUE_SIGMA_010 = {105: 0.029, 110: 0.42, 115: 1.70, 120: 3.95, 125: 6.70, 130: 9.31}


def uo_call(level, sigma):
    return barrier_price(100.0, 100.0, level, 1.0, 0.15, sigma, BarrierType.UP_AND_OUT, PayoffType.CALL)


class TestVanilla:
    def test_matches_integration_oracle(self):
        call = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.CALL)
        assert call == pytest.approx(VANILLA_CALL_QUAD, abs=1e-6)

    def test_put_call_parity(self):
        call = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.CALL)
        put = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.PUT)
        assert call - put == pytest.approx(100.0 - 100.0 * math.exp(-0.15), abs=1e-12)

    def test_tiny_strike_call_is_spot(self):
        call = vanilla_price(100.0, 1e-10, 1.0, 0.15, 0.07, PayoffType.CALL)
        assert call == pytest.approx(100.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            vanilla_price(100.0, 100.0, 1.0, 0.15, 0.0, PayoffType.CALL)


class TestBarrierAgainstBenchmarks:
    @pytest.mark.parametrize("level,expected", sorted(TRUE_SIGMA_007.items()))
    def test_sigma_007_table(self, level, expected):
        assert uo_call(level, 0.07) == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("level,expected", sorted(TRUE_SIGMA_010.items()))
    def test_sigma_010_table(self, level, expected):
        assert uo_call(level, 0.10) == pytest.approx(expected, abs=0.01)


class TestBarrierStructure:
    def test_bounded_by_vanilla(self):
        vanilla = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.CALL)
        for level in (101.0, 110.0, 140.0, 250.0):
            price = uo_call(level, 0.07)
            assert 0.0 <= price <= vanilla + 1e-12

    def test_far_barrier_is_vanilla(self):
        vanilla = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.07, PayoffType.CALL)
        assert uo_call(1e6, 0.07) == pytest.approx(vanilla, abs=1e-9)

    def test_up_and_out_call_dies_as_barrier_meets_strike(self):
        assert uo_call(100.0 + 1e-7, 0.07) < 1e-6
        assert uo_call(100.0, 0.07) == 0.0
        assert uo_call(95.0, 0.07) == 0.0

    def test_spot_beyond_barrier_is_knocked(self):
        assert barrier_price(120.0, 100.0, 115.0, 1.0, 0.15, 0.07, BarrierType.UP_AND_OUT, PayoffType.CALL) == 0.0
        assert barrier_price(80.0, 100.0, 90.0, 1.0, 0.15, 0.07, BarrierType.DOWN_AND_OUT, PayoffType.CALL) == 0.0

    def test_down_and_out_far_barrier_is_vanilla(self):
        vanilla = vanilla_price(100.0, 100.0, 1.0, 0.15, 0.2, PayoffType.CALL)
        got = barrier_price(100.0, 100.0, 1e-6, 1.0, 0.15, 0.2, BarrierType.DOWN_AND_OUT, PayoffType.CALL)
        assert got == pytest.approx(vanilla, rel=1e-9)

    def test_down_and_out_put_with_strike_below_barrier_is_zero(self):
        got = barrier_price(100.0, 85.0, 90.0, 1.0, 0.15, 0.2, BarrierType.DOWN_AND_OUT, PayoffType.PUT)
        assert got == 0.0

    def test_never_negative_where_the_blocks_cancel(self):
        # both cancel to -1.38e-14 and -1.96e-35 without the floor
        assert uo_call(100.0000001, 0.07) == 0.0
        assert barrier_price(100.0, 100.0, 60.0, 30.0, -0.5, 0.2, BarrierType.DOWN_AND_OUT, PayoffType.PUT) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            barrier_price(100.0, 100.0, -1.0, 1.0, 0.15, 0.07, BarrierType.UP_AND_OUT, PayoffType.CALL)


def mp_blocks(x0, strike, barrier, maturity, rate, sigma, phi, eta):
    """The four reflection blocks in 60-digit arithmetic."""
    with mpmath.workdps(60):
        x0, strike, barrier, maturity, rate, sigma = map(mpmath.mpf, (x0, strike, barrier, maturity, rate, sigma))
        srt = sigma * mpmath.sqrt(maturity)
        mu = rate / sigma**2 - mpmath.mpf(1) / 2
        disc, ratio = mpmath.exp(-rate * maturity), barrier / x0
        x1 = mpmath.log(x0 / strike) / srt + (1 + mu) * srt
        x2 = mpmath.log(x0 / barrier) / srt + (1 + mu) * srt
        y1 = mpmath.log(barrier**2 / (x0 * strike)) / srt + (1 + mu) * srt
        y2 = mpmath.log(barrier / x0) / srt + (1 + mu) * srt
        A = phi * x0 * mpmath.ncdf(phi * x1) - phi * strike * disc * mpmath.ncdf(phi * (x1 - srt))
        B = phi * x0 * mpmath.ncdf(phi * x2) - phi * strike * disc * mpmath.ncdf(phi * (x2 - srt))
        C = phi * x0 * ratio ** (2 * mu + 2) * mpmath.ncdf(eta * y1) - phi * strike * disc * ratio ** (
            2 * mu
        ) * mpmath.ncdf(eta * (y1 - srt))
        D = phi * x0 * ratio ** (2 * mu + 2) * mpmath.ncdf(eta * y2) - phi * strike * disc * ratio ** (
            2 * mu
        ) * mpmath.ncdf(eta * (y2 - srt))
        return A, B, C, D


class TestSmallSigmaOverflow:
    """(L/x0)^(2 mu + 2) overflows a float at small sigma; the blocks stay finite."""

    def test_up_and_out_put_far_below_the_barrier(self):
        # 2 mu + 2 = 3806: the power alone is about 1e402
        args = (100.0, 60.47, 127.5, 0.73, 0.221, 0.0108)
        price = barrier_price(*args, BarrierType.UP_AND_OUT, PayoffType.PUT)
        A, _, C, _ = mp_blocks(*args, phi=-1, eta=-1)
        assert math.isfinite(price)
        assert 0.0 <= price <= vanilla_price(100.0, 60.47, 0.73, 0.221, 0.0108, PayoffType.PUT) + 1e-12
        assert abs(price - float(A - C)) <= 4.5e-13 * 100.0

    def test_up_and_out_call_that_never_reaches_its_barrier(self):
        # the forward ends near 110.5, 14 of its sd below L = 120; 2 mu + 2 = 4001
        args = (100.0, 100.0, 120.0, 0.5, 0.2, 0.01)
        price = barrier_price(*args, BarrierType.UP_AND_OUT, PayoffType.CALL)
        A, B, C, D = mp_blocks(*args, phi=1, eta=-1)
        assert price == pytest.approx(float(A - B + C - D), rel=1e-12, abs=0)
        assert price == pytest.approx(vanilla_price(100.0, 100.0, 0.5, 0.2, 0.01, PayoffType.CALL), rel=1e-12, abs=0)


    def test_down_and_out_call_reads_no_unused_reflected_block(self):
        """The strike pair's reflected block C overflows a float here; B - D, the price, is 0.

        2 mu = 2 r / sigma^2 - 1 = -74380, and the forward ends near 50, far below L = 121.2.
        """
        args = (135.43, 14.35, 121.2, 1.626, -0.610, 0.00405)
        assert barrier_price(*args, BarrierType.DOWN_AND_OUT, PayoffType.CALL) == 0.0

    def test_random_inputs_price_or_raise_value_error(self):
        """x0 1e-6..1e6, K within 10x and L within 10^0.5 of x0, T 1e-3..30, r +-1, sigma 0.003-3, every kind.

        Each price is finite and >= 0, at most the vanilla price, and no
        lower once the barrier moves 1% away from x0, each within an absolute
        slack of 1e-15 x0.  On these draws the worst excess over the vanilla
        price is 2.5e-17 x0, and the move never lowers a price.
        """
        rng = np.random.default_rng(2026)
        kinds = [(b, p) for b in BarrierType for p in PayoffType]
        for _ in range(3000):
            x0 = 10.0 ** rng.uniform(-6.0, 6.0)
            args = (
                x0,
                x0 * 10.0 ** rng.uniform(-1.0, 1.0),
                x0 * 10.0 ** rng.uniform(-0.5, 0.5),
                10.0 ** rng.uniform(-3.0, math.log10(30.0)),
                rng.uniform(-1.0, 1.0),
                10.0 ** rng.uniform(math.log10(0.003), math.log10(3.0)),
                *kinds[rng.integers(len(kinds))],
            )
            try:
                price = barrier_price(*args)
            except ValueError:
                continue
            assert math.isfinite(price) and price >= 0.0, args
            x0, strike, barrier, maturity, rate, sigma, barrier_type, payoff_type = args
            slack = 1e-15 * x0
            assert price <= vanilla_price(x0, strike, maturity, rate, sigma, payoff_type) + slack, args
            farther = barrier * 1.01 if barrier > x0 else barrier / 1.01
            assert price <= barrier_price(x0, strike, farther, *args[3:]) + slack, args


class TestDiscountOverflow:
    """exp(-r T) overflows a float at r T = -800: both closed forms reject the input by name."""

    def test_barrier_price(self):
        with pytest.raises(ValueError, match=r"r=-800.0, T=1.0"):
            barrier_price(100.0, 100.0, 120.0, 1.0, -800.0, 0.07, BarrierType.UP_AND_OUT, PayoffType.CALL)

    def test_vanilla_price(self):
        with pytest.raises(ValueError, match=r"r=-800.0, T=1.0"):
            vanilla_price(100.0, 100.0, 1.0, -800.0, 0.07, PayoffType.CALL)


class TestModelContractWrapper:
    def test_matches_direct_call(self):
        contract = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, 100.0, 115.0, 1.0)
        res = price_closed_form(BS07, contract)
        assert res.price == uo_call(115.0, 0.07)
        assert res.method == "closed"

    def test_rejects_pcev(self):
        from tests.conftest import PCEV07

        contract = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, 100.0, 115.0, 1.0)
        with pytest.raises(ValueError, match="pseudo-CEV"):
            price_closed_form(PCEV07, contract)


@pytest.mark.slow
class TestMonteCarloOracle:
    """High-resolution bridge Monte Carlo spot checks of the closed form."""

    @pytest.mark.parametrize(
        "sigma,level",
        [(0.07, 115.0), (0.10, 125.0)],
    )
    def test_high_resolution_agreement(self, sigma, level):
        from fqbarrier.models import BlackScholes

        model = BlackScholes(r=0.15, sigma=sigma, x0=100.0)
        contract = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, 100.0, level, 1.0)
        res = rbb_price(model, contract, McConfig(n_steps=200, n_paths=10_000_000, seed=41))
        closed = barrier_price(100.0, 100.0, level, 1.0, 0.15, sigma, BarrierType.UP_AND_OUT, PayoffType.CALL)
        assert abs(res.price - closed) <= 3.0 * res.std_error + 0.01
