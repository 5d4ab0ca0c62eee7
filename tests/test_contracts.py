import math
import re

import pytest

from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType, check_discount


@pytest.mark.parametrize("field", ["strike", "barrier", "maturity"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_barrier_contract_rejects_non_finite(field, bad):
    params = {"strike": 100.0, "barrier": 115.0, "maturity": 1.0, field: bad}
    with pytest.raises(ValueError, match="finite"):
        BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, **params)


@pytest.mark.parametrize("rate, maturity", [(-709.0, 1.0), (-0.5, 1000.0), (800.0, 1.0), (0.0, 1.0)])
def test_discount_that_fits_a_float_passes(rate, maturity):
    check_discount(rate, maturity)


@pytest.mark.parametrize("rate, maturity", [(-710.0, 1.0), (-800.0, 1.0), (-1.0, 710.0), (-1e300, 1e300)])
def test_discount_overflow_names_r_and_t(rate, maturity):
    with pytest.raises(ValueError, match=re.escape(f"exp(-r*T) overflows a float at r={rate!r}, T={maturity!r};")):
        check_discount(rate, maturity)
