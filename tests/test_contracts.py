import math

import pytest

from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType


@pytest.mark.parametrize("field", ["strike", "barrier", "maturity"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_barrier_contract_rejects_non_finite(field, bad):
    params = {"strike": 100.0, "barrier": 115.0, "maturity": 1.0, field: bad}
    with pytest.raises(ValueError, match="finite"):
        BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, **params)
