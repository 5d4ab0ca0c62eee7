"""Barrier option pricing by marginal functional quantization.

The package builds optimal quadratic quantizers of Brownian motion from
its sine eigenexpansion, turns them into per-date price grids by solving
a companion ODE, estimates grid transition probabilities from one-step
conditional laws, and prices knock-out options by forward induction with
bridge-law survival factors.  A bridge Monte Carlo pricer and the
Black-Scholes closed forms serve as baselines.
"""

from .bridge import (
    BridgeParams,
    bridge_max_cdf,
    bridge_max_inverse,
    bridge_min_cdf,
    bridge_min_inverse,
)
from .brownian import (
    BrownianProductQuantizer,
    ProductDecomposition,
    brownian_product_quantizer,
    build_product_quantizer,
    kl_eigenfunction,
    kl_eigenvalue,
    optimal_decomposition,
)
from .closed_form import barrier_price, price_closed_form, vanilla_price
from .contracts import BarrierContract, BarrierType, PayoffType, PricingResult
from .gaussian import (
    GaussianQuantizer,
    LloydConvergenceError,
    distortion,
    optimal_normal_quantizer,
    quantizer_weights,
)
from .mc_pricer import (
    Estimator,
    McConfig,
    estimator_variance_comparison,
    euler_path,
    rbb_price,
    rbb_price_levels,
)
from .models import (
    BlackScholes,
    PseudoCEV,
    conditional_cdf_euler,
    conditional_cdf_exact,
    model_from_dict,
)
from .price_grid import QuantizedPriceGrid, quantize_price_process
from .quant_pricer import (
    forward_induction,
    price_barrier,
    price_barrier_quant,
    prune_knocked_rows,
    quantized_kernel,
)
from .tables import TABLE_SPECS, run_table, write_table_csv
from .transitions import (
    TransitionMatrix,
    cell_boundaries,
    transition_matrices,
    transition_matrix,
)

__version__ = "0.1.0"
