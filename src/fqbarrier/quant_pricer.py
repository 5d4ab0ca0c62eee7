"""Barrier pricing on the quantized chain by forward induction.

Every transition probability is damped by the survival factor of the
barrier over that interval (the bridge extremum law between the two grid
points), giving the sub-stochastic kernels

    H_k[i, j] = g(x_{k-1,i}, x_{k,j}) p_k[i, j],

with g the per-interval no-knock-out probability: G_{x,y}(L) for an
up-and-out contract, 1 - F_{x,y}(L) for a down-and-out one.  Pushing the
initial point mass through the kernels yields a sub-probability measure on
the terminal grid whose total mass is the survival probability; discounting
the expected payoff under it prices the option.

A survival factor is exactly 0 when either end of the interval lies
beyond the barrier, so step k prices only from the live points of date
k-1 into the live cells of date k, from the single point x0 at step 1.
It builds the one-step law of those points once (``models.one_step_law``)
and takes them in blocks of 32 rows.  Each block evaluates the law's CDF
only on its band: the live cells between the lowest and the highest cut
of its rows.  Above the upper cut, 8.5 standard deviations above the
mean of the law (of its log, for the lognormal law), ``ndtr`` is exactly
1.0, so the cells there have probability 0 bit for bit; below the lower
cut, 9 standard deviations below, the law has at most ndtr(-9) =
1.1e-19, which the band's first cell absorbs.  The survival factor is
exactly 1.0 wherever its exponent is at most -54 ln 2, so each block
evaluates it only on the part of its band nearer the barrier.  The
block's mass is then pushed into the band of the next date's measure.  A
call holds two 32-row work arrays per share (below) and a few
d_N-vectors, so memory grows neither with the step count nor with d_N^2:
no kernel H_k is ever formed in full.  The prices agree with the
full-matrix chain e0 H_1 ... H_n within about 5e-15 relative (the order
of the blockwise sums); the tests build that chain from the full-range
``transition_block`` and the unbanded bridge CDFs, bound the gap by
1e-13, and check that a chain that prices exactly 0 still does.

When the process may run on two or more cores, a step with at least
``_SPLIT_BLOCKS`` blocks splits them into two shares of about equal CDF
cost, the sum of their band widths.  The calling thread prices the first
share and adds each block's mass into the next date's measure at once;
the worker thread shared with the Monte Carlo (``_pool``) prices the
second share, with its own two work arrays, and hands back each block's
mass, which the calling thread adds after its own in block order.
Every entry of the measure is thus summed in the same order as on one
core, and the prices are the same bit for bit.  The worker is made on
the first call that uses it, and a forked child makes its own.  Below 16
blocks (512 live source points) the handoff costs more than the second
core saves: on 2 cores, budgets 60-500 priced up to 30% slower split and
budgets 700-1000 20-45% faster.
"""

from __future__ import annotations

import time

import numpy as np

from ._pool import _cores, _worker
from .bridge import BridgeParams, no_crossing
from .brownian import brownian_product_quantizer
from .contracts import BarrierContract, BarrierType, PricingResult, check_discount
from .models import Model, one_step_law
from .price_grid import QuantizedPriceGrid, quantize_price_process
from .transitions import mass_cells, transition_block

__all__ = ["price_barrier", "price_barrier_quant"]

# perfbench/tracing.py still looks these names up to wrap them; delete this line when it drops those wraps
quantized_kernel = forward_induction = prune_knocked_rows = transition_matrices = bridge_max_cdf = bridge_min_cdf = None


# 1 - exp(e) rounds to exactly 1.0 once exp(e) <= 2**-54, that is for
# e <= -54 ln 2 = -37.43; the band edge sits below that, so the rounding of
# the approximate row slope below cannot move an entry across it
_EXACT_ONE = -38.0
_BAND_ROWS = 32  # source rows that share one band of columns
_SPLIT_BLOCKS = 16  # a step with fewer blocks runs on one thread


class _Survival:
    """Barrier survival factors between the live points ``x`` of one date and ``y`` of the next.

    ``sigma`` holds the diffusion at ``x``.  Between live points the
    exponent e_ij = a_i (y_j - L) of the factor is rank one and monotone
    along each row, and where e_ij <= -54 ln 2 the factor is exactly 1.0;
    ``edge`` marks, per row, where the columns nearer the barrier than that
    begin (up-and-out) or end (down-and-out).  Built once per step.
    """

    def __init__(self, x, y, sigma, contract: BarrierContract, n_steps: int, horizon: float):
        L = contract.barrier
        self.x, self.y, self.sigma, self.L = x, y, sigma, L
        self.up = contract.barrier_type is BarrierType.UP_AND_OUT
        self.n_steps, self.horizon = n_steps, horizon
        with np.errstate(divide="ignore", invalid="ignore"):
            # the factor of row i is exactly 1.0 where |y_j - L| >= reach_i
            reach = -_EXACT_ONE / np.abs(2.0 * n_steps * (x - L) / (horizon * sigma**2))
        reach[sigma == 0.0] = np.inf  # a down-and-out segment dies on the barrier: take the whole row
        self.edge = np.searchsorted(y - L, -reach, "right") if self.up else np.searchsorted(y - L, reach, "left")

    def damp(self, block: np.ndarray, rows: slice, cols: slice, spare: np.ndarray) -> None:
        """Multiply ``block``, the entries of rows ``rows`` and columns ``cols``, by the factor in place.

        The factor is ``bridge.no_crossing`` on the columns from the row
        block's edge to the barrier; ``spare``, a flat array of at least
        ``block.size`` entries, holds it.
        """
        edge = self.edge[rows]
        if self.up:
            a, z = max(int(edge.min()), cols.start), cols.stop
        else:
            a, z = cols.start, min(int(edge.max()), cols.stop)
        if a >= z:
            return
        xs, ys = self.x[rows, None], self.y[a:z]
        out = spare[: xs.size * ys.size].reshape(xs.size, ys.size)
        params = BridgeParams(self.n_steps, self.horizon, self.sigma[rows, None])
        survival = no_crossing(xs, ys, self.L, params, self.up, out=out)
        band = block[:, a - cols.start : z - cols.start]
        np.multiply(band, survival, out=band)


def _live_cells(points: np.ndarray, contract: BarrierContract) -> tuple[int, int]:
    """Index range [lo, hi) of the ascending ``points`` on the live side of the barrier, the barrier included."""
    if contract.barrier_type is BarrierType.UP_AND_OUT:
        return 0, int(np.searchsorted(points, contract.barrier, "right"))
    return int(np.searchsorted(points, contract.barrier, "left")), points.size


def price_barrier(model: Model, contract: BarrierContract, grid: QuantizedPriceGrid) -> PricingResult:
    """Price the contract on prebuilt grids under the model's one-step law (``models.one_step_law``).

    The grid must span the contract's maturity and start at the model's
    x0.  A contract whose live set is empty at some date prices exactly 0.
    """
    start = time.perf_counter()
    grids, n = grid.grids, grid.n_steps
    if n < 1 or grids.ndim != 2 or grids.shape[0] != n + 1 or grids.shape[1] == 0:
        raise ValueError("need n_steps >= 1 and one nonempty grid per pricing date")
    if grid.horizon != contract.maturity:
        raise ValueError(f"grid horizon {grid.horizon} differs from the contract maturity {contract.maturity}")
    if grids[0][0] != model.x0:
        raise ValueError(f"grid starts at {grids[0][0]}, the model at x0={model.x0}")
    check_discount(model.r, contract.maturity)
    pi, terminal = _survival_measure(model, contract, grid)
    price = 0.0 if pi is None else np.exp(-model.r * contract.maturity) * float(pi @ contract.payoff(terminal))
    return PricingResult(price=price, method="quant", elapsed=time.perf_counter() - start)


def _survival_measure(model: Model, contract: BarrierContract, grid: QuantizedPriceGrid):
    """Survival masses on the live cells of the last date, and those cells' points.

    The masses are None when the live set is empty at some date.  Step k
    takes the live points of date k-1 (the single point x0 at step 1) in
    blocks of ``_BAND_ROWS``, with one one-step law for all of them.  Each
    block evaluates the law's CDF only on its band, the live cells between
    the lowest and the highest of its rows' ``mass_cells``, damps it by
    the survival factor and pushes its mass into the band.  The band's
    first cell absorbs the tail below the lower cut, so the rows keep their
    sums.  On two or more cores the blocks of a step with at least
    ``_SPLIT_BLOCKS`` of them go to two shares (``_push_in_two_shares``).
    """
    grids, n = grid.grids, grid.n_steps
    live = [_live_cells(points, contract) for points in grids]
    if any(lo >= hi for lo, hi in live):
        return None, None
    dt = grid.horizon / n
    # each share owns one CDF work array and one block array, which serve
    # every block of every step; each block's arrays are contiguous views
    # at their start
    d = grids.shape[1]
    shares = [(np.empty(_BAND_ROWS * (d + 1)), np.empty(_BAND_ROWS * d)) for _ in range(min(_cores(), 2))]
    src, pi = grids[0][:1], np.ones(1)  # date 0 is d_N copies of x0
    for k in range(1, n + 1):
        lo, hi = live[k]
        gn = grids[k]
        law = one_step_law(model, src, dt)
        cells = np.clip(mass_cells(law, gn), lo, hi)
        starts = np.arange(0, src.size, _BAND_ROWS)
        bands = zip(starts, np.minimum.reduceat(cells[0], starts), np.maximum.reduceat(cells[1], starts))
        blocks = [(i, a, z) for i, a, z in bands if a < z]
        survival = _Survival(src, gn[lo:hi], np.asarray(model.diffusion(src)), contract, n, grid.horizon)
        step = (law, gn, lo, hi, survival, pi)
        if len(shares) == 2 and len(blocks) >= _SPLIT_BLOCKS:
            masses = _push_in_two_shares(step, blocks, shares)
        else:
            masses = _push_blocks(step, blocks, shares[0])
        nxt = np.zeros(hi - lo)
        for cols, mass in masses:  # in block order, on one share or two
            nxt[cols] += mass
        src, pi = gn[lo:hi], nxt
    return pi, src


def _push_in_two_shares(step, blocks, shares):
    """Push the blocks in two shares of about equal CDF cost: the first here, the second on the worker.

    Yields the (band, mass) pairs of this thread's share as it prices them
    and then the worker's, so in block order, as ``_push_blocks`` yields
    them on one share.
    """
    cost = np.cumsum([z - a for _, a, z in blocks])
    cut = min(int(np.searchsorted(cost, 0.5 * cost[-1])) + 1, len(blocks) - 1)
    held = _worker().submit(list, _push_blocks(step, blocks[cut:], shares[1]))
    try:
        yield from _push_blocks(step, blocks[:cut], shares[0])
    finally:
        masses = held.result()  # the worker is done with its arrays even if this thread raised
    yield from masses


def _push_blocks(step, blocks, arrays):
    """Price the row blocks ``blocks``, triples (first row, band start, band stop), of one step.

    ``step`` is (law, next grid, live range lo, hi, survival, measure) and
    ``arrays`` the share's CDF work and block arrays.  Yields each block's
    band of the next date's live cells and its mass ``pi[rows] @ p`` there,
    in block order.  This may run on the pool worker, so it calls no module
    attribute that the benchmark tracer wraps.
    """
    law, gn, lo, hi, survival, pi = step
    work, kernel = arrays
    for i, a, z in blocks:
        rows = slice(i, min(i + _BAND_ROWS, pi.size))
        m = rows.stop - rows.start
        # with cells below the band still live, the band's first cell
        # takes the tail: transition_block sees it as the grid's bottom
        bottom = a if a > lo else 0
        while True:
            cum = work[: m * (z - a + 1)].reshape(m, z - a + 1)
            p = kernel[: m * (z - a)].reshape(m, z - a)
            transition_block(law, gn[bottom:], a - bottom, z - bottom, rows, out=p, work=cum)
            if z == hi or (cum[:, -1] == 1.0).all():
                break
            z = hi  # a spread too small for the cut's margin: take the rest of the live cells
        cols = slice(a - lo, z - lo)
        survival.damp(p, rows, cols, spare=work)  # the CDF is spent
        yield cols, pi[rows] @ p


def price_barrier_quant(
    model: Model,
    contract: BarrierContract,
    n_steps: int,
    budget: int = 1000,
) -> PricingResult:
    """End-to-end quantization price: build paths and grids, then induct under the model's one-step law."""
    start = time.perf_counter()
    check_discount(model.r, contract.maturity)  # before the quantizer and the grid ODE are paid for
    quantizer = brownian_product_quantizer(budget, contract.maturity)
    grid = quantize_price_process(model, quantizer, n_steps)
    result = price_barrier(model, contract, grid)
    result.elapsed = time.perf_counter() - start
    return result
