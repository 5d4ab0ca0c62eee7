"""Brownian-bridge Monte Carlo pricer for knock-out options.

Paths follow the discrete Euler scheme; between consecutive dates the
extremum of the interpolating bridge is either simulated by inverting its
conditional distribution (indicator estimator) or integrated out
analytically (conditional-product estimator, lower variance by Jensen).
This is the continuous Euler scheme for killed diffusions (Gobet 2000):
both estimators are unbiased for the Euler-with-bridge scheme at the
configured ``n_steps``, and that scheme converges to the continuous-
monitoring price with O(1/n) weak error, so at coarse dates the price
carries a discretization bias (about +0.06 on the table-2 rows at
barriers 120-125 for n=20) that no number of paths removes.

Randomness comes from a counter-based generator (Philox) keyed by the
seed, consuming exactly ``2 n`` uniforms per path - one block of normals
via the inverse distribution transform, one block of bridge uniforms - so
any path range can be regenerated independently of how the work is
batched, and (seed, n_paths, n_steps) fully determine the result.

Paths are summed in blocks of ``_BLOCK``.  Each block is cut by rows into
pieces: two halves up to 128 steps, and beyond that as many pairs as keep
a piece's draws within ``_PIECE_DOUBLES`` (32 MiB), so that the memory of
a call does not grow with the step count.  A piece draws its uniforms
into its thread's rows of one draw buffer, made once per call, turns the
normal columns into normals in place, and runs its paths to maturity,
writing their terminal points and extrema or survival factors into its
rows of the block's arrays.  When the process may run on two or more
cores, the worker thread shared with the quantization pricer (``_pool``)
runs every second piece while the calling thread runs the others; on one
core, or with pieces under ``_SPLIT_ROWS`` paths, the calling thread runs
them all.  Below that size the threads' handoffs of the GIL cost more
than the second core saves: on 2 cores, 32768 pseudo-CEV indicator paths
at 2000 steps (pieces of 1024 paths) took 8.0 s on two threads and 6.3 s
on one, and at 1000 steps (2048 paths) 2.9 s and 2.8 s.

Every operation on a path is elementwise, so its values do not depend on
the piece it falls in.  The calling thread reduces the whole block,
``_LEVEL_CHUNK`` levels at a time and each level over its paths in row
order, so every sum is taken in the same order on one core and on two,
and the results are the same bit for bit.
On 2 cores the ``mc-table4`` benchmark op (10 levels, 131072 paths, the
indicator at 100 steps and the conditional product at 20) took 0.66 s
against 1.13 s for the former one-thread loop, and the run's peak RSS
fell from 245 to 130 MB: the former loop held a whole block's 52 MB of
uniforms and a 26 MB copy of its normals while it drew the next block's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtri

from ._pool import _cores, _worker
from .bridge import BridgeParams, bridge_extremum, no_crossing
from .contracts import BarrierContract, BarrierType, PricingResult, check_discount
from .models import Model

__all__ = [
    "Estimator",
    "McConfig",
    "rbb_price",
    "rbb_price_levels",
]

_BLOCK = 32768  # fixed accumulation block; keeps sums independent of batching
_PIECE_DOUBLES = 2**22  # the most draws one piece holds: a half block up to 128 steps
_SPLIT_ROWS = 2048  # pieces of fewer paths all run on the calling thread
_U_FLOOR = 2.0**-53  # smallest positive uniform the generator can emit
_LEVEL_CHUNK = 64  # levels reduced at a time


class Estimator(Enum):
    INDICATOR = "indicator"
    CONDITIONAL_PRODUCT = "conditional"


@dataclass(frozen=True)
class McConfig:
    n_steps: int
    n_paths: int
    seed: int
    estimator: Estimator = Estimator.INDICATOR

    def __post_init__(self):
        if self.n_steps < 1 or self.n_paths < 1:
            raise ValueError("n_steps and n_paths must be >= 1")
        if not 0 <= self.seed < 2**128:  # the range of a Philox key
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")


def _path_draws(seed: int, first_path: int, out: np.ndarray):
    """Normals and bridge uniforms for paths [first_path, first_path + len(out)), drawn into ``out``.

    ``out`` is C-contiguous with 2 n columns.  Each path owns 2 n
    consecutive doubles of the keyed Philox stream, one uint64 per double.
    ``advance`` moves whole 4-output counter blocks, so the skip is done in
    blocks plus discarded remainder draws.  The first n columns are turned
    into normals in place; the result is the views (normals, uniforms).
    """
    width = out.shape[1]
    offset = first_path * width
    bg = np.random.Philox(key=seed)
    bg.advance(offset // 4)
    gen = np.random.Generator(bg)
    if offset % 4:
        gen.random(offset % 4)
    gen.random(out=out)
    np.maximum(out, _U_FLOOR, out=out)  # keep uniforms inside the open interval
    n = width // 2
    return ndtri(out[:, :n], out=out[:, :n]), out[:, n:]


def _piece_rows(n_paths: int, n_steps: int) -> int:
    """The most paths one piece of a call holds: half a block, within ``_PIECE_DOUBLES`` draws."""
    return min(-(-min(n_paths, _BLOCK) // 2), max(1, _PIECE_DOUBLES // (2 * n_steps)))


def _pieces(m: int, rows: int) -> list[tuple[int, int]]:
    """Row ranges of a block of ``m`` paths: pairs of near-equal pieces of at most ``rows`` paths."""
    pairs = -(-m // (2 * rows))
    size = -(-m // (2 * pairs))
    return [(a, min(a + size, m)) for a in range(0, m, size)]


def _simulate_levels(
    model: Model,
    contract: BarrierContract,
    levels: np.ndarray,
    cfg: McConfig,
):
    """Shared-path simulation returning (sum Y, sum Y^2) per barrier level."""
    n = cfg.n_steps
    T = contract.maturity
    dt = T / n
    sq = math.sqrt(dt)
    disc = math.exp(-model.r * T)
    up = contract.barrier_type is BarrierType.UP_AND_OUT
    conditional = cfg.estimator is Estimator.CONDITIONAL_PRODUCT
    q = levels.size

    # every block's arrays are the leading rows of the first block's, and
    # each thread draws every piece into its own rows of one buffer
    rows = _piece_rows(cfg.n_paths, n)
    threads = 2 if _cores() >= 2 and rows >= _SPLIT_ROWS else 1
    draws = np.empty((threads * rows, 2 * n))
    m0 = min(_BLOCK, cfg.n_paths)
    terminal = np.empty(m0)
    state = np.empty((m0, q) if conditional else m0)

    def run(first, pieces, buf):
        """Draw and simulate the block rows ``pieces``; the block's first path is ``first``."""
        for a, b in pieces:
            Z, V = _path_draws(cfg.seed, first + a, buf[: b - a])
            X = np.full(b - a, float(model.x0))
            if conditional:
                factors = state[a:b]
                factors[:] = levels >= model.x0 if up else levels <= model.x0
            else:
                extreme = state[a:b]
                extreme.fill(-np.inf if up else np.inf)
            for k in range(n):
                sig = np.asarray(model.diffusion(X))
                Xn = X + model.drift(X) * dt + sig * sq * Z[:, k]
                # an Euler path can cross zero, making sig negative; the
                # bridge law depends on sig only through sig^2
                if conditional:
                    params = BridgeParams(n, T, np.abs(sig)[:, None])
                    factors *= no_crossing(X[:, None], Xn[:, None], levels, params, up)
                else:
                    draw = bridge_extremum(X, Xn, np.log(V[:, k]), BridgeParams(n, T, np.abs(sig)), up)
                    if up:
                        np.maximum(extreme, draw, out=extreme)
                    else:
                        np.minimum(extreme, draw, out=extreme)
                X = Xn
            terminal[a:b] = X

    sums = np.zeros(q)
    sumsq = np.zeros(q)
    for first in range(0, cfg.n_paths, _BLOCK):
        m = min(_BLOCK, cfg.n_paths - first)
        pieces = _pieces(m, rows)
        if threads == 2 and len(pieces) > 1:
            held = _worker().submit(run, first, pieces[1::2], draws[rows:])
            try:
                run(first, pieces[::2], draws[:rows])
            finally:
                held.result()  # the worker is done with its rows even if this thread raised
        else:
            run(first, pieces, draws)
        pay = disc * contract.payoff(terminal[:m])
        # reduce level by level over contiguous rows, so the rounding tree of
        # a level's sum depends on neither the number of levels nor the chunk
        for c in range(0, q, _LEVEL_CHUNK):
            part = slice(c, c + _LEVEL_CHUNK)
            if conditional:
                Yt = np.multiply(state[:m, part].T, pay, order="C")
            else:
                chunk = levels[part, None]
                Yt = pay * (chunk >= state[:m] if up else chunk <= state[:m])
            sums[part] += Yt.sum(axis=1)
            sumsq[part] += np.einsum("ij,ij->i", Yt, Yt)
    return sums, sumsq


def _results_from_sums(sums, sumsq, n_paths: int, elapsed: float) -> list[PricingResult]:
    mean = sums / n_paths
    if n_paths > 1:
        var = np.maximum(sumsq - n_paths * mean**2, 0.0) / (n_paths - 1)
    else:
        var = np.zeros_like(mean)
    se = np.sqrt(var / n_paths)
    return [
        PricingResult(float(p), "rbb", elapsed, sample_variance=float(v), std_error=float(s))
        for p, v, s in zip(mean, var, se)
    ]


def rbb_price_levels(
    model: Model,
    contract: BarrierContract,
    levels,
    cfg: McConfig,
) -> list[PricingResult]:
    """Price the contract at several barrier levels over one shared path set.

    The contract's own barrier is ignored in favor of ``levels``; every
    result carries the shared wall-clock time of the run.
    """
    levels = np.atleast_1d(np.asarray(levels, dtype=float))
    if not np.all(np.isfinite(levels) & (levels > 0.0)):
        raise ValueError("barrier levels must be finite and positive")
    check_discount(model.r, contract.maturity)
    start = time.perf_counter()
    sums, sumsq = _simulate_levels(model, contract, levels, cfg)
    return _results_from_sums(sums, sumsq, cfg.n_paths, time.perf_counter() - start)


def rbb_price(model: Model, contract: BarrierContract, cfg: McConfig) -> PricingResult:
    """Monte Carlo price of a knock-out option with the configured estimator.

    The estimate is unbiased for the Euler scheme with per-interval bridge
    correction at ``cfg.n_steps`` dates; it converges to the continuous-
    monitoring price with O(1/n) weak error in the number of steps.
    """
    return rbb_price_levels(model, contract, [contract.barrier], cfg)[0]

