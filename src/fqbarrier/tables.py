"""Benchmark table definitions and the batch runner that reproduces them.

Five up-and-out call sweeps over the barrier level (strike 100, spot 100,
rate 0.15, maturity 1): three Black-Scholes configurations priced against
the closed form, and two pseudo-CEV configurations priced against a
high-resolution Monte Carlo reference (1e7 paths, 100 steps); the
table's model picks its reference.  Each row reports the reference price,
the bridge Monte Carlo price and per-sample variance, and the
quantization price with its per-row pricing time.  The rows share one
quantizer and one price grid; each row's time is its ``price_barrier``
call, whose transition probabilities depend on the barrier through the
live cells, so each row evaluates its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .brownian import brownian_product_quantizer
from .closed_form import barrier_price
from .contracts import BarrierContract, BarrierType, PayoffType
from .mc_pricer import McConfig, rbb_price_levels
from .models import BlackScholes, Model, PseudoCEV
from .price_grid import quantize_price_process
from .quant_pricer import price_barrier

__all__ = ["TableSpec", "TableRow", "TABLE_SPECS", "run_table", "write_table_csv", "read_table_csv"]

DEFAULT_SEED = 12345
REFERENCE_SEED_OFFSET = 7919  # keep the reference stream disjoint from the MC column


@dataclass(frozen=True)
class TableSpec:
    table_id: int
    model: Model
    n_steps: int
    levels: tuple[float, ...]
    mc_paths: int = 1_000_000
    reference_paths: int = 10_000_000
    reference_steps: int = 100


_BS_LEVELS = (105.0, 110.0, 115.0, 120.0, 125.0, 130.0)
_PCEV_LEVELS = (105.0, 106.0, 107.0, 110.0, 111.0, 112.0, 115.0, 120.0, 125.0, 130.0)

TABLE_SPECS: dict[int, TableSpec] = {
    1: TableSpec(1, BlackScholes(r=0.15, sigma=0.07, x0=100.0), 10, _BS_LEVELS),
    2: TableSpec(2, BlackScholes(r=0.15, sigma=0.07, x0=100.0), 20, _BS_LEVELS),
    3: TableSpec(3, BlackScholes(r=0.15, sigma=0.10, x0=100.0), 20, _BS_LEVELS),
    4: TableSpec(4, PseudoCEV(r=0.15, vartheta=0.7, delta=0.5, x0=100.0), 20, _PCEV_LEVELS),
    5: TableSpec(5, PseudoCEV(r=0.15, vartheta=1.0, delta=0.5, x0=100.0), 20, _PCEV_LEVELS),
}

_STRIKE = 100.0
_MATURITY = 1.0


@dataclass
class TableRow:
    level: float
    reference_price: float
    rbb_price: float
    rbb_variance: float
    qep_price: float
    qep_seconds: float


def _contract(level: float) -> BarrierContract:
    return BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, _STRIKE, level, _MATURITY)


def run_table(
    table_id: int,
    seed: int = DEFAULT_SEED,
    budget: int = 1000,
    mc_paths: int | None = None,
    reference_paths: int | None = None,
    reference_steps: int | None = None,
) -> list[TableRow]:
    """Recompute one benchmark table; overrides left at None keep the table's Monte Carlo sizes."""
    if table_id not in TABLE_SPECS:
        raise ValueError(f"table_id must be one of {sorted(TABLE_SPECS)}")
    spec = TABLE_SPECS[table_id]
    model = spec.model
    levels = spec.levels
    template = _contract(levels[0])

    if isinstance(model, BlackScholes):  # the closed form; the Monte Carlo reference otherwise
        reference = [
            barrier_price(
                model.x0, _STRIKE, lv, _MATURITY, model.r, model.sigma,
                BarrierType.UP_AND_OUT, PayoffType.CALL,
            )
            for lv in levels
        ]
    else:
        ref_cfg = McConfig(
            n_steps=spec.reference_steps if reference_steps is None else reference_steps,
            n_paths=spec.reference_paths if reference_paths is None else reference_paths,
            seed=seed + REFERENCE_SEED_OFFSET,
        )
        reference = [r.price for r in rbb_price_levels(model, template, levels, ref_cfg)]

    mc_cfg = McConfig(n_steps=spec.n_steps, n_paths=spec.mc_paths if mc_paths is None else mc_paths, seed=seed)
    mc = rbb_price_levels(model, template, levels, mc_cfg)

    quantizer = brownian_product_quantizer(budget, _MATURITY)
    grid = quantize_price_process(model, quantizer, spec.n_steps)

    rows = []
    for i, lv in enumerate(levels):
        qep = price_barrier(model, _contract(lv), grid)
        rows.append(
            TableRow(
                level=lv,
                reference_price=reference[i],
                rbb_price=mc[i].price,
                rbb_variance=mc[i].sample_variance,
                qep_price=qep.price,
                qep_seconds=qep.elapsed,
            )
        )
    return rows


_COLUMNS = ["level", "reference_price", "rbb_price", "rbb_variance", "qep_price", "qep_seconds"]


def write_table_csv(rows: list[TableRow], out, precision: str = "short") -> None:
    """Write rows as CSV to a path or a text stream; precision "short" keeps 6 significant digits.

    Lines end with ``\\r\\n`` as ``csv.writer`` ends them.
    """
    table = np.array([[getattr(r, c) for c in _COLUMNS] for r in rows]).reshape(-1, len(_COLUMNS))
    fmt = "%.17g" if precision == "full" else "%.6g"
    np.savetxt(out, table, fmt=fmt, delimiter=",", newline="\r\n", header=",".join(_COLUMNS), comments="")


def read_table_csv(path) -> list[TableRow]:
    """Parse a CSV produced by :func:`write_table_csv`, from a path or a text stream."""
    return [TableRow(*row) for row in np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).tolist()]
