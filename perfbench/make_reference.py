"""Regenerate the stored bridge Monte Carlo reference for the pseudo-CEV workloads.

Prices the ten table-4 barriers with the same settings as the table runner's
reference column (indicator estimator, 1e7 paths, 100 steps, the table seed
plus its reference offset) and writes them to ``reference_pcev.json`` beside
this file.  Takes about two minutes on one core:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType  # noqa: E402
from fqbarrier.mc_pricer import McConfig, rbb_price_levels  # noqa: E402
from fqbarrier.tables import DEFAULT_SEED, REFERENCE_SEED_OFFSET, TABLE_SPECS  # noqa: E402


def main() -> None:
    spec = TABLE_SPECS[4]
    cfg = McConfig(
        n_steps=spec.reference_steps,
        n_paths=spec.reference_paths,
        seed=DEFAULT_SEED + REFERENCE_SEED_OFFSET,
    )
    template = BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, 100.0, spec.levels[0], 1.0)
    start = time.perf_counter()
    results = rbb_price_levels(spec.model, template, spec.levels, cfg)
    out = {
        "model": {"model": "pcev", "r": spec.model.r, "vartheta": spec.model.vartheta,
                  "delta": spec.model.delta, "x0": spec.model.x0},
        "contract": "up-and-out call, strike 100, maturity 1",
        "estimator": cfg.estimator.value,
        "n_steps": cfg.n_steps,
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "seconds": round(time.perf_counter() - start, 1),
        "prices": {f"{lv:g}": r.price for lv, r in zip(spec.levels, results)},
        "std_errors": {f"{lv:g}": r.std_error for lv, r in zip(spec.levels, results)},
    }
    (HERE / "reference_pcev.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
