"""Command-line front end.

Subcommands
-----------
gen-quantizer   write an optimal normal quantizer grid to a text file
gen-brownian    write the Brownian product-quantizer paths to a text file
price-quant     price a contract by marginal functional quantization
price-mc        price a contract by bridge Monte Carlo
price-closed    price a contract by the Black-Scholes closed form
table           recompute one of the five benchmark tables as CSV

``price-*`` read the model and contract from a JSON config; flags override
config values.  Exit code 0 on success, nonzero with a diagnostic on error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .brownian import brownian_product_quantizer, save_paths
from .closed_form import price_closed_form
from .contracts import BarrierContract, BarrierType, PayoffType, PricingResult
from .gaussian import optimal_normal_quantizer, save_quantizer
from .mc_pricer import Estimator, McConfig, rbb_price
from .models import BlackScholes, model_from_dict
from .price_grid import dump_grids, quantize_price_process
from .quant_pricer import price_barrier
from .tables import DEFAULT_SEED, run_table, write_table_csv
from .transitions import dump_transitions, transition_matrices

__all__ = ["main", "run_config"]

_RESULT_FIELDS = ["method", "price", "sample_variance", "std_error", "elapsed"]


def _load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _contract_from_dict(block: dict) -> BarrierContract:
    return BarrierContract(
        barrier_type=BarrierType(block["type"]),
        payoff_type=PayoffType(block["payoff"]),
        strike=float(block["strike"]),
        barrier=float(block["barrier"]),
        maturity=float(block["maturity"]),
    )


def run_config(config: dict) -> PricingResult:
    """Dispatch a config document to the selected pricing method."""
    model = model_from_dict(config["model"])
    contract = _contract_from_dict(config["contract"])
    method = config.get("method", "quant")
    params = config.get("params", {})

    if method == "quant":
        start = time.perf_counter()
        quantizer = brownian_product_quantizer(int(params.get("budget", 1000)), contract.maturity)
        grid = quantize_price_process(
            model, quantizer, int(params.get("steps", 20)), int(params.get("substeps", 4))
        )
        matrices = transition_matrices(model, grid, params.get("cdf_mode"))
        if params.get("dump_grids"):
            dump_grids(grid, params["dump_grids"])
        if params.get("dump_transitions"):
            dump_transitions(matrices, params["dump_transitions"])
        result = price_barrier(model, contract, grid, matrices)
        result.elapsed = time.perf_counter() - start
        return result
    if method == "rbb":
        cfg = McConfig(
            n_steps=int(params.get("steps", 20)),
            n_paths=int(params.get("paths", 1_000_000)),
            seed=int(params.get("seed", DEFAULT_SEED)),
            estimator=Estimator(params.get("estimator", "indicator")),
        )
        return rbb_price(model, contract, cfg)
    if method == "closed":
        if not isinstance(model, BlackScholes):
            raise ValueError("closed form unavailable for pseudo-CEV")
        return price_closed_form(model, contract)
    raise ValueError(f"unknown method {method!r} (expected quant, rbb or closed)")


def _emit_result(result: PricingResult, args) -> None:
    fmt = "{:.17g}" if args.precision == "full" else "{:.6g}"

    def render(v):
        return "" if v is None else (v if isinstance(v, str) else fmt.format(v))

    if args.out:
        if args.format == "json":
            payload = {f: getattr(result, f) for f in _RESULT_FIELDS}
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        else:
            with open(args.out, "w", newline="") as fh:
                fh.write(",".join(_RESULT_FIELDS) + "\n")
                fh.write(",".join(render(getattr(result, f)) for f in _RESULT_FIELDS) + "\n")
    line = f"{result.method} price = {fmt.format(result.price)}"
    if result.std_error is not None:
        line += f"  (std error {fmt.format(result.std_error)})"
    line += f"  [{result.elapsed:.2f}s]"
    print(line)


def _add_common(parser: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", required=True, help="JSON config with model and contract blocks")
    parser.add_argument("--out", help="output file")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--precision", choices=["short", "full"], default="short")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fqbarrier", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-quantizer", help="write an optimal normal quantizer")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("gen-brownian", help="write Brownian product-quantizer paths")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("price-quant", help="price by marginal functional quantization")
    _add_common(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--substeps", type=int)
    p.add_argument("--cdf-mode", choices=["exact", "euler"], dest="cdf_mode")
    p.add_argument("--dump-grids", dest="dump_grids", help="CSV dump of the price grids")
    p.add_argument("--dump-transitions", dest="dump_transitions", help="CSV dump of the transition matrices")

    p = sub.add_parser("price-mc", help="price by bridge Monte Carlo")
    _add_common(p)
    p.add_argument("--paths", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--estimator", choices=["indicator", "conditional"])

    p = sub.add_parser("price-closed", help="price by the Black-Scholes closed form")
    _add_common(p)

    p = sub.add_parser("table", help="recompute a benchmark table")
    p.add_argument("--table", type=int, required=True, choices=range(1, 6))
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--substeps", type=int, default=4)
    p.add_argument("--rbb-paths", type=int, help="override the Monte Carlo path count")
    p.add_argument("--ref-paths", type=int, help="override the reference path count")
    p.add_argument("--ref-steps", type=int, help="override the reference step count")
    p.add_argument("--precision", choices=["short", "full"], default="short")
    return parser


def _override_params(config: dict, args, keys: dict) -> None:
    params = config.setdefault("params", {})
    for flag, key in keys.items():
        value = getattr(args, flag, None)
        if value is not None:
            params[key] = value


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-quantizer":
            save_quantizer(optimal_normal_quantizer(args.levels), args.out)
            print(f"wrote {args.levels}-level quantizer to {args.out}")
            return 0
        if args.command == "gen-brownian":
            q = brownian_product_quantizer(args.budget, args.horizon)
            save_paths(q, args.out)
            factors = "x".join(str(f) for f in q.decomposition.factors)
            print(f"wrote {q.n_paths} paths ({factors}) to {args.out}")
            return 0
        if args.command == "table":
            rows = run_table(
                args.table,
                seed=args.seed,
                budget=args.budget,
                substeps=args.substeps,
                mc_paths=args.rbb_paths,
                reference_paths=args.ref_paths,
                reference_steps=args.ref_steps,
            )
            if args.out:
                write_table_csv(rows, args.out, args.precision)
                print(f"wrote table {args.table} to {args.out}")
            else:
                write_table_csv(rows, sys.stdout, args.precision)
            return 0

        config = _load_config(args.config)
        if args.command == "price-quant":
            config["method"] = "quant"
            _override_params(
                config,
                args,
                {
                    "steps": "steps",
                    "budget": "budget",
                    "substeps": "substeps",
                    "cdf_mode": "cdf_mode",
                    "dump_grids": "dump_grids",
                    "dump_transitions": "dump_transitions",
                },
            )
        elif args.command == "price-mc":
            config["method"] = "rbb"
            _override_params(config, args, {"paths": "paths", "steps": "steps", "seed": "seed", "estimator": "estimator"})
        elif args.command == "price-closed":
            config["method"] = "closed"
        result = run_config(config)
        _emit_result(result, args)
        return 0
    except (ValueError, OSError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
