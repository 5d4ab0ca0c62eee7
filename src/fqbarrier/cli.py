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
config values.  The config format lives here: each block checks its keys
and parses its numbers as it is read, and every check runs before any
work is done or any dump is written.  Exit code 0 on success, nonzero
with a one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
import time
from dataclasses import fields

from .brownian import brownian_product_quantizer, save_paths
from .closed_form import price_closed_form
from .contracts import BarrierContract, BarrierType, PayoffType, PricingResult, check_discount
from .gaussian import optimal_normal_quantizer, save_quantizer
from .mc_pricer import Estimator, McConfig, rbb_price
from .models import BlackScholes, Model, PseudoCEV
from .price_grid import dump_grids, quantize_price_process
from .quant_pricer import price_barrier, price_barrier_quant
from .tables import DEFAULT_SEED, run_table, write_table_csv
from .transitions import dump_transitions, transition_steps

__all__ = ["main", "model_from_dict", "run_config"]

_RESULT_FIELDS = ["method", "price", "sample_variance", "std_error", "elapsed"]
_CONFIG_KEYS = ("model", "contract", "method", "params")
# every params key some method reads; one set for all, so that one config
# serves price-quant and price-mc alike
_PARAM_KEYS = ("steps", "budget", "dump_grids", "dump_transitions", "paths", "seed", "estimator")
_CONTRACT_KEYS = ("type", "payoff", "strike", "barrier", "maturity")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    _check_config(config)  # before the flags are merged into it
    return config


def _check_config(config) -> None:
    """Reject a malformed config with a ValueError that names the offending entry.

    That is a config or block that is not an object, a top-level or params
    key that no method reads, and a dump path that is not a string.  The
    model and contract blocks check their own keys and numbers as they
    are parsed.
    """
    if not isinstance(config, dict):
        raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
    params = config.get("params", {})
    for where, block in (("model", config.get("model")), ("contract", config.get("contract")), ("params", params)):
        if not isinstance(block, dict):
            raise ValueError(f"{where} must be a JSON object, got {type(block).__name__}")
    check_keys("config", config, _CONFIG_KEYS)
    check_keys("params", params, _PARAM_KEYS)
    for key in ("dump_grids", "dump_transitions"):
        # open() takes an integer as a file descriptor: 1 would write the dump to stdout and close it
        if not isinstance(params.get(key, ""), str):
            raise ValueError(f"params.{key} must be a file path, got {params[key]!r}")


def check_keys(where: str, block: dict, accepted, required=()) -> None:
    """Raise one ValueError naming the keys of ``block`` outside ``accepted`` and those of ``required`` it lacks."""
    unknown = [key for key in block if key not in accepted]
    missing = [key for key in required if key not in block]
    found = [f"{kind} {where} key(s) {', '.join(map(repr, keys))}"
             for kind, keys in (("unknown", unknown), ("missing", missing)) if keys]
    if found:
        raise ValueError(f"{'; '.join(found)}; accepted: {', '.join(accepted)}")


def _number(where: str, block: dict, key: str) -> float:
    """``block[key]`` as a float; a value that float() cannot take raises a ValueError naming ``where.key``."""
    try:
        return float(block[key])
    except (TypeError, ValueError):
        raise ValueError(f"{where}.{key} must be a number, got {block[key]!r}") from None


def model_from_dict(block: dict) -> Model:
    """Parse a model block like {"model": "bs", "r": .., "sigma": .., "x0": ..}.

    The block must hold exactly the kind's parameters besides "model".
    """
    kind = block.get("model")
    cls = {"bs": BlackScholes, "pcev": PseudoCEV}.get(kind)
    if cls is None:
        raise ValueError(f"unknown model kind {kind!r} (expected 'bs' or 'pcev')")
    names = [f.name for f in fields(cls)]
    check_keys("model", block, ["model", *names], names)
    return cls(**{name: _number("model", block, name) for name in names})


def _contract_from_dict(block: dict) -> BarrierContract:
    check_keys("contract", block, _CONTRACT_KEYS, _CONTRACT_KEYS)
    return BarrierContract(
        barrier_type=_choice("contract.type", BarrierType, block["type"]),
        payoff_type=_choice("contract.payoff", PayoffType, block["payoff"]),
        strike=_number("contract", block, "strike"),
        barrier=_number("contract", block, "barrier"),
        maturity=_number("contract", block, "maturity"),
    )


def _choice(where: str, enum, value):
    """The member of ``enum`` whose value is ``value``; any other value raises a ValueError naming ``where``."""
    try:
        return enum(value)
    except ValueError:
        accepted = ", ".join(member.value for member in enum)
        raise ValueError(f"{where} must be one of {accepted}, got {value!r}") from None


def _int_param(params: dict, key: str, default: int) -> int:
    """An integer entry of a config's params; an integral float such as 20.0 counts.

    A fractional, boolean, non-finite or non-numeric value raises instead
    of being truncated.
    """
    value = params.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"params.{key} must be an integer, got {value!r}")
    return int(value)


def run_config(config: dict) -> PricingResult:
    """Dispatch a config document to the selected pricing method.

    Every check runs before any work is done or any dump is written.
    """
    _check_config(config)
    model = model_from_dict(config["model"])
    contract = _contract_from_dict(config["contract"])
    check_discount(model.r, contract.maturity)
    method = config.get("method", "quant")
    params = config.get("params", {})

    if method == "quant":
        budget, steps = _int_param(params, "budget", 1000), _int_param(params, "steps", 20)
        if not (params.get("dump_grids") or params.get("dump_transitions")):
            return price_barrier_quant(model, contract, steps, budget)  # priced as the grid ODE yields its dates
        start = time.perf_counter()
        quantizer = brownian_product_quantizer(budget, contract.maturity)
        grid = quantize_price_process(model, quantizer, steps)
        if params.get("dump_grids"):
            dump_grids(grid, params["dump_grids"])
        if params.get("dump_transitions"):
            dump_transitions(transition_steps(model, grid), params["dump_transitions"])
        result = price_barrier(model, contract, grid)
        result.elapsed = time.perf_counter() - start
        return result
    if method == "rbb":
        cfg = McConfig(
            n_steps=_int_param(params, "steps", 20),
            n_paths=_int_param(params, "paths", 1_000_000),
            seed=_int_param(params, "seed", DEFAULT_SEED),
            estimator=_choice("params.estimator", Estimator, params.get("estimator", "indicator")),
        )
        return rbb_price(model, contract, cfg)
    if method == "closed":
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
    p.add_argument("--rbb-paths", type=int, help="override the Monte Carlo path count")
    p.add_argument("--ref-paths", type=int, help="override the reference path count")
    p.add_argument("--ref-steps", type=int, help="override the reference step count")
    p.add_argument("--precision", choices=["short", "full"], default="short")
    return parser


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
            sizes = {"mc_paths": args.rbb_paths, "reference_paths": args.ref_paths, "reference_steps": args.ref_steps}
            rows = run_table(args.table, seed=args.seed, budget=args.budget,  # run_table's sizes where unset
                             **{key: n for key, n in sizes.items() if n is not None})
            if args.out:
                write_table_csv(rows, args.out, args.precision)
                print(f"wrote table {args.table} to {args.out}")
            else:
                write_table_csv(rows, sys.stdout, args.precision)
            return 0

        method, flags = {
            "price-quant": ("quant", ("steps", "budget", "dump_grids", "dump_transitions")),
            "price-mc": ("rbb", ("paths", "steps", "seed", "estimator")),
            "price-closed": ("closed", ()),
        }[args.command]
        config = _load_config(args.config)
        config["method"] = method
        config.setdefault("params", {}).update({key: getattr(args, key) for key in flags
                                                if getattr(args, key) is not None})
        result = run_config(config)
        _emit_result(result, args)
        return 0
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
