"""Span recorder wrapped around the library's layer boundaries.

The traced run replaces selected module attributes of ``fqbarrier`` with
thin wrappers that record one span per call: name, start, end, parent and
op id, plus a few counts read from the call's arguments and result.  The
library is not edited; the wrappers are installed from the benchmark and
removed again, and they see only the calls that go through the module
attribute (which is how the pipeline calls its own stages).

A span's self time is its duration minus the time covered by its child
spans.  A timing tracer wraps every boundary and never starts
``tracemalloc``.  A memory tracer (``Tracer(memory=True)``) wraps only the
boundaries that have a ``*.peak_mb`` metric, and runs each of those calls
under ``tracemalloc`` to record the peak of memory allocated during it;
its times are not used.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass, field

from fqbarrier.contracts import BarrierType
from fqbarrier.mc_pricer import Estimator


@dataclass
class Span:
    name: str
    start: float
    op: object
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def as_dict(self, index: int) -> dict:
        out = {"id": index, "name": self.name, "op": self.op, "parent": self.parent,
               "start": self.start, "end": self.end, "self_s": self.self_s}
        if self.error:
            out["error"] = self.error
        out.update({k: v for k, v in self.attrs.items() if isinstance(v, (int, float, str))})
        return out


class Tracer:
    """In-memory span store with wrappers for module attributes."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.op: object = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap the layer boundaries: all of them, or for a memory tracer the peak ones."""
        for module, attr, name, hook, peak in BOUNDARIES:
            if not self.memory:
                self.wrap(module, attr, name, hook)
            elif peak:
                self.wrap(module, attr, name, memory=True)

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._call(name, fn, None, False, args, kwargs)

    def _call(self, name, fn, hook, memory, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        own_malloc = memory and not tracemalloc.is_tracing()
        if own_malloc:
            tracemalloc.start()
        span = Span(name, time.perf_counter(), self.op, parent)
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.end - span.start
            if own_malloc:
                span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            if hook is not None:
                hook(span, _bind(fn, args, kwargs), result)

    def wrap(self, module_name: str, attr: str, name: str, hook=None, memory: bool = False) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self._call(name, original, hook, memory, args, kwargs)

        wrapper.__wrapped__ = original
        self._installed.append((module, attr, original))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def dump(self) -> list[dict]:
        return [s.as_dict(i) for i, s in enumerate(self.spans)]


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# ---- hooks: counts read from a call's arguments and result ----------------

def _gaussian_hook(span, call, result):
    span.attrs["n_levels"] = int(call["n_levels"])
    if result is not None:
        span.attrs["points"] = result.points


def _build_hook(span, call, result):
    if result is not None:
        span.attrs["d_n"] = result.n_paths


def _grid_hook(span, call, result):
    span.attrs["rhs_evals"] = 7 * call["substeps"] * call["n_steps"] * call["quantizer"].n_paths


def _transitions_hook(span, call, result):
    if result is not None:
        span.attrs["entries"] = sum(tm.entries.size for tm in result)


def _price_hook(span, call, result):
    """Share of source rows on the live side of the barrier (date 0 is one row)."""
    contract, grids = call["contract"], call["grid"].grids
    up = contract.barrier_type is BarrierType.UP_AND_OUT
    later = grids[1:-1]
    live = (later <= contract.barrier) if up else (later >= contract.barrier)
    x0 = float(grids[0][0])
    x0_live = x0 <= contract.barrier if up else x0 >= contract.barrier
    span.attrs["barrier"] = contract.barrier
    span.attrs["live_row_frac"] = (int(x0_live) + int(live.sum())) / (1 + later.size)


def _mc_hook(span, call, result):
    cfg = call["cfg"]
    q = len(call["levels"])
    conditional = cfg.estimator is Estimator.CONDITIONAL_PRODUCT
    span.attrs["estimator"] = cfg.estimator.value
    span.attrs["path_steps"] = cfg.n_paths * cfg.n_steps
    # survival factors evaluated per (path, step, level); the indicator
    # estimator compares each path's extremum once per level instead
    span.attrs["level_steps"] = cfg.n_paths * cfg.n_steps * q if conditional else 0
    if result is not None:
        span.attrs["variances"] = [r.sample_variance for r in result]


# module, attribute, span name, hook, peak-memory metric
BOUNDARIES = [
    ("fqbarrier.gaussian", "optimal_normal_quantizer", "gaussian.solve", _gaussian_hook, None),
    ("fqbarrier.brownian", "optimal_decomposition", "brownian.search", None, None),
    ("fqbarrier.brownian", "build_product_quantizer", "brownian.build", _build_hook, None),
    ("fqbarrier.quant_pricer", "quantize_price_process", "price_grid.ode", _grid_hook, None),
    ("fqbarrier.quant_pricer", "transition_matrices", "transitions.matrices", _transitions_hook,
     "transitions.peak_mb"),
    ("fqbarrier.quant_pricer", "price_barrier", "quant_pricer.price", _price_hook, "quant_pricer.peak_mb"),
    ("fqbarrier.quant_pricer", "quantized_kernel", "quant_pricer.kernel", None, None),
    ("fqbarrier.quant_pricer", "prune_knocked_rows", "quant_pricer.prune", None, None),
    ("fqbarrier.quant_pricer", "forward_induction", "quant_pricer.induction", None, None),
    ("fqbarrier.quant_pricer", "bridge_max_cdf", "bridge.max_cdf", None, None),
    ("fqbarrier.quant_pricer", "bridge_min_cdf", "bridge.min_cdf", None, None),
    ("fqbarrier.mc_pricer", "rbb_price_levels", "mc_pricer.levels", _mc_hook, None),
]

LAYERS = ("gaussian", "brownian", "price_grid", "transitions", "quant_pricer", "bridge", "mc_pricer")


# ---- per-layer metrics ------------------------------------------------------

# name -> unit; every traced run emits all of them, 0 where a layer is idle
LAYER_METRICS = {
    "gaussian.solves": "count",
    "gaussian.solve_s": "s",
    "gaussian.residual_max": "1",
    "brownian.search_s": "s",
    "brownian.build_s": "s",
    "brownian.d_n": "count",
    "price_grid.s": "s",
    "price_grid.rhs_evals": "count",
    "transitions.s": "s",
    "transitions.entries": "count",
    "transitions.peak_mb": "MB",
    "transitions.live_row_frac_min": "1",
    "transitions.live_row_frac_max": "1",
    "quant_pricer.kernel_s": "s",
    "quant_pricer.prune_s": "s",
    "quant_pricer.induction_s": "s",
    "quant_pricer.peak_mb": "MB",
    "bridge.s": "s",
    "mc_pricer.indicator_s": "s",
    "mc_pricer.conditional_s": "s",
    "mc_pricer.path_steps": "count",
    "mc_pricer.level_steps": "count",
    "mc_pricer.var_ratio": "1",
}


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics over timing spans (the traced set-up plus every op once).

    The ``*.peak_mb`` metrics stay 0 here; ``peak_metrics`` gives them.
    """
    m = dict.fromkeys(LAYER_METRICS, 0.0)

    def total(prefix):
        return sum(s.self_s for s in spans if s.name.startswith(prefix))

    solves = [s for s in spans if s.name == "gaussian.solve"]
    m["gaussian.solves"] = len(solves)
    m["gaussian.solve_s"] = total("gaussian.")
    m["gaussian.residual_max"] = max((s.attrs.get("residual", 0.0) for s in solves), default=0.0)
    m["brownian.search_s"] = total("brownian.search")
    m["brownian.build_s"] = total("brownian.build")
    m["brownian.d_n"] = max((s.attrs.get("d_n", 0) for s in spans if s.name == "brownian.build"), default=0)
    m["price_grid.s"] = total("price_grid.")
    m["price_grid.rhs_evals"] = sum(s.attrs.get("rhs_evals", 0) for s in spans)
    m["transitions.s"] = total("transitions.")
    m["transitions.entries"] = sum(s.attrs.get("entries", 0) for s in spans)
    fracs = [s.attrs["live_row_frac"] for s in spans if "live_row_frac" in s.attrs]
    m["transitions.live_row_frac_min"] = min(fracs, default=0.0)
    m["transitions.live_row_frac_max"] = max(fracs, default=0.0)
    m["quant_pricer.kernel_s"] = total("quant_pricer.kernel")
    m["quant_pricer.prune_s"] = total("quant_pricer.prune")
    m["quant_pricer.induction_s"] = total("quant_pricer.induction")
    m["bridge.s"] = total("bridge.")
    mc = [s for s in spans if s.name == "mc_pricer.levels"]
    for est in ("indicator", "conditional"):
        m[f"mc_pricer.{est}_s"] = sum(s.self_s for s in mc if s.attrs.get("estimator") == est)
    m["mc_pricer.path_steps"] = sum(s.attrs.get("path_steps", 0) for s in mc)
    m["mc_pricer.level_steps"] = sum(s.attrs.get("level_steps", 0) for s in mc)
    m["mc_pricer.var_ratio"] = _var_ratio(mc)
    return m


def peak_metrics(spans: list[Span]) -> dict:
    """The ``*.peak_mb`` metrics: largest allocation peak per boundary over memory spans."""
    return {peak: max((s.attrs.get("peak_bytes", 0) for s in spans if s.name == name), default=0) / 2**20
            for _, _, name, _, peak in BOUNDARIES if peak}


def _var_ratio(mc_spans) -> float:
    """Largest conditional/indicator variance ratio over the barrier levels."""
    by_est = {s.attrs.get("estimator"): s.attrs.get("variances") for s in mc_spans}
    ind, cond = by_est.get("indicator"), by_est.get("conditional")
    if not ind or not cond:
        return 0.0
    return max(c / i for c, i in zip(cond, ind) if i > 0.0)


def layer_self_times(spans: list[Span]) -> dict:
    """Self time per layer; time in the benchmark's own op spans is 'glue'."""
    out = dict.fromkeys(LAYERS, 0.0)
    out["glue"] = 0.0
    for s in spans:
        out[s.layer if s.layer in out else "glue"] += s.self_s
    return out
