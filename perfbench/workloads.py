"""The four benchmark workloads: inputs, the library call of each op, and output checks.

A workload is run as passes.  A pass is the workload's full list of ops
(every contract, estimator or budget once) in an order drawn from the
workload seed; ops are called back to back by a single client.  Every
library call goes through a module attribute (``quant_pricer.price_barrier_quant``
and so on), so the traced run's wrappers see the same calls.

Importing this module imports ``fqbarrier``; the benchmark times that import
as part of set-up.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import fqbarrier.brownian as brownian
import fqbarrier.gaussian as gaussian
import fqbarrier.mc_pricer as mc_pricer
import fqbarrier.quant_pricer as quant_pricer
from fqbarrier.closed_form import barrier_price
from fqbarrier.contracts import BarrierContract, BarrierType, PayoffType
from fqbarrier.models import BlackScholes, PseudoCEV

HERE = pathlib.Path(__file__).resolve().parent

STRIKE = 100.0
MATURITY = 1.0
BS_TABLE2 = BlackScholes(r=0.15, sigma=0.07, x0=100.0)
PCEV_TABLE4 = PseudoCEV(r=0.15, vartheta=0.7, delta=0.5, x0=100.0)
TABLE4_LEVELS = (105.0, 106.0, 107.0, 110.0, 111.0, 112.0, 115.0, 120.0, 125.0, 130.0)

# acceptance-criterion tolerances the output checks reuse
CLOSED_FORM_TOL = 0.05
MC_REFERENCE_TOL = 0.07
AGREE_SE = 4.0
RESIDUAL_TOL = 1e-9


def uoc(barrier: float) -> BarrierContract:
    return BarrierContract(BarrierType.UP_AND_OUT, PayoffType.CALL, STRIKE, barrier, MATURITY)


def dop(barrier: float) -> BarrierContract:
    return BarrierContract(BarrierType.DOWN_AND_OUT, PayoffType.PUT, STRIKE, barrier, MATURITY)


def load_reference() -> dict[float, float]:
    """Stored bridge-MC reference prices (100 steps), keyed by barrier."""
    data = json.loads((HERE / "reference_pcev.json").read_text())
    return {float(k): v for k, v in data["prices"].items()}


def stationarity_residual(points) -> float:
    return float(np.max(np.abs(np.asarray(points) - gaussian.lloyd_step(points))))


@dataclass
class Op:
    label: str
    call: object  # zero-argument callable
    arg: object = None  # the contract, budget or estimator the op is about
    parity: int = 0  # the traced run traces this op in the passes whose index has this parity


@dataclass
class OpRecord:
    label: str
    arg: object
    seconds: float
    traced: bool = False
    output: object = None
    error: str | None = None
    failed_checks: list[str] = field(default_factory=list)  # checks of the returned output
    layer_checks: list[str] = field(default_factory=list)  # checks of traced layer results

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failed_checks) or bool(self.layer_checks)


class Workload:
    name = ""
    memory_pass = False  # whether the traced run takes a pass for the *.peak_mb metrics
    trace_passes = 1  # passes in which the traced run traces every input once

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Build the warm state every op relies on (untimed here, timed by the runner)."""

    def make_pass(self) -> list[Op]:
        raise NotImplementedError

    def before_op(self, op: Op) -> None:
        """Untimed preparation of one op."""

    def check_pass(self, records: list[OpRecord]) -> None:
        """Append failed check names to the records of one finished pass."""

    def summary(self, passes: list[list[OpRecord]]) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        return {}

    def run(self, seconds: float, tracer=None, after_op=None) -> list[list[OpRecord]]:
        """Closed loop: whole passes until ``seconds`` have elapsed (at least one).

        ``after_op``, if given, is called after every op; the time it takes
        is left out of ``seconds``.

        With a tracer, the tracer's wrappers are installed for the ops of
        pass k whose parity is k's, and the run ends after a whole multiple
        of ``trace_passes``.  So every ``trace_passes`` passes run each input
        once traced and once untraced, interleaved in time.  A traced op runs
        inside an ``op`` span whose op id is (pass index, position in the pass).
        """
        passes = []
        start = time.perf_counter()
        while (not passes or time.perf_counter() - start < seconds
               or (tracer is not None and len(passes) % self.trace_passes)):
            index = len(passes)
            records = []
            for i, op in enumerate(self.make_pass()):
                records.append(self.run_op(op, tracer if op.parity == index % 2 else None, (index, i)))
                if after_op is not None:
                    t0 = time.perf_counter()
                    after_op()
                    start += time.perf_counter() - t0
            self.check_pass(records)
            passes.append(records)
        return passes

    def run_op(self, op: Op, tracer=None, op_id=None) -> OpRecord:
        """Call one op, inside an ``op`` span with the tracer's wrappers installed if given."""
        self.before_op(op)
        rec = OpRecord(op.label, op.arg, 0.0, traced=tracer is not None)
        if tracer is not None:
            tracer.op = op_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            rec.output = tracer.run("op", op.call) if tracer is not None else op.call()
        except Exception as exc:  # a raising op is a failed op, timed until it raised
            rec.error = f"{type(exc).__name__}: {exc}"
        rec.seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        return rec


class _QuantWorkload(Workload):
    """Warm prices from ``price_barrier_quant`` over a fixed contract list."""

    model = None
    n_steps = 20
    budget = 1000
    memory_pass = True

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        if tiny:
            self.n_steps, self.budget = 4, 60

    def contracts(self) -> list[BarrierContract]:
        raise NotImplementedError

    def setup(self) -> None:
        brownian.brownian_product_quantizer(self.budget, MATURITY)

    def make_pass(self) -> list[Op]:
        # each contract twice, so a pass is longer than a run and every run
        # times the same ops (with one copy, runs on a slow host finished one
        # pass and runs on a fast host two), and a traced pass runs each
        # contract once traced and once untraced
        ops = [self._op(c, copy) for copy in (0, 1) for c in self.contracts()]
        self.rng.shuffle(ops)
        return ops

    def _op(self, contract: BarrierContract, parity: int) -> Op:
        side = "UOC" if contract.barrier_type is BarrierType.UP_AND_OUT else "DOP"
        model, n, budget = self.model, self.n_steps, self.budget

        def call():
            return quant_pricer.price_barrier_quant(model, contract, n, budget).price

        return Op(f"{side} {contract.barrier:g}", call, contract, parity)

    def reference(self, contract: BarrierContract) -> float:
        raise NotImplementedError

    def summary(self, passes):
        errs = [abs(r.output - self.reference(r.arg)) for p in passes for r in p if r.output is not None]
        return {"price_abs_err_max": (max(errs, default=math.nan), "price")}


class QuantTable2(_QuantWorkload):
    name = "quant-table2"
    model = BS_TABLE2

    def contracts(self):
        return [uoc(b) for b in (105.0, 110.0, 115.0, 120.0, 125.0, 130.0)] + [dop(b) for b in (85.0, 90.0, 95.0)]

    def reference(self, contract):
        return barrier_price(self.model.x0, contract.strike, contract.barrier, contract.maturity,
                             self.model.r, self.model.sigma, contract.barrier_type, contract.payoff_type)

    def check_pass(self, records):
        for rec in records:
            if rec.output is not None and abs(rec.output - self.reference(rec.arg)) > CLOSED_FORM_TOL:
                rec.failed_checks.append(f"closed_form_{CLOSED_FORM_TOL:g}")


class QuantPcevN80(_QuantWorkload):
    name = "quant-pcev-n80"
    model = PCEV_TABLE4
    n_steps = 80

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.ref = load_reference()

    def contracts(self):
        return [uoc(b) for b in (105.0, 115.0, 130.0)]

    def reference(self, contract):
        return self.ref[contract.barrier]

    def check_pass(self, records):
        for rec in records:
            if rec.output is not None and abs(rec.output - self.reference(rec.arg)) > MC_REFERENCE_TOL:
                rec.failed_checks.append(f"mc_reference_{MC_REFERENCE_TOL:g}")
        priced = sorted((r for r in records if r.output is not None), key=lambda r: r.arg.barrier)
        for lo, hi in zip(priced, priced[1:]):
            if hi.output < lo.output:
                hi.failed_checks.append("monotone_in_barrier")


class McTable4(Workload):
    name = "mc-table4"
    model = PCEV_TABLE4
    n_paths = 131072
    steps = {mc_pricer.Estimator.INDICATOR: 100, mc_pricer.Estimator.CONDITIONAL_PRODUCT: 20}
    se_level = 115.0
    trace_passes = 2  # one estimator traced per pass

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        self.ref = load_reference()
        if tiny:
            self.n_paths = 2000
            self.steps = {e: max(2, n // 10) for e, n in self.steps.items()}

    def make_pass(self) -> list[Op]:
        # the workload seed is the Philox key, so every pass prices the same paths
        template = uoc(self.se_level)
        ops = []
        for parity, (est, n) in enumerate(self.steps.items()):
            cfg = mc_pricer.McConfig(n_steps=n, n_paths=self.n_paths, seed=self.seed, estimator=est)

            def call(cfg=cfg):
                return mc_pricer.rbb_price_levels(self.model, template, TABLE4_LEVELS, cfg)

            ops.append(Op(f"{est.value} n={n}", call, est, parity))
        return ops

    def check_pass(self, records):
        ind, cond = records
        if ind.output is None or cond.output is None:
            return
        for lv, a, b in zip(TABLE4_LEVELS, ind.output, cond.output):
            if _agree_z(a, b) > AGREE_SE:
                cond.failed_checks.append(f"agree_{AGREE_SE:g}se@{lv:g}")
            if b.sample_variance > a.sample_variance:
                cond.failed_checks.append(f"var_cond_le_ind@{lv:g}")

    def summary(self, passes):
        i = TABLE4_LEVELS.index(self.se_level)
        rates, s_to_se, z = {}, {}, []
        errs = []
        for p in passes:
            for rec in p:
                if rec.output is None:
                    continue
                s_per_path = rec.seconds / self.n_paths
                rates.setdefault(rec.arg.value, []).append(1.0 / s_per_path)
                # seconds for a standard error of 0.01: variance * (s/path) / 0.01^2
                s_to_se.setdefault(rec.arg.value, []).append(rec.output[i].sample_variance * s_per_path / 1e-4)
                errs += [abs(r.price - self.ref[lv]) for lv, r in zip(TABLE4_LEVELS, rec.output)]
            done = [rec.output for rec in p]
            if all(o is not None for o in done):
                z.append(max(_agree_z(a, b) for a, b in zip(*done)))
        total_paths = sum(len(v) for v in rates.values()) * self.n_paths
        total_s = sum(rec.seconds for p in passes for rec in p if rec.output is not None)
        out = {
            "price_abs_err_max": (max(errs, default=math.nan), "price"),
            "mc_paths_per_s": (total_paths / total_s if total_s else math.nan, "1/s"),
            "mc_agree_z_max": (max(z, default=math.nan), "1"),
        }
        for est, vals in rates.items():
            out[f"mc_paths_per_s.{est}"] = (statistics.median(vals), "1/s")
        for est, vals in s_to_se.items():
            out[f"mc_s_to_se_1e-2.{est}"] = (statistics.median(vals), "s")
        return out


def _agree_z(a, b) -> float:
    """Price difference of two MC results in combined standard errors."""
    return abs(a.price - b.price) / math.hypot(a.std_error, b.std_error)


class QuantizerCold(Workload):
    name = "quantizer-cold"
    budgets = (1000, 4000, 8000, 10000)
    expected_factors = {1000: (23, 7, 3, 2)}

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        if tiny:
            self.budgets = (60, 120)

    def make_pass(self) -> list[Op]:
        # each budget twice, for the same reasons as in _QuantWorkload.make_pass
        ops = [Op(f"budget {b}", lambda b=b: brownian.brownian_product_quantizer(b), b, copy)
               for copy in (0, 1) for b in self.budgets]
        self.rng.shuffle(ops)
        return ops

    def before_op(self, op: Op) -> None:
        brownian.brownian_product_quantizer.cache_clear()
        gaussian.cached_normal_quantizer.cache_clear()

    def check_pass(self, records):
        for rec in records:
            q = rec.output
            if q is None:
                continue
            want = self.expected_factors.get(rec.arg)
            if want is not None and q.decomposition.factors != want:
                rec.failed_checks.append("factors")
            if max(stationarity_residual(g.points) for g in q.marginal_quantizers) >= RESIDUAL_TOL:
                rec.failed_checks.append("residual")


WORKLOADS = {w.name: w for w in (QuantTable2, QuantPcevN80, McTable4, QuantizerCold)}
