"""Run one benchmark workload against the library in ``src/`` and print its metrics.

    python3 perfbench/run.py --workload quant-table2 --seed 1 --seconds 10 --trace 0

One process is one closed-loop client: it sets up the workload's warm state,
then calls the library back to back in passes (every op of the workload once
per pass, in an order drawn from ``--seed``) until ``--seconds`` have passed,
always finishing at least one pass.  Every output is checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs passes in
which the library's layer boundaries are wrapped with span recorders for
half the ops, so that each input runs once traced and once untraced, then
for the quant workloads one memory pass under ``tracemalloc``.  It reports per-layer
metrics, the dominant layer and the tracing overhead; the spans are written
to ``perfbench/out/``.  The last line of stdout is always one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
JSON report with every metric, the run settings and the failed checks.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# the end-to-end metrics BENCHMARK.json gates; every workload emits them
END_TO_END = {"setup_s": "s", "op_s_p50": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 5  # this process plus four fresh child processes
PROBE_TIMEOUT_S = 120


def load_workload(name: str, seed: int, tiny: bool):
    """Import the library (and with it the workload module) and build the workload."""
    if not (SRC / "fqbarrier" / "__init__.py").is_file():
        sys.exit(f"error: no fqbarrier package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fqbarrier
    import workloads

    if pathlib.Path(fqbarrier.__file__).resolve().parent != (SRC / "fqbarrier").resolve():
        sys.exit(f"error: imported fqbarrier from {fqbarrier.__file__}, not from {SRC}")
    return workloads.WORKLOADS[name](seed, tiny)


def timed_setup(name: str, seed: int, tiny: bool):
    start = time.perf_counter()
    wl = load_workload(name, seed, tiny)
    wl.setup()
    return wl, time.perf_counter() - start


def probe_setup(args) -> float:
    """Set-up time measured in a fresh child process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def tail(samples):
    """Highest percentile with ten samples beyond it; the maximum below 21 samples."""
    s = sorted(samples)
    n = len(s)
    if n > 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def environment(args) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k, "unset") for k in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
    }


def outcome(passes) -> dict:
    records = [r for p in passes for r in p]
    return {
        "correct": not any(r.failed_checks for r in records),
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "failed_checks": dict(collections.Counter(c for r in records for c in r.failed_checks + r.layer_checks)),
        "errors": dict(collections.Counter(f"{r.label}: {r.error}" for r in records if r.error)),
    }


def untraced(args):
    wl, first = timed_setup(args.workload, args.seed, args.tiny)
    # the child probes run after the first ops rather than back to back, so
    # they sample the host over the run as the op times do: back-to-back
    # samples agree within about 5%, but the host's speed drifts by tens of
    # percent within a minute
    setups = [first]

    def probe():
        if len(setups) < SETUP_SAMPLES:
            setups.append(probe_setup(args))

    passes = wl.run(args.seconds, after_op=probe)
    while len(setups) < SETUP_SAMPLES:
        probe()
    op_s = [r.seconds for p in passes for r in p]
    tail_s, tail_pct = tail(op_s)
    res = outcome(passes)
    gated = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in gated.items()}
    # too noisy to gate (a maximum of a few samples), or only on some workloads
    extra = {"op_s_tail": (tail_s, "s"), "failed_frac": (res["failed"] / res["attempted"], "1")}
    extra.update(wl.summary(passes))
    report = {
        **environment(args), **res,
        "metrics": metrics | {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_samples_s": setups, "passes": len(passes), "op_samples": len(op_s),
        "op_s_tail_percentile": tail_pct,
    }
    return report, metrics


def traced(args):
    wl = load_workload(args.workload, args.seed, args.tiny)
    import tracing
    from workloads import RESIDUAL_TOL, stationarity_residual

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        tracer.run("setup", wl.setup)
    finally:
        tracer.uninstall()
    passes = wl.run(args.seconds, tracer)
    group = wl.trace_passes
    groups = len(passes) // group

    # peak memory in a pass of its own, one op per label, so that no timed
    # span runs under tracemalloc
    memory = tracing.Tracer(memory=True)
    memory_ops = list({op.label: op for op in wl.make_pass()}.values()) if wl.memory_pass else []
    if memory_ops:
        mem_records = [wl.run_op(op, memory, ("memory", i)) for i, op in enumerate(memory_ops)]
        wl.check_pass(mem_records)
        passes.append(mem_records)

    # residuals are computed after the run so they add nothing to span times;
    # a solved grid that misses the solver's 1e-9 guarantee fails its op
    records = {(index, i): rec for index, p in enumerate(passes) for i, rec in enumerate(p)}
    for s in tracer.spans:
        if "points" in s.attrs:
            s.attrs["residual"] = stationarity_residual(s.attrs.pop("points"))
            if s.attrs["residual"] >= RESIDUAL_TOL and s.op in records:
                rec = records[s.op]
                if "gaussian.residual_max" not in rec.layer_checks:
                    rec.layer_checks.append("gaussian.residual_max")

    # a group of trace_passes passes traces every input once: per-layer
    # metrics cover the traced set-up plus one group, and the run reports
    # their median over groups.  The overhead is traced over untraced op time
    # within a group, where both cover the same inputs interleaved in time.
    setup_spans = [s for s in tracer.spans if s.op == "setup"]
    per_group, overheads = [], []
    for k in range(groups):
        spans = [s for s in tracer.spans if isinstance(s.op, tuple) and s.op[0] // group == k]
        per_group.append(tracing.layer_metrics(setup_spans + spans))
        ops = [r for p in passes[k * group:(k + 1) * group] for r in p]
        overheads.append(sum(r.seconds for r in ops if r.traced) / sum(r.seconds for r in ops if not r.traced))
    layer = {k: statistics.median(m[k] for m in per_group) for k in tracing.LAYER_METRICS}
    layer.update(tracing.peak_metrics(memory.spans))
    self_s = tracing.layer_self_times([s for s in tracer.spans if s.op != "setup"])
    dominant = max(tracing.LAYERS, key=lambda k: self_s[k])

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"timing": tracer.dump(), "memory": memory.dump()}))

    res = outcome(passes)
    metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in layer.items()}
    report = {
        **environment(args), **res, "metrics": metrics,
        "dominant_layer": dominant,
        "layer_self_s": {k: v / groups for k, v in self_s.items()},
        "trace_overhead": statistics.median(overheads), "trace_overhead_groups": overheads,
        "trace_groups": groups, "memory_ops": len(memory_ops),
        "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(HERE.parent)),
    }
    return report, metrics


def print_human(report) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"attempted {report['attempted']}  failed {report['failed']}")
    for name, m in report["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for key in ("dominant_layer", "trace_overhead", "op_s_tail_percentile", "op_samples"):
        if key in report:
            print(f"  {key:32s} {report[key]}")
    for name, count in {**report["failed_checks"], **report["errors"]}.items():
        print(f"  FAILED {name} x{count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["quant-table2", "quant-pcev-n80", "mc-table4",
                                                              "quantizer-cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help="print one set-up time and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if args.setup_probe:
        print(timed_setup(args.workload, args.seed, args.tiny)[1])
        return 0
    report, metrics = traced(args) if args.trace else untraced(args)
    print_human(report)
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
