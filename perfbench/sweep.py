"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 101-110 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed) for every workload in
``BENCHMARK.json``, one process at a time, with the command and run length
from there, plus one traced run per workload with the first seed.  Writes, per workload and metric, the values, their median and
the interquartile spread as a share of the median (``statistics.quantiles``
with n=4), which is the figure a metric's bound is compared with.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / med if med else None
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="e.g. 101-110 or 1,5,9")
    parser.add_argument("--out", type=pathlib.Path, help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    summary = {"machine": {"platform": platform.platform(), "processor": platform.machine()},
               "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            r = run(bench, w, seed, 0)
            runs.append(r)
            print(f"{w} seed {seed}: {r['wall_s']:.1f} s, failed {r['result']['failed']}/"
                  f"{r['result']['attempted']}, correct {r['result']['correct']}", flush=True)
        report_metrics = {k: [r["report"]["metrics"][k]["value"] for r in runs]
                          for k in runs[0]["report"]["metrics"]}
        entry = {
            "environment": {k: runs[0]["report"][k] for k in ("nproc", "python", "numpy", "scipy", "blas",
                                                               "blas_threads")},
            "wall_s": spread([r["wall_s"] for r in runs]),
            "correct": [r["result"]["correct"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed_checks": [r["report"]["failed_checks"] for r in runs],
            "errors": [r["report"]["errors"] for r in runs],
            "metrics": {k: spread(v) for k, v in report_metrics.items()},
        }
        t = run(bench, w, seeds[0], 1)
        print(f"{w} traced seed {seeds[0]}: {t['wall_s']:.1f} s", flush=True)
        entry["traced"] = {"seed": seeds[0], "wall_s": t["wall_s"],
                           **{k: t["report"][k] for k in ("dominant_layer", "trace_overhead", "trace_overhead_groups",
                                                          "layer_self_s", "failed_checks", "errors")},
                           "metrics": {k: v["value"] for k, v in t["result"]["metrics"].items()}}
        summary["workloads"][w] = entry
        for k, s in entry["metrics"].items():
            print(f"  {k:28s} median {s['median']:.6g}  spread {s.get('spread')}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
