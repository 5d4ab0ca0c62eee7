"""Smoke test of the benchmark: every workload at tiny size, untraced and traced.

Asserts the result line has the contract's shape and that every metric the
benchmark defines is emitted (outputs at tiny size are not expected to pass
the accuracy checks).  About a minute on two cores:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# end-to-end metrics the report line carries beside the gated ones (some exist
# only on some workloads, and op_s_tail is too noisy to gate)
WORKLOAD_METRICS = {
    "quant-table2": {"op_s_tail", "failed_frac", "price_abs_err_max"},
    "quant-pcev-n80": {"op_s_tail", "failed_frac", "price_abs_err_max"},
    "mc-table4": {"op_s_tail", "failed_frac", "price_abs_err_max", "mc_paths_per_s", "mc_agree_z_max",
                  "mc_paths_per_s.indicator", "mc_paths_per_s.conditional",
                  "mc_s_to_se_1e-2.indicator", "mc_s_to_se_1e-2.conditional"},
    "quantizer-cold": {"op_s_tail", "failed_frac"},
}


def run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    report, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    for key in ("seed", "nproc", "numpy", "scipy", "blas_threads"):
        assert key in report
    if trace:
        assert report["dominant_layer"]
        assert report["trace_overhead"] > 0
    else:
        assert WORKLOAD_METRICS[workload] <= set(report["metrics"])
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCH["end_to_end"])
