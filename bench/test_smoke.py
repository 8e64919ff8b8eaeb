"""Smoke test of the benchmark harness: every workload at reduced size.

Run with ``python3 -m pytest bench/test_smoke.py``. Each workload runs once
untraced and once traced (``--small``), and every end-to-end and per-layer
metric must be emitted with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "fraction",
}
PER_LAYER = {
    "kernels.build_matrices.calls": "count",
    "kernels.build_matrices.self_s": "s",
    "kernels.build_matrices.bytes_computed": "B",
    "linalg.guarded_solve.calls": "count",
    "linalg.guarded_solve.self_s": "s",
    "linalg.guarded_solve.max_dim": "count",
    "linalg.guarded_solve.flops_computed": "flop",
    "cross_impact.analyze_cross_impact.calls": "count",
    "cross_impact.analyze_cross_impact.self_s": "s",
    "equilibrium.principal_fundamentals.calls": "count",
    "equilibrium.principal_fundamentals.self_s": "s",
    "equilibrium.fundamental_solutions.calls": "count",
    "equilibrium.fundamental_solutions.self_s": "s",
    "equilibrium.closed_form_equilibrium.self_s": "s",
    "equilibrium.distinct_share": "fraction",
    "hetero.assemble_equilibrium_system.self_s": "s",
    "hetero.assemble_equilibrium_system.dim": "count",
    "hetero.assemble_equilibrium_system.bytes_computed": "B",
    "hetero.solve_hetero_nash.calls": "count",
    "hetero.solve_hetero_nash.self_s": "s",
    "hetero.payoff_matrix.self_s": "s",
    "hetero.payoff_matrix.cells": "count",
    "hetero.payoff_matrix.uniform_solves": "count",
    "costs.expected_cost.calls": "count",
    "costs.expected_cost.self_s": "s",
    "costs.builds_per_eval": "ratio",
    "costs.cost_report.self_s": "s",
    "costs.stationarity_residual.self_s": "s",
    "stability.probes": "count",
    "stability.bisect_probes": "count",
    "stability.guard_probes": "count",
    "stability.scan_probes": "count",
    "stability.probe_p50_s": "s",
    "stability.critical_theta.self_s": "s",
    "simulate.simulate_price.calls": "count",
    "simulate.simulate_price.self_s": "s",
    "simulate.impact_drift.calls": "count",
    "simulate.impact_drift.self_s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}
# metrics that must be positive on a workload: the layers it exercises
POSITIVE = {
    "theta_desk": (
        "kernels.build_matrices.calls",
        "linalg.guarded_solve.calls",
        "cross_impact.analyze_cross_impact.calls",
        "equilibrium.principal_fundamentals.calls",
        "equilibrium.fundamental_solutions.calls",
        "equilibrium.distinct_share",
        "stability.probes",
        "stability.bisect_probes",
        "stability.guard_probes",
        "stability.probe_p50_s",
        "stability.critical_theta.self_s",
        "cli.run_experiment.self_s",
        "cli.bytes_written",
    ),
    "venue_hetero": (
        "kernels.build_matrices.calls",
        "linalg.guarded_solve.calls",
        "cross_impact.analyze_cross_impact.calls",
        "hetero.assemble_equilibrium_system.dim",
        "hetero.solve_hetero_nash.calls",
        "hetero.payoff_matrix.cells",
        "hetero.payoff_matrix.uniform_solves",
        "costs.expected_cost.calls",
        "costs.builds_per_eval",
        "cli.run_experiment.self_s",
        "cli.bytes_written",
    ),
    "scenario_risk": (
        "kernels.build_matrices.calls",
        "linalg.guarded_solve.calls",
        "cross_impact.analyze_cross_impact.calls",
        "equilibrium.principal_fundamentals.calls",
        "equilibrium.fundamental_solutions.calls",
        "equilibrium.closed_form_equilibrium.self_s",
        "equilibrium.distinct_share",
        "costs.expected_cost.calls",
        "costs.builds_per_eval",
        "costs.cost_report.self_s",
        "costs.stationarity_residual.self_s",
        "simulate.simulate_price.calls",
        "simulate.impact_drift.calls",
    ),
}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_workloads_match_benchmark_json():
    assert sorted(POSITIVE) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(POSITIVE))
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }

    results_file = next(line.split(": ", 1)[1] for line in lines if line.startswith("results: "))
    record = json.loads((ROOT / results_file).read_text())
    metrics = record["metrics"]
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        assert metrics[name]["unit"] == unit, name
    if trace:
        for name in POSITIVE[workload]:
            assert metrics[name]["value"] > 0, name
    else:
        assert metrics["error_rate"]["value"] == 0
        for name in ("setup_s", "ops_per_s", "op_p50_s", "peak_rss_mb"):
            assert metrics[name]["value"] > 0, name
    env = record["environment"]
    for key in ("nproc", "blas", "python", "numpy", "scipy", "git_commit", "mallopt"):
        assert key in env


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "scenario_risk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
