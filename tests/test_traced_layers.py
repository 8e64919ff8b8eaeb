"""The layer functions that the benchmark's tracer wraps keep their module and name.

A traced benchmark run fails when a wrapped call's annotation cannot read the
argument it names, when spans of one op overlap as threads would make them,
or when the per-layer metrics cannot be read from the spans and from what the
op wrote; one small op of each workload, and one op of each workload at the
benchmark's own size, are traced here to catch all three.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from impact_games import (
    GameSpec,
    assemble_equilibrium_system,
    exponential_kernel,
    make_equidistant_grid,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
# spans whose annotation reads an argument or the result of the traced call
ANNOTATED = (
    "kernels.build_matrices",
    "linalg.guarded_solve",
    "hetero.assemble_equilibrium_system",
    "hetero.payoff_matrix",
    "equilibrium.principal_fundamentals",
)


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_layers():
    return load("bench_tracing", TRACING).LAYERS


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert len(layers) == 17
    for _, module_name, function in layers:
        assert callable(getattr(importlib.import_module(module_name), function))


def test_assembled_system_has_the_traced_matrix():
    spec = GameSpec(
        grid=make_equidistant_grid(4, 1.0),
        kernel=exponential_kernel(),
        cross_impact=np.eye(1),
        inventories=np.array([[1.0, -0.5]]),
        theta=[0.3, 0.6],
    )
    matrix = assemble_equilibrium_system(spec).matrix
    # two agents, five trading times and one multiplier each
    assert matrix.shape == (12, 12)


@pytest.mark.parametrize("name", ["theta_desk", "venue_hetero", "scenario_risk"])
def test_a_traced_small_op_of_each_workload_passes(name, tmp_path):
    check_traced_op(name, True, tmp_path)


def test_a_traced_full_size_theta_desk_op_passes(tmp_path):
    # the benchmark's own size (M = 50, J = 10, N = 300), whose traced run gates a change
    check_traced_op("theta_desk", False, tmp_path)


def test_a_traced_theta_desk_op_whose_certificates_decline_traces_the_dense_layers(
    tmp_path, monkeypatch
):
    # no profile is within a zero tolerance, so the final check solves every
    # system densely, disagrees and bisects again on the dense reference
    monkeypatch.setattr(importlib.import_module("impact_games.stability"), "_CROSS_CHECK_TOL", 0.0)
    metrics = check_traced_op("theta_desk", True, tmp_path)
    for layer in (
        "linalg.guarded_solve",
        "equilibrium.fundamental_solutions",
        "equilibrium.principal_fundamentals",
    ):
        assert metrics[layer + ".calls"] > 0, layer


def test_a_traced_full_size_venue_hetero_op_passes(tmp_path):
    # the benchmark's own size (M = 8, J = 6, N = 120), whose traced run gates a change
    check_traced_op("venue_hetero", False, tmp_path)


def test_a_traced_full_size_scenario_risk_op_passes(tmp_path):
    # the benchmark's own size (M = 20, J = 5, N = 200), whose traced run gates a change
    check_traced_op("scenario_risk", False, tmp_path)


def check_traced_op(name, small, tmp_path):
    """Trace one op of workload ``name``, at reduced sizes when ``small``, and check its spans.

    Returns the op's per-layer metrics.
    """
    workloads = load("bench_workloads", BENCH / "workloads.py")
    tracing = load("bench_tracing", TRACING)
    workload = workloads.WORKLOADS[name](5, small, tmp_path)
    op_input = workload.prepare(0)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op(0):
        output = workload.run(op_input)
    assert workload.check(op_input, output) == []
    spans = tracer.spans
    annotated = [span for span in spans if span[tracing.NAME] in ANNOTATED]
    assert annotated
    for span in annotated:
        assert span[tracing.ATTR] is not None, span[tracing.NAME]
    # nested spans of one thread: the self times add up to the op; spans
    # that overlap, as threads would make them, add up to more
    root = spans[0]
    op_s = root[tracing.END] - root[tracing.START]
    assert abs(sum(tracing.self_times(spans).values()) - op_s) <= 1e-6 * op_s
    # the per-layer metrics of a traced run: from the spans, from the op's
    # output, and their median over ops
    metrics, probe_s = tracing.op_metrics(spans)
    assert metrics["trace.op_s"] == op_s
    assert abs(metrics["trace.self_sum_s"] - op_s) <= 1e-6 * op_s
    counts = workload.output_metrics(op_input, output)
    assert set(counts) <= set(tracing.OUTPUT_COUNTS)
    if name == "theta_desk":
        assert counts["stability.probes"] == metrics["stability.is_unstable_at.calls"]
        assert counts["stability.probes"] == len(probe_s) > 0
        assert sum(counts[f"stability.{kind}_probes"] for kind in ("bisect", "guard", "scan")) == (
            counts["stability.probes"]
        )
        # the builds of the critical fee's final check are traced
        assert metrics["kernels.build_matrices.calls"] > 0
    aggregated = tracing.aggregate([metrics], probe_s)
    listed = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    computed = set(aggregated) | set(tracing.OUTPUT_COUNTS) | {"trace.overhead_s"}
    for entry in listed:
        assert entry["name"] in computed, entry["name"]
        assert tracing.unit_of(entry["name"]) == entry["unit"], entry["name"]
    return metrics
